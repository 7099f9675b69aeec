//! The cost graph and re-execution probability propagation (§4.2).
//!
//! The graph has two node classes:
//!
//! * **pseudo nodes**, one per violation candidate (the source of a
//!   cross-iteration true dependence, §4.2.1), carrying the candidate's
//!   *violation probability* — how often, per iteration, the main thread
//!   executes the candidate and modifies its result;
//! * **operation nodes** — the instructions of the speculative iteration
//!   that re-execute when a dependence they consume was violated.
//!
//! Edges carry the conditional probability `r` that a re-execution of the
//! source causes the target to be re-executed (§4.2.2). Re-execution
//! probabilities propagate in topological order with the independence
//! approximation `x := 1 - (1-x)(1 - r·v(p))` (§4.2.3), and the
//! misspeculation cost of a partition is `Σ v(c)·Cost(c)` over operation
//! nodes (§4.2.4).
//!
//! [`CostGraph::reexec_probs`] and [`CostGraph::misspeculation_cost`] price
//! one partition from scratch and are the oracles. The partition search
//! prices thousands of partitions that differ by one candidate, so it uses
//! [`CostEvaluator`] instead: a stack of per-node probability levels keyed
//! by which candidates are disarmed, where disarming a candidate recomputes
//! only the nodes that candidate can reach. Every level is bit-identical to
//! the one-shot sweep.

/// A violation candidate's pseudo node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VcInfo {
    /// The operation node that *is* the candidate statement (used to decide
    /// whether the candidate sits in the pre-fork region). `None` for
    /// candidates without a body node (e.g. synthetic test graphs).
    pub node: Option<usize>,
    /// Violation probability: how often per iteration the main thread
    /// executes the candidate and modifies its result.
    pub violation_prob: f64,
}

/// The cost graph for one loop. Operation nodes are indexed `0..num_nodes`
/// and must be topologically ordered with respect to `edges`
/// (`src < dst` for every intra edge).
#[derive(Clone, Debug, Default)]
pub struct CostGraph {
    /// Number of operation nodes.
    pub num_nodes: usize,
    /// `Cost(c)` per operation node (§4.2.4; we use static latencies).
    pub node_cost: Vec<f64>,
    /// The violation-candidate pseudo nodes.
    pub vcs: Vec<VcInfo>,
    /// Edges from pseudo node `vc` to operation node `dst` with probability
    /// `r`: the cross-iteration dependence edges seeding the graph.
    pub vc_edges: Vec<(usize, usize, f64)>,
    /// Intra-iteration propagation edges `(src, dst, r)` with `src < dst`.
    pub edges: Vec<(usize, usize, f64)>,
}

impl CostGraph {
    /// Creates an empty cost graph with `num_nodes` operation nodes of unit
    /// cost.
    pub fn with_unit_costs(num_nodes: usize) -> Self {
        CostGraph {
            num_nodes,
            node_cost: vec![1.0; num_nodes],
            vcs: Vec::new(),
            vc_edges: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a violation candidate, returning its pseudo-node index.
    pub fn add_vc(&mut self, node: Option<usize>, violation_prob: f64) -> usize {
        self.vcs.push(VcInfo {
            node,
            violation_prob,
        });
        self.vcs.len() - 1
    }

    /// Adds a seeding edge from pseudo node `vc` to operation node `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` or `dst` is out of range.
    pub fn add_vc_edge(&mut self, vc: usize, dst: usize, r: f64) {
        assert!(vc < self.vcs.len() && dst < self.num_nodes);
        self.vc_edges.push((vc, dst, r));
    }

    /// Adds an intra-iteration propagation edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge is not forward (`src < dst`) or out of range.
    pub fn add_edge(&mut self, src: usize, dst: usize, r: f64) {
        assert!(src < dst && dst < self.num_nodes, "edges must be forward");
        self.edges.push((src, dst, r));
    }

    /// Computes the re-execution probability of every operation node for the
    /// given partition (§4.2.3).
    ///
    /// `node_in_prefork[i]` marks operation nodes moved into the pre-fork
    /// region. A violation candidate in the pre-fork region is *disarmed*:
    /// its result is computed by the main thread before the speculative
    /// thread starts, so it can no longer be violated (§4.2.3 step 3).
    /// Ordinary consumer nodes are **not** exempted by pre-fork membership —
    /// the speculative thread executes the whole next iteration, pre-fork
    /// part included, so a consumer of a violated value re-executes wherever
    /// it sits.
    ///
    /// # Panics
    ///
    /// Panics if `node_in_prefork.len() != num_nodes`.
    pub fn reexec_probs(&self, node_in_prefork: &[bool]) -> Vec<f64> {
        assert_eq!(node_in_prefork.len(), self.num_nodes);
        // Step 3: initialize pseudo-node probabilities.
        let vc_prob: Vec<f64> = self
            .vcs
            .iter()
            .map(|vc| match vc.node {
                Some(n) if node_in_prefork[n] => 0.0,
                _ => vc.violation_prob,
            })
            .collect();

        // Step 4: propagate in topological order. Operation nodes are
        // already topologically sorted (forward edges only), so a single
        // sweep accumulating "survival" products suffices.
        let mut survival = vec![1.0f64; self.num_nodes]; // Π (1 - r·v(p))
        for &(vc, dst, r) in &self.vc_edges {
            survival[dst] *= 1.0 - r * vc_prob[vc];
        }
        let mut v = vec![0.0f64; self.num_nodes];
        // Bucket edges by source for the sweep.
        let mut out: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.num_nodes];
        for &(src, dst, r) in &self.edges {
            out[src].push((dst, r));
        }
        for n in 0..self.num_nodes {
            v[n] = 1.0 - survival[n];
            if v[n] > 0.0 {
                for &(dst, r) in &out[n] {
                    survival[dst] *= 1.0 - r * v[n];
                }
            }
        }
        v
    }

    /// The misspeculation cost of a partition: `Σ v(c)·Cost(c)` over
    /// operation nodes (§4.2.4). Pseudo nodes are excluded by construction.
    pub fn misspeculation_cost(&self, node_in_prefork: &[bool]) -> f64 {
        let v = self.reexec_probs(node_in_prefork);
        v.iter().zip(&self.node_cost).map(|(p, c)| p * c).sum()
    }

    /// Convenience: the cost of the empty partition (nothing pre-forked).
    pub fn baseline_cost(&self) -> f64 {
        self.misspeculation_cost(&vec![false; self.num_nodes])
    }

    /// Builds the incremental evaluator for this graph. Its base level has
    /// every violation candidate armed (the empty partition); see
    /// [`CostEvaluator`] for how levels are pushed and popped.
    pub fn evaluator(&self) -> CostEvaluator {
        let n = self.num_nodes;
        let words = n.div_ceil(64);
        // Per-node inputs in the order the push sweep of `reexec_probs`
        // multiplies their survival factors: cross edges in `vc_edges` order
        // (candidate `k` as input `n + k`), then intra in-edges by source
        // ascending and insertion order.
        let mut intra: Vec<usize> = (0..self.edges.len()).collect();
        intra.sort_by_key(|&i| self.edges[i].0); // stable: keeps insertion order
        let pairs = self
            .vc_edges
            .iter()
            .map(|&(vc, dst, r)| (dst, (n + vc, r)))
            .chain(intra.iter().map(|&i| {
                let (src, dst, r) = self.edges[i];
                (dst, (src, r))
            }));
        let mut input_start = vec![0usize; n + 1];
        for (dst, _) in pairs.clone() {
            input_start[dst + 1] += 1;
        }
        for i in 0..n {
            input_start[i + 1] += input_start[i];
        }
        let mut next = input_start.clone();
        let mut inputs = vec![(0usize, 0.0f64); input_start[n]];
        for (dst, input) in pairs {
            inputs[next[dst]] = input;
            next[dst] += 1;
        }
        // Per-candidate reach: the operation nodes whose re-execution
        // probability can depend on that candidate. Nodes are topologically
        // ordered, so one ascending pull sweep closes each set.
        let row = words.max(1);
        let mut vc_reach = vec![0u64; self.vcs.len() * row];
        for (k, reach) in vc_reach.chunks_mut(row).enumerate() {
            let reached =
                |reach: &[u64], i: usize| i < n && reach[i / 64] & (1u64 << (i % 64)) != 0;
            for node in 0..n {
                if inputs[input_start[node]..input_start[node + 1]]
                    .iter()
                    .any(|&(i, _)| i == n + k || reached(reach, i))
                {
                    reach[node / 64] |= 1u64 << (node % 64);
                }
            }
        }
        let width = 2 * n + self.vcs.len();
        let mut eval = CostEvaluator {
            num_nodes: n,
            num_vcs: self.vcs.len(),
            words,
            node_cost: self.node_cost.clone(),
            input_start,
            inputs,
            vc_reach,
            levels: Vec::with_capacity(width * (self.vcs.len() + 2)),
            depth: 0,
            affected: vec![0; words],
        };
        // Base level: every candidate armed, every node pulled once.
        eval.levels.resize(width, 0.0);
        for (p, vc) in eval.levels[n..n + self.vcs.len()].iter_mut().zip(&self.vcs) {
            *p = vc.violation_prob;
        }
        for node in 0..n {
            eval.affected[node / 64] |= 1u64 << (node % 64);
        }
        eval.recompute_affected();
        eval
    }
}

/// The incremental misspeculation-cost evaluator for one [`CostGraph`] (see
/// [`CostGraph::evaluator`]), keyed by violation-candidate index.
///
/// It keeps a stack of *levels*, each holding the re-execution probability
/// of every operation node for one set of *disarmed* candidates — the
/// candidates whose statements sit in the pre-fork region, so their
/// violation probability is 0 (§4.2.3 step 3). The base level disarms
/// nothing. [`CostEvaluator::disarm`] pushes a level that disarms more
/// candidates and recomputes only the nodes they can reach;
/// [`CostEvaluator::undo`] pops it.
///
/// Each recomputed node is *pulled*: its cross-edge factors in `vc_edges`
/// order (skipping disarmed candidates), then its intra in-edges by source
/// ascending and insertion order (skipping sources with `v = 0`). That is
/// the factor sequence the push sweep of [`CostGraph::reexec_probs`]
/// multiplies, minus factors that are exactly `1.0`, so every level is
/// bit-identical to the one-shot sweep over a mask that pre-forks exactly
/// the disarmed candidates' statements. Nodes outside the new candidates'
/// reach keep their parent-level value, because none of their inputs
/// changed.
///
/// The cost is a sequential sum in node order, so it cannot be patched by
/// a difference without changing bits. Each level instead keeps the running
/// sums of `v(c)·Cost(c)` over nodes `0..=i`, folded exactly as
/// `Iterator::sum` folds them, so [`CostEvaluator::cost`] is bit-identical
/// to [`CostGraph::misspeculation_cost`]. A level re-adds only from its
/// lowest recomputed node on; the running sums below it are the parent's.
///
/// The optimal-partition search holds one evaluator and prices every search
/// node without an allocation.
#[derive(Clone, Debug)]
pub struct CostEvaluator {
    num_nodes: usize,
    num_vcs: usize,
    /// Bitset words per node set (`num_nodes.div_ceil(64)`).
    words: usize,
    node_cost: Vec<f64>,
    /// Inputs of node `i`: `inputs[input_start[i]..input_start[i+1]]`, as
    /// `(source, r)` in pull order. A source below `num_nodes` is a node;
    /// `num_nodes + k` is candidate `k`.
    input_start: Vec<usize>,
    inputs: Vec<(usize, f64)>,
    /// Flattened per-candidate reach bitsets, one row of
    /// `max(words, 1)` words per candidate.
    vc_reach: Vec<u64>,
    /// The level stack, `2 * num_nodes + num_vcs` entries per level: the
    /// per-node probabilities, the candidates' violation probabilities (0
    /// once disarmed), then the running sums of the cost. Levels above
    /// `depth` are spare capacity.
    levels: Vec<f64>,
    depth: usize,
    /// Scratch: the nodes the level being pushed must recompute.
    affected: Vec<u64>,
}

impl CostEvaluator {
    fn width(&self) -> usize {
        2 * self.num_nodes + self.num_vcs
    }

    /// Pushes a level that disarms `vcs` on top of the current level, and
    /// recomputes the nodes reachable from the candidates it newly disarms.
    /// Disarming an already-disarmed candidate changes nothing, and the
    /// matching [`CostEvaluator::undo`] leaves it disarmed.
    ///
    /// # Panics
    ///
    /// Panics if a candidate index is out of range.
    pub fn disarm(&mut self, vcs: &[usize]) {
        let (n, width, row) = (self.num_nodes, self.width(), self.words.max(1));
        self.depth += 1;
        let top = self.depth * width;
        if self.levels.len() < top + width {
            self.levels.resize(top + width, 0.0);
        }
        self.levels.copy_within(top - width..top, top);
        self.affected.fill(0);
        let probs = &mut self.levels[top + n..top + n + self.num_vcs];
        for &k in vcs {
            if probs[k] > 0.0 {
                probs[k] = 0.0;
                let reach = &self.vc_reach[k * row..k * row + self.words];
                for (a, r) in self.affected.iter_mut().zip(reach) {
                    *a |= r;
                }
            }
        }
        self.recompute_affected();
    }

    /// Pops the top level.
    ///
    /// # Panics
    ///
    /// Panics when only the base level is left.
    pub fn undo(&mut self) {
        assert!(self.depth > 0, "undo without a matching disarm");
        self.depth -= 1;
    }

    /// The misspeculation cost of the top level: `Σ v(c)·Cost(c)`, summed
    /// exactly as [`CostGraph::misspeculation_cost`] sums it.
    pub fn cost(&self) -> f64 {
        match self.num_nodes {
            0 => std::iter::empty::<f64>().sum(),
            _ => self.levels[(self.depth + 1) * self.width() - 1],
        }
    }

    /// The top level's per-node re-execution probabilities.
    pub fn reexec_probs(&self) -> &[f64] {
        let top = self.depth * self.width();
        &self.levels[top..top + self.num_nodes]
    }

    /// Pull-recomputes the top level's `affected` nodes, ascending, then its
    /// running cost sums from the lowest of them on.
    fn recompute_affected(&mut self) {
        let (n, width) = (self.num_nodes, self.width());
        let level = &mut self.levels[self.depth * width..(self.depth + 1) * width];
        let (values, sums) = level.split_at_mut(n + self.num_vcs);
        let mut lowest = n;
        for (w, &word) in self.affected.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                lowest = lowest.min(node);
                let mut survival = 1.0f64;
                for &(src, r) in &self.inputs[self.input_start[node]..self.input_start[node + 1]] {
                    let x = values[src];
                    if x > 0.0 {
                        survival *= 1.0 - r * x;
                    }
                }
                values[node] = 1.0 - survival;
            }
        }
        // `Iterator::sum` folds from its own identity, so start from it.
        let mut acc = match lowest {
            0 => std::iter::empty::<f64>().sum(),
            _ if lowest < n => sums[lowest - 1],
            _ => return,
        };
        for (i, sum) in sums.iter_mut().enumerate().skip(lowest) {
            acc += values[i] * self.node_cost[i];
            *sum = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the §4.2.5 worked example (Figures 5–6).
    ///
    /// Nodes: A=0, B=1, C=2, D=3, E=4, F=5, all cost 1.
    /// Pseudo nodes D', E', F' with violation probability 1 (no branches).
    /// Cross edges: D'→A (0.2), E'→B (0.1), F'→C (0.2).
    /// Intra edges: B→C (0.5), C→E (1.0).
    fn paper_example() -> CostGraph {
        let mut g = CostGraph::with_unit_costs(6);
        let d = g.add_vc(Some(3), 1.0);
        let e = g.add_vc(Some(4), 1.0);
        let f = g.add_vc(Some(5), 1.0);
        g.add_vc_edge(d, 0, 0.2);
        g.add_vc_edge(e, 1, 0.1);
        g.add_vc_edge(f, 2, 0.2);
        g.add_edge(1, 2, 0.5);
        g.add_edge(2, 4, 1.0);
        g
    }

    #[test]
    fn paper_worked_example_cost_is_0_58() {
        let g = paper_example();
        // Partition: only D (node 3) in the pre-fork region.
        let mut prefork = vec![false; 6];
        prefork[3] = true;
        let v = g.reexec_probs(&prefork);
        assert!((v[0] - 0.0).abs() < 1e-12, "v(A) = {}", v[0]);
        assert!((v[1] - 0.1).abs() < 1e-12, "v(B) = {}", v[1]);
        assert!((v[2] - 0.24).abs() < 1e-12, "v(C) = {}", v[2]);
        assert!((v[3] - 0.0).abs() < 1e-12, "v(D) = {}", v[3]);
        assert!((v[4] - 0.24).abs() < 1e-12, "v(E) = {}", v[4]);
        assert!((v[5] - 0.0).abs() < 1e-12, "v(F) = {}", v[5]);
        let cost = g.misspeculation_cost(&prefork);
        assert!((cost - 0.58).abs() < 1e-12, "cost = {cost}");
    }

    #[test]
    fn empty_partition_costs_more() {
        let g = paper_example();
        let baseline = g.baseline_cost();
        let mut prefork = vec![false; 6];
        prefork[3] = true;
        let with_d = g.misspeculation_cost(&prefork);
        // With D speculated too, A also re-executes: baseline = 0.58 + v(A)
        // where v(A) = 0.2.
        assert!((baseline - 0.78).abs() < 1e-12, "baseline = {baseline}");
        assert!(with_d < baseline);
    }

    #[test]
    fn cost_is_monotone_in_prefork_set() {
        let g = paper_example();
        // Growing the pre-fork region never increases the cost (§5: "When
        // additional statements are moved into the pre-fork region, the
        // misspeculation cost will be reduced").
        let mut prev = g.baseline_cost();
        let mut prefork = vec![false; 6];
        for vc_node in [3usize, 4, 5] {
            prefork[vc_node] = true;
            let cost = g.misspeculation_cost(&prefork);
            assert!(cost <= prev + 1e-12, "cost {cost} > prev {prev}");
            prev = cost;
        }
        // All violation candidates pre-forked: nothing to misspeculate.
        assert!(prev.abs() < 1e-12);
    }

    #[test]
    fn violation_probability_scales_seeds() {
        let mut g = CostGraph::with_unit_costs(2);
        let vc = g.add_vc(Some(0), 0.5);
        g.add_vc_edge(vc, 1, 0.4);
        let v = g.reexec_probs(&[false, false]);
        assert!((v[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn multiple_predecessors_combine_independently() {
        // Node 2 fed by two VCs with r=0.5 each, vp=1: v = 1 - 0.5*0.5.
        let mut g = CostGraph::with_unit_costs(3);
        let a = g.add_vc(Some(0), 1.0);
        let b = g.add_vc(Some(1), 1.0);
        g.add_vc_edge(a, 2, 0.5);
        g.add_vc_edge(b, 2, 0.5);
        let v = g.reexec_probs(&[false; 3]);
        assert!((v[2] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn moving_consumers_does_not_help() {
        // VC -> n1 -> n2; placing the *consumer* n1 in the pre-fork region
        // changes nothing — the speculative thread still executes it with a
        // violated input. Only moving the candidate itself (node 0) disarms
        // the chain.
        let mut g = CostGraph::with_unit_costs(3);
        let vc = g.add_vc(Some(0), 1.0);
        g.add_vc_edge(vc, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let v = g.reexec_probs(&[false, true, false]);
        assert_eq!(v[1], 1.0);
        assert_eq!(v[2], 1.0);
        let v2 = g.reexec_probs(&[true, false, false]);
        assert_eq!(v2[1], 0.0);
        assert_eq!(v2[2], 0.0);
    }

    #[test]
    fn node_costs_weight_the_sum() {
        let mut g = CostGraph::with_unit_costs(2);
        g.node_cost[1] = 20.0;
        let vc = g.add_vc(Some(0), 1.0);
        g.add_vc_edge(vc, 1, 0.5);
        let cost = g.misspeculation_cost(&[false, false]);
        assert!((cost - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn rejects_backward_edges() {
        let mut g = CostGraph::with_unit_costs(2);
        g.add_edge(1, 1, 0.5);
    }

    #[test]
    fn evaluator_matches_one_shot_sweep() {
        let g = paper_example();
        let mut eval = g.evaluator();
        let check = |eval: &CostEvaluator, prefork: &[usize]| {
            let mut mask = vec![false; 6];
            for &n in prefork {
                mask[n] = true;
            }
            let fresh = g.reexec_probs(&mask);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fresh), bits(eval.reexec_probs()), "{prefork:?}");
            assert_eq!(
                g.misspeculation_cost(&mask).to_bits(),
                eval.cost().to_bits(),
                "{prefork:?}"
            );
        };
        // Candidates D, E, F sit on nodes 3, 4, 5.
        check(&eval, &[]);
        eval.disarm(&[0]);
        check(&eval, &[3]);
        assert!((eval.cost() - 0.58).abs() < 1e-12, "the paper's 0.58");
        eval.disarm(&[1, 2]);
        check(&eval, &[3, 4, 5]);
        // Re-disarming is a no-op level whose undo must not re-arm D.
        eval.disarm(&[0]);
        check(&eval, &[3, 4, 5]);
        eval.undo();
        check(&eval, &[3, 4, 5]);
        eval.undo();
        check(&eval, &[3]);
        eval.undo();
        check(&eval, &[]);
        eval.disarm(&[2, 1]);
        check(&eval, &[4, 5]);
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        // Saturating graph: many strong predecessors.
        let mut g = CostGraph::with_unit_costs(5);
        for n in 0..4 {
            let vc = g.add_vc(Some(n), 1.0);
            g.add_vc_edge(vc, 4, 0.9);
        }
        let v = g.reexec_probs(&[false; 5]);
        assert!(v[4] <= 1.0 && v[4] > 0.99);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = CostGraph> {
        // 2..12 nodes, random VCs and forward edges with probs in [0,1].
        (2usize..12).prop_flat_map(|n| {
            let vcs = proptest::collection::vec((0..n, 0.0f64..=1.0), 1..4);
            let edges = proptest::collection::vec(
                ((0..n), (0..n), 0.0f64..=1.0).prop_filter("forward", |(a, b, _)| a < b),
                0..16,
            );
            let vc_edges = proptest::collection::vec((0usize..4, 0..n, 0.0f64..=1.0), 0..8);
            (Just(n), vcs, edges, vc_edges).prop_map(|(n, vcs, edges, vc_edges)| {
                let mut g = CostGraph::with_unit_costs(n);
                for (node, vp) in vcs {
                    g.add_vc(Some(node), vp);
                }
                for (a, b, r) in edges {
                    g.add_edge(a, b, r);
                }
                for (vc, dst, r) in vc_edges {
                    if vc < g.vcs.len() {
                        g.add_vc_edge(vc, dst, r);
                    }
                }
                g
            })
        })
    }

    proptest! {
        /// Re-execution probabilities are valid probabilities.
        #[test]
        fn probs_in_unit_interval(g in arb_graph()) {
            let v = g.reexec_probs(&vec![false; g.num_nodes]);
            for p in v {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        /// Growing the pre-fork region never increases the cost — the
        /// monotonicity property the branch-and-bound pruning relies on (§5).
        #[test]
        fn cost_monotone_under_prefork_growth(g in arb_graph(), extra in 0usize..12) {
            let mut prefork = vec![false; g.num_nodes];
            let c0 = g.misspeculation_cost(&prefork);
            // Move the VC statements into the pre-fork region one at a time.
            let mut nodes: Vec<usize> = g.vcs.iter().filter_map(|vc| vc.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let mut prev = c0;
            for nd in nodes {
                prefork[nd] = true;
                let c = g.misspeculation_cost(&prefork);
                prop_assert!(c <= prev + 1e-9, "cost grew: {c} > {prev}");
                prev = c;
            }
            // Also marking an arbitrary extra node cannot increase cost.
            let extra = extra % g.num_nodes;
            prefork[extra] = true;
            let c = g.misspeculation_cost(&prefork);
            prop_assert!(c <= prev + 1e-9);
        }

        /// The incremental evaluator reproduces the one-shot sweep
        /// bit-for-bit on random graphs over random disarm/undo sequences,
        /// re-disarming already-disarmed candidates included. Disarming a
        /// node's candidates is pre-forking that node.
        #[test]
        fn evaluator_is_bit_exact(g in arb_graph(), ops in proptest::collection::vec((0usize..64, 0usize..4), 0..32)) {
            let mut eval = g.evaluator();
            let mut masks = vec![vec![false; g.num_nodes]];
            for &(pick, kind) in &ops {
                if kind == 0 && masks.len() > 1 {
                    eval.undo();
                    masks.pop();
                } else {
                    // Mostly candidate statements; sometimes an arbitrary
                    // node (possibly one already pre-forked).
                    let node = if kind == 3 {
                        pick % g.num_nodes
                    } else {
                        g.vcs[pick % g.vcs.len()].node.unwrap()
                    };
                    let vcs: Vec<usize> =
                        (0..g.vcs.len()).filter(|&k| g.vcs[k].node == Some(node)).collect();
                    eval.disarm(&vcs);
                    let mut mask = masks.last().unwrap().clone();
                    mask[node] = true;
                    masks.push(mask);
                }
                let mask = masks.last().unwrap();
                let fresh: Vec<u64> = g.reexec_probs(mask).iter().map(|x| x.to_bits()).collect();
                let inc: Vec<u64> = eval.reexec_probs().iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(fresh, inc);
                prop_assert_eq!(g.misspeculation_cost(mask).to_bits(), eval.cost().to_bits());
            }
        }

        /// Cost is bounded by the total cost of all nodes.
        #[test]
        fn cost_bounded_by_total(g in arb_graph()) {
            let total: f64 = g.node_cost.iter().sum();
            let c = g.baseline_cost();
            prop_assert!(c <= total + 1e-9);
            prop_assert!(c >= 0.0);
        }
    }
}
