//! The per-loop cost model: [`DepGraph`] + [`CostGraph`] + [`Partition`].
//!
//! A [`Partition`] is a choice of pre-fork region — the set of loop-body
//! instructions executed sequentially before `SPT_FORK` (§1, Fig. 2). Legal
//! partitions are intra-iteration-dependence-closed node sets (§5).
//! [`LoopCostModel`] evaluates the misspeculation cost and the pre-fork size
//! of any partition; the optimal-partition search (crate `spt-partition`)
//! drives it.

use crate::cost_graph::{CostEvaluator, CostGraph};
use crate::dep_graph::DepGraph;

/// A pre-fork region over the nodes of a [`DepGraph`].
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    in_prefork: Vec<bool>,
    size: u64,
}

impl Partition {
    /// The empty partition (everything speculative).
    pub fn empty(graph: &DepGraph) -> Self {
        Partition {
            in_prefork: vec![false; graph.nodes.len()],
            size: 0,
        }
    }

    /// Builds the partition containing the dependence closure of `seeds`.
    /// Returns `None` when the closure contains a pinned node (an illegal
    /// move, §5's legality constraint).
    pub fn from_seeds(graph: &DepGraph, seeds: &[usize]) -> Option<Self> {
        let closure = graph.closure(seeds);
        if !graph.closure_is_legal(&closure) {
            return None;
        }
        let mut in_prefork = vec![false; graph.nodes.len()];
        for &n in &closure {
            in_prefork[n] = true;
        }
        let size = graph.set_size(&closure);
        Some(Partition { in_prefork, size })
    }

    /// Whether node `n` is in the pre-fork region.
    pub fn contains(&self, n: usize) -> bool {
        self.in_prefork[n]
    }

    /// Static size (Σ node cost) of the pre-fork region.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The node indices in the pre-fork region, ascending.
    pub fn nodes(&self) -> Vec<usize> {
        self.in_prefork
            .iter()
            .enumerate()
            .filter_map(|(n, &b)| b.then_some(n))
            .collect()
    }

    /// Number of nodes in the pre-fork region.
    pub fn len(&self) -> usize {
        self.in_prefork.iter().filter(|&&b| b).count()
    }

    /// Returns `true` if the pre-fork region is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Raw membership mask (one entry per dep-graph node).
    pub fn mask(&self) -> &[bool] {
        &self.in_prefork
    }
}

/// The assembled cost model of one loop.
#[derive(Clone, Debug)]
pub struct LoopCostModel {
    /// The annotated dependence graph.
    pub graph: DepGraph,
    cost_graph: CostGraph,
    vcs: Vec<usize>,
}

impl LoopCostModel {
    /// Assembles the cost graph for `graph` (§4.2.2): pseudo nodes for every
    /// violation candidate seeded with its violation probability, cross
    /// edges into the speculative iteration, intra edges for propagation.
    pub fn new(graph: DepGraph) -> Self {
        let vcs = graph.violation_candidates();
        let mut cg = CostGraph {
            num_nodes: graph.nodes.len(),
            node_cost: graph.cost.iter().map(|&c| c as f64).collect(),
            vcs: Vec::new(),
            vc_edges: Vec::new(),
            edges: Vec::new(),
        };
        let mut vc_pseudo = std::collections::HashMap::new();
        for &vc in &vcs {
            let idx = cg.add_vc(Some(vc), graph.exec_prob[vc].clamp(0.0, 1.0));
            vc_pseudo.insert(vc, idx);
        }
        for e in &graph.cross_edges {
            let pseudo = vc_pseudo[&e.src];
            cg.add_vc_edge(pseudo, e.dst, e.prob.clamp(0.0, 1.0));
        }
        for e in &graph.intra_edges {
            if e.src < e.dst {
                cg.add_edge(e.src, e.dst, e.prob.clamp(0.0, 1.0));
            }
        }
        LoopCostModel {
            graph,
            cost_graph: cg,
            vcs,
        }
    }

    /// The violation candidates, as dep-graph node indices in topological
    /// order.
    pub fn vcs(&self) -> &[usize] {
        &self.vcs
    }

    /// Misspeculation cost of a partition: the expected amount of computation
    /// re-executed per speculative iteration (§4.2.4).
    pub fn misspeculation_cost(&self, partition: &Partition) -> f64 {
        self.cost_graph.misspeculation_cost(partition.mask())
    }

    /// Per-node re-execution probabilities for a partition (§4.2.3);
    /// exposed for SVP target selection and diagnostics.
    pub fn reexec_probs(&self, partition: &Partition) -> Vec<f64> {
        self.cost_graph.reexec_probs(partition.mask())
    }

    /// Builds the incremental evaluator for this loop's cost graph. Its
    /// candidate indices are positions in [`LoopCostModel::vcs`]; the
    /// optimal-partition search disarms a candidate when its statement
    /// enters the pre-fork region.
    pub fn evaluator(&self) -> CostEvaluator {
        self.cost_graph.evaluator()
    }

    /// Static loop body size (Σ node latency).
    pub fn body_size(&self) -> u64 {
        self.graph.body_size
    }

    /// The underlying cost graph (read-only).
    pub fn cost_graph(&self) -> &CostGraph {
        &self.cost_graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep_graph::{DepGraphConfig, Profiles};
    use spt_ir::loops::LoopId;

    fn model_for(src: &str, fname: &str) -> LoopCostModel {
        let module = spt_frontend::compile(src).unwrap();
        let func = module.func_by_name(fname).unwrap();
        let graph = DepGraph::build(
            &module,
            func,
            LoopId::new(0),
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        LoopCostModel::new(graph)
    }

    const INDUCTION: &str = "
        fn f(n: int) -> int {
            let i = 0;
            let s = 0;
            while (i < n) {
                s = s + i * 3;
                i = i + 1;
            }
            return s;
        }
    ";

    #[test]
    fn moving_vcs_reduces_cost_to_zero() {
        let m = model_for(INDUCTION, "f");
        let empty = Partition::empty(&m.graph);
        let baseline = m.misspeculation_cost(&empty);
        assert!(baseline > 0.0, "loop-carried deps must cost something");

        let all_vcs = Partition::from_seeds(&m.graph, m.vcs()).expect("legal");
        let zero = m.misspeculation_cost(&all_vcs);
        assert!(
            zero < 1e-9,
            "all candidates pre-forked => no misspeculation, got {zero}"
        );
        assert!(all_vcs.size() > 0);
        assert!(all_vcs.size() < m.body_size());
    }

    #[test]
    fn partial_partitions_are_intermediate() {
        let m = model_for(INDUCTION, "f");
        let empty = Partition::empty(&m.graph);
        let baseline = m.misspeculation_cost(&empty);
        for &vc in m.vcs() {
            let p = Partition::from_seeds(&m.graph, &[vc]).expect("legal");
            let c = m.misspeculation_cost(&p);
            assert!(c <= baseline + 1e-9);
        }
    }

    #[test]
    fn partition_closure_is_dependence_closed() {
        let m = model_for(INDUCTION, "f");
        let p = Partition::from_seeds(&m.graph, m.vcs()).unwrap();
        // Every intra edge into the pre-fork region originates inside it.
        for e in &m.graph.intra_edges {
            if p.contains(e.dst) {
                assert!(
                    p.contains(e.src),
                    "intra edge {} -> {} violates closure",
                    e.src,
                    e.dst
                );
            }
        }
    }

    #[test]
    fn pinned_calls_make_partitions_illegal() {
        let src = "
            global t: int;
            fn bump(v: int) -> int { t = t + v; return t; }
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    s = s + bump(i);
                }
                return s;
            }
        ";
        let m = model_for(src, "f");
        // Seeding with the call node must fail.
        let module = spt_frontend::compile(src).unwrap();
        let func = module.func_by_name("f").unwrap();
        let f = module.func(func);
        let call_node = m
            .graph
            .nodes
            .iter()
            .position(|&i| matches!(f.inst(i).kind, spt_ir::InstKind::Call { .. }))
            .unwrap();
        assert!(Partition::from_seeds(&m.graph, &[call_node]).is_none());
    }

    #[test]
    fn partition_accessors() {
        let m = model_for(INDUCTION, "f");
        let empty = Partition::empty(&m.graph);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.size(), 0);
        let p = Partition::from_seeds(&m.graph, m.vcs()).unwrap();
        assert!(!p.is_empty());
        assert_eq!(p.nodes().len(), p.len());
        for n in p.nodes() {
            assert!(p.contains(n));
        }
    }

    #[test]
    fn fig2_style_loop_prefers_induction_in_prefork() {
        // The paper's Figure 2: cost0 accumulation over error[i][j] with the
        // induction increment at the end of the body. Moving `i = i + 1`
        // into the pre-fork region removes most re-executions.
        let src = "
            global error[4096]: float;
            global p[64]: float;
            global cost: float;
            fn f(n: int) -> int {
                let i = 0;
                while (i < n) {
                    let cost0 = 0.0;
                    for (let j = 0; j < i; j = j + 1) {
                        cost0 = cost0 + fabs(error[i * 64 + j] - p[j]);
                    }
                    cost = cost + cost0;
                    i = i + 1;
                }
                return i;
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let func = module.func_by_name("f").unwrap();
        // Outer loop = the one whose header dominates: find loop with depth 1.
        let f = module.func(func);
        let cfg = spt_ir::Cfg::compute(f);
        let dom = spt_ir::DomTree::compute(&cfg);
        let forest = spt_ir::LoopForest::compute(f, &cfg, &dom);
        let outer = forest
            .ids()
            .find(|&l| forest.get(l).depth == 1)
            .expect("outer loop");
        let graph = DepGraph::build(
            &module,
            func,
            outer,
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        let m = LoopCostModel::new(graph);
        let baseline = m.misspeculation_cost(&Partition::empty(&m.graph));
        assert!(baseline > 0.0);

        // Find the best single-VC move: it should cut cost substantially.
        let mut best = baseline;
        for &vc in m.vcs() {
            if let Some(p) = Partition::from_seeds(&m.graph, &[vc]) {
                best = best.min(m.misspeculation_cost(&p));
            }
        }
        assert!(
            best < baseline * 0.8,
            "one good move cuts cost: baseline={baseline}, best={best}"
        );
    }
}
