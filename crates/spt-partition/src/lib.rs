//! Optimal SPT loop partitioning (§5 of the paper).
//!
//! Formulation: *find a legal loop partition with minimum misspeculation
//! cost, subject to the pre-fork region size being at most a threshold.* A
//! partition is legal when it preserves all forward intra-iteration
//! dependences — equivalently, when the pre-fork region is a
//! dependence-closure of the violation candidates it contains.
//!
//! The search space is restricted to sets of violation candidates (the only
//! statements whose placement changes the cost), organized by the
//! [`VcDepGraph`]: candidate `N` is a successor of candidate `S` when `N`
//! depends intra-iteration on `S`, so `S` must enter the pre-fork region
//! before `N` can (§5.1). A branch-and-bound enumeration visits candidate
//! sets in topological order — at each step only candidates with a larger
//! topological number may be added, avoiding duplicate visits (§5.2) — with
//! the paper's two pruning heuristics (§5.2.1):
//!
//! 1. **size pruning** — pre-fork size is monotone in the candidate set, so
//!    once a set exceeds the size threshold its whole subtree is dead;
//! 2. **bound pruning** — misspeculation cost is monotone *decreasing* in
//!    the candidate set, so the cost with *all* still-addable candidates
//!    included lower-bounds every descendant; if that bound is no better
//!    than the best found, the subtree is dead.
//!
//! Loops with more than [`SearchConfig::max_vcs`] candidates are skipped,
//! exactly as the paper skips loops with more than 30.

use spt_cost::{LoopCostModel, Partition};

mod speculative;

/// The violation-candidate dependence graph (§5.1).
#[derive(Clone, Debug)]
pub struct VcDepGraph {
    /// Violation candidates as dep-graph node indices, ascending (this is a
    /// topological order: intra edges only go forward in node order).
    pub vcs: Vec<usize>,
    /// `preds[k]` = positions (into `vcs`) of candidates that candidate `k`
    /// transitively depends on intra-iteration.
    pub preds: Vec<Vec<usize>>,
    /// Positions of candidates that can never be moved (their closure
    /// contains a pinned node).
    pub immovable: Vec<bool>,
    /// `closures[k]` = the intra-iteration dependence closure of candidate
    /// `k` (sorted dep-graph node indices). The closure of a candidate *set*
    /// is the union of these (closures distribute over union), which is what
    /// lets the search maintain its pre-fork mask incrementally.
    pub closures: Vec<Vec<usize>>,
}

impl VcDepGraph {
    /// Builds the VC-dep graph from a loop cost model. Each candidate's
    /// closure is computed once over shared scratch buffers and stored.
    pub fn build(model: &LoopCostModel) -> Self {
        let vcs: Vec<usize> = model.vcs().to_vec();
        let num_nodes = model.graph.nodes.len();
        // Node -> candidate-position lookup.
        let mut pos_of: Vec<Option<usize>> = vec![None; num_nodes];
        for (k, &vc) in vcs.iter().enumerate() {
            pos_of[vc] = Some(k);
        }
        let pred_adj = model.graph.closure_preds();
        let mut in_set = vec![false; num_nodes];
        let mut work = Vec::new();
        let mut preds: Vec<Vec<usize>> = Vec::with_capacity(vcs.len());
        let mut immovable = Vec::with_capacity(vcs.len());
        let mut closures = Vec::with_capacity(vcs.len());
        for &vc in &vcs {
            let mut closure = Vec::new();
            model
                .graph
                .closure_with(&pred_adj, &[vc], &mut in_set, &mut work, &mut closure);
            immovable.push(!model.graph.closure_is_legal(&closure));
            // Closure and `vcs` are both ascending, so `ps` comes out sorted.
            let mut ps = Vec::new();
            for &n in &closure {
                if n != vc {
                    if let Some(p) = pos_of[n] {
                        ps.push(p);
                    }
                }
            }
            preds.push(ps);
            closures.push(closure);
        }
        VcDepGraph {
            vcs,
            preds,
            immovable,
            closures,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.vcs.len()
    }

    /// Returns `true` when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.vcs.is_empty()
    }
}

/// The search's incrementally-maintained pre-fork size: the union of the
/// pushed candidates' dependence closures, tracked by per-node reference
/// counts so each pop undoes exactly what the matching push added. `size`
/// always equals what `Partition::from_seeds` would compute for the pushed
/// set, without re-walking any closure.
struct DeltaMask {
    refs: Vec<u32>,
    size: u64,
}

impl DeltaMask {
    fn new(num_nodes: usize) -> Self {
        DeltaMask {
            refs: vec![0; num_nodes],
            size: 0,
        }
    }

    fn push(&mut self, closure: &[usize], node_cost: &[u64]) {
        for &n in closure {
            if self.refs[n] == 0 {
                self.size += node_cost[n];
            }
            self.refs[n] += 1;
        }
    }

    fn pop(&mut self, closure: &[usize], node_cost: &[u64]) {
        for &n in closure {
            self.refs[n] -= 1;
            if self.refs[n] == 0 {
                self.size -= node_cost[n];
            }
        }
    }
}

/// The candidates the bound step disarms when the first addable position
/// is `start`: each movable candidate at or after `start` plus its VC-dep
/// predecessors, ascending. Those are exactly the candidates whose
/// statements lie in the closure of the movable candidates from `start` on;
/// a predecessor may sit below `start` without being in the current set.
fn bound_disarms(vc_graph: &VcDepGraph, start: usize) -> Vec<usize> {
    let mut member = vec![false; vc_graph.len()];
    for p in (start..vc_graph.len()).filter(|&p| !vc_graph.immovable[p]) {
        member[p] = true;
        for &q in &vc_graph.preds[p] {
            member[q] = true;
        }
    }
    (0..vc_graph.len()).filter(|&k| member[k]).collect()
}

/// Search parameters.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Maximum pre-fork region size (absolute, in the cost model's latency
    /// units). The driver derives it as a fraction of the loop body size
    /// (§6.1 criterion 2).
    pub max_prefork_size: u64,
    /// Skip loops with more candidates than this (paper: 30).
    pub max_vcs: usize,
    /// Enable pruning heuristic 1 (size). Disable only for ablation.
    pub prune_size: bool,
    /// Enable pruning heuristic 2 (cost lower bound). Disable only for
    /// ablation.
    pub prune_bound: bool,
    /// Hard cap on visited search nodes (defensive; the paper's cap is the
    /// VC limit).
    pub max_visited: u64,
    /// Threads the search may use. At 1 it runs on the calling thread and
    /// spawns nothing. Above 1 a search that outlives its first poll spawns
    /// `workers − 1` helpers that speculate on later subtrees (see
    /// [`optimal_partition`]); the result is the same at every count.
    pub workers: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_prefork_size: u64::MAX,
            max_vcs: 30,
            prune_size: true,
            prune_bound: true,
            max_visited: 1_000_000,
            workers: 1,
        }
    }
}

/// The outcome of an optimal-partition search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The best legal partition within the size threshold.
    pub partition: Partition,
    /// Its misspeculation cost.
    pub cost: f64,
    /// Candidate positions chosen into the pre-fork region.
    pub chosen: Vec<usize>,
    /// Search-tree nodes visited (ablation metric).
    pub visited: u64,
    /// Subtrees cut by size pruning.
    pub pruned_size: u64,
    /// Subtrees cut by bound pruning.
    pub pruned_bound: u64,
    /// `true` when the loop was skipped for having too many candidates; the
    /// returned partition is then the empty one.
    pub skipped_too_many_vcs: bool,
    /// `true` when the search stopped because it hit
    /// [`SearchConfig::max_visited`]. The returned partition is then the
    /// best one found so far, *not* necessarily the optimum — callers that
    /// care about optimality (or observability of degraded results) must
    /// check this flag instead of treating the result as exact.
    pub budget_exhausted: bool,
}

/// The best partition found so far, as the search compares it.
#[derive(Clone, Debug)]
struct Incumbent {
    cost: f64,
    size: u64,
    /// Candidate positions, ascending.
    set: Vec<usize>,
}

impl Incumbent {
    /// `true` when the search takes the same decisions from either
    /// incumbent: only the cost bits and the size enter them.
    fn steers_like(&self, other: &Incumbent) -> bool {
        self.cost.to_bits() == other.cost.to_bits() && self.size == other.size
    }
}

/// The search's additive counters.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    visited: u64,
    pruned_size: u64,
    pruned_bound: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.visited += o.visited;
        self.pruned_size += o.pruned_size;
        self.pruned_bound += o.pruned_bound;
    }
}

/// The read-only inputs of one search, shared by all of its workers.
struct Problem<'a> {
    model: &'a LoopCostModel,
    vc_graph: VcDepGraph,
    config: &'a SearchConfig,
    /// `bound_disarms` for every `start`.
    bound_disarms: Vec<Vec<usize>>,
}

/// One worker's depth-first search state.
///
/// It runs a *segment* of the search tree: the preorder run that starts
/// below the candidate set `set[..root]` and ends after the subtree at the
/// limit path `limit`, relative to `root`. A frame at level `k` whose
/// ancestors all sit on the limit path iterates no further than
/// `limit[k]`. The sequential search is the single segment with an empty
/// prefix and an empty limit.
struct Dfs<'a> {
    problem: &'a Problem<'a>,
    eval: spt_cost::CostEvaluator,
    delta: DeltaMask,
    /// Candidate-position membership of the current set (O(1) pred
    /// checks; the set itself stays a stack for incumbent snapshots).
    in_set: Vec<bool>,
    set: Vec<usize>,
    best: Incumbent,
    /// Whether `best` was found by this run rather than handed in.
    improved: bool,
    /// Nodes visited before this run, counted against `max_visited`.
    base: u64,
    tally: Tally,
    exhausted: bool,
    root: usize,
    limit: Vec<usize>,
    /// How many leading levels of `set[root..]` equal `limit`.
    path_match: usize,
    /// One past the deepest level whose frame ran its child loop while on
    /// the limit path. It tells where the sequential search resumes after
    /// this segment.
    opened: usize,
    /// Set by [`speculative`] to unwind the run early (restart or stop).
    halted: bool,
    link: Option<speculative::Link<'a>>,
}

impl<'a> Dfs<'a> {
    fn new(problem: &'a Problem<'a>, best: Incumbent) -> Self {
        let model = problem.model;
        Dfs {
            problem,
            eval: model.evaluator(),
            delta: DeltaMask::new(model.graph.nodes.len()),
            in_set: vec![false; problem.vc_graph.len()],
            set: Vec::new(),
            best,
            improved: false,
            base: 0,
            tally: Tally::default(),
            exhausted: false,
            root: 0,
            limit: Vec::new(),
            path_match: 0,
            opened: 0,
            halted: false,
            link: None,
        }
    }

    fn push(&mut self, p: usize) {
        let model = self.problem.model;
        self.delta
            .push(&self.problem.vc_graph.closures[p], &model.graph.cost);
        self.in_set[p] = true;
        self.set.push(p);
    }

    fn pop(&mut self) {
        let model = self.problem.model;
        let p = self.set.pop().expect("pop matches a push");
        self.delta
            .pop(&self.problem.vc_graph.closures[p], &model.graph.cost);
        self.in_set[p] = false;
    }

    fn consider(&mut self, cost: f64) {
        let size = self.delta.size;
        let better = cost < self.best.cost - 1e-12
            || (cost < self.best.cost + 1e-12 && size < self.best.size);
        if better {
            self.best = Incumbent {
                cost,
                size,
                set: self.set.clone(),
            };
            self.improved = true;
            if self.link.is_some() {
                speculative::publish(self);
            }
        }
    }

    /// The sequential search's budget check, made before every child and
    /// at every search entry.
    fn over_budget(&mut self) -> bool {
        if self.halted {
            return true;
        }
        if self.base + self.tally.visited >= self.problem.config.max_visited {
            self.exhausted = true;
            return true;
        }
        false
    }

    /// Explores the descendants of the current set, whose max position is
    /// `max_pos`, at `level` below `root`.
    fn search(&mut self, max_pos: Option<usize>, level: usize) {
        if self.over_budget() {
            return;
        }
        let start = max_pos.map_or(0, |m| m + 1);
        // Bound pruning: the best any descendant can do is the cost with
        // every still-addable candidate included. Disarm their closures'
        // candidates, read the bound, undo — no closure walk.
        if self.problem.config.prune_bound {
            let all = &self.problem.bound_disarms[start];
            if !all.is_empty() {
                self.eval.disarm(all);
                let bound = self.eval.cost();
                self.eval.undo();
                if bound >= self.best.cost - 1e-12 {
                    self.tally.pruned_bound += 1;
                    return;
                }
            }
        }
        self.children(start, level);
    }

    /// The child loop of [`Dfs::search`] from position `start` on.
    fn children(&mut self, start: usize, level: usize) {
        let problem = self.problem;
        let (vc_graph, config) = (&problem.vc_graph, problem.config);
        if self.path_match >= level {
            self.opened = self.opened.max(level + 1);
        }
        let mut p = start;
        loop {
            // Re-read each round: a split may have cut this level short.
            let end = if self.path_match >= level && level < self.limit.len() {
                self.limit[level] + 1
            } else {
                vc_graph.len()
            };
            if p >= end || self.over_budget() {
                return;
            }
            // All VC-dep predecessors must already be in the set. (Sets of
            // movable candidates are always legal: each closure is
            // individually pinned-free and closures distribute over union,
            // so no legality re-check is needed here.)
            if !vc_graph.immovable[p] && vc_graph.preds[p].iter().all(|&q| self.in_set[q]) {
                self.push(p);
                if self.path_match == level && self.limit.get(level) == Some(&p) {
                    self.path_match += 1;
                }
                self.tally.visited += 1;
                if self.link.is_some() {
                    speculative::on_visit(self);
                }
                let oversize = self.delta.size > config.max_prefork_size;
                if self.halted {
                    // Unwinding a restarted or stopped run.
                } else if oversize && config.prune_size {
                    // Size is monotone: the whole subtree is dead.
                    self.tally.pruned_size += 1;
                } else {
                    self.eval.disarm(&[p]);
                    // An oversize set (ablation mode) is not a candidate
                    // answer, but its descendants are still explored.
                    if !oversize {
                        let cost = self.eval.cost();
                        self.consider(cost);
                    }
                    self.search(Some(p), level + 1);
                    self.eval.undo();
                }
                self.pop();
                self.path_match = self.path_match.min(level);
            }
            p += 1;
        }
    }
}

/// Finds the minimum-misspeculation-cost legal partition of the loop, via
/// branch-and-bound over violation-candidate sets.
///
/// Search nodes are evaluated *incrementally*. The pre-fork size is the
/// refcounted union of the chosen candidates' precomputed closures
/// ([`DeltaMask`]), extended on push and undone on pop. Costs come from one
/// [`spt_cost::CostEvaluator`]: a child disarms its candidate, which
/// recomputes only the nodes that candidate reaches, and undoes it on the
/// way back. A child cut by size pruning never touches the evaluator.
///
/// This is exact because a candidate set's cost depends only on which
/// candidates are disarmed. The sets the search visits are closed under
/// VC-dep predecessors, so a candidate's statement is in the pre-fork
/// closure iff the candidate is in the set. The bound step disarms the
/// movable candidates from `start` on *plus their predecessors*, since
/// their closures pre-fork those too. The result is bit-identical to
/// [`optimal_partition_reference`], which remains the differential oracle.
///
/// With [`SearchConfig::workers`] above 1 the depth-first walk is split
/// speculatively (see the `speculative` module): idle helpers run later
/// subtrees from a predicted incumbent, and segments commit in DFS order,
/// re-executed when the prediction or the budget was wrong. Cost, `chosen`,
/// `visited`, both pruning counters and `budget_exhausted` are identical to
/// the one-worker search at any worker count and any timing. A panic on a
/// helper is re-raised on the calling thread.
pub fn optimal_partition(model: &LoopCostModel, config: &SearchConfig) -> SearchResult {
    search_with(model, config, speculative::Tuning::DEFAULT)
}

fn search_with(
    model: &LoopCostModel,
    config: &SearchConfig,
    tuning: speculative::Tuning,
) -> SearchResult {
    let vc_graph = VcDepGraph::build(model);
    let empty = Partition::empty(&model.graph);
    let empty_cost = model.misspeculation_cost(&empty);

    if vc_graph.len() > config.max_vcs {
        return SearchResult {
            partition: empty,
            cost: empty_cost,
            chosen: Vec::new(),
            visited: 0,
            pruned_size: 0,
            pruned_bound: 0,
            skipped_too_many_vcs: true,
            budget_exhausted: false,
        };
    }

    let problem = Problem {
        model,
        bound_disarms: (0..=vc_graph.len())
            .map(|start| bound_disarms(&vc_graph, start))
            .collect(),
        vc_graph,
        config,
    };
    let start = Incumbent {
        cost: empty_cost,
        size: 0,
        set: Vec::new(),
    };
    let (best, tally, exhausted) = if config.workers <= 1 {
        let mut dfs = Dfs::new(&problem, start);
        dfs.search(None, 0);
        (dfs.best, dfs.tally, dfs.exhausted)
    } else {
        speculative::search(&problem, start, config.workers, tuning)
    };

    let seeds: Vec<usize> = best.set.iter().map(|&p| problem.vc_graph.vcs[p]).collect();
    let partition = if seeds.is_empty() {
        Partition::empty(&model.graph)
    } else {
        Partition::from_seeds(&model.graph, &seeds).expect("best set was legal during search")
    };
    SearchResult {
        cost: best.cost,
        partition,
        chosen: best.set,
        visited: tally.visited,
        pruned_size: tally.pruned_size,
        pruned_bound: tally.pruned_bound,
        skipped_too_many_vcs: false,
        budget_exhausted: exhausted,
    }
}

/// The original from-scratch search: every candidate set is evaluated by
/// re-walking its dependence closure (`Partition::from_seeds`) and running a
/// full propagation sweep. Retained as the differential oracle for
/// [`optimal_partition`] and as the baseline of the `partition_search`
/// criterion benchmark; not used by the compilation pipeline.
pub fn optimal_partition_reference(model: &LoopCostModel, config: &SearchConfig) -> SearchResult {
    let vc_graph = VcDepGraph::build(model);
    let empty = Partition::empty(&model.graph);
    let empty_cost = model.misspeculation_cost(&empty);

    if vc_graph.len() > config.max_vcs {
        return SearchResult {
            partition: empty,
            cost: empty_cost,
            chosen: Vec::new(),
            visited: 0,
            pruned_size: 0,
            pruned_bound: 0,
            skipped_too_many_vcs: true,
            budget_exhausted: false,
        };
    }

    struct Ctx<'a> {
        model: &'a LoopCostModel,
        vc_graph: &'a VcDepGraph,
        config: &'a SearchConfig,
        best_cost: f64,
        best_size: u64,
        best_set: Vec<usize>,
        visited: u64,
        pruned_size: u64,
        pruned_bound: u64,
        exhausted: bool,
    }

    impl Ctx<'_> {
        /// The seeds (dep-graph nodes) for a candidate-position set.
        fn seeds(&self, set: &[usize]) -> Vec<usize> {
            set.iter().map(|&p| self.vc_graph.vcs[p]).collect()
        }

        fn consider(&mut self, set: &[usize], partition: &Partition, cost: f64) {
            let better = cost < self.best_cost - 1e-12
                || (cost < self.best_cost + 1e-12 && partition.size() < self.best_size);
            if better {
                self.best_cost = cost;
                self.best_size = partition.size();
                self.best_set = set.to_vec();
            }
        }

        /// Explores descendants of `set` (whose max position is `max_pos`).
        fn search(&mut self, set: &mut Vec<usize>, max_pos: Option<usize>) {
            if self.visited >= self.config.max_visited {
                self.exhausted = true;
                return;
            }
            // Bound pruning: the best any descendant can do is the cost with
            // every still-addable candidate included.
            if self.config.prune_bound {
                let mut all: Vec<usize> = set.clone();
                for p in max_pos.map_or(0, |m| m + 1)..self.vc_graph.len() {
                    if !self.vc_graph.immovable[p] {
                        all.push(p);
                    }
                }
                if all.len() > set.len() {
                    let seeds = self.seeds(&all);
                    if let Some(part) = Partition::from_seeds(&self.model.graph, &seeds) {
                        let bound = self.model.misspeculation_cost(&part);
                        if bound >= self.best_cost - 1e-12 {
                            self.pruned_bound += 1;
                            return;
                        }
                    }
                }
            }

            let start = max_pos.map_or(0, |m| m + 1);
            for p in start..self.vc_graph.len() {
                if self.visited >= self.config.max_visited {
                    self.exhausted = true;
                    return;
                }
                if self.vc_graph.immovable[p] {
                    continue;
                }
                // All VC-dep predecessors must already be in the set.
                if !self.vc_graph.preds[p].iter().all(|q| set.contains(q)) {
                    continue;
                }
                set.push(p);
                self.visited += 1;
                let seeds = self.seeds(set);
                match Partition::from_seeds(&self.model.graph, &seeds) {
                    Some(partition) => {
                        let oversize = partition.size() > self.config.max_prefork_size;
                        if oversize {
                            if self.config.prune_size {
                                // Size is monotone: the whole subtree is dead.
                                self.pruned_size += 1;
                                set.pop();
                                continue;
                            }
                            // Ablation mode: not a candidate answer, but
                            // descendants are still (pointlessly) explored.
                            self.search(set, Some(p));
                        } else {
                            let cost = self.model.misspeculation_cost(&partition);
                            self.consider(set, &partition, cost);
                            self.search(set, Some(p));
                        }
                    }
                    None => {
                        // Illegal closure; supersets stay illegal.
                    }
                }
                set.pop();
            }
        }
    }

    let mut ctx = Ctx {
        model,
        vc_graph: &vc_graph,
        config,
        best_cost: empty_cost,
        best_size: 0,
        best_set: Vec::new(),
        visited: 0,
        pruned_size: 0,
        pruned_bound: 0,
        exhausted: false,
    };
    let mut set = Vec::new();
    ctx.search(&mut set, None);

    let chosen = ctx.best_set.clone();
    let seeds: Vec<usize> = chosen.iter().map(|&p| vc_graph.vcs[p]).collect();
    let partition = if seeds.is_empty() {
        Partition::empty(&model.graph)
    } else {
        Partition::from_seeds(&model.graph, &seeds).expect("best set was legal during search")
    };
    SearchResult {
        cost: ctx.best_cost,
        partition,
        chosen,
        visited: ctx.visited,
        pruned_size: ctx.pruned_size,
        pruned_bound: ctx.pruned_bound,
        skipped_too_many_vcs: false,
        budget_exhausted: ctx.exhausted,
    }
}

/// A greedy baseline for ablation: repeatedly add the single candidate that
/// most reduces cost, while the size threshold holds. Candidates are probed
/// by pushing their closures onto the shared [`DeltaMask`] for the size and
/// disarming them in the shared [`spt_cost::CostEvaluator`] for the cost,
/// then undoing both, so a probe costs the candidate's closure and reach
/// rather than a walk of the chosen set.
pub fn greedy_partition(model: &LoopCostModel, config: &SearchConfig) -> SearchResult {
    let vc_graph = VcDepGraph::build(model);
    let node_cost = &model.graph.cost;
    let mut eval = model.evaluator();
    let mut delta = DeltaMask::new(model.graph.nodes.len());
    let mut in_chosen = vec![false; vc_graph.len()];
    let mut chosen: Vec<usize> = Vec::new();
    let mut best_cost = eval.cost();
    let mut visited = 0u64;
    loop {
        let mut improved: Option<(usize, f64)> = None;
        for p in 0..vc_graph.len() {
            if in_chosen[p] || vc_graph.immovable[p] {
                continue;
            }
            if !vc_graph.preds[p].iter().all(|&q| in_chosen[q]) {
                continue;
            }
            visited += 1;
            delta.push(&vc_graph.closures[p], node_cost);
            if delta.size <= config.max_prefork_size {
                eval.disarm(&[p]);
                let cost = eval.cost();
                eval.undo();
                if cost < best_cost - 1e-12 && improved.is_none_or(|(_, c)| cost < c) {
                    improved = Some((p, cost));
                }
            }
            delta.pop(&vc_graph.closures[p], node_cost);
        }
        match improved {
            Some((p, cost)) => {
                delta.push(&vc_graph.closures[p], node_cost);
                eval.disarm(&[p]);
                in_chosen[p] = true;
                chosen.push(p);
                best_cost = cost;
            }
            None => break,
        }
    }
    let best_partition = if chosen.is_empty() {
        Partition::empty(&model.graph)
    } else {
        let seeds: Vec<usize> = chosen.iter().map(|&p| vc_graph.vcs[p]).collect();
        Partition::from_seeds(&model.graph, &seeds).expect("chosen candidates are movable")
    };
    SearchResult {
        partition: best_partition,
        cost: best_cost,
        chosen,
        visited,
        pruned_size: 0,
        pruned_bound: 0,
        skipped_too_many_vcs: false,
        budget_exhausted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
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
    fn finds_zero_cost_partition_when_unconstrained() {
        let m = model_for(INDUCTION, "f");
        let r = optimal_partition(&m, &SearchConfig::default());
        assert!(!r.skipped_too_many_vcs);
        assert!(r.cost < 1e-9, "cost = {}", r.cost);
        assert!(!r.partition.is_empty());
        assert!(r.visited > 0);
    }

    #[test]
    fn size_threshold_constrains_result() {
        let m = model_for(INDUCTION, "f");
        let unconstrained = optimal_partition(&m, &SearchConfig::default());
        let tight = SearchConfig {
            max_prefork_size: 1,
            ..SearchConfig::default()
        };
        let r = optimal_partition(&m, &tight);
        assert!(r.partition.size() <= 1);
        assert!(r.cost >= unconstrained.cost - 1e-12);
    }

    #[test]
    fn optimal_matches_exhaustive_without_pruning() {
        let m = model_for(INDUCTION, "f");
        let with = optimal_partition(&m, &SearchConfig::default());
        let without = optimal_partition(
            &m,
            &SearchConfig {
                prune_bound: false,
                prune_size: false,
                ..SearchConfig::default()
            },
        );
        assert!((with.cost - without.cost).abs() < 1e-12);
        assert!(with.visited <= without.visited);
    }

    #[test]
    fn bound_pruning_reduces_visits() {
        // A loop with several independent violation candidates.
        let src = "
            fn f(n: int) -> int {
                let a = 0; let b = 0; let c = 0; let d = 1; let i = 0;
                while (i < n) {
                    a = a + 1;
                    b = b + 2;
                    c = c + 3;
                    d = d * 2;
                    i = i + 1;
                }
                return a + b + c + d;
            }
        ";
        let m = model_for(src, "f");
        let pruned = optimal_partition(&m, &SearchConfig::default());
        let unpruned = optimal_partition(
            &m,
            &SearchConfig {
                prune_bound: false,
                ..SearchConfig::default()
            },
        );
        assert!((pruned.cost - unpruned.cost).abs() < 1e-12, "same optimum");
        assert!(
            pruned.visited < unpruned.visited,
            "pruning must help: {} vs {}",
            pruned.visited,
            unpruned.visited
        );
    }

    #[test]
    fn too_many_vcs_skips() {
        let m = model_for(INDUCTION, "f");
        let r = optimal_partition(
            &m,
            &SearchConfig {
                max_vcs: 0,
                ..SearchConfig::default()
            },
        );
        assert!(r.skipped_too_many_vcs);
        assert!(r.partition.is_empty());
    }

    #[test]
    fn vc_dep_graph_orders_dependent_candidates() {
        // b depends on a (same iteration): a must precede b in any set.
        let src = "
            fn f(n: int) -> int {
                let a = 0; let b = 0; let i = 0;
                while (i < n) {
                    a = a + 1;
                    b = b + a;
                    i = i + 1;
                }
                return b;
            }
        ";
        let m = model_for(src, "f");
        let g = VcDepGraph::build(&m);
        assert!(g.len() >= 2);
        // At least one candidate has a predecessor.
        assert!(g.preds.iter().any(|p| !p.is_empty()));
        // And the search still finds the zero-cost answer.
        let r = optimal_partition(&m, &SearchConfig::default());
        assert!(r.cost < 1e-9);
    }

    #[test]
    fn greedy_never_beats_optimal() {
        let src = "
            global a[512]: int;
            fn f(n: int) -> int {
                let s = 0; let t = 0; let i = 0;
                while (i < n) {
                    t = s / 7 + t;
                    s = s + a[i];
                    i = i + 1;
                }
                return t;
            }
        ";
        let m = model_for(src, "f");
        let cfg = SearchConfig::default();
        let opt = optimal_partition(&m, &cfg);
        let greedy = greedy_partition(&m, &cfg);
        assert!(opt.cost <= greedy.cost + 1e-12);
    }

    #[test]
    fn incremental_matches_reference_exactly() {
        // The incremental search must reproduce the from-scratch oracle
        // bit-for-bit: same cost, same partition, same search statistics.
        let sources = [
            INDUCTION,
            "
            fn f(n: int) -> int {
                let a = 0; let b = 0; let c = 0; let d = 1; let i = 0;
                while (i < n) {
                    a = a + 1;
                    b = b + a;
                    c = c + b;
                    d = d * 2;
                    i = i + 1;
                }
                return a + b + c + d;
            }
            ",
            "
            global t: int;
            fn bump(v: int) -> int { t = t + v; return t; }
            fn f(n: int) -> int {
                let s = 0; let i = 0;
                while (i < n) {
                    s = s + bump(i);
                    i = i + 1;
                }
                return s;
            }
            ",
        ];
        for src in sources {
            let m = model_for(src, "f");
            for max_size in [1u64, 4, u64::MAX] {
                let cfg = SearchConfig {
                    max_prefork_size: max_size,
                    ..SearchConfig::default()
                };
                let inc = optimal_partition(&m, &cfg);
                let refr = optimal_partition_reference(&m, &cfg);
                assert_eq!(inc.cost.to_bits(), refr.cost.to_bits(), "cost");
                assert_eq!(inc.chosen, refr.chosen, "chosen set");
                assert_eq!(inc.partition.mask(), refr.partition.mask(), "mask");
                assert_eq!(inc.partition.size(), refr.partition.size(), "size");
                assert_eq!(inc.visited, refr.visited, "visited");
                assert_eq!(inc.pruned_size, refr.pruned_size, "pruned_size");
                assert_eq!(inc.pruned_bound, refr.pruned_bound, "pruned_bound");
            }
        }
    }

    #[test]
    fn mixed_recurrences_match_reference_exactly() {
        // Two chains (a, b) and independent accumulators (c), interleaved
        // so that a chained candidate's predecessor sits below the search
        // position of an independent one: with the set {c0}, the bound step
        // must also disarm a0, which the remaining a1 pre-forks.
        let src = "
            fn f(n: int) -> int {
                let a0 = 0; let a1 = 0; let a2 = 0; let a3 = 0;
                let b0 = 0; let b1 = 0; let b2 = 0;
                let c0 = 0; let c1 = 1; let c2 = 0; let c3 = 0;
                let i = 0;
                while (i < n) {
                    a0 = a0 + 1;
                    c0 = c0 + i % 3;
                    a1 = a1 + a0;
                    c1 = c1 * 3 + 1;
                    a2 = a2 + a1;
                    b0 = b0 + 2;
                    c2 = c2 + i % 5;
                    b1 = b1 + b0 * 2;
                    c3 = c3 + 7;
                    a3 = a3 + a2;
                    b2 = b2 + b1;
                    i = i + 1;
                }
                return a3 + b2 + c0 + c1 + c2 + c3;
            }
        ";
        let m = model_for(src, "f");
        let g = VcDepGraph::build(&m);
        assert!(g.len() >= 12, "{} candidates", g.len());
        // Some candidate has a predecessor with a movable candidate strictly
        // between them.
        let shaped = (0..g.len()).any(|p| {
            g.preds[p]
                .iter()
                .any(|&q| (q + 1..p).any(|r| !g.immovable[r] && !g.preds[p].contains(&r)))
        });
        assert!(shaped, "preds {:?}", g.preds);
        let total = m.body_size();
        for max_size in [1, 4, 8, 16, total / 4, total / 2, u64::MAX] {
            let cfg = SearchConfig {
                max_prefork_size: max_size,
                ..SearchConfig::default()
            };
            let inc = optimal_partition(&m, &cfg);
            let refr = optimal_partition_reference(&m, &cfg);
            assert_eq!(inc.cost.to_bits(), refr.cost.to_bits(), "cost @ {max_size}");
            assert_eq!(inc.chosen, refr.chosen, "chosen @ {max_size}");
            assert_eq!(inc.visited, refr.visited, "visited @ {max_size}");
            assert_eq!(
                inc.pruned_size, refr.pruned_size,
                "pruned_size @ {max_size}"
            );
            assert_eq!(
                inc.pruned_bound, refr.pruned_bound,
                "pruned_bound @ {max_size}"
            );
        }
    }

    #[test]
    fn pinned_candidates_are_never_chosen() {
        let src = "
            global t: int;
            fn bump(v: int) -> int { t = t + v; return t; }
            fn f(n: int) -> int {
                let s = 0;
                let i = 0;
                while (i < n) {
                    s = s + bump(i);
                    i = i + 1;
                }
                return s;
            }
        ";
        let m = model_for(src, "f");
        let r = optimal_partition(&m, &SearchConfig::default());
        // The call's cross deps can't be removed, so cost stays positive,
        // but the induction update can still move.
        assert!(r.cost > 0.0);
        let module = spt_frontend::compile(src).unwrap();
        let f = module.func(module.func_by_name("f").unwrap());
        for n in r.partition.nodes() {
            assert!(
                !matches!(f.inst(m.graph.nodes[n]).kind, spt_ir::InstKind::Call { .. }),
                "pinned call moved into pre-fork region"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
    use spt_ir::loops::LoopId;

    /// Generates a random scalar-update loop in minic and checks search
    /// invariants on it.
    fn random_loop_source(updates: &[(usize, i64)]) -> String {
        let mut body = String::new();
        let mut decls = String::new();
        let n_vars = updates.iter().map(|&(v, _)| v).max().unwrap_or(0) + 1;
        for v in 0..n_vars {
            decls.push_str(&format!("let x{v} = {v};\n"));
        }
        for &(v, k) in updates {
            let src = (v + 1) % n_vars;
            body.push_str(&format!("x{v} = x{v} + x{src} * {k};\n"));
        }
        let mut ret = String::from("0");
        for v in 0..n_vars {
            ret.push_str(&format!(" + x{v}"));
        }
        format!(
            "fn f(n: int) -> int {{ {decls} let i = 0; while (i < n) {{ {body} i = i + 1; }} return {ret}; }}"
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The search result never exceeds the size bound, and its cost never
        /// exceeds the empty partition's.
        #[test]
        fn search_respects_constraints(
            updates in proptest::collection::vec((0usize..4, 1i64..5), 1..5),
            max_size in 1u64..40,
        ) {
            let src = random_loop_source(&updates);
            let module = spt_frontend::compile(&src).unwrap();
            let func = module.func_by_name("f").unwrap();
            let graph = DepGraph::build(
                &module, func, LoopId::new(0),
                Profiles::default(), &DepGraphConfig::default(),
            );
            let model = LoopCostModel::new(graph);
            let empty_cost =
                model.misspeculation_cost(&spt_cost::Partition::empty(&model.graph));
            let cfg = SearchConfig { max_prefork_size: max_size, ..SearchConfig::default() };
            let r = optimal_partition(&model, &cfg);
            prop_assert!(r.partition.size() <= max_size || r.partition.is_empty());
            prop_assert!(r.cost <= empty_cost + 1e-9);
        }

        /// The search's incremental state agrees with the from-scratch path
        /// over a random push/pop sequence: the [`DeltaMask`] size, and the
        /// evaluator's cost and re-execution probabilities bit-for-bit. A
        /// push disarms the candidate and its VC-dep predecessors (the
        /// candidates its closure pre-forks), so repeated pushes re-disarm
        /// already-disarmed candidates.
        #[test]
        fn incremental_evaluation_matches_from_scratch(
            updates in proptest::collection::vec((0usize..5, 1i64..6), 1..7),
            ops in proptest::collection::vec(0usize..16, 1..32),
        ) {
            let src = random_loop_source(&updates);
            let module = spt_frontend::compile(&src).unwrap();
            let func = module.func_by_name("f").unwrap();
            let graph = DepGraph::build(
                &module, func, LoopId::new(0),
                Profiles::default(), &DepGraphConfig::default(),
            );
            let model = LoopCostModel::new(graph);
            let vc_graph = VcDepGraph::build(&model);
            let movable: Vec<usize> =
                (0..vc_graph.len()).filter(|&p| !vc_graph.immovable[p]).collect();
            if movable.is_empty() {
                return Ok(());
            }
            let mut eval = model.evaluator();
            let mut delta = DeltaMask::new(model.graph.nodes.len());
            let mut stack: Vec<usize> = Vec::new();
            for &op in &ops {
                // Even ops push a (possibly repeated) candidate, odd ops pop.
                if op % 2 == 0 || stack.is_empty() {
                    let p = movable[op % movable.len()];
                    delta.push(&vc_graph.closures[p], &model.graph.cost);
                    let mut disarm = vc_graph.preds[p].clone();
                    disarm.push(p);
                    eval.disarm(&disarm);
                    stack.push(p);
                } else {
                    let p = stack.pop().unwrap();
                    delta.pop(&vc_graph.closures[p], &model.graph.cost);
                    eval.undo();
                }
                // From-scratch oracle over the distinct members of the stack.
                let mut seeds: Vec<usize> =
                    stack.iter().map(|&p| vc_graph.vcs[p]).collect();
                seeds.sort_unstable();
                seeds.dedup();
                let scratch = if seeds.is_empty() {
                    spt_cost::Partition::empty(&model.graph)
                } else {
                    spt_cost::Partition::from_seeds(&model.graph, &seeds).unwrap()
                };
                prop_assert_eq!(delta.size, scratch.size(), "size after {:?}", &stack);
                prop_assert_eq!(
                    eval.cost().to_bits(),
                    model.misspeculation_cost(&scratch).to_bits(),
                    "cost after {:?}", &stack
                );
                let v_inc: Vec<u64> = eval.reexec_probs().iter().map(|x| x.to_bits()).collect();
                let v_ref: Vec<u64> =
                    model.reexec_probs(&scratch).iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(v_inc, v_ref, "probabilities after {:?}", &stack);
            }
        }

        /// The incremental search and the from-scratch reference agree on
        /// random loops and size bounds.
        #[test]
        fn search_matches_reference(
            updates in proptest::collection::vec((0usize..4, 1i64..5), 1..5),
            max_size in 1u64..60,
        ) {
            let src = random_loop_source(&updates);
            let module = spt_frontend::compile(&src).unwrap();
            let func = module.func_by_name("f").unwrap();
            let graph = DepGraph::build(
                &module, func, LoopId::new(0),
                Profiles::default(), &DepGraphConfig::default(),
            );
            let model = LoopCostModel::new(graph);
            let cfg = SearchConfig { max_prefork_size: max_size, ..SearchConfig::default() };
            let inc = optimal_partition(&model, &cfg);
            let refr = optimal_partition_reference(&model, &cfg);
            prop_assert_eq!(inc.cost.to_bits(), refr.cost.to_bits());
            prop_assert_eq!(inc.chosen, refr.chosen);
            prop_assert_eq!(inc.partition.mask(), refr.partition.mask());
            prop_assert_eq!(inc.visited, refr.visited);
        }

        /// Pruning never changes the optimum (both heuristics are exact).
        #[test]
        fn pruning_is_exact(
            updates in proptest::collection::vec((0usize..4, 1i64..5), 1..5),
            max_size in 1u64..60,
        ) {
            let src = random_loop_source(&updates);
            let module = spt_frontend::compile(&src).unwrap();
            let func = module.func_by_name("f").unwrap();
            let graph = DepGraph::build(
                &module, func, LoopId::new(0),
                Profiles::default(), &DepGraphConfig::default(),
            );
            let model = LoopCostModel::new(graph);
            let base = SearchConfig { max_prefork_size: max_size, ..SearchConfig::default() };
            let none = SearchConfig {
                prune_bound: false, prune_size: false, ..base.clone()
            };
            let with = optimal_partition(&model, &base);
            let without = optimal_partition(&model, &none);
            prop_assert!((with.cost - without.cost).abs() < 1e-9,
                "pruned {} vs unpruned {}", with.cost, without.cost);
        }
    }
}
