//! Speculative parallel execution of the branch-and-bound search.
//!
//! The depth-first walk is a DOACROSS loop over subtrees: the only values
//! one subtree hands the next are the incumbent (best cost bits, size and
//! set) and the visited count. This module speculates on them the way the
//! compiled loops speculate on their carried values.
//!
//! - **Segments.** A segment is a preorder run of the tree (see
//!   [`Dfs`]). The owner starts with the whole tree. At its first poll it
//!   spawns the helpers. An idle helper raises `hungry`, and the next
//!   running segment to visit a node hands over the remaining siblings at
//!   the *shallowest* level of its DFS stack that has any. The new segment
//!   sits right after its victim in DFS order.
//! - **Prediction.** A segment starts from a predicted incumbent: the
//!   current best of its DFS predecessor (last-value prediction). Every
//!   segment publishes its current best. Every [`Tuning::poll_every`]
//!   visited nodes a speculative segment polls its predecessor and restarts
//!   if the prediction has changed.
//! - **Commit.** Segments commit in DFS order. A speculative segment
//!   commits only if its entry incumbent steers like the committed one (same
//!   cost bits and size) and the committed visited count plus its own is
//!   below `max_visited`, so no budget check inside it could have fired.
//!   Otherwise the committer re-executes it from the committed incumbent and
//!   visited count. That run is exact and commits unchecked.
//! - **Dead segments.** A run split off a subtree that another incumbent
//!   would have pruned. Each commit records where the sequential search
//!   resumes (see `resume_after`); a segment that does not start there
//!   lies inside such a subtree and dies uncommitted.
//!
//! Each worker keeps one evaluator and one [`crate::DeltaMask`] and
//! rebuilds a segment's prefix by push and disarm. A panic on any worker
//! stops the others and is re-raised on the calling thread.

use crate::{Dfs, Incumbent, Problem, Tally};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Scheduling knobs of the speculative search.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tuning {
    /// Visited nodes between a segment's polls. The owner spawns its
    /// helpers at its first poll, so a search shorter than this stays on
    /// the calling thread.
    pub(crate) poll_every: u64,
    /// Split the running segment at every poll, asked for or not.
    #[cfg(test)]
    pub(crate) force_split: bool,
    /// Panic every helper as it starts.
    #[cfg(test)]
    pub(crate) helper_panics: bool,
}

impl Tuning {
    pub(crate) const DEFAULT: Tuning = Tuning {
        poll_every: 4096,
        #[cfg(test)]
        force_split: false,
        #[cfg(test)]
        helper_panics: false,
    };
}

/// The result of one finished run of a segment.
struct Outcome {
    /// The incumbent the run started from.
    entry: Incumbent,
    /// The run's best, when it beat `entry`.
    best: Option<Incumbent>,
    tally: Tally,
    exhausted: bool,
    /// [`Dfs::opened`] at the end of the run.
    opened: usize,
    /// Started from the committed incumbent and visited count, so it
    /// commits unchecked.
    exact: bool,
}

enum Status {
    Pending,
    Running,
    Done(Outcome),
    Committed,
    /// Lies in a subtree the committed search pruned: split off a run that
    /// reached it from another incumbent.
    Dead,
}

struct Segment {
    /// The candidate set the segment starts below.
    prefix: Vec<usize>,
    /// The first position of its root child loop; `None` for the whole
    /// tree, which starts at the search entry (budget and bound checks).
    lo: Option<usize>,
    /// The limit path, as in [`Dfs`].
    limit: Vec<usize>,
    status: Status,
    /// The best of the segment's current run (its entry until it
    /// improves); once committed, the committed incumbent after it.
    published: Incumbent,
}

struct Sched {
    segs: Vec<Segment>,
    /// Segment ids in DFS order.
    order: Vec<usize>,
    /// `order[..frontier]` has committed or died.
    frontier: usize,
    /// Where the committed search resumes once the root segment has
    /// committed: the child loop below a set, at a position. `None` when
    /// it has nowhere left to go.
    resume: Option<(Vec<usize>, usize)>,
    pending: usize,
    /// The committed incumbent, counters and budget flag.
    best: Incumbent,
    tally: Tally,
    exhausted: bool,
    done: bool,
    panic: Option<Box<dyn Any + Send>>,
}

impl Sched {
    /// The published incumbent of the live segment before `id` in DFS
    /// order.
    fn predecessor(&self, id: usize) -> &Incumbent {
        let pos = self.order.iter().position(|&s| s == id);
        let pos = pos.expect("every segment is ordered");
        let before = self.order[..pos].iter().rev().map(|&s| &self.segs[s]);
        let mut live = before.filter(|seg| !matches!(seg.status, Status::Dead));
        &live.next().expect("the root segment never dies").published
    }

    /// Commits finished segments in DFS order. Returns the frontier
    /// segment when it must be (re-)executed exactly: it is pending, or it
    /// ran from a wrong prediction or past the budget. A segment that does
    /// not start where the committed search resumes dies. Sets `done` once
    /// the search has committed its end or run out of budget.
    fn advance(&mut self, max_visited: u64) -> Option<usize> {
        while !self.done {
            let Some(&id) = self.order.get(self.frontier) else {
                self.done = true;
                break;
            };
            let seg = &mut self.segs[id];
            let starts_here = self.frontier == 0
                || self
                    .resume
                    .as_ref()
                    .is_some_and(|(prefix, lo)| seg.lo == Some(*lo) && seg.prefix == *prefix);
            if !starts_here {
                if let Status::Pending = seg.status {
                    self.pending -= 1;
                }
                seg.status = Status::Dead;
                self.frontier += 1;
                continue;
            }
            let valid = match &seg.status {
                Status::Running => return None,
                Status::Done(out) => {
                    out.exact
                        || (out.entry.steers_like(&self.best)
                            && self.tally.visited + out.tally.visited < max_visited)
                }
                Status::Pending | Status::Committed | Status::Dead => false,
            };
            if !valid {
                if let Status::Pending = seg.status {
                    self.pending -= 1;
                }
                seg.status = Status::Running;
                return Some(id);
            }
            let Status::Done(out) = std::mem::replace(&mut seg.status, Status::Committed) else {
                unreachable!("only a finished segment commits")
            };
            self.tally += out.tally;
            self.exhausted |= out.exhausted;
            if let Some(best) = out.best {
                self.best = best;
            }
            seg.published = self.best.clone();
            self.resume = resume_after(&seg.prefix, &seg.limit, out.opened);
            self.frontier += 1;
            // Past the budget the sequential search visits nothing more.
            self.done = self.exhausted || self.resume.is_none();
        }
        None
    }

    /// Claims the earliest pending segment for a speculative run.
    fn claim_pending(&mut self) -> Option<usize> {
        let id = self.order[self.frontier..]
            .iter()
            .copied()
            .find(|&id| matches!(self.segs[id].status, Status::Pending))?;
        self.segs[id].status = Status::Running;
        self.pending -= 1;
        Some(id)
    }
}

/// Where the sequential search resumes after a segment below `prefix`
/// with limit path `limit`, whose run opened `opened` levels (see
/// [`Dfs::opened`]): after the deepest opened limit node, or in the parent
/// loop when the segment's own loop ran to its end.
fn resume_after(prefix: &[usize], limit: &[usize], opened: usize) -> Option<(Vec<usize>, usize)> {
    if limit.is_empty() || opened == 0 {
        let (&last, up) = prefix.split_last()?;
        return Some((up.to_vec(), last + 1));
    }
    let r = (opened - 1).min(limit.len() - 1);
    let mut at = prefix.to_vec();
    at.extend_from_slice(&limit[..r]);
    Some((at, limit[r] + 1))
}

pub(crate) struct Shared {
    sched: Mutex<Sched>,
    wake: Condvar,
    /// Workers waiting for a segment. A hint read on every visited node;
    /// the split it prompts re-checks under the lock, so `Relaxed`.
    hungry: AtomicUsize,
    /// Set once the search is done or failed: running segments halt. It
    /// publishes nothing (the outcome is read under the lock), so
    /// `Relaxed`.
    stop: AtomicBool,
    tuning: Tuning,
    max_visited: u64,
}

impl Shared {
    /// Locks the schedule. A worker that panicked while holding the lock
    /// has its panic recorded through here ([`Shared::fail`]); after that
    /// the schedule is read only to stop, and the caller re-raises the
    /// panic instead of returning a result.
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a worker's panic (the first one wins) and stops the search.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        let mut sched = self.lock();
        sched.panic.get_or_insert(payload);
        sched.done = true;
        self.stop.store(true, Relaxed);
        self.wake.notify_all();
    }
}

/// A worker's tie to the segment it is running.
pub(crate) struct Link<'a> {
    shared: &'a Shared,
    seg: usize,
    exact: bool,
    /// The incumbent this run started from.
    entry: Incumbent,
    /// Visited nodes until the next poll.
    countdown: u64,
    /// Set when a poll found the prediction stale.
    restart: bool,
    /// Spawns the helpers; the owner's first poll takes it.
    spawn: Option<&'a dyn Fn()>,
}

/// Runs the search over `workers` threads (the calling thread included)
/// and returns the committed incumbent, counters and budget flag.
pub(crate) fn search(
    problem: &Problem<'_>,
    start: Incumbent,
    workers: usize,
    tuning: Tuning,
) -> (Incumbent, Tally, bool) {
    let root = Segment {
        prefix: Vec::new(),
        lo: None,
        limit: Vec::new(),
        status: Status::Running,
        published: start.clone(),
    };
    let shared = Shared {
        sched: Mutex::new(Sched {
            segs: vec![root],
            order: vec![0],
            frontier: 0,
            resume: None,
            pending: 0,
            best: start.clone(),
            tally: Tally::default(),
            exhausted: false,
            done: false,
            panic: None,
        }),
        wake: Condvar::new(),
        hungry: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        tuning,
        max_visited: problem.config.max_visited,
    };
    let helper = || {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if tuning.helper_panics {
                panic!("injected helper panic");
            }
            work(&mut Dfs::new(problem, start.clone()), &shared);
        }));
        if let Err(payload) = ran {
            shared.fail(payload);
        }
    };
    std::thread::scope(|s| {
        let spawn = || {
            for _ in 1..workers {
                s.spawn(helper);
            }
        };
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut dfs = Dfs::new(problem, start.clone());
            run(&mut dfs, &shared, 0, true, Some(&spawn));
            work(&mut dfs, &shared);
        }));
        if let Err(payload) = ran {
            shared.fail(payload);
        }
    });
    let sched = shared
        .sched
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = sched.panic {
        resume_unwind(payload);
    }
    (sched.best, sched.tally, sched.exhausted)
}

/// A worker's loop: commit what can commit, run the frontier segment
/// exactly when it needs it, else run a pending segment speculatively, else
/// wait for a split.
fn work<'a>(dfs: &mut Dfs<'a>, shared: &'a Shared) {
    let mut sched = shared.lock();
    loop {
        let task = match sched.advance(shared.max_visited) {
            Some(id) => Some((id, true)),
            None => sched.claim_pending().map(|id| (id, false)),
        };
        if sched.done {
            shared.stop.store(true, Relaxed);
            shared.wake.notify_all();
            return;
        }
        match task {
            Some((id, exact)) => {
                drop(sched);
                run(dfs, shared, id, exact, None);
                sched = shared.lock();
            }
            None => {
                shared.hungry.fetch_add(1, Relaxed);
                sched = shared
                    .wake
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
                shared.hungry.fetch_sub(1, Relaxed);
            }
        }
    }
}

/// Runs segment `id` to a finished outcome, restarting it while its
/// prediction goes stale; returns early when the search stops.
fn run<'a>(
    dfs: &mut Dfs<'a>,
    shared: &'a Shared,
    id: usize,
    exact: bool,
    mut spawn: Option<&'a dyn Fn()>,
) {
    let mut sched = shared.lock();
    loop {
        let seg = &sched.segs[id];
        let (prefix, lo, limit) = (seg.prefix.clone(), seg.lo, seg.limit.clone());
        let (entry, base) = if exact {
            (sched.best.clone(), sched.tally.visited)
        } else {
            (sched.predecessor(id).clone(), 0)
        };
        sched.segs[id].published = entry.clone();
        drop(sched);

        dfs.link = Some(Link {
            shared,
            seg: id,
            exact,
            entry: entry.clone(),
            countdown: shared.tuning.poll_every,
            restart: false,
            spawn: spawn.take(),
        });
        dfs.best = entry;
        dfs.improved = false;
        dfs.base = base;
        dfs.tally = Tally::default();
        dfs.exhausted = false;
        dfs.halted = false;
        dfs.limit = limit;
        dfs.path_match = 0;
        dfs.opened = 0;
        for &p in &prefix {
            dfs.push(p);
            dfs.eval.disarm(&[p]);
        }
        dfs.root = prefix.len();
        match lo {
            None => dfs.search(None, 0),
            Some(lo) => dfs.children(lo, 0),
        }
        for _ in 0..dfs.root {
            dfs.eval.undo();
            dfs.pop();
        }
        let link = dfs.link.take().expect("set for this run");

        sched = shared.lock();
        if sched.done || matches!(sched.segs[id].status, Status::Dead) {
            return;
        }
        if link.restart || (!exact && !sched.predecessor(id).steers_like(&link.entry)) {
            continue;
        }
        sched.segs[id].status = Status::Done(Outcome {
            entry: link.entry,
            best: dfs.improved.then(|| dfs.best.clone()),
            tally: dfs.tally,
            exhausted: dfs.exhausted,
            opened: dfs.opened,
            exact,
        });
        shared.wake.notify_all();
        return;
    }
}

/// Called after every visited node of a linked run: hands work to a hungry
/// worker, and polls when due.
pub(crate) fn on_visit(dfs: &mut Dfs<'_>) {
    let link = dfs.link.as_mut().expect("linked run");
    let shared = link.shared;
    link.countdown -= 1;
    let due = link.countdown == 0;
    if shared.hungry.load(Relaxed) > 0 {
        split(dfs, false);
    }
    if due {
        poll(dfs);
    }
}

/// Spawns the helpers on the owner's first poll, halts a stopped run, and
/// restarts a speculative run whose predecessor's incumbent moved.
fn poll(dfs: &mut Dfs<'_>) {
    let link = dfs.link.as_mut().expect("linked run");
    let shared = link.shared;
    link.countdown = shared.tuning.poll_every;
    if let Some(spawn) = link.spawn.take() {
        spawn();
    }
    if shared.stop.load(Relaxed) {
        dfs.halted = true;
        return;
    }
    #[cfg(test)]
    if shared.tuning.force_split {
        split(dfs, true);
    }
    let link = dfs.link.as_mut().expect("linked run");
    if !link.exact {
        let sched = shared.lock();
        if matches!(sched.segs[link.seg].status, Status::Dead) {
            dfs.halted = true;
        } else if !sched.predecessor(link.seg).steers_like(&link.entry) {
            link.restart = true;
            dfs.halted = true;
        }
    }
}

/// Publishes a linked run's new incumbent to its successors' polls.
pub(crate) fn publish(dfs: &Dfs<'_>) {
    let link = dfs.link.as_ref().expect("linked run");
    link.shared.lock().segs[link.seg].published = dfs.best.clone();
}

/// Hands the remaining siblings at the shallowest level of the run's DFS
/// stack that has any to a new pending segment right after this one, and
/// cuts this run's limit path to end after the current node's subtree
/// there. Unless `forced`, only splits while a worker waits unserved.
fn split(dfs: &mut Dfs<'_>, forced: bool) {
    let last = dfs.problem.vc_graph.len() - 1;
    let path = &dfs.set[dfs.root..];
    let level = path.iter().enumerate().position(|(j, &c)| {
        let bounded = dfs.path_match >= j && j < dfs.limit.len();
        c < if bounded { dfs.limit[j] } else { last }
    });
    let Some(j) = level else {
        return;
    };
    let link = dfs.link.as_ref().expect("linked run");
    let shared = link.shared;
    let mut sched = shared.lock();
    let dead = matches!(sched.segs[link.seg].status, Status::Dead);
    if dead || (!forced && sched.pending >= shared.hungry.load(Relaxed)) {
        return;
    }
    let stolen = Segment {
        prefix: dfs.set[..dfs.root + j].to_vec(),
        lo: Some(path[j] + 1),
        limit: dfs.limit.get(j..).unwrap_or_default().to_vec(),
        status: Status::Pending,
        published: dfs.best.clone(),
    };
    let kept = path[..=j].to_vec();
    let id = sched.segs.len();
    sched.segs.push(stolen);
    sched.segs[link.seg].limit = kept.clone();
    let pos = sched.order.iter().position(|&s| s == link.seg);
    let pos = pos.expect("every segment is ordered");
    sched.order.insert(pos + 1, id);
    sched.pending += 1;
    shared.wake.notify_all();
    drop(sched);
    dfs.limit = kept;
    dfs.path_match = j + 1;
    dfs.opened = dfs.opened.max(j + 1);
}

#[cfg(test)]
mod tests {
    use super::Tuning;
    use crate::{search_with, SearchConfig, SearchResult};
    use proptest::prelude::*;
    use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
    use spt_cost::LoopCostModel;
    use spt_ir::loops::LoopId;

    fn model_for(src: &str) -> LoopCostModel {
        let module = spt_frontend::compile(src).unwrap();
        let func = module.func_by_name("f").unwrap();
        let graph = DepGraph::build(
            &module,
            func,
            LoopId::new(0),
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        LoopCostModel::new(graph)
    }

    /// A loop of `x{v} = x{v} + x{src} * k` updates in statement order, so
    /// a source updated earlier in the body chains its candidate before
    /// `v`'s. A `pinned` update goes through a call that writes a global,
    /// which makes its candidate immovable.
    fn vc_graph_source(updates: &[(usize, usize, i64, bool)]) -> String {
        let n_vars = updates
            .iter()
            .map(|&(v, s, _, _)| v.max(s))
            .max()
            .unwrap_or(0)
            + 1;
        let mut decls = String::new();
        let mut body = String::new();
        let mut ret = String::from("0");
        for v in 0..n_vars {
            decls.push_str(&format!("let x{v} = {v};\n"));
            ret.push_str(&format!(" + x{v}"));
        }
        for &(v, src, k, pinned) in updates {
            if pinned {
                body.push_str(&format!("x{v} = x{v} + bump(x{src});\n"));
            } else {
                body.push_str(&format!("x{v} = x{v} + x{src} * {k};\n"));
            }
        }
        format!(
            "global t: int;
             fn bump(v: int) -> int {{ t = t + v; return t; }}
             fn f(n: int) -> int {{ {decls} let i = 0; while (i < n) {{ {body} i = i + 1; }} return {ret}; }}"
        )
    }

    /// Everything the sequential search reports, cost by bit pattern.
    fn fingerprint(r: &SearchResult) -> (u64, Vec<usize>, u64, u64, u64, bool) {
        (
            r.cost.to_bits(),
            r.chosen.clone(),
            r.visited,
            r.pruned_size,
            r.pruned_bound,
            r.budget_exhausted,
        )
    }

    /// Polls after every node and splits at every poll, so segments are
    /// as small and as contended as the scheduler allows.
    const EAGER: Tuning = Tuning {
        poll_every: 1,
        force_split: true,
        helper_panics: false,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// At 1, 2, 3 and 8 workers, with forced splits at every poll and
        /// budgets that run out anywhere in the tree, the speculative
        /// search reports exactly what the sequential one does.
        #[test]
        fn speculative_search_is_bit_identical(
            updates in proptest::collection::vec(
                (0usize..12, 0usize..12, 1i64..6, 0u8..7),
                4..14,
            ),
            size_pct in 5u64..100,
            budget_pct in 0u64..130,
            poll_every in 1u64..4,
        ) {
            // About one update in seven is pinned.
            let updates: Vec<_> =
                updates.into_iter().map(|(v, s, k, pin)| (v, s, k, pin == 0)).collect();
            let model = model_for(&vc_graph_source(&updates));
            let base = SearchConfig {
                max_prefork_size: model.body_size() * size_pct / 100,
                ..SearchConfig::default()
            };
            let full = search_with(&model, &base, Tuning::DEFAULT);
            let config = SearchConfig {
                max_visited: (full.visited * budget_pct / 100).max(1),
                ..base
            };
            let sequential = fingerprint(&search_with(&model, &config, Tuning::DEFAULT));
            for workers in [1, 2, 3, 8] {
                let tuning = Tuning { poll_every, ..EAGER };
                let parallel = search_with(&model, &SearchConfig { workers, ..config.clone() }, tuning);
                prop_assert_eq!(&fingerprint(&parallel), &sequential, "workers = {}", workers);
            }
        }
    }

    #[test]
    fn large_tree_splits_with_default_tuning() {
        // Independent modular recurrences, as in the compile benchmark's
        // kernels: a tree well past the first poll, so helpers spawn and
        // split on their own schedule.
        let mut decls = String::new();
        let mut body = String::new();
        let mut ret = String::from("0");
        for v in 0..17 {
            decls.push_str(&format!("let x{v} = {v};\n"));
            ret.push_str(&format!(" + x{v}"));
            body.push_str(&format!(
                "x{v} = (x{v} * {} + i) % {};\n",
                3 + 2 * (v % 8),
                1009 + 2 * v
            ));
        }
        let model = model_for(&format!(
            "fn f(n: int) -> int {{ {decls} let i = 0; while (i < n) {{ {body} i = i + 1; }} return {ret}; }}"
        ));
        let config = SearchConfig {
            max_prefork_size: model.body_size() * 35 / 100,
            ..SearchConfig::default()
        };
        let sequential = search_with(&model, &config, Tuning::DEFAULT);
        assert!(
            sequential.visited > 4 * Tuning::DEFAULT.poll_every,
            "{}",
            sequential.visited
        );
        for workers in [2, 4] {
            for budget in [sequential.visited / 3, u64::MAX] {
                let limited = SearchConfig {
                    max_visited: budget,
                    ..config.clone()
                };
                let expect = fingerprint(&search_with(&model, &limited, Tuning::DEFAULT));
                let parallel = SearchConfig { workers, ..limited };
                let got = search_with(&model, &parallel, Tuning::DEFAULT);
                assert_eq!(
                    fingerprint(&got),
                    expect,
                    "{workers} workers, budget {budget}"
                );
            }
        }
    }

    #[test]
    fn helper_panic_reraises_on_the_caller() {
        let updates: Vec<_> = (0..8).map(|v| (v, v, 2, false)).collect();
        let model = model_for(&vc_graph_source(&updates));
        let config = SearchConfig {
            workers: 2,
            ..SearchConfig::default()
        };
        let tuning = Tuning {
            helper_panics: true,
            ..EAGER
        };
        let caught = std::panic::catch_unwind(|| search_with(&model, &config, tuning));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected helper panic")
        );
    }
}
