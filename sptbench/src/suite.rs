//! `suite-cold` and `suite-warm`: the paper's compile-and-evaluate flow.
//!
//! One op is one pass over the ten suite programs — frontend,
//! `transform_module_timed` at `best` with the trace backend over a private
//! artifact cache, then the baseline and SPT simulations on the ref input.
//! `suite-cold` gives every pass an empty cache directory; `suite-warm`
//! reuses one primed during set-up, so the `spt-trace` cache layer serves
//! reads instead of taking writes.

use crate::drive::{contain, Checked, Ctx, Window, Workload};
use crate::gen;
use crate::layers::{program_metric, Acc};
use crate::oracle::{self, Outcome};
use crate::spans::{Open, Recorder};
use spt_bench_suite::Benchmark;
use spt_core::pipeline::transform_module_timed;
use spt_core::{CompilationReport, CompilerConfig, ProfilingInput, TraceSettings};
use spt_serve::{sim_with_cache, SimTraceStats};
use spt_sim::{MachineConfig, SimResult};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One program's computed results.
struct Computed {
    report: CompilationReport,
    baseline: SimResult,
    spt: SimResult,
    /// Memory cells of the source program's globals.
    cells: usize,
}

fn trace_settings(dir: &Path) -> TraceSettings {
    TraceSettings {
        enabled: true,
        cache_dir: Some(dir.to_path_buf()),
    }
}

/// Compiles and simulates `b` over the artifact cache in `dir`.
fn run_program(
    b: &Benchmark,
    dir: &Path,
    rec: &mut Recorder,
    acc: &mut Acc,
    op: u64,
    parent: Open,
) -> Result<Computed, String> {
    let mut config = CompilerConfig::best();
    config.trace = trace_settings(dir);
    let input = ProfilingInput::new(b.entry, [b.train_arg]);
    let baseline_module = rec
        .time("frontend", op, parent, || spt_frontend::compile(b.source))
        .map_err(|e| format!("{}: frontend: {e}", b.name))?;
    let mut module = baseline_module.clone();
    let (report, stages) = rec
        .time("core.transform", op, parent, || {
            transform_module_timed(&mut module, &input, &config)
        })
        .map_err(|e| format!("{}: pipeline: {e}", b.name))?;
    acc.stages(&stages);
    let machine = MachineConfig::default();
    let mut trace = SimTraceStats::default();
    let baseline = rec
        .time("sim.baseline", op, parent, || {
            sim_with_cache(
                &baseline_module,
                b.entry,
                b.ref_arg,
                &machine,
                &config.trace,
                &mut trace,
            )
        })
        .map_err(|e| format!("{}: baseline sim: {e}", b.name))?;
    let spt = rec
        .time("sim.spt", op, parent, || {
            sim_with_cache(
                &module,
                b.entry,
                b.ref_arg,
                &machine,
                &config.trace,
                &mut trace,
            )
        })
        .map_err(|e| format!("{}: spt sim: {e}", b.name))?;
    acc.sim_trace(&trace);
    acc.sim(&baseline);
    acc.sim(&spt);
    if baseline.ret != spt.ret {
        return Err(format!("{}: SPT result differs from baseline", b.name));
    }
    Ok(Computed {
        report,
        baseline,
        spt,
        cells: oracle::cells(&baseline_module),
    })
}

/// What one pass produced, for the post-window checks.
struct PassRecord {
    failed: bool,
    /// SPT outcome per program, in suite order (empty if the pass failed).
    spt: Vec<Outcome>,
    speedup_geomean: f64,
}

/// `Suite<false>` is `suite-cold`, `Suite<true>` is `suite-warm`.
pub struct Suite<const WARM: bool> {
    suite: Vec<Benchmark>,
    /// The primed cache (`suite-warm`) or the parent of the per-pass
    /// caches (`suite-cold`).
    dir: PathBuf,
    records: Vec<PassRecord>,
}

impl<const WARM: bool> Suite<WARM> {
    /// One op: a pass over the suite in the seed's order.
    fn pass(
        &mut self,
        ctx: &Ctx,
        rec: &mut Recorder,
        acc: &mut Acc,
        window: &mut Window,
    ) -> PassRecord {
        let op = self.records.len() as u64;
        let dir = if WARM {
            self.dir.clone()
        } else {
            self.dir.join(format!("pass-{op}"))
        };
        let order = gen::suite_order(ctx.seed, op, self.suite.len());
        let t0 = Instant::now();
        let root = rec.begin("op", op, Recorder::root());
        let mut results: Vec<Option<Computed>> = (0..self.suite.len()).map(|_| None).collect();
        let mut failed = false;
        let mut program_s = Vec::with_capacity(order.len());
        for &p in &order {
            let b = &self.suite[p];
            let t = Instant::now();
            match contain(|| run_program(b, &dir, rec, acc, op, root)) {
                Ok(c) => results[p] = Some(c),
                Err(e) => {
                    eprintln!("op {op}: {e}");
                    failed = true;
                }
            }
            let s = t.elapsed().as_secs_f64();
            program_s.push(s);
            acc.add(&program_metric(b.name), s);
        }
        rec.end(root);
        window.op_s.push(t0.elapsed().as_secs_f64());
        window.tail_s.extend(program_s);
        if !WARM {
            let _ = std::fs::remove_dir_all(&dir);
        }
        if failed {
            return PassRecord {
                failed,
                spt: Vec::new(),
                speedup_geomean: 0.0,
            };
        }
        let results: Vec<Computed> = results.into_iter().flatten().collect();
        let mut h = spt_trace::codec::Fnv::new();
        for c in &results {
            spt_bench::fold_report_digest(&mut h, &format!("{:?}", c.report), &c.baseline, &c.spt);
        }
        let digest = h.finish();
        if digest != oracle::SUITE_DIGEST {
            eprintln!(
                "op {op}: suite digest {digest:016x} != {:016x}",
                oracle::SUITE_DIGEST
            );
            failed = true;
        }
        PassRecord {
            failed,
            spt: results
                .iter()
                .map(|c| Outcome::of_sim(&c.spt, c.cells))
                .collect(),
            speedup_geomean: spt_bench::geomean(
                results
                    .iter()
                    .map(|c| c.baseline.cycles as f64 / c.spt.cycles.max(1) as f64),
            ),
        }
    }
}

impl<const WARM: bool> Drop for Suite<WARM> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl<const WARM: bool> Workload for Suite<WARM> {
    /// A pass holds ten programs but a window only a few passes, so the
    /// tail is taken over per-program latencies.
    const TAIL_OF: &'static str = "program";

    fn setup(ctx: &Ctx, k: usize) -> Result<Self, String> {
        let dir = ctx
            .tmp
            .join(format!("suite-{}-{k}", if WARM { "warm" } else { "cold" }));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let s = Suite {
            suite: spt_bench_suite::suite(),
            dir,
            records: Vec::new(),
        };
        // One untimed pass: it primes the cache `suite-warm` measures, and
        // for `suite-cold` it warms the process (allocator, page cache)
        // into a throwaway directory so the first timed pass is not special.
        let prime = if WARM {
            s.dir.clone()
        } else {
            s.dir.join("warm-up")
        };
        let mut off = Recorder::new(false, Instant::now());
        for b in &s.suite {
            contain(|| {
                run_program(
                    b,
                    &prime,
                    &mut off,
                    &mut Acc::default(),
                    0,
                    Recorder::root(),
                )
            })?;
        }
        if !WARM {
            let _ = std::fs::remove_dir_all(&prime);
        }
        Ok(s)
    }

    fn window(&mut self, ctx: &Ctx, seconds: f64, rec: &mut Recorder, acc: &mut Acc) -> Window {
        let mut w = Window::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            let r = self.pass(ctx, rec, acc, &mut w);
            self.records.push(r);
        }
        w.wall_s = t0.elapsed().as_secs_f64();
        w
    }

    fn check(&mut self) -> Checked {
        // The reference outcome of every program on its ref input.
        let reference: Vec<Result<Outcome, String>> = self
            .suite
            .iter()
            .map(|b| {
                let m = spt_frontend::compile(b.source).map_err(|e| e.to_string())?;
                oracle::reference(&m, b.entry, b.ref_arg)
            })
            .collect();
        let mut speedup = 0.0;
        for (op, r) in self.records.iter_mut().enumerate() {
            if r.failed {
                continue;
            }
            for ((b, got), want) in self.suite.iter().zip(&r.spt).zip(&reference) {
                if want.as_ref() != Ok(got) {
                    eprintln!("op {op}: {}: SPT run differs from the reference interpreter ({want:?} vs {got:?})", b.name);
                    r.failed = true;
                }
            }
            speedup = r.speedup_geomean;
        }
        Checked {
            attempted: self.records.len() as u64,
            failed: self.records.iter().filter(|r| r.failed).count() as u64,
            speedup_geomean: speedup,
        }
    }
}
