//! `edit-recompile`: rename one seeded kernel of the 12-kernel
//! analysis-heavy module, then recompile it warm through an
//! `IncrementalCache` primed during set-up. Partition search and the
//! function-unit cache do nearly all the work; profiling is tiny (train
//! input 24) and nothing is simulated inside an op.

use crate::drive::{contain, Checked, Ctx, Window, Workload};
use crate::gen::{self, Edit};
use crate::layers::Acc;
use crate::oracle;
use crate::spans::Recorder;
use spt_bench::incremental_workload as workload;
use spt_core::pipeline::transform_module_timed_with;
use spt_core::{CompilerConfig, IncrementalCache, ProfilingInput, StageTimings};
use spt_ir::Module;
use spt_sim::SptSimulator;
use std::time::Instant;

/// Input the post-window check simulates the last edited module on.
const SIM_ARG: i64 = 2000;

/// Memory budget of the primed unit cache: large enough that no edit of a
/// run evicts a base unit.
const CACHE_BYTES: u64 = 256 << 20;

struct OpRecord {
    failed: bool,
}

pub struct EditRecompile {
    base: String,
    base_report: String,
    cache: IncrementalCache,
    config: CompilerConfig,
    input: ProfilingInput,
    records: Vec<OpRecord>,
    /// The last successful op: its edit and the report it produced.
    last: Option<(usize, Edit, String)>,
}

fn compile(
    src: &str,
    input: &ProfilingInput,
    config: &CompilerConfig,
    cache: Option<&IncrementalCache>,
) -> Result<(Module, Module, String, StageTimings), String> {
    let baseline = spt_frontend::compile(src).map_err(|e| format!("frontend: {e}"))?;
    let mut module = baseline.clone();
    let (report, t) = transform_module_timed_with(&mut module, input, config, cache)
        .map_err(|e| format!("pipeline: {e}"))?;
    Ok((baseline, module, format!("{report:?}"), t))
}

impl Workload for EditRecompile {
    const TAIL_OF: &'static str = "op";

    fn setup(_ctx: &Ctx, _k: usize) -> Result<Self, String> {
        let base = workload::source();
        // No trace backend: the cache under measurement is the explicit
        // in-memory function-unit cache, not the artifact tiers.
        let config = CompilerConfig::best();
        let input = ProfilingInput::new(workload::ENTRY, [workload::TRAIN_ARG]);
        let cache = IncrementalCache::in_memory(CACHE_BYTES, 8);
        let (_, _, base_report, _) = contain(|| compile(&base, &input, &config, Some(&cache)))?;
        Ok(EditRecompile {
            base,
            base_report,
            cache,
            config,
            input,
            records: Vec::new(),
            last: None,
        })
    }

    fn window(&mut self, ctx: &Ctx, seconds: f64, rec: &mut Recorder, acc: &mut Acc) -> Window {
        let mut w = Window::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            let op = self.records.len() as u64;
            let e = gen::edit(ctx.seed, op);
            let src = gen::edited_source(&self.base, &e);
            let t = Instant::now();
            let root = rec.begin("op", op, Recorder::root());
            let result = contain(|| {
                let baseline = rec
                    .time("frontend", op, root, || spt_frontend::compile(&src))
                    .map_err(|e| format!("frontend: {e}"))?;
                let mut module = baseline;
                rec.time("core.transform", op, root, || {
                    transform_module_timed_with(
                        &mut module,
                        &self.input,
                        &self.config,
                        Some(&self.cache),
                    )
                })
                .map_err(|e| format!("pipeline: {e}"))
            });
            rec.end(root);
            let lat = t.elapsed().as_secs_f64();
            w.op_s.push(lat);
            w.tail_s.push(lat);
            // Per-op check: undoing the rename in the report must give the
            // base module's report, since exactly one function changed and
            // only by name.
            let failed = match result {
                Ok((report, stages)) => {
                    acc.stages(&stages);
                    let report = format!("{report:?}");
                    let restored = report.replace(&e.name, &format!("k{}", e.kernel));
                    if restored != self.base_report {
                        eprintln!("op {op}: report of edit {e:?} is not the base report renamed");
                        true
                    } else {
                        self.last = Some((op as usize, e, report));
                        false
                    }
                }
                Err(err) => {
                    eprintln!("op {op}: {err}");
                    true
                }
            };
            self.records.push(OpRecord { failed });
        }
        w.wall_s = t0.elapsed().as_secs_f64();
        w
    }

    /// The last op's spliced report must equal a cold compile of the same
    /// edited source byte for byte, and the module it compiled to must
    /// compute what the reference interpreter computes.
    fn check(&mut self) -> Checked {
        let mut speedup = 0.0;
        if let Some((op, e, report)) = self.last.take() {
            let src = gen::edited_source(&self.base, &e);
            let verdict = contain(|| {
                let (baseline, module, cold, _) = compile(&src, &self.input, &self.config, None)?;
                if cold != report {
                    return Err("spliced report differs from a cold compile".into());
                }
                let want = oracle::reference(&baseline, workload::ENTRY, SIM_ARG)?;
                let sim = SptSimulator::default();
                let base_run = sim
                    .run(&baseline, workload::ENTRY, &[SIM_ARG])
                    .map_err(|e| e.to_string())?;
                let spt_run = sim
                    .run(&module, workload::ENTRY, &[SIM_ARG])
                    .map_err(|e| e.to_string())?;
                if oracle::Outcome::of_sim(&spt_run, oracle::cells(&baseline)) != want {
                    return Err("SPT run differs from the reference interpreter".into());
                }
                Ok(base_run.cycles as f64 / spt_run.cycles.max(1) as f64)
            });
            match verdict {
                Ok(s) => speedup = s,
                Err(err) => {
                    eprintln!("op {op}: {err}");
                    self.records[op].failed = true;
                }
            }
        }
        Checked {
            attempted: self.records.len() as u64,
            failed: self.records.iter().filter(|r| r.failed).count() as u64,
            speedup_geomean: speedup,
        }
    }
}
