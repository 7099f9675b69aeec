//! `sptbench`: the spt compiler's benchmark.
//!
//! ```text
//! sptbench --workload <suite-cold|suite-warm|edit-recompile|daemon-mixed>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against the spt crates from outside, checks
//! every op's output against an independent oracle, and prints as its last
//! stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Lines before it starting with `#` record the
//! environment, the tail percentile and why any layer reads 0. See
//! `README.md` beside this package for every metric and workload.

mod daemon;
mod drive;
mod edit;
mod gen;
mod layers;
mod oracle;
mod spans;
mod stats;
mod suite;

use drive::{Ctx, Measured};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads. `BENCHMARK.json` declares only `edit-recompile` and
/// `daemon-mixed`: the run-to-run spread of the memory-bound `suite-*`
/// workloads on a shared host is too wide for a regression gate (see
/// `README.md`), but they stay runnable.
const WORKLOADS: [&str; 4] = ["suite-cold", "suite-warm", "edit-recompile", "daemon-mixed"];

/// Execution tier every run is pinned to.
const PINNED_TIER: spt_ir::ExecTier = spt_ir::ExecTier::Dense;

/// Scratch space, relative to the directory the benchmark runs in.
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker threads the pipeline and the daemon are pinned to: every core,
/// at most two, so threads never outnumber cores.
fn pinned_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Refuses to run when the environment asks the crates for another thread
/// count or execution tier than the pinned ones.
fn check_env(workers: usize) -> Result<(), String> {
    if let Ok(v) = std::env::var("SPT_THREADS") {
        if v.trim().parse::<usize>().ok() != Some(workers) {
            return Err(format!(
                "SPT_THREADS={v} contradicts the pinned worker count {workers}; unset it"
            ));
        }
    }
    if let Ok(v) = std::env::var("SPT_EXEC_TIER") {
        if spt_ir::ExecTier::parse(&v) != Some(PINNED_TIER) {
            return Err(format!(
                "SPT_EXEC_TIER={v} contradicts the pinned tier {PINNED_TIER:?}; unset it"
            ));
        }
    }
    Ok(())
}

fn peak_rss_mb() -> f64 {
    spt_bench::history::peak_rss_kb() as f64 / 1024.0
}

fn json_metrics(metrics: &[layers::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args, ctx: &Ctx) -> Result<Measured, String> {
    match args.workload.as_str() {
        "suite-cold" => drive::measure::<suite::Suite<false>>(ctx, args.trace),
        "suite-warm" => drive::measure::<suite::Suite<true>>(ctx, args.trace),
        "edit-recompile" => drive::measure::<edit::EditRecompile>(ctx, args.trace),
        _ => drive::measure::<daemon::DaemonMixed>(ctx, args.trace),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = pinned_workers();
    if let Err(e) = check_env(workers) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    spt_core::parallel::set_thread_count_override(Some(workers));
    spt_ir::set_exec_tier_override(Some(PINNED_TIER));

    let tmp = PathBuf::from(RUN_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tmp: tmp.clone(),
    };
    let measured = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&tmp);
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let w = &m.window;
    let ops = w.op_s.len();
    let tail = stats::tail(&w.tail_s);
    let (tail_pct, tail_s) = tail.unwrap_or((100.0, w.tail_s.iter().copied().fold(0.0, f64::max)));
    println!(
        "# env {{\"rev\": \"{}\", \"nproc\": {}, \"workers\": {workers}, \"clients\": {}, \
         \"exec_tier\": \"{PINNED_TIER:?}\", \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"ops\": {ops}, \"setups\": {}}}",
        spt_bench::history::git_revision(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if args.workload == "daemon-mixed" {
            workers
        } else {
            1
        },
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        m.setup_s.len(),
    );
    println!(
        "# op_tail_ms is p{tail_pct:.2} of {} {} latencies{}",
        w.tail_s.len(),
        m.tail_of,
        if tail.is_none() {
            " (too few samples: the maximum)"
        } else {
            ""
        }
    );
    let c = &m.checked;
    println!(
        "# fail_ratio {} ({} of {} ops failed)",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    let metrics: Vec<layers::Metric> = match &m.traced {
        None => vec![
            ("setup_s".into(), stats::median(&m.setup_s), "s"),
            ("op_p50_ms".into(), stats::median(&w.op_s) * 1e3, "ms"),
            ("op_tail_ms".into(), tail_s * 1e3, "ms"),
            ("ops_per_s".into(), ops as f64 / w.wall_s.max(1e-9), "1/s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
            (
                "ok_ratio".into(),
                1.0 - c.failed as f64 / c.attempted.max(1) as f64,
                "ratio",
            ),
            ("spt_speedup_geomean".into(), c.speedup_geomean, "x"),
        ],
        Some((layer_metrics, rec)) => {
            for (name, v, _) in layer_metrics {
                if *v == 0.0 {
                    println!("# layer {name} reads 0: not on the {} path", args.workload);
                }
            }
            let spans = PathBuf::from(RUN_DIR)
                .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
            match rec.write_tsv(&spans) {
                Ok(()) => println!("# spans written to {}", spans.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", spans.display()),
            }
            layer_metrics.clone()
        }
    };
    let correct = c.failed == 0 && c.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        c.attempted,
        c.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
