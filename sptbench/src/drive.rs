//! The measurement protocol every workload runs under.
//!
//! Untraced (`--trace 0`): set up [`SETUPS`] times, keeping only the last
//! state, then measure ops for the whole run time. Traced (`--trace 1`):
//! set up once, measure half the run time untraced, then half with spans
//! on; the p50 of the two halves gives the tracing overhead. After the
//! measured windows the workload checks the outputs it recorded against
//! its oracles, which marks failed ops.

use crate::layers::{self, Acc, Metric};
use crate::spans::Recorder;
use crate::stats;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What every workload is handed.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Private scratch directory of this run (caches, socket).
    pub tmp: PathBuf,
}

/// The ops of one measured window.
#[derive(Default)]
pub struct Window {
    /// Latency of each op, seconds.
    pub op_s: Vec<f64>,
    /// Samples of the tail: the op latencies, or finer-grained sub-op
    /// latencies where a window holds too few ops (see `tail_of`).
    pub tail_s: Vec<f64>,
    /// Window wall time, seconds.
    pub wall_s: f64,
}

/// What the post-window checks found.
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    /// Generated-code quality over the programs the workload compiled.
    pub speedup_geomean: f64,
}

pub trait Workload: Sized {
    /// What the tail samples are ("op" or a finer unit).
    const TAIL_OF: &'static str;

    /// Builds inputs, primes caches and starts services; the `k`-th of
    /// the run's set-ups.
    fn setup(ctx: &Ctx, k: usize) -> Result<Self, String>;

    /// Runs ops until `seconds` have passed.
    fn window(&mut self, ctx: &Ctx, seconds: f64, rec: &mut Recorder, acc: &mut Acc) -> Window;

    /// Checks every op's recorded outputs against the oracles.
    fn check(&mut self) -> Checked;

    /// Per-layer figures the workload computes itself after a traced
    /// window (the daemon's counters and offline replays).
    fn finish_trace(&mut self, _acc: &mut Acc) {}
}

pub struct Measured {
    pub setup_s: Vec<f64>,
    pub window: Window,
    pub checked: Checked,
    pub tail_of: &'static str,
    /// Per-layer metrics and the recorded spans (traced runs only).
    pub traced: Option<(Vec<Metric>, Recorder)>,
}

pub fn measure<W: Workload>(ctx: &Ctx, traced: bool) -> Result<Measured, String> {
    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let mut state = None;
    for k in 0..if traced { 1 } else { SETUPS } {
        // The previous state is torn down before the next set-up starts.
        drop(state.take());
        let t = Instant::now();
        let s = W::setup(ctx, k)?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    let mut w = state.ok_or("no set-up ran")?;
    let mut off = Recorder::new(false, origin);
    if !traced {
        let window = w.window(ctx, ctx.seconds, &mut off, &mut Acc::default());
        let checked = w.check();
        return Ok(Measured {
            setup_s,
            window,
            checked,
            tail_of: W::TAIL_OF,
            traced: None,
        });
    }
    let half = ctx.seconds / 2.0;
    let untraced = w.window(ctx, half, &mut off, &mut Acc::default());
    let mut rec = Recorder::new(true, origin);
    let mut acc = Acc::default();
    let traced_w = w.window(ctx, half, &mut rec, &mut acc);
    w.finish_trace(&mut acc);
    let checked = w.check();
    let metrics = layers::per_layer(
        &acc,
        traced_w.op_s.len() as f64,
        &rec,
        stats::median(&untraced.op_s),
        stats::median(&traced_w.op_s),
    );
    Ok(Measured {
        setup_s,
        window: traced_w,
        checked,
        tail_of: W::TAIL_OF,
        traced: Some((metrics, rec)),
    })
}

/// Runs `f`, turning a panic into an error: a panicking op is a failed op,
/// not a dead benchmark.
pub fn contain<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .map_or("panic".to_string(), |s| format!("panic: {s}"))),
    }
}
