//! Cache-aware simulation entry point, shared by the daemon service and the
//! bench harnesses (re-exported through `spt-bench` for the table/figure
//! binaries).
//!
//! This is the *disk* tier: the daemon's in-memory `SimResult` layer (see
//! [`crate::service`]) probes its sharded LRU first and only falls through
//! to [`sim_with_cache`], which consults the content-addressed
//! `.spt-cache/` memo, then simulates directly.

use spt_core::TraceSettings;
use spt_sim::{MachineConfig, SimError, SimResult, SptSimulator};
use spt_trace::{ArtifactCache, LoadOutcome};

/// Artifact-cache statistics of the simulation side of a run (the
/// pipeline's own cache counters live in
/// [`StageTimings`](spt_core::StageTimings)).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTraceStats {
    /// Simulations served whole from a cached `SimResult` memo.
    pub memo_hits: u64,
    /// Simulations [`sim_with_cache_in`] ran directly (memo miss, or no
    /// cache handle); the uncached [`sim_with_cache`] path counts nothing.
    pub direct_runs: u64,
    /// Always 0; kept only because `sptbench/src/layers.rs` reads it.
    pub capture_s: f64,
    /// Always 0; kept only because `sptbench/src/layers.rs` reads it.
    pub replay_s: f64,
}

impl SimTraceStats {
    /// Simulations served from the memo (`memo_hits`).
    pub fn hits(&self) -> u64 {
        self.memo_hits
    }

    /// Simulations that had to run (`direct_runs`).
    pub fn misses(&self) -> u64 {
        self.direct_runs
    }

    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &SimTraceStats) {
        self.memo_hits += other.memo_hits;
        self.direct_runs += other.direct_runs;
        self.capture_s += other.capture_s;
        self.replay_s += other.replay_s;
    }
}

/// Simulates `entry(arg)` of `module` under `machine`, memoized when
/// `settings` enables the artifact cache with a `cache_dir`: a
/// content-addressed `SimResult` memo (module hash + entry + args + machine
/// config) is probed first — an exact repeat costs one file read — and a
/// miss simulates directly and stores the memo.
///
/// Otherwise (`enabled` off, or no `cache_dir`) this is exactly a direct
/// [`SptSimulator`] run.
///
/// # Errors
///
/// Whatever the underlying simulation returns; cache problems never
/// surface as errors.
pub fn sim_with_cache(
    module: &spt_ir::Module,
    entry: &str,
    arg: i64,
    machine: &MachineConfig,
    settings: &TraceSettings,
    stats: &mut SimTraceStats,
) -> Result<SimResult, SimError> {
    match (settings.enabled, &settings.cache_dir) {
        (true, Some(dir)) => {
            let cache = ArtifactCache::new(dir);
            sim_with_cache_in(module, entry, arg, machine, Some(&cache), stats)
        }
        _ => SptSimulator::with_config(machine.clone()).run(module, entry, &[arg]),
    }
}

/// [`sim_with_cache`] against a caller-owned [`ArtifactCache`] handle (or
/// none, for a counted direct run). The daemon routes through here with
/// its byte-budgeted handle so every store also enforces the disk bound and
/// lands in the daemon's eviction counters; the settings-based wrapper
/// above constructs a transient unbudgeted handle per call, which is fine
/// for the one-shot harness binaries.
///
/// # Errors
///
/// See [`sim_with_cache`].
pub fn sim_with_cache_in(
    module: &spt_ir::Module,
    entry: &str,
    arg: i64,
    machine: &MachineConfig,
    cache: Option<&ArtifactCache>,
    stats: &mut SimTraceStats,
) -> Result<SimResult, SimError> {
    let memo = cache.map(|c| {
        let key = ArtifactCache::sim_key(module.content_hash(), entry, &[arg], machine);
        (c, key)
    });
    if let Some((cache, key)) = memo {
        if let LoadOutcome::Hit(hit) = cache.load_sim(key) {
            stats.memo_hits += 1;
            return Ok(hit);
        }
    }
    stats.direct_runs += 1;
    let result = SptSimulator::with_config(machine.clone()).run(module, entry, &[arg])?;
    if let Some((cache, key)) = memo {
        cache.store_sim(key, &result);
    }
    Ok(result)
}
