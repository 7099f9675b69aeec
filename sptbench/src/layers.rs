//! Per-layer metrics of the traced run.
//!
//! Layers are the repository's crates. Their numbers come from two places,
//! both outside the crates: spans the benchmark records around its own
//! calls into each crate's public functions, and the counters those
//! functions already return (`StageTimings`, `SimResult` and its
//! `LoopSimStats`, `SimTraceStats`, `CompileService::stats`).
//!
//! Times and counts are per op unless the name says otherwise. Every
//! workload prints every metric; a layer that is not on a workload's path
//! reads 0 and the run says so on a `# layer` line.

use crate::spans::Recorder;
use spt_core::StageTimings;
use spt_serve::SimTraceStats;
use spt_sim::SimResult;
use std::collections::BTreeMap;

/// Every per-layer metric other than the per-program rows, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.s", "s"),
    ("core.transform_s", "s"),
    ("core.self_s", "s"),
    ("core.func_units", "count"),
    ("core.func_analysis_hit_ratio", "ratio"),
    ("core.func_emit_hit_ratio", "ratio"),
    ("profile.s", "s"),
    ("trace.capture_s", "s"),
    ("trace.replay_s", "s"),
    ("trace.hit_ratio", "ratio"),
    ("trace.evictions", "count"),
    ("partition.s", "s"),
    ("partition.nodes", "count"),
    ("partition.nodes_per_s", "1/s"),
    ("transform.preprocess_s", "s"),
    ("transform.svp_s", "s"),
    ("transform.emit_s", "s"),
    ("sim.baseline_s", "s"),
    ("sim.spt_s", "s"),
    ("sim.minsts_per_s", "Minst/s"),
    ("sim.memo_hit_ratio", "ratio"),
    ("sim.forks", "count"),
    ("sim.commits", "count"),
    ("sim.kills", "count"),
    ("sim.misspec_ratio", "ratio"),
    ("sim.wasted_insts", "count"),
    ("serve.roundtrip_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.mem_hit_ratio", "ratio"),
    ("serve.pipeline_runs", "count"),
    ("serve.flights_led", "count"),
    ("serve.flights_joined", "count"),
    ("serve.disk_memo_hits", "count"),
    ("serve.evictions", "count"),
    ("serve.errors", "count"),
    ("self.frontend_share", "ratio"),
    ("self.core_share", "ratio"),
    ("self.profile_share", "ratio"),
    ("self.partition_share", "ratio"),
    ("self.transform_share", "ratio"),
    ("self.trace_share", "ratio"),
    ("self.sim_share", "ratio"),
    ("self.serve_share", "ratio"),
    ("self.unaccounted_share", "ratio"),
    ("bench.op_p50_untraced_ms", "ms"),
    ("bench.op_p50_traced_ms", "ms"),
    ("bench.tracing_overhead", "ratio"),
];

/// A reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The per-program row name for suite program `name`.
pub fn program_metric(name: &str) -> String {
    format!("program.{name}.s")
}

/// Raw sums over the traced ops, keyed by counter name, plus values a
/// workload computes itself (the `serve.*` figures).
#[derive(Default)]
pub struct Acc {
    sums: BTreeMap<String, f64>,
    direct: BTreeMap<&'static str, f64>,
}

impl Acc {
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_insert(0.0) += v;
    }

    fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Adds another accumulator's sums (a client thread's).
    pub fn merge(&mut self, other: Acc) {
        for (k, v) in other.sums {
            *self.sums.entry(k).or_insert(0.0) += v;
        }
        self.direct.extend(other.direct);
    }

    /// Sets a metric the workload computed itself.
    pub fn set(&mut self, metric: &'static str, v: f64) {
        self.direct.insert(metric, v);
    }

    /// Folds in the stage counters one pipeline run returned.
    pub fn stages(&mut self, t: &StageTimings) {
        self.add("preprocess_s", t.preprocess_s);
        self.add("profile_s", t.profile_s);
        self.add("analysis_s", t.analysis_s);
        self.add("svp_s", t.svp_s);
        self.add("emit_s", t.select_emit_s);
        self.add("search_visited", t.search_visited as f64);
        self.add("trace_capture_s", t.trace_capture_s);
        self.add("trace_replay_s", t.trace_replay_s);
        self.add("trace_hits", t.trace_cache_hits as f64);
        self.add("trace_misses", t.trace_cache_misses as f64);
        self.add("trace_evictions", t.trace_cache_evictions as f64);
        self.add("func_units", t.func_units_total as f64);
        self.add("func_analysis_hits", t.func_analysis_hits as f64);
        self.add("func_analysis_misses", t.func_analysis_misses as f64);
        self.add("func_emit_hits", t.func_emit_hits as f64);
        self.add("func_emit_misses", t.func_emit_misses as f64);
    }

    /// Folds in one simulation's speculation counters.
    pub fn sim(&mut self, r: &SimResult) {
        self.add("sim_runs", 1.0);
        self.add("sim_insts", r.insts as f64);
        for s in r.loops.values() {
            self.add("sim_forks", s.forks as f64);
            self.add("sim_commits", s.commits as f64);
            self.add("sim_kills", s.kills as f64);
            self.add("sim_free", s.free_insts as f64);
            self.add("sim_reexec", s.reexec_insts as f64);
            self.add("sim_wasted", s.wasted_insts as f64);
        }
    }

    /// Folds in the trace-cache counters of the simulation side.
    pub fn sim_trace(&mut self, s: &SimTraceStats) {
        self.add("sim_memo_hits", s.memo_hits as f64);
        self.add("trace_hits", s.hits() as f64);
        self.add("trace_misses", s.misses() as f64);
        self.add("sim_trace_s", s.capture_s + s.replay_s);
        self.add("trace_capture_s", s.capture_s);
        self.add("trace_replay_s", s.replay_s);
    }

    fn stage_sum(&self) -> f64 {
        ["preprocess_s", "profile_s", "analysis_s", "svp_s", "emit_s"]
            .iter()
            .map(|k| self.get(k))
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in [`PER_LAYER`] order followed by one row per
/// suite program, from `acc` over `ops` traced ops and the spans in `rec`.
///
/// Self shares split op wall time (the sum of `op` spans) by layer:
/// frontend, sim and serve from their spans' self time; the pipeline's
/// five stages from `StageTimings` (they partition the time inside
/// `core.transform`, whose remainder is `core`); the trace layer's
/// simulation-side capture and replay from `SimTraceStats`. The pipeline
/// reports its own trace capture and replay inside the profile and SVP
/// stages without splitting them out, so their self time stays there.
/// `unaccounted` is the op time no span covers.
pub fn per_layer(
    acc: &Acc,
    ops: f64,
    rec: &Recorder,
    untraced_p50_s: f64,
    traced_p50_s: f64,
) -> Vec<Metric> {
    let per_op = |k: &str| ratio(acc.get(k), ops);
    let totals = rec.totals();
    let selfs = rec.self_times();
    let span = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let transform_s = span(&totals, "core.transform");
    let stage_sum = acc.stage_sum();
    let op_wall = span(&totals, "op");
    let frontend_s = span(&totals, "frontend") + acc.get("frontend_offline_s");
    // Simulations the daemon ran, re-timed outside it (zero elsewhere).
    let (sim_base_off, sim_spt_off) = (
        acc.get("sim_baseline_offline_s"),
        acc.get("sim_spt_offline_s"),
    );
    let sim_self =
        span(&selfs, "sim.baseline") + span(&selfs, "sim.spt") + sim_base_off + sim_spt_off
            - acc.get("sim_trace_s");
    // Inside a daemon round trip the frontend, pipeline and simulations ran
    // in the server; their shares are taken out of serve's.
    let serve_self = (span(&selfs, "serve.roundtrip")
        - if span(&totals, "serve.roundtrip") > 0.0 {
            stage_sum + acc.get("frontend_offline_s") + sim_base_off + sim_spt_off
        } else {
            0.0
        })
    .max(0.0);
    let share = |v: f64| ratio(v, op_wall);
    let mut vals: BTreeMap<&str, f64> = BTreeMap::new();
    vals.insert("frontend.s", ratio(frontend_s, ops));
    vals.insert("core.transform_s", ratio(transform_s, ops));
    vals.insert(
        "core.self_s",
        ratio((transform_s - stage_sum).max(0.0), ops),
    );
    vals.insert("core.func_units", per_op("func_units"));
    let (ah, am) = (
        acc.get("func_analysis_hits"),
        acc.get("func_analysis_misses"),
    );
    vals.insert("core.func_analysis_hit_ratio", ratio(ah, ah + am));
    let (eh, em) = (acc.get("func_emit_hits"), acc.get("func_emit_misses"));
    vals.insert("core.func_emit_hit_ratio", ratio(eh, eh + em));
    vals.insert("profile.s", per_op("profile_s"));
    vals.insert("trace.capture_s", per_op("trace_capture_s"));
    vals.insert("trace.replay_s", per_op("trace_replay_s"));
    let (th, tm) = (acc.get("trace_hits"), acc.get("trace_misses"));
    vals.insert("trace.hit_ratio", ratio(th, th + tm));
    vals.insert("trace.evictions", per_op("trace_evictions"));
    vals.insert("partition.s", per_op("analysis_s"));
    vals.insert("partition.nodes", per_op("search_visited"));
    vals.insert(
        "partition.nodes_per_s",
        ratio(acc.get("search_visited"), acc.get("analysis_s")),
    );
    vals.insert("transform.preprocess_s", per_op("preprocess_s"));
    vals.insert("transform.svp_s", per_op("svp_s"));
    vals.insert("transform.emit_s", per_op("emit_s"));
    let (sb, ss) = (
        span(&totals, "sim.baseline") + sim_base_off,
        span(&totals, "sim.spt") + sim_spt_off,
    );
    vals.insert("sim.baseline_s", ratio(sb, ops));
    vals.insert("sim.spt_s", ratio(ss, ops));
    vals.insert(
        "sim.minsts_per_s",
        ratio(acc.get("sim_insts") / 1e6, sb + ss),
    );
    vals.insert(
        "sim.memo_hit_ratio",
        ratio(acc.get("sim_memo_hits"), acc.get("sim_runs")),
    );
    vals.insert("sim.forks", per_op("sim_forks"));
    vals.insert("sim.commits", per_op("sim_commits"));
    vals.insert("sim.kills", per_op("sim_kills"));
    let (free, reexec) = (acc.get("sim_free"), acc.get("sim_reexec"));
    vals.insert("sim.misspec_ratio", ratio(reexec, free + reexec));
    vals.insert("sim.wasted_insts", per_op("sim_wasted"));
    vals.insert("self.frontend_share", share(frontend_s));
    vals.insert("self.core_share", share((transform_s - stage_sum).max(0.0)));
    vals.insert("self.profile_share", share(acc.get("profile_s")));
    vals.insert("self.partition_share", share(acc.get("analysis_s")));
    vals.insert(
        "self.transform_share",
        share(acc.get("preprocess_s") + acc.get("svp_s") + acc.get("emit_s")),
    );
    vals.insert("self.trace_share", share(acc.get("sim_trace_s")));
    vals.insert("self.sim_share", share(sim_self.max(0.0)));
    vals.insert("self.serve_share", share(serve_self));
    vals.insert("self.unaccounted_share", share(span(&selfs, "op")));
    vals.insert("bench.op_p50_untraced_ms", untraced_p50_s * 1e3);
    vals.insert("bench.op_p50_traced_ms", traced_p50_s * 1e3);
    vals.insert(
        "bench.tracing_overhead",
        ratio(traced_p50_s, untraced_p50_s),
    );
    for (k, v) in &acc.direct {
        vals.insert(k, *v);
    }
    let mut out: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                vals.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect();
    for b in spt_bench_suite::suite() {
        let key = program_metric(b.name);
        let v = per_op(&key);
        out.push((key, v, "s"));
    }
    out
}
