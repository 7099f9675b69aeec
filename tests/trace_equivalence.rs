//! Cache-equivalence oracle for the `.spt-cache/` artifact cache.
//!
//! Caching may only change where a result comes from, never the result:
//! every `spt-bench-suite` program must compile to byte-identical reports
//! and modules with the cache off, cold and warm, and every memoized
//! `SimResult` read back warm must be bit-identical to the direct
//! simulation that stored it, under several machine configurations. The
//! cache files themselves must round-trip bit-exactly and turn damage into
//! `Corrupt` followed by a clean `Miss`.

use spt::pipeline::{
    compile_and_transform, transform_module_timed, CompilerConfig, ProfilingInput,
};
use spt::serve::{sim_with_cache, SimTraceStats};
use spt::sim::{CacheConfig, MachineConfig, SimResult, SptSimulator};
use spt::trace::{ArtifactCache, LoadOutcome};
use std::path::PathBuf;

fn assert_sim_eq(name: &str, got: &SimResult, want: &SimResult) {
    assert_eq!(got.ret, want.ret, "{name}: return bits");
    assert_eq!(got.cycles, want.cycles, "{name}: cycles");
    assert_eq!(got.insts, want.insts, "{name}: insts");
    assert_eq!(got.memory, want.memory, "{name}: memory image");
    assert_eq!(got.loops, want.loops, "{name}: per-loop sim stats");
    assert_eq!(
        got.cache_hit_rate.to_bits(),
        want.cache_hit_rate.to_bits(),
        "{name}: cache hit rate"
    );
    assert_eq!(
        got.branch_miss_rate.to_bits(),
        want.branch_miss_rate.to_bits(),
        "{name}: branch miss rate"
    );
}

/// A fresh, empty cache directory private to this test process.
fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spt-cache-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_config(dir: &std::path::Path) -> CompilerConfig {
    let mut config = CompilerConfig::best();
    config.trace.enabled = true;
    config.trace.cache_dir = Some(dir.to_path_buf());
    config
}

#[test]
fn memoized_simulation_matches_direct_under_every_machine_config() {
    let tiny_cache = MachineConfig {
        cache: CacheConfig {
            l1_sets: 2,
            l1_ways: 1,
            l2_sets: 4,
            l2_ways: 1,
            ..CacheConfig::default()
        },
        ..MachineConfig::default()
    };
    let zero_penalty = MachineConfig {
        branch_mispredict_penalty: 0,
        ..MachineConfig::default()
    };
    let big_penalty = MachineConfig {
        branch_mispredict_penalty: 40,
        ..MachineConfig::default()
    };
    let machines = [
        MachineConfig::default(),
        tiny_cache,
        zero_penalty,
        big_penalty,
    ];

    let dir = temp_cache_dir("sim");
    let settings = cached_config(&dir).trace;
    for b in spt::bench_suite::suite() {
        let module = spt::frontend::compile(b.source).expect("compiles");
        // Cold over every machine first, so a warm read under one machine
        // would return another machine's memo if the keys collided.
        let mut cold_stats = SimTraceStats::default();
        let cold: Vec<SimResult> = machines
            .iter()
            .map(|m| {
                sim_with_cache(&module, b.entry, b.train_arg, m, &settings, &mut cold_stats)
                    .expect("cold sim runs")
            })
            .collect();
        assert_eq!(
            (cold_stats.memo_hits, cold_stats.direct_runs),
            (0, machines.len() as u64),
            "{}: cold pass",
            b.name
        );
        let mut warm_stats = SimTraceStats::default();
        for (mi, machine) in machines.iter().enumerate() {
            let warm = sim_with_cache(
                &module,
                b.entry,
                b.train_arg,
                machine,
                &settings,
                &mut warm_stats,
            )
            .expect("warm sim served");
            assert_sim_eq(&format!("{}/machine{mi}", b.name), &warm, &cold[mi]);
        }
        assert_eq!(
            (warm_stats.memo_hits, warm_stats.direct_runs),
            (machines.len() as u64, 0),
            "{}: warm pass",
            b.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifact_cache_round_trips_and_rejects_damage() {
    let dir = temp_cache_dir("memo");
    let cache = ArtifactCache::new(&dir);

    // A memo from a genuinely speculative run, so per-loop stats are
    // non-trivial.
    let b = spt::bench_suite::benchmark("twolf_s").expect("exists");
    let input = ProfilingInput::new(b.entry, [b.train_arg]);
    let compiled = compile_and_transform(b.source, &input, &CompilerConfig::best())
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let machine = MachineConfig::default();
    let sim = SptSimulator::with_config(machine.clone())
        .run(&compiled.module, b.entry, &[b.train_arg])
        .expect("sim runs");
    assert!(!sim.loops.is_empty(), "twolf_s speculated no loop");
    let key = ArtifactCache::sim_key(
        compiled.module.content_hash(),
        b.entry,
        &[b.train_arg],
        &machine,
    );
    assert!(matches!(cache.load_sim(key), LoadOutcome::Miss));
    cache.store_sim(key, &sim);
    match cache.load_sim(key) {
        LoadOutcome::Hit(loaded) => assert_sim_eq("memo round trip", &loaded, &sim),
        other => panic!("expected hit, got {other:?}"),
    }

    // Corruption, truncation and a bare header must all surface as
    // `Corrupt` — recompute territory, never a panic — and evict the file,
    // so the next probe is a clean `Miss`.
    let path = dir.join(format!("sim-{key:016x}.bin"));
    let good = std::fs::read(&path).expect("cache file exists");
    let mut corrupt = good.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    for damaged in [
        corrupt,
        good[..good.len() / 4].to_vec(),
        b"SPTSIMRS".to_vec(),
    ] {
        std::fs::write(&path, &damaged).expect("write");
        assert!(matches!(cache.load_sim(key), LoadOutcome::Corrupt(_)));
        assert!(matches!(cache.load_sim(key), LoadOutcome::Miss));
    }

    // A rewritten store repairs the slot.
    cache.store_sim(key, &sim);
    assert!(matches!(cache.load_sim(key), LoadOutcome::Hit(_)));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_reports_are_unchanged_by_tracing_cold_or_warm() {
    let dir = temp_cache_dir("pipe");
    let cached = cached_config(&dir);

    for b in spt::bench_suite::suite() {
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let baseline = spt::frontend::compile(b.source).expect("compiles");

        let mut plain_mod = baseline.clone();
        let (plain_report, _) =
            transform_module_timed(&mut plain_mod, &input, &CompilerConfig::best())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));

        // Cold: empty cache — every first-pass unit is analyzed and stored.
        let mut cold_mod = baseline.clone();
        let (cold_report, cold_t) = transform_module_timed(&mut cold_mod, &input, &cached)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(
            cold_t.func_analysis_misses > 0,
            "{}: cold run analyzed nothing",
            b.name
        );

        // Warm: the same compile served from the cache.
        let mut warm_mod = baseline.clone();
        let (warm_report, warm_t) = transform_module_timed(&mut warm_mod, &input, &cached)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(
            warm_t.func_analysis_hits > 0,
            "{}: warm run missed the cache",
            b.name
        );
        assert_eq!(
            warm_t.func_analysis_misses, 0,
            "{}: warm run re-analyzed a function",
            b.name
        );

        // Reports and transformed modules must be byte-identical across all
        // three paths — caching is a pure execution-strategy change.
        let plain = format!("{plain_report:?}");
        assert_eq!(plain, format!("{cold_report:?}"), "{}: cold report", b.name);
        assert_eq!(plain, format!("{warm_report:?}"), "{}: warm report", b.name);
        let plain_ir = format!("{plain_mod:?}");
        assert_eq!(plain_ir, format!("{cold_mod:?}"), "{}: cold module", b.name);
        assert_eq!(plain_ir, format!("{warm_mod:?}"), "{}: warm module", b.name);

        // The simulations behind the report digest: cache off, cold and
        // warm agree bit for bit, and warm is served from the memo.
        let machine = MachineConfig::default();
        for (side, module) in [("baseline", &baseline), ("spt", &plain_mod)] {
            let name = format!("{}/{side}", b.name);
            let run = |config: &CompilerConfig, stats: &mut SimTraceStats| {
                sim_with_cache(module, b.entry, b.train_arg, &machine, &config.trace, stats)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            };
            let mut off = SimTraceStats::default();
            let mut cold = SimTraceStats::default();
            let mut warm = SimTraceStats::default();
            let direct = run(&CompilerConfig::best(), &mut off);
            assert_sim_eq(&name, &run(&cached, &mut cold), &direct);
            assert_sim_eq(&name, &run(&cached, &mut warm), &direct);
            assert_eq!((cold.memo_hits, cold.direct_runs), (0, 1), "{name}: cold");
            assert_eq!((warm.memo_hits, warm.direct_runs), (1, 0), "{name}: warm");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
