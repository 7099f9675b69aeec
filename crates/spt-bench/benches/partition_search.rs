//! Criterion benchmarks for the branch-and-bound optimal-partition search
//! (§5), measuring the effect of the two pruning heuristics — the search
//! cost the paper bounds with the 30-violation-candidate limit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
use spt_cost::LoopCostModel;
use spt_ir::loops::LoopId;
use spt_partition::{
    greedy_partition, optimal_partition, optimal_partition_reference, SearchConfig,
};
use std::hint::black_box;

/// The cost model of loop 0 of `fname` in `src`, with static (profile-free)
/// dependence probabilities.
fn loop_model(src: &str, fname: &str) -> LoopCostModel {
    let module = spt_frontend::compile(src).expect("compiles");
    let func = module.func_by_name(fname).expect("function exists");
    let graph = DepGraph::build(
        &module,
        func,
        LoopId::new(0),
        Profiles::default(),
        &DepGraphConfig::default(),
    );
    LoopCostModel::new(graph)
}

/// The pipeline's pre-fork size threshold (`CompilerConfig::prefork_frac`)
/// for `model`'s loop.
fn pipeline_config(model: &LoopCostModel) -> SearchConfig {
    SearchConfig {
        max_prefork_size: (model.graph.body_size as f64 * 0.35) as u64,
        ..SearchConfig::default()
    }
}

/// Builds a loop with `k` independent carried accumulators — `k` violation
/// candidates and a 2^k unpruned search space.
fn many_vc_model(k: usize) -> LoopCostModel {
    let mut decls = String::new();
    let mut body = String::new();
    let mut ret = String::from("0");
    for v in 0..k {
        decls.push_str(&format!("let x{v} = {v};\n"));
        body.push_str(&format!("x{v} = x{v} + i % {};\n", v + 2));
        ret.push_str(&format!(" + x{v}"));
    }
    let src = format!(
        "fn f(n: int) -> int {{ {decls} let i = 0; while (i < n) {{ {body} i = i + 1; }} return {ret}; }}"
    );
    loop_model(&src, "f")
}

fn bench_search_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("bnb_search");
    for k in [4usize, 8, 12] {
        let model = many_vc_model(k);
        let config = SearchConfig::default();
        group.bench_with_input(BenchmarkId::new("pruned", k), &model, |b, m| {
            b.iter(|| black_box(optimal_partition(black_box(m), &config)))
        });
        let unpruned = SearchConfig {
            prune_bound: false,
            prune_size: false,
            ..SearchConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("exhaustive", k), &model, |b, m| {
            b.iter(|| black_box(optimal_partition(black_box(m), &unpruned)))
        });
        group.bench_with_input(BenchmarkId::new("greedy", k), &model, |b, m| {
            b.iter(|| black_box(greedy_partition(black_box(m), &config)))
        });
    }
    group.finish();
}

/// The worst case the paper's 30-VC limit admits: 28 violation candidates,
/// capped at a fixed number of visited search nodes so the search and the
/// from-scratch reference time the *same* tree. The ratio is pure per-node
/// evaluation throughput: the stacked evaluator's disarm/undo against a
/// closure walk plus a full propagation sweep per node.
fn bench_incremental_vs_reference(c: &mut Criterion) {
    let model = many_vc_model(28);
    let config = SearchConfig {
        max_visited: 20_000,
        ..SearchConfig::default()
    };
    let mut group = c.benchmark_group("bnb_search_28vc");
    group.bench_with_input(BenchmarkId::new("incremental", 28), &model, |b, m| {
        b.iter(|| black_box(optimal_partition(black_box(m), &config)))
    });
    group.bench_with_input(BenchmarkId::new("reference", 28), &model, |b, m| {
        b.iter(|| black_box(optimal_partition_reference(black_box(m), &config)))
    });
    group.finish();
}

fn bench_suite_loop(c: &mut Criterion) {
    // A realistic loop from the benchmark suite.
    let bench = spt_bench_suite::benchmark("twolf_s").expect("exists");
    let model = loop_model(bench.source, "anneal");
    let config = pipeline_config(&model);
    c.bench_function("bnb_search/twolf_s::anneal", |b| {
        b.iter(|| black_box(optimal_partition(black_box(&model), &config)))
    });
}

/// The kernel the `edit-recompile` workload re-analyzes on every edit: 20
/// independent recurrences plus the induction variable, searched at the
/// pipeline's size threshold — the search that dominates that workload.
/// `workers=1` is the sequential search; `workers=2` is what the pipeline
/// runs when that kernel is the only missed loop on a two-core host, with
/// one speculative helper.
fn bench_edit_recompile_kernel(c: &mut Criterion) {
    let src = spt_bench::incremental_workload::source_with(1);
    let model = loop_model(&src, "k0");
    for workers in [1, 2] {
        let config = SearchConfig {
            workers,
            ..pipeline_config(&model)
        };
        c.bench_function(
            &format!("bnb_search/edit_recompile::k0/workers={workers}"),
            |b| b.iter(|| black_box(optimal_partition(black_box(&model), &config))),
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_search_scaling, bench_incremental_vs_reference, bench_suite_loop,
        bench_edit_recompile_kernel
}
criterion_main!(benches);
