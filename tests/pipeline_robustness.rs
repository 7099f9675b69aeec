//! Whole-pipeline robustness fuzzing for the fault-isolated pipeline.
//!
//! 64 randomly generated `minic` programs (two functions, optional nested
//! loops, guarded stores, division by possibly-zero subexpressions) are
//! pushed through the full cost-driven pipeline under *two* thread counts,
//! asserting the fault-isolation contract from the outside:
//!
//! 1. **no panic escapes** `compile_and_transform`, whatever the program;
//! 2. on success, the transformed module computes **exactly the baseline's
//!    results**;
//! 3. every loop that was not selected carries at least one **diagnostic**
//!    explaining why;
//! 4. the report — including the diagnostic stream — is **byte-identical**
//!    between one worker and four (set through the process-wide
//!    worker-count override).
//!
//! The vendored proptest stand-in derives its cases deterministically from
//! the test name, so CI runs are reproducible with fixed seeds by
//! construction.

use proptest::prelude::*;
use spt::pipeline::parallel::set_thread_count_override;
use spt::pipeline::{compile_and_transform, CompilerConfig, LoopOutcome, ProfilingInput};
use spt::profile::{Interp, NoProfiler, Val};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A random but well-formed two-function program.
#[derive(Debug, Clone)]
struct ProgSpec {
    updates: Vec<(usize, u8, i64)>, // (accumulator, op selector, constant)
    guard_mod: i64,
    stride: i64,
    inner_trip: i64,
    with_inner: u8,
    config_sel: u8,
}

fn arb_prog() -> impl Strategy<Value = ProgSpec> {
    (
        proptest::collection::vec((0usize..4, 0u8..7, 1i64..11), 1..7),
        (2i64..8, 1i64..6, 2i64..6),
        (0u8..2, 0u8..3),
    )
        .prop_map(
            |(updates, (guard_mod, stride, inner_trip), (with_inner, config_sel))| ProgSpec {
                updates,
                guard_mod,
                stride,
                inner_trip,
                with_inner,
                config_sel,
            },
        )
}

fn render(spec: &ProgSpec) -> String {
    let mut decls = String::new();
    for v in 0..4 {
        decls.push_str(&format!("    let x{v} = {};\n", 2 * v + 1));
    }
    let mut body = String::new();
    for (k, &(v, op, c)) in spec.updates.iter().enumerate() {
        let expr = match op {
            0 => format!("x{v} + {c}"),
            1 => format!("x{v} * {c} % 1013"),
            2 => format!("x{v} + a[(i * {} + {k}) % 256]", spec.stride),
            3 => format!("x{v} ^ (i << {})", c % 5),
            // Division/remainder by a possibly-zero subexpression: the IR
            // defines x/0 == x%0 == 0, so these are semantically safe but
            // stress the cost model's latency-heavy nodes.
            4 => format!("x{v} + x{} / (x{} % {c})", (v + 1) % 4, (v + 2) % 4),
            5 => format!("x{v} % (i % {c} - 1)"),
            _ => format!("x{v} + i % {c} + b[(i + {k}) % 256]"),
        };
        body.push_str(&format!("      x{v} = {expr};\n"));
    }
    let inner = if spec.with_inner == 1 {
        format!(
            "      for (let j = 0; j < {}; j = j + 1) {{\n\
             \x20       x2 = x2 + a[(i + j) % 256] % 13;\n\
             \x20     }}\n",
            spec.inner_trip
        )
    } else {
        String::new()
    };
    format!(
        "global a[256]: int;\n\
         global b[256]: int;\n\
         fn seed() {{\n\
         \x20 for (let k = 0; k < 256; k = k + 1) {{\n\
         \x20   a[k] = (k * 31 + 7) % 97;\n\
         \x20   b[k] = (k * 17 + 3) % 89;\n\
         \x20 }}\n\
         }}\n\
         fn kernel(n: int) -> int {{\n\
         {decls}\
         \x20 for (let i = 0; i < n; i = i + 1) {{\n\
         {body}\
         {inner}\
         \x20   if (i % {guard} == 0) {{ b[(i * {stride}) % 256] = x1 % 509; }}\n\
         \x20 }}\n\
         \x20 return x0 + x1 * 3 + x2 * 5 + x3 * 7 + b[{probe}];\n\
         }}\n\
         fn main(n: int) -> int {{\n\
         \x20 seed();\n\
         \x20 return kernel(n);\n\
         }}\n",
        guard = spec.guard_mod,
        stride = spec.stride,
        probe = (spec.stride * 7) % 256,
    )
}

fn pick_config(sel: u8) -> CompilerConfig {
    match sel % 3 {
        0 => CompilerConfig::basic(),
        1 => CompilerConfig::best(),
        _ => CompilerConfig::anticipated(),
    }
}

fn run(module: &spt::ir::Module, arg: i64) -> (Option<u64>, Vec<u64>) {
    let r = Interp::new(module)
        .run("main", &[Val::from_i64(arg)], &mut NoProfiler)
        .expect("runs");
    (r.ret.map(|v| v.0), r.memory)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    // One #[test] drives both thread counts per case: the worker-count
    // override is process-global, so splitting across test functions would
    // race. (`SPT_THREADS` is read once per process, so setting it here
    // would not switch the count.)
    #[test]
    fn random_programs_never_panic_and_degrade_deterministically(spec in arb_prog()) {
        let src = render(&spec);
        let config = pick_config(spec.config_sel);
        let input = ProfilingInput::new("main", [140]);

        set_thread_count_override(Some(1));
        let seq = catch_unwind(AssertUnwindSafe(|| {
            compile_and_transform(&src, &input, &config)
        }));
        set_thread_count_override(Some(4));
        let par = catch_unwind(AssertUnwindSafe(|| {
            compile_and_transform(&src, &input, &config)
        }));
        set_thread_count_override(None);

        // 1. No panic escapes the pipeline.
        prop_assert!(seq.is_ok(), "panic escaped compile_and_transform (1 worker):\n{src}");
        prop_assert!(par.is_ok(), "panic escaped compile_and_transform (4 workers):\n{src}");
        let seq = seq.unwrap();
        let par = par.unwrap();

        prop_assert_eq!(
            seq.is_ok(),
            par.is_ok(),
            "success/failure diverged across thread counts:\n{}", src
        );
        let (Ok(seq), Ok(par)) = (seq, par) else { return Ok(()); };

        // 4. Byte-identical reports — diagnostics included — across
        //    thread counts.
        prop_assert_eq!(
            format!("{:?}", seq.report),
            format!("{:?}", par.report),
            "report diverged between 1 and 4 workers:\n{}", src
        );

        // 2. Transformed-vs-baseline semantics.
        spt::ir::verify::verify_module(&seq.module).expect("verifies");
        for arg in [0i64, 37, 140] {
            let (br, bm) = run(&seq.baseline, arg);
            let (sr, sm) = run(&seq.module, arg);
            prop_assert_eq!(br, sr, "result diverged at n={}:\n{}", arg, src);
            prop_assert_eq!(&sm[..bm.len()], &bm[..], "memory diverged at n={}:\n{}", arg, src);
        }

        // 3. Every non-selected loop explains itself.
        for r in &seq.report.loops {
            if r.outcome == LoopOutcome::Selected {
                continue;
            }
            prop_assert!(
                !seq.report.diagnostics_for(r.func, r.header).is_empty(),
                "loop {}@{} degraded to {:?} without a diagnostic:\n{}",
                r.func_name, r.header, r.outcome, src
            );
        }
    }
}
