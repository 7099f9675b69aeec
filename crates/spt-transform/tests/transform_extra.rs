//! Additional transformation integration tests: high unroll factors,
//! SVP on conditional carriers, promotion around while loops, and emission
//! robustness.

use spt_ir::loops::LoopId;
use spt_ir::{Cfg, DomTree, InstKind, LoopForest};
use spt_profile::{Interp, NoProfiler, Val};
use spt_transform::{
    classify_loop, emit_spt_loop, promote_global_scalars, unroll_loop, SptLoopSpec, TransformError,
    UnrollKind,
};
use std::collections::HashSet;

fn run_ret(module: &spt_ir::Module, entry: &str, arg: i64) -> i64 {
    Interp::new(module)
        .run(entry, &[Val::from_i64(arg)], &mut NoProfiler)
        .unwrap()
        .ret
        .unwrap()
        .as_i64()
}

#[test]
fn unroll_factor_eight_with_memory_and_branches() {
    let src = "
        global a[512]: int;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                if (i % 3 == 0) { a[i % 512] = i; } else { a[(i + 1) % 512] = s % 97; }
                s = s + a[i % 512] % 7;
            }
            return s;
        }
    ";
    let native = |n: i64| {
        let mut a = [0i64; 512];
        let mut s = 0i64;
        for i in 0..n {
            if i % 3 == 0 {
                a[(i % 512) as usize] = i;
            } else {
                a[((i + 1) % 512) as usize] = s % 97;
            }
            s += a[(i % 512) as usize] % 7;
        }
        s
    };
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    unroll_loop(m.func_mut(fid), spt_ir::loops::LoopId::new(0), 8).expect("unrolls");
    spt_ir::passes::cleanup(m.func_mut(fid));
    spt_ir::verify::verify_module(&m).expect("verifies");
    for n in [0i64, 1, 7, 8, 9, 63, 64, 65, 200] {
        assert_eq!(run_ret(&m, "f", n), native(n), "n={n}");
    }
}

#[test]
fn unrolling_is_a_one_shot_transformation() {
    // Each unrolled copy keeps its own exit test, so the unrolled loop has
    // multiple exiting blocks — a second unroll must be rejected (the
    // pipeline unrolls each loop at most once, picking the factor up
    // front).
    let src = "fn f(n: int) -> int { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i; } return s; }";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    unroll_loop(m.func_mut(fid), spt_ir::loops::LoopId::new(0), 2).unwrap();
    spt_ir::passes::cleanup(m.func_mut(fid));
    let err = unroll_loop(m.func_mut(fid), spt_ir::loops::LoopId::new(0), 2).unwrap_err();
    assert!(matches!(
        err,
        spt_transform::TransformError::NotCanonical(_)
    ));
    // The once-unrolled loop still computes correctly.
    spt_ir::verify::verify_module(&m).expect("verifies");
    for n in [0i64, 3, 4, 5, 17] {
        assert_eq!(run_ret(&m, "f", n), (0..n).sum::<i64>(), "n={n}");
    }
}

#[test]
fn unrolled_loops_classify_as_while() {
    // After unrolling, the IV's latch update is a chain of adds rather than
    // `phi + const`, so the loop is no longer *re*-classified as counted —
    // consistent with the one-shot unrolling policy above.
    let src = "fn f(n: int) -> int { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i; } return s; }";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    unroll_loop(m.func_mut(fid), spt_ir::loops::LoopId::new(0), 3).unwrap();
    spt_ir::passes::cleanup(m.func_mut(fid));
    let f = m.func(fid);
    let cfg = spt_ir::Cfg::compute(f);
    let dom = spt_ir::DomTree::compute(&cfg);
    let forest = spt_ir::LoopForest::compute(f, &cfg, &dom);
    assert_eq!(forest.len(), 1);
    assert_eq!(
        classify_loop(f, &forest, spt_ir::loops::LoopId::new(0)),
        UnrollKind::While
    );
}

#[test]
fn promotion_handles_read_only_globals() {
    // A global that is only *read* in the loop: promotion still moves the
    // load out (loop-invariant), and the store-back writes the same value.
    let src = "
        global k: int = 7;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) { s = s + k; }
            return s;
        }
    ";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    let promoted = promote_global_scalars(&m.globals.clone(), m.func_mut(fid));
    assert_eq!(promoted, 1);
    spt_ir::passes::cleanup(m.func_mut(fid));
    spt_ir::verify::verify_module(&m).expect("verifies");
    assert_eq!(run_ret(&m, "f", 10), 70);
}

#[test]
fn promotion_respects_loads_through_computed_addresses() {
    // The scalar is also accessed via a computed address (base + 0 computed
    // through arithmetic the analysis cannot prove): promotion must skip it.
    let src = "
        global x: int;
        global a[4]: int;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                x = x + 1;
                s = s + a[x % 4];
            }
            return s;
        }
    ";
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    let before = run_ret(&m, "f", 10);
    promote_global_scalars(&m.globals.clone(), m.func_mut(fid));
    spt_ir::passes::cleanup(m.func_mut(fid));
    spt_ir::verify::verify_module(&m).expect("verifies");
    assert_eq!(
        run_ret(&m, "f", 10),
        before,
        "semantics preserved either way"
    );
}

#[test]
fn svp_on_conditionally_updated_carrier() {
    // The carrier is updated through a diamond (phi join): SVP must split
    // after the whole phi group and keep semantics.
    let src = "
        fn f(n: int) -> int {
            let x = 0;
            let s = 0;
            let i = 0;
            while (i < n) {
                if (i % 16 == 15) { x = x + 2; } else { x = x + 1; }
                s = s + x % 7;
                i = i + 1;
            }
            return s;
        }
    ";
    let native = |n: i64| {
        let (mut x, mut s) = (0i64, 0i64);
        for i in 0..n {
            if i % 16 == 15 {
                x += 2;
            } else {
                x += 1;
            }
            s += x % 7;
        }
        s
    };
    let mut m = spt_frontend::compile(src).unwrap();
    let fid = m.func_by_name("f").unwrap();
    // Find the loop header and its phis.
    let (lid, phis) = {
        let f = m.func(fid);
        let cfg = spt_ir::Cfg::compute(f);
        let dom = spt_ir::DomTree::compute(&cfg);
        let forest = spt_ir::LoopForest::compute(f, &cfg, &dom);
        let lid = forest
            .ids()
            .find(|&l| forest.get(l).depth == 1)
            .expect("loop");
        let header = forest.get(lid).header;
        let phis: Vec<spt_ir::InstId> = f
            .block(header)
            .insts
            .iter()
            .copied()
            .filter(|&i| matches!(f.inst(i).kind, spt_ir::InstKind::Phi { .. }))
            .collect();
        (lid, phis)
    };
    let mut applied = false;
    for phi in phis {
        if spt_transform::apply_svp(
            &mut m,
            fid,
            lid,
            phi,
            spt_profile::ValuePattern::Stride(1),
            0.07,
        )
        .is_ok()
        {
            applied = true;
            break;
        }
    }
    assert!(applied, "at least one carrier rewritable");
    for func in &mut m.funcs {
        spt_ir::passes::cleanup(func);
    }
    spt_ir::verify::verify_module(&m).expect("verifies");
    for n in [0i64, 15, 16, 17, 100] {
        assert_eq!(run_ret(&m, "f", n), native(n), "n={n}");
    }
}

/// `emit_spt_loop` always replicates the header's exit test into the
/// pre-fork region. A spec that leaves out the test's compare would make the
/// cloned branch read the original, post-fork compare, so it is rejected
/// rather than emitted as IR the verifier refuses. With the compare (whose
/// other operands are a header phi and a parameter) the loop verifies and
/// computes what it did before.
#[test]
fn header_test_closure_is_enforced() {
    let src = "
        fn f(n: int) -> int {
            let i = 0;
            let s = 0;
            while (i < n) {
                s = s + i;
                i = i + 1;
            }
            return s;
        }
    ";
    let base = spt_frontend::compile(src).unwrap();
    let fid = base.func_by_name("f").unwrap();
    let spec = |move_insts| SptLoopSpec {
        loop_id: LoopId::new(0),
        move_insts,
        replicate_insts: HashSet::new(),
        loop_tag: 1,
    };

    let mut open = base.clone();
    let err = emit_spt_loop(open.func_mut(fid), &spec(HashSet::new()));
    assert!(
        matches!(err, Err(TransformError::Precondition(_))),
        "{err:?}"
    );

    let func = base.func(fid);
    let cfg = Cfg::compute(func);
    let forest = LoopForest::compute(func, &cfg, &DomTree::compute(&cfg));
    let header = forest.get(LoopId::new(0)).header;
    let compares: HashSet<_> = func
        .block(header)
        .insts
        .iter()
        .copied()
        .filter(|&i| matches!(func.inst(i).kind, InstKind::Cmp { .. }))
        .collect();
    assert_eq!(compares.len(), 1);
    let mut closed = base.clone();
    emit_spt_loop(closed.func_mut(fid), &spec(compares)).expect("emits");
    spt_ir::verify::verify_module(&closed).expect("verifies");
    for n in [0, 1, 10, 37] {
        assert_eq!(run_ret(&closed, "f", n), run_ret(&base, "f", n), "f({n})");
    }
}
