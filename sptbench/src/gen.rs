//! Seeded input generation. Everything a workload feeds the compiler is a
//! pure function of the `--seed` argument: the suite visiting order, the
//! edit sequence of `edit-recompile`, and the request streams of
//! `daemon-mixed`. The compiler only ever sees the generated inputs.

use spt_bench_suite::Benchmark;
use spt_corpus::rng::SplitMix64;

/// Kernels of the analysis-heavy module `edit-recompile` edits.
pub use spt_bench::incremental_workload::KERNELS;

/// One request in every `FRESH_EVERY` of a `daemon-mixed` client is a
/// never-seen variant. At 1 in 20 (5%) the highest percentile with ten
/// samples beyond it (p99.9 at ~10k requests) sits deep inside the miss
/// population, far from the hit/miss boundary at p95.
pub const FRESH_EVERY: u64 = 20;

/// Purposes of the generator streams: one seed yields independent draws for
/// the suite order, the edit sequence and each client's request stream.
const SUITE_ORDER: u64 = 1;
const EDITS: u64 = 2;
const CLIENT: u64 = 3;

fn rng(seed: u64, purpose: u64, index: u64) -> SplitMix64 {
    let stream = (purpose << 48) | index;
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// The order a suite pass visits the programs in. Results are folded in
/// suite order whatever the visiting order, so the digest is seed-free.
pub fn suite_order(seed: u64, pass: u64, programs: usize) -> Vec<usize> {
    permutation(&mut rng(seed, SUITE_ORDER, pass), programs)
}

/// One `edit-recompile` op: rename kernel `kernel` to `name`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    /// Kernel index in `0..KERNELS`.
    pub kernel: usize,
    /// The kernel's new name, unique within the run.
    pub name: String,
}

/// The `i`-th edit of the run. Every edit applies to the *base* source,
/// so each op dirties exactly one function of the primed cache; names
/// carry the op index, so no two ops compile the same module. Edits walk
/// a fresh seeded permutation of the kernels every [`KERNELS`] ops, so
/// every run edits the same mix of kernels, whose analysis costs differ.
pub fn edit(seed: u64, i: u64) -> Edit {
    let round = i / KERNELS as u64;
    let kernel = permutation(&mut rng(seed, EDITS, round), KERNELS)[(i % KERNELS as u64) as usize];
    Edit {
        kernel,
        name: format!("k{kernel}_r{i}"),
    }
}

/// `base` with the edit applied.
pub fn edited_source(base: &str, e: &Edit) -> String {
    rename_ident(base, &format!("k{}", e.kernel), &e.name)
}

/// One request of a `daemon-mixed` client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DaemonReq {
    /// Compile a suite program under `best` (a warm hit after set-up).
    Compile { prog: usize },
    /// Compile and simulate a suite program on its train input (warm hit).
    Sim { prog: usize },
    /// The daemon's counter snapshot.
    Stats,
    /// Compile and simulate a never-seen variant of a suite program: one
    /// helper function renamed, so the miss path runs (frontend,
    /// single-flight, function-unit splice, simulation).
    Fresh {
        prog: usize,
        helper: String,
        name: String,
    },
}

/// The request stream of one client: the first `n` requests. `helpers[p]`
/// lists the non-entry functions of suite program `p`.
///
/// Every [`FRESH_EVERY`]-th request is fresh, and fresh requests walk a
/// seeded permutation of the programs, so every run's miss population has
/// the same composition; the warm hits are uniform over the suite's
/// compile and sim keys plus the stats probe.
pub fn daemon_stream(seed: u64, client: u64, n: u64, helpers: &[Vec<String>]) -> Vec<DaemonReq> {
    let programs = helpers.len();
    let mut r = rng(seed, CLIENT, client);
    let order = permutation(&mut r, programs);
    let mut fresh = 0u64;
    (0..n)
        .map(|i| {
            if (i + 1) % FRESH_EVERY == 0 {
                let prog = order[(fresh % programs as u64) as usize];
                let helper = helpers[prog][r.below(helpers[prog].len() as u64) as usize].clone();
                let name = format!("{helper}_c{client}f{fresh}");
                fresh += 1;
                return DaemonReq::Fresh { prog, helper, name };
            }
            let k = r.below(2 * programs as u64 + 1) as usize;
            match k {
                k if k < programs => DaemonReq::Compile { prog: k },
                k if k < 2 * programs => DaemonReq::Sim { prog: k - programs },
                _ => DaemonReq::Stats,
            }
        })
        .collect()
}

/// Non-entry functions of `b`, in source order.
pub fn helpers(b: &Benchmark) -> Vec<String> {
    let mut out = Vec::new();
    let mut off = 0;
    while let Some(pos) = b.source[off..].find("fn ") {
        let abs = off + pos;
        let name: String = b.source[abs + 3..]
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        if !name.is_empty()
            && name != b.entry
            && (abs == 0 || !is_ident_char(b.source.as_bytes()[abs - 1] as char))
        {
            out.push(name);
        }
        off = abs + 3;
    }
    out
}

/// The source of a fresh variant: `helper` renamed to `name`.
pub fn variant_source(b: &Benchmark, helper: &str, name: &str) -> String {
    rename_ident(b.source, helper, name)
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Ident-boundary rename: replacing `k1` must leave `k10` alone.
fn rename_ident(source: &str, from: &str, to: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len() + to.len());
    let mut i = 0;
    while let Some(pos) = source[i..].find(from) {
        let abs = i + pos;
        let end = abs + from.len();
        let left_ok = abs == 0 || !is_ident_char(bytes[abs - 1] as char);
        let right_ok = end == bytes.len() || !is_ident_char(bytes[end] as char);
        out.push_str(&source[i..abs]);
        out.push_str(if left_ok && right_ok { to } else { from });
        i = end;
    }
    out.push_str(&source[i..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_helpers() -> Vec<Vec<String>> {
        spt_bench_suite::suite().iter().map(helpers).collect()
    }

    /// Everything the three generators produce for one seed, rendered to
    /// bytes: suite orders, edited sources and daemon request sources.
    fn rendered(seed: u64) -> Vec<u8> {
        let suite = spt_bench_suite::suite();
        let helpers = suite_helpers();
        let base = spt_bench::incremental_workload::source();
        let mut out = String::new();
        for pass in 0..4 {
            out.push_str(&format!("{:?}\n", suite_order(seed, pass, suite.len())));
        }
        for i in 0..16 {
            out.push_str(&edited_source(&base, &edit(seed, i)));
        }
        for client in 0..2 {
            for req in daemon_stream(seed, client, 200, &helpers) {
                out.push_str(&format!("{req:?}\n"));
                if let DaemonReq::Fresh { prog, helper, name } = &req {
                    out.push_str(&variant_source(&suite[*prog], helper, name));
                }
            }
        }
        out.into_bytes()
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_changes_them() {
        assert_eq!(rendered(7), rendered(7));
        assert_ne!(rendered(7), rendered(8));
        assert_ne!(suite_order(7, 0, 10), suite_order(8, 0, 10));
        let e7: Vec<Edit> = (0..16).map(|i| edit(7, i)).collect();
        let e8: Vec<Edit> = (0..16).map(|i| edit(8, i)).collect();
        assert_ne!(e7, e8);
        let h = suite_helpers();
        assert_ne!(daemon_stream(7, 0, 64, &h), daemon_stream(8, 0, 64, &h));
        assert_ne!(daemon_stream(7, 0, 64, &h), daemon_stream(7, 1, 64, &h));
    }

    #[test]
    fn every_suite_program_has_a_helper_and_variants_change_one_function() {
        for (b, hs) in spt_bench_suite::suite().iter().zip(suite_helpers()) {
            assert!(!hs.is_empty(), "{} has no helper", b.name);
            let base = spt_frontend::compile(b.source).expect("suite program compiles");
            let var = spt_frontend::compile(&variant_source(b, &hs[0], "zz_fresh"))
                .expect("variant compiles");
            let changed = base
                .funcs
                .iter()
                .zip(&var.funcs)
                .filter(|(a, v)| a.content_hash() != v.content_hash())
                .count();
            assert_eq!(changed, 1, "{}: a variant must change one function", b.name);
        }
    }

    #[test]
    fn fresh_share_and_composition_are_fixed() {
        let h = suite_helpers();
        let stream = daemon_stream(3, 0, 20 * FRESH_EVERY, &h);
        let fresh: Vec<usize> = stream
            .iter()
            .filter_map(|r| match r {
                DaemonReq::Fresh { prog, .. } => Some(*prog),
                _ => None,
            })
            .collect();
        assert_eq!(fresh.len(), 20);
        // Two full walks of the permutation: each program twice.
        for p in 0..h.len() {
            assert_eq!(fresh.iter().filter(|&&q| q == p).count(), 2);
        }
    }

    #[test]
    fn edits_target_one_kernel_with_unique_names() {
        let base = spt_bench::incremental_workload::source();
        let e = Edit {
            kernel: 1,
            name: "k1_r0".into(),
        };
        let src = edited_source(&base, &e);
        assert!(src.contains("fn k1_r0(") && src.contains("fn k10("));
        assert!(!src.contains("fn k1("));
        let names: std::collections::HashSet<String> = (0..100).map(|i| edit(5, i).name).collect();
        assert_eq!(names.len(), 100);
    }
}
