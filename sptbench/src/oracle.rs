//! Output checks that do not trust the compiler under test.
//!
//! A simulated run of SPT code is checked against
//! `spt_profile::ReferenceInterp` — the retained tree-walking interpreter —
//! running the *untransformed* module on the same input: the return value
//! and the final memory image of the source program's globals must be
//! equal. Ops record a compact
//! [`Outcome`] of what they simulated; the reference runs once per distinct
//! input after the measured window, so it costs neither set-up nor op time.

use spt_ir::Module;
use spt_profile::{NoProfiler, ReferenceInterp, Val};
use spt_sim::SimResult;
use spt_trace::codec::Fnv;

/// The suite's results-only digest at the pinned configuration: every
/// `suite-*` pass must reproduce it.
pub const SUITE_DIGEST: u64 = 0xafa9_bcd0_52fe_523c;

/// What a run returned: its value and a hash of its final memory image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub ret: Option<u64>,
    pub mem_len: usize,
    pub mem_hash: u64,
}

fn mem_hash(mem: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &w in mem {
        h.update_u64(w);
    }
    h.finish()
}

impl Outcome {
    /// The outcome of a simulated run of a program whose own globals take
    /// `cells` memory cells (see [`cells`]). Only those are compared: the
    /// globals the compiler appends (value predictors, promoted scalars)
    /// lie beyond them.
    pub fn of_sim(sim: &SimResult, cells: usize) -> Outcome {
        let len = cells.min(sim.memory.len());
        Outcome {
            ret: sim.ret,
            mem_len: len,
            mem_hash: mem_hash(&sim.memory[..len]),
        }
    }
}

/// Memory cells of the untransformed `module`'s globals.
pub fn cells(module: &Module) -> usize {
    module.memory_layout().1
}

/// The reference outcome of `entry(arg)` on the untransformed `module`.
pub fn reference(module: &Module, entry: &str, arg: i64) -> Result<Outcome, String> {
    let r = ReferenceInterp::new(module)
        .run(entry, &[Val::from_i64(arg)], &mut NoProfiler)
        .map_err(|e| format!("reference interpreter failed: {e}"))?;
    Ok(Outcome {
        ret: r.ret.map(|v| v.0),
        mem_len: r.memory.len(),
        mem_hash: mem_hash(&r.memory),
    })
}
