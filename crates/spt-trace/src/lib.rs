//! Execution artifacts that outlive one process: the content-addressed
//! artifact cache and the codecs around it.
//!
//! The pipeline and the bench harnesses simulate the *same* programs many
//! times: once per configuration, and again on every re-run of a bench
//! binary or daemon request. This crate memoizes the results:
//!
//! * [`ArtifactCache`] — a directory (`.spt-cache/` by convention) of
//!   immutable files keyed by content hash: whole `SimResult` memos (module
//!   IR hash + entry + args + machine config + format version) and
//!   function-granular analysis units ([`FuncAnalysisUnit`]). Damaged files
//!   load as [`LoadOutcome::Corrupt`], are evicted, and the next probe is a
//!   clean miss.
//! * [`ShardedLru`] — the byte-budgeted in-memory tier the compile daemon
//!   and the incremental cache put in front of the disk.
//! * [`codec`] — LEB128 varints, zigzag and FNV-1a, shared by the artifact
//!   files, the cache keys and the daemon's wire protocol.
//!
//! Correctness is anchored by oracles: `tests/trace_equivalence.rs` at the
//! workspace root pins cache-off, cold and warm compiles and simulations
//! byte-identical over the whole benchmark suite.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod codec;
pub mod func_unit;
pub mod mem_cache;

pub use cache::{sim_from_bytes, sim_to_bytes, ArtifactCache, CacheCounters, LoadOutcome};
pub use func_unit::{FuncAnalysisUnit, LoopFragment, FUNC_UNIT_FORMAT_VERSION};
pub use mem_cache::{ShardStats, ShardedLru};
