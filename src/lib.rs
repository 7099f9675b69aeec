//! # spt — a cost-driven compilation framework for speculative parallelization
//!
//! A from-scratch Rust reproduction of *"A Cost-Driven Compilation Framework
//! for Speculative Parallelization of Sequential Programs"* (Du, Lim, Yang,
//! Zhao, Li, Ngai — PLDI 2004): the misspeculation cost model, the optimal
//! SPT loop partitioning search, the two-pass selection/transformation
//! pipeline, the enabling techniques (loop unrolling, software value
//! prediction, dependence profiling), and the SPT machine simulation used to
//! evaluate them — plus every substrate they need (a C-like frontend, an SSA
//! IR, profiling interpreters and a benchmark suite).
//!
//! This crate is a facade that re-exports the workspace's crates under one
//! name:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`ir`] | `spt-ir` | SSA IR, CFG/dominators/loops, cleanup passes |
//! | [`frontend`] | `spt-frontend` | the `minic` language |
//! | [`profile`] | `spt-profile` | interpreter + edge/dependence/value/loop profiling |
//! | [`cost`] | `spt-cost` | the misspeculation cost model (§4) |
//! | [`partition`] | `spt-partition` | optimal partition search (§5) |
//! | [`transform`] | `spt-transform` | SPT emission, unrolling, SVP, promotion (§6–7) |
//! | [`pipeline`] | `spt-core` | the two-pass cost-driven driver (§3, §6) |
//! | [`sim`] | `spt-sim` | the two-core SPT machine simulator (§8) |
//! | [`trace`] | `spt-trace` | the content-addressed artifact cache: simulation memos, function units |
//! | [`serve`] | `spt-serve` | the `sptd` compile daemon: two-tier artifact cache, framed protocol, client |
//! | [`bench_suite`] | `spt-bench-suite` | ten synthetic Spec2000Int-like workloads |
//!
//! # Quickstart
//!
//! ```
//! use spt::pipeline::{compile_and_transform, CompilerConfig, ProfilingInput};
//! use spt::sim::SptSimulator;
//!
//! let source = "
//!     global data[1024]: int;
//!     fn main(n: int) -> int {
//!         let s = 0;
//!         for (let i = 0; i < n; i = i + 1) {
//!             let x = (i * 2654435761) % 1024;
//!             data[x % 1024] = x;
//!             s = s + (x * x) % 97 + (x / 3) % 31 + (s % 7);
//!         }
//!         return s;
//!     }
//! ";
//! let input = ProfilingInput::new("main", [300]);
//! let compiled = compile_and_transform(source, &input, &CompilerConfig::best())?;
//! let sim = SptSimulator::new();
//! let base = sim.run(&compiled.baseline, "main", &[1000]).unwrap();
//! let spt = sim.run(&compiled.module, "main", &[1000]).unwrap();
//! assert_eq!(base.ret, spt.ret); // identical results, different schedule
//! # Ok::<(), spt::pipeline::PipelineError>(())
//! ```

pub use spt_bench_suite as bench_suite;
pub use spt_cost as cost;
pub use spt_frontend as frontend;
pub use spt_ir as ir;
pub use spt_partition as partition;
pub use spt_profile as profile;
pub use spt_serve as serve;
pub use spt_sim as sim;
pub use spt_trace as trace;
pub use spt_transform as transform;

/// The two-pass cost-driven compilation pipeline (re-export of `spt-core`).
pub mod pipeline {
    pub use spt_core::*;
}
