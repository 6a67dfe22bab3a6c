//! # cdf — Criticality Driven Fetch, reproduced in Rust
//!
//! A from-scratch reproduction of **"Criticality Driven Fetch"** (Deshmukh &
//! Patt, MICRO 2021): an execution-driven, cycle-level out-of-order core
//! simulator implementing the complete CDF mechanism, a Precise Runahead
//! comparator, and every substrate the paper's evaluation depends on —
//! TAGE-SC-L branch prediction, a three-level cache hierarchy with a
//! feedback-throttled stream prefetcher, a DDR4-class DRAM model, an
//! activity-based energy/area model, and a suite of fourteen SPEC-like
//! synthetic kernels.
//!
//! This façade crate re-exports the workspace members under stable paths:
//!
//! * [`isa`] — the uop ISA, programs, and the functional executor;
//! * [`workloads`] — the synthetic kernel suite;
//! * [`bpred`] — branch predictors;
//! * [`mem`] — caches, MSHRs, prefetcher, DRAM;
//! * [`energy`] — the energy/area model;
//! * [`core`] — the OoO core with CDF and PRE;
//! * [`sim`] — the simulation runner and experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use cdf::sim::{simulate, EvalConfig, Mechanism};
//!
//! let cfg = EvalConfig::quick();
//! let base = simulate("astar_like", Mechanism::Baseline, &cfg);
//! let with_cdf = simulate("astar_like", Mechanism::Cdf, &cfg);
//! println!(
//!     "astar_like: baseline {:.3} IPC, CDF {:.3} IPC ({:+.1}%)",
//!     base.ipc,
//!     with_cdf.ipc,
//!     (with_cdf.ipc / base.ipc - 1.0) * 100.0
//! );
//! assert!(with_cdf.ipc > base.ipc, "CDF speeds up the astar kernel");
//! ```
//!
//! See `examples/` for runnable scenarios and `cdf-sim figure <name>` for
//! the per-figure reproduction harness.

#![deny(missing_docs)]

pub use cdf_bpred as bpred;
pub use cdf_core as core;
pub use cdf_energy as energy;
pub use cdf_isa as isa;
pub use cdf_mem as mem;
pub use cdf_sim as sim;
pub use cdf_workloads as workloads;
