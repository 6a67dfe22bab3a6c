//! `cdf-perfbench`: the simulator's host-performance benchmark.
//!
//! One command runs one workload (`solo`, `mix` or `observed`) on one
//! simulation thread, closed loop: cells run back to back for the allotted
//! seconds. It drives the simulator from outside through the public calls
//! `cdf-sim`'s run path makes at `EvalConfig::default()` sizing, times each
//! call with a span, checks every cell's simulated counters against a
//! pinned reference (or, off the default seed, against the run's first
//! pass), and prints its metrics as one JSON line. `--trace 1` attaches the
//! host profiler in one extra pass and reports per-layer metrics instead.
//! See `README.md` beside this crate for the workloads and metrics.

#![deny(missing_docs)]

pub mod check;
pub mod metrics;
pub mod passes;
pub mod runner;
pub mod spans;
