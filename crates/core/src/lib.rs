//! # cdf-core — the out-of-order core and the CDF mechanism
//!
//! This crate is the paper's primary contribution rebuilt in Rust: an
//! execution-driven, cycle-level out-of-order core (fetch → decode → rename →
//! issue → execute → retire, with a ROB, reservation stations, load/store
//! queues, a physical register file, TAGE-SC-L branch prediction from
//! `cdf-bpred` and the memory hierarchy from `cdf-mem`) plus the complete
//! **Criticality Driven Fetch** machinery of §3:
//!
//! * [`cct`] — Critical Count Tables: dual saturating counters per load (and
//!   a separate table for hard-to-predict branches), updated at retire;
//! * [`fill_buffer`] — the 1024-entry retired-uop FIFO and the backwards
//!   dataflow walk that marks dependence chains (Fig. 5);
//! * [`mask_cache`] — per-basic-block criticality masks merged across control
//!   flow paths, periodically reset;
//! * [`uop_cache`] — the Critical Uop Cache holding decoded critical-uop
//!   traces tagged by basic-block start (Fig. 7);
//! * the CDF frontend (critical next-PC logic + Delayed Branch Queue), the
//!   critical rename stage (critical RAT + Critical Map Queue + poison-bit
//!   dependence-violation detection, Figs. 9–11), and dynamic ROB/LQ/SQ
//!   partitioning ([`partition`]);
//! * [`pre`] — the Precise Runahead comparator, implemented per the paper's
//!   §4.1 methodology (same marking/fetch machinery; loads marked critical
//!   only when they cause full-window stalls; chains run on free RS/PRF
//!   entries during the stall).
//!
//! The public entry point is [`Core`]: construct it with a [`CoreConfig`]
//! (whose default mirrors Table 1) over any `cdf-isa` program, call
//! [`Core::run`], and read [`CoreStats`]. Architectural correctness is
//! enforced by construction — integration tests compare every retired
//! register/memory state against the functional executor.
//!
//! ```
//! use cdf_core::{Core, CoreConfig, CoreMode};
//! use cdf_isa::{ProgramBuilder, ArchReg::*, MemoryImage};
//!
//! # fn main() -> Result<(), cdf_isa::BuildError> {
//! let mut b = ProgramBuilder::new();
//! b.movi(R1, 100);
//! let top = b.label("top");
//! b.bind(top)?;
//! b.addi(R2, R2, 7);
//! b.addi(R1, R1, -1);
//! b.brnz(R1, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut core = Core::new(&program, MemoryImage::new(), CoreConfig::default());
//! let stats = core.run(100_000);
//! assert!(stats.halted);
//! assert_eq!(core.arch_state().reg(R2), 700);
//! assert!(stats.ipc() > 1.0, "simple loop should exceed 1 IPC");
//! # let _ = CoreMode::Baseline;
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cct;
pub mod diag;
pub mod fill_buffer;
pub mod grid;
pub mod mask_cache;
pub mod memport;
pub mod multicore;
pub mod observer;
pub mod partition;
pub mod pre;
pub mod prof;
pub mod provenance;
pub mod series;
pub mod static_chains;
pub mod telemetry;
pub mod trace;
pub mod uop_cache;

mod cdf_engine;
mod config;
mod core_impl;
mod frontend;
mod lsq;
mod regfile;
mod rob;
mod rs;
mod sched;
mod stats;
mod types;

pub use cdf_mem::{CoreShareStats, DramStats, MemModelKind, MultiCoreMemory, SharedMemConfig};
pub use config::{
    BoundaryKind, CdfConfig, CoreConfig, CoreMode, ExecPorts, PreConfig, SchedulerKind,
};
pub use core_impl::Core;
pub use diag::{CdfDiagnostics, ChainRecord, Coverage, DiagIntervalSample, MAX_CHAIN_RECORDS};
pub use grid::{ConfigGrid, ConfigPoint};
pub use memport::{MemReqKind, MemRequest, MemResponse, MemSide, MemView, MessagePort};
pub use multicore::{CoreOutcome, MultiCore, SharedStatsReport};
pub use prof::{
    CountingAlloc, HostProf, HostProfile, Stage, StageSample, Subsystem, SubsystemSample,
};
pub use provenance::Provenance;
pub use series::IntervalSeries;

pub use observer::{
    Divergence, DivergenceKind, LockstepLog, OracleLockstep, RetireObserver, RetiredUop,
};
pub use stats::{CoreStats, RobMix};
pub use telemetry::{
    CycleAccounting, CycleBucket, EventPhase, Histogram, IntervalSample, OccupancyHistograms,
    OccupancySample, Telemetry, TelemetryConfig, TraceEvent,
};
pub use types::{PhysReg, Seq};
