//! # cdf-mem — the memory system of the CDF simulator
//!
//! Rebuilds the paper's memory substrate (Table 1): a 32KB L1 I-cache and
//! D-cache (2-cycle), a 1MB 16-way LLC (18-cycle), 64B lines, MSHRs, an
//! always-on 64-stream prefetcher throttled by Feedback Directed Prefetching,
//! and a DDR4-2400-style DRAM model (2 channels, 4 bank groups × 4 banks,
//! tRP-tCL-tRCD 16-16-16) standing in for Ramulator.
//!
//! The hierarchy is synchronous-completion: an access computes, at issue
//! time, the cycle at which its data will be ready, using per-bank and
//! per-channel busy tracking for queueing effects. Outstanding-miss limits
//! (the source of finite MLP) come from the MSHRs: when they are full the
//! access is [`AccessResult::Rejected`] carrying a typed [`MshrFull`] error
//! (which file was full, and the earliest cycle a slot frees) and the core
//! must retry — exactly the backpressure that caps memory-level parallelism
//! in a real machine. Admission is decided before any state changes, so a
//! rejected access perturbs nothing but the rejection counter and its
//! retry replays cleanly (each logical access is counted once and trains
//! the prefetcher once).
//!
//! One access algorithm serves every configuration: [`MultiCoreMemory`]
//! implements it for N cores with private L1s in front of a shared LLC,
//! LLC MSHR pool and DRAM, and the private [`MemoryHierarchy`] a single
//! core talks to is that system with one core.
//!
//! Outstanding misses are kept on completion-cycle min-heaps
//! ([`EventMshr`] for every MSHR file, [`EventOutstanding`] for every MLP
//! tracker), popped as completion cycles pass, so occupancy queries and
//! per-cycle MLP samples cost O(1) instead of a rescan. DRAM bank/channel
//! occupancy and prefetcher training are keyed by completion cycles too.
//!
//! ```
//! use cdf_mem::{MemoryHierarchy, MemConfig, AccessKind};
//!
//! let mut mem = MemoryHierarchy::new(MemConfig::default());
//! // First touch misses everywhere and goes to DRAM.
//! let out = mem
//!     .access(0x4000, AccessKind::Load, 0, false)
//!     .outcome()
//!     .expect("MSHRs empty, never rejected");
//! assert!(out.ready_at > 100);
//! // A later access to the same line hits in L1.
//! let hit = mem
//!     .access(0x4000, AccessKind::Load, out.ready_at, false)
//!     .outcome()
//!     .expect("hits are never backpressured");
//! assert_eq!(hit.ready_at, out.ready_at + mem.config().l1_latency);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cache;
mod dram;
mod event;
mod hierarchy;
mod prefetch;
pub mod prof;
mod shared;

pub use cache::{Cache, CacheConfig, Eviction};
pub use dram::{Dram, DramConfig, DramStats};
pub use event::{EventMshr, EventOutstanding, MshrOutcome};
pub use hierarchy::{
    AccessKind, AccessOutcome, AccessResult, HitLevel, MemConfig, MemStats, MemoryHierarchy,
    MshrFull, MshrLevel,
};
pub use prefetch::{PrefetchRun, PrefetcherConfig, StreamPrefetcher};
pub use prof::MemProfReport;
pub use shared::{CoreShareStats, MultiCoreMemory, SharedMemConfig};

/// Cache line size in bytes used throughout the hierarchy (Table 1: 64B).
pub const LINE_BYTES: u64 = 64;

/// Rounds an address down to its cache-line address.
pub fn line_addr(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}
