//! The core↔memory boundary: direct calls into the core's memory system.
//!
//! The core reaches memory at five sites (load execute, store retire,
//! instruction fetch, MLP sampling, runahead prefetch), each one call
//! through [`MemSide`]:
//!
//! * [`MemSide::Private`] — a single core's own [`MemoryHierarchy`];
//! * [`MemSide::Shared`] — one core's port into a [`MultiCoreMemory`]
//!   shared by N cores (private L1s, shared LLC/MSHR/DRAM).
//!
//! Behind both arms runs the same access code: a [`MemoryHierarchy`] is a
//! one-core [`MultiCoreMemory`]. An access is answered the cycle it is
//! made, and all latency lives in the returned `ready_at`.

use cdf_mem::{AccessKind, AccessResult, MemStats, MemoryHierarchy, MultiCoreMemory};
use std::cell::RefCell;
use std::rc::Rc;

/// One core's port into a [`MultiCoreMemory`] shared with its co-runners.
#[derive(Debug)]
pub struct SharedPort {
    core: usize,
    sys: Rc<RefCell<MultiCoreMemory>>,
}

/// The core's memory side: its private hierarchy, or its slice of a shared
/// system. Both run the same access code (a private hierarchy is a
/// one-core shared system); a one-core `Shared` system is pinned against a
/// private core by `crates/sim/tests/mix.rs`.
#[derive(Debug)]
pub enum MemSide {
    /// A single core's private hierarchy (boxed: it is far larger than a
    /// shared port).
    Private(Box<MemoryHierarchy>),
    /// One core's view of an N-core shared memory system.
    Shared(SharedPort),
}

/// Memory-side counters the core folds into its energy report, uniform
/// across [`MemSide`] arms (for `Shared`, the owning core's slice).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemView {
    /// Traffic counters ([`MemStats`]).
    pub stats: MemStats,
    /// This core's L1D misses.
    pub l1d_misses: u64,
    /// DRAM reads this core caused (shared totals attribute per core).
    pub dram_reads: u64,
    /// DRAM writebacks this core caused.
    pub dram_writes: u64,
}

impl MemSide {
    /// A shared-memory port for `core` into `sys`.
    pub fn shared(core: usize, sys: Rc<RefCell<MultiCoreMemory>>) -> MemSide {
        MemSide::Shared(SharedPort { core, sys })
    }

    /// Issues one demand access (load/store/inst-fetch) at cycle `now`.
    pub fn access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
        wrong_path: bool,
    ) -> AccessResult {
        match self {
            MemSide::Private(h) => h.access(addr, kind, now, wrong_path),
            MemSide::Shared(p) => p
                .sys
                .borrow_mut()
                .access(p.core, addr, kind, now, wrong_path),
        }
    }

    /// Issues a runahead prefetch; returns whether a DRAM read was issued.
    pub fn runahead_prefetch(&mut self, addr: u64, now: u64) -> bool {
        match self {
            MemSide::Private(h) => h.runahead_prefetch(addr, now),
            MemSide::Shared(p) => p.sys.borrow_mut().runahead_prefetch(p.core, addr, now),
        }
    }

    /// This core's demand LLC misses still outstanding at `now` (MLP).
    pub fn outstanding_demand_misses(&mut self, now: u64) -> usize {
        match self {
            MemSide::Private(h) => h.outstanding_demand_misses(now),
            MemSide::Shared(p) => p.sys.borrow_mut().outstanding_demand_misses(p.core, now),
        }
    }

    /// The private hierarchy, when there is one (`None` behind a shared
    /// system — callers needing shared stats go through the mix driver).
    pub fn hierarchy(&self) -> Option<&MemoryHierarchy> {
        match self {
            MemSide::Private(h) => Some(h),
            MemSide::Shared(_) => None,
        }
    }

    /// Enables host-side timing of the memory system's event structures
    /// (MSHR/MLP heaps; for shared systems, the shared-LLC access path).
    /// Observation-only: simulated results are bit-identical either way.
    pub fn enable_prof(&mut self) {
        match self {
            MemSide::Private(h) => h.enable_prof(),
            MemSide::Shared(p) => p.sys.borrow_mut().enable_prof(),
        }
    }

    /// Detaches the memory system's host timers. For a shared system this
    /// returns `None` — the shared timers belong to the whole system, so
    /// the mix driver drains them once via
    /// [`MultiCoreMemory::take_prof`](cdf_mem::MultiCoreMemory::take_prof)
    /// instead of attributing them to whichever core asks first.
    pub fn take_prof(&mut self) -> Option<cdf_mem::MemProfReport> {
        match self {
            MemSide::Private(h) => h.take_prof(),
            MemSide::Shared(_) => None,
        }
    }

    /// Uniform counter snapshot for the energy report: this core's slice
    /// of its memory system. A private hierarchy is core 0 of a one-core
    /// system, whose DRAM traffic is all core 0's.
    pub fn view(&self) -> MemView {
        match self {
            MemSide::Private(h) => core_view(h.system(), 0),
            MemSide::Shared(p) => core_view(&p.sys.borrow(), p.core),
        }
    }
}

fn core_view(sys: &MultiCoreMemory, core: usize) -> MemView {
    let (_, l1d_misses) = sys.l1d_stats(core);
    let share = sys.core_share(core);
    MemView {
        stats: *sys.core_stats(core),
        l1d_misses,
        dram_reads: share.dram_reads,
        dram_writes: share.dram_writes,
    }
}
