//! The core↔memory boundary: tagged requests in, completion events out.
//!
//! Historically the core called [`MemoryHierarchy`] synchronously at five
//! sites (load execute, store retire, instruction fetch, MLP sampling,
//! runahead prefetch). This module reifies that boundary as an explicit
//! request/response interface — the core builds a [`MemRequest`] (kind,
//! address, cycle and wrong-path flag) and
//! consumes a [`MemResponse`] — so the memory side becomes pluggable:
//!
//! * [`MemSide::Direct`] — the reference oracle: the old synchronous call,
//!   kept compiled and runtime-selectable
//!   ([`BoundaryKind::ReferenceDirect`](crate::config::BoundaryKind)) so
//!   `cdf-sim equiv --boundary` can prove the refactor changed nothing.
//! * [`MemSide::Message`] — the default request/response path: every
//!   access becomes a tagged message through [`MessagePort`], whose
//!   response queue the core drains by tag. Transport adds **zero cycles**
//!   by construction — all latency lives in the response's `ready_at`,
//!   exactly as before — which is the equivalence argument: the message
//!   envelope reorders *code*, not *events*.
//! * [`MemSide::Shared`] — the same message discipline aimed at a
//!   [`MultiCoreMemory`] shared by N cores (private L1s, shared
//!   LLC/MSHR/DRAM).
//!
//! Behind every variant runs the same access code: a [`MemoryHierarchy`]
//! is a one-core [`MultiCoreMemory`]. The port is deliberately
//! synchronous-completion underneath: a request is serviced the cycle it
//! is submitted and its response carries the future `ready_at`. That keeps
//! the single-core model bit-identical while giving multi-core the tagged
//! envelope it needs for attribution.

use cdf_mem::{AccessKind, AccessResult, MemStats, MemoryHierarchy, MultiCoreMemory};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// What a [`MemRequest`] asks the memory system to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemReqKind {
    /// Demand load.
    Load,
    /// Demand store (write-allocate at retirement).
    Store,
    /// Instruction-cache line fetch.
    InstFetch,
    /// Runahead prefetch into the LLC (no L1D MSHR occupancy).
    RunaheadPrefetch,
}

impl MemReqKind {
    fn access_kind(self) -> Option<AccessKind> {
        match self {
            MemReqKind::Load => Some(AccessKind::Load),
            MemReqKind::Store => Some(AccessKind::Store),
            MemReqKind::InstFetch => Some(AccessKind::InstFetch),
            MemReqKind::RunaheadPrefetch => None,
        }
    }
}

/// One tagged request from the core to the memory system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemRequest {
    /// Byte address.
    pub addr: u64,
    /// Demand/fetch/prefetch discriminator.
    pub kind: MemReqKind,
    /// Core cycle at which the request is issued.
    pub now: u64,
    /// The core knows this access sits on a wrong path (PRE accounting).
    pub wrong_path: bool,
}

/// The memory system's answer to one [`MemRequest`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MemResponse {
    /// A demand access: completed with an outcome or rejected (MSHRs full).
    Access(AccessResult),
    /// A runahead prefetch: whether a DRAM read was actually issued.
    Prefetch {
        /// False when the line was already resident/in-flight or the
        /// prefetch was dropped at a full MSHR pool.
        issued: bool,
    },
}

/// Request/response envelope over a private [`MemoryHierarchy`].
///
/// `submit` services the request immediately (the model is
/// synchronous-completion: all latency is in the response's `ready_at`)
/// and enqueues the tagged response; `collect` pops it by tag. The
/// indirection therefore costs zero simulated cycles — the bit-identity
/// claim `cdf-sim equiv --boundary` enforces.
#[derive(Debug)]
pub struct MessagePort {
    hierarchy: MemoryHierarchy,
    next_req: u64,
    queue: VecDeque<(u64, MemResponse)>,
}

impl MessagePort {
    /// Wraps a hierarchy in the message envelope.
    pub fn new(hierarchy: MemoryHierarchy) -> MessagePort {
        MessagePort {
            hierarchy,
            next_req: 0,
            queue: VecDeque::new(),
        }
    }

    /// Submits a request; returns its tag.
    pub fn submit(&mut self, req: MemRequest) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        let resp = match req.kind.access_kind() {
            Some(kind) => {
                MemResponse::Access(
                    self.hierarchy
                        .access(req.addr, kind, req.now, req.wrong_path),
                )
            }
            None => MemResponse::Prefetch {
                issued: self.hierarchy.runahead_prefetch(req.addr, req.now),
            },
        };
        self.queue.push_back((id, resp));
        id
    }

    /// Collects the response for `id`.
    ///
    /// # Panics
    ///
    /// Panics if no response with that tag is pending — a protocol bug in
    /// the core, never a workload property.
    pub fn collect(&mut self, id: u64) -> MemResponse {
        let pos = self
            .queue
            .iter()
            .position(|(tag, _)| *tag == id)
            .expect("response pending for submitted request");
        self.queue.remove(pos).expect("position just found").1
    }

    /// Number of responses submitted and not yet collected.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// One core's port into a [`MultiCoreMemory`] shared with its co-runners.
#[derive(Debug)]
pub struct SharedPort {
    core: usize,
    sys: Rc<RefCell<MultiCoreMemory>>,
}

/// The core's memory side: which implementation sits behind the boundary.
///
/// All variants expose the same request/response contract and run the
/// same access code (a private hierarchy is a one-core shared system).
/// `Direct` and `Message` are proven bit-identical by the `--boundary`
/// equivalence axis; a one-core `Shared` system is pinned against a private
/// core by `crates/sim/tests/mix.rs`.
#[derive(Debug)]
pub enum MemSide {
    /// Reference: synchronous call into a private hierarchy.
    Direct(MemoryHierarchy),
    /// Default: tagged request/response over a private hierarchy.
    Message(MessagePort),
    /// One core's view of an N-core shared memory system.
    Shared(SharedPort),
}

/// Memory-side counters the core folds into its energy report, uniform
/// across [`MemSide`] variants (for `Shared`, the owning core's slice).
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
            MemSide::Direct(h) => h.access(addr, kind, now, wrong_path),
            MemSide::Message(port) => {
                let id = port.submit(MemRequest {
                    addr,
                    kind: match kind {
                        AccessKind::Load => MemReqKind::Load,
                        AccessKind::Store => MemReqKind::Store,
                        AccessKind::InstFetch => MemReqKind::InstFetch,
                    },
                    now,
                    wrong_path,
                });
                match port.collect(id) {
                    MemResponse::Access(r) => r,
                    MemResponse::Prefetch { .. } => {
                        unreachable!("demand request answered with a prefetch response")
                    }
                }
            }
            MemSide::Shared(p) => p
                .sys
                .borrow_mut()
                .access(p.core, addr, kind, now, wrong_path),
        }
    }

    /// Issues a runahead prefetch; returns whether a DRAM read was issued.
    pub fn runahead_prefetch(&mut self, addr: u64, now: u64) -> bool {
        match self {
            MemSide::Direct(h) => h.runahead_prefetch(addr, now),
            MemSide::Message(port) => {
                let id = port.submit(MemRequest {
                    addr,
                    kind: MemReqKind::RunaheadPrefetch,
                    now,
                    wrong_path: false,
                });
                match port.collect(id) {
                    MemResponse::Prefetch { issued } => issued,
                    MemResponse::Access(_) => {
                        unreachable!("prefetch request answered with an access response")
                    }
                }
            }
            MemSide::Shared(p) => p.sys.borrow_mut().runahead_prefetch(p.core, addr, now),
        }
    }

    /// This core's demand LLC misses still outstanding at `now` (MLP).
    pub fn outstanding_demand_misses(&mut self, now: u64) -> usize {
        match self {
            MemSide::Direct(h) => h.outstanding_demand_misses(now),
            MemSide::Message(port) => port.hierarchy.outstanding_demand_misses(now),
            MemSide::Shared(p) => p.sys.borrow_mut().outstanding_demand_misses(p.core, now),
        }
    }

    /// The private hierarchy, when there is one (`None` behind a shared
    /// system — callers needing shared stats go through the mix driver).
    pub fn hierarchy(&self) -> Option<&MemoryHierarchy> {
        match self {
            MemSide::Direct(h) => Some(h),
            MemSide::Message(port) => Some(&port.hierarchy),
            MemSide::Shared(_) => None,
        }
    }

    /// Enables host-side timing of the memory system's event structures
    /// (MSHR/MLP heaps; for shared systems, the shared-LLC access path).
    /// Observation-only: simulated results are bit-identical either way.
    pub fn enable_prof(&mut self) {
        match self {
            MemSide::Direct(h) => h.enable_prof(),
            MemSide::Message(port) => port.hierarchy.enable_prof(),
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
            MemSide::Direct(h) => h.take_prof(),
            MemSide::Message(port) => port.hierarchy.take_prof(),
            MemSide::Shared(_) => None,
        }
    }

    /// Uniform counter snapshot for the energy report: this core's slice
    /// of its memory system. A private hierarchy is core 0 of a one-core
    /// system, whose DRAM traffic is all core 0's.
    pub fn view(&self) -> MemView {
        match self {
            MemSide::Direct(h) => core_view(h.system(), 0),
            MemSide::Message(port) => core_view(port.hierarchy.system(), 0),
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

#[cfg(test)]
mod tests {
    use super::*;
    use cdf_mem::MemConfig;

    #[test]
    fn message_port_matches_direct_call() {
        let cfg = MemConfig::default();
        let mut direct = MemSide::Direct(MemoryHierarchy::new(cfg.clone()));
        let mut msg = MemSide::Message(MessagePort::new(MemoryHierarchy::new(cfg)));
        let mut now = 0;
        for i in 0..2000u64 {
            now += i % 7;
            let addr = (i * 2657) % 0x8_0000;
            let kind = match i % 5 {
                0 => AccessKind::Store,
                4 => AccessKind::InstFetch,
                _ => AccessKind::Load,
            };
            assert_eq!(
                direct.access(addr, kind, now, false),
                msg.access(addr, kind, now, false),
            );
            if i % 11 == 0 {
                assert_eq!(
                    direct.runahead_prefetch(addr ^ 0x4_0000, now),
                    msg.runahead_prefetch(addr ^ 0x4_0000, now)
                );
            }
            assert_eq!(
                direct.outstanding_demand_misses(now),
                msg.outstanding_demand_misses(now)
            );
        }
        assert_eq!(direct.view(), msg.view());
    }

    #[test]
    fn message_port_tags_and_collects_out_of_order() {
        let mut port = MessagePort::new(MemoryHierarchy::new(MemConfig::default()));
        let a = port.submit(MemRequest {
            addr: 0x1000,
            kind: MemReqKind::Load,
            now: 0,
            wrong_path: false,
        });
        let b = port.submit(MemRequest {
            addr: 0x2000,
            kind: MemReqKind::RunaheadPrefetch,
            now: 0,
            wrong_path: false,
        });
        assert_eq!(port.pending(), 2);
        assert!(matches!(port.collect(b), MemResponse::Prefetch { .. }));
        assert!(matches!(port.collect(a), MemResponse::Access(_)));
        assert_eq!(port.pending(), 0);
    }
}
