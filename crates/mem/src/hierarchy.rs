//! The memory system's vocabulary — configuration, access kinds, outcomes,
//! backpressure and statistics — and [`MemoryHierarchy`], the private
//! one-core view of the [`MultiCoreMemory`] that implements them.

use crate::cache::CacheConfig;
use crate::dram::{DramConfig, DramStats};
use crate::prefetch::{PrefetcherConfig, StreamPrefetcher};
use crate::prof::MemProfReport;
use crate::shared::{MultiCoreMemory, SharedMemConfig};

/// Configuration of the whole hierarchy (defaults mirror Table 1).
#[derive(Clone, PartialEq, Debug)]
pub struct MemConfig {
    /// L1 instruction cache geometry (32KB, 8-way).
    pub l1i: CacheConfig,
    /// L1 data cache geometry (32KB, 8-way).
    pub l1d: CacheConfig,
    /// Last-level cache geometry (1MB, 16-way).
    pub llc: CacheConfig,
    /// L1 access latency in cycles (Table 1: 2).
    pub l1_latency: u64,
    /// Additional LLC access latency in cycles (Table 1: 18).
    pub llc_latency: u64,
    /// L1D miss-status holding registers.
    pub l1d_mshrs: usize,
    /// LLC (DRAM-bound) miss-status holding registers.
    pub llc_mshrs: usize,
    /// Stream prefetcher configuration.
    pub prefetcher: PrefetcherConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            l1i: CacheConfig {
                capacity_bytes: 32 * 1024,
                ways: 8,
            },
            l1d: CacheConfig {
                capacity_bytes: 32 * 1024,
                ways: 8,
            },
            llc: CacheConfig {
                capacity_bytes: 1024 * 1024,
                ways: 16,
            },
            l1_latency: 2,
            llc_latency: 18,
            l1d_mshrs: 32,
            llc_mshrs: 40,
            prefetcher: PrefetcherConfig::default(),
            dram: DramConfig::default(),
        }
    }
}

/// What kind of access the core is performing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Demand data load.
    Load,
    /// Demand data store (write-allocate).
    Store,
    /// Instruction fetch.
    InstFetch,
}

/// Which level serviced an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitLevel {
    /// Hit in the L1 (I or D).
    L1,
    /// Missed L1, hit the LLC.
    Llc,
    /// Missed the LLC; serviced by DRAM (or merged into an outstanding
    /// DRAM-bound miss).
    Dram,
}

/// A serviced access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessOutcome {
    /// Cycle at which the data is available to the core.
    pub ready_at: u64,
    /// Level that supplied the data.
    pub level: HitLevel,
}

/// Which MSHR file ran out of capacity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrLevel {
    /// The L1D miss-status holding registers.
    L1d,
    /// The LLC (DRAM-bound) miss-status holding registers.
    Llc,
}

/// Typed MSHR-full backpressure: the structural limit on memory-level
/// parallelism, reported as an error instead of an abort so callers can
/// retry, reschedule, or surface it in run records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MshrFull {
    /// The MSHR file that was full.
    pub level: MshrLevel,
    /// Earliest cycle at which an entry frees — callers that track time can
    /// retry then instead of polling every cycle.
    pub retry_at: u64,
}

impl std::fmt::Display for MshrFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let level = match self.level {
            MshrLevel::L1d => "L1D",
            MshrLevel::Llc => "LLC",
        };
        write!(
            f,
            "{level} MSHRs full; earliest entry frees at cycle {}",
            self.retry_at
        )
    }
}

impl std::error::Error for MshrFull {}

/// Result of [`MultiCoreMemory::access`] (and so of
/// [`MemoryHierarchy::access`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessResult {
    /// The access was accepted; data ready at `ready_at`.
    Done(AccessOutcome),
    /// MSHRs were full; retry (the payload says which file and when a slot
    /// frees). This is the structural limit on memory-level parallelism.
    Rejected(MshrFull),
}

impl AccessResult {
    /// Converts to a `Result`, surfacing backpressure as the typed
    /// [`MshrFull`] error.
    pub fn outcome(self) -> Result<AccessOutcome, MshrFull> {
        match self {
            AccessResult::Done(out) => Ok(out),
            AccessResult::Rejected(full) => Err(full),
        }
    }

    /// Whether the access was rejected by full MSHRs.
    pub fn is_rejected(&self) -> bool {
        matches!(self, AccessResult::Rejected(_))
    }
}

/// Aggregate hierarchy statistics (beyond per-component counters).
///
/// Counting contract: every counter except `rejections` counts *accepted*
/// accesses only, and each logical access exactly once — a request bounced
/// with [`MshrFull`] and retried later contributes one `rejections` tick
/// per bounce and nothing else, so a backpressured run and an unconstrained
/// run of the same logical access sequence agree on every other field.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemStats {
    /// Demand loads accepted by the hierarchy.
    pub demand_loads: u64,
    /// Demand stores accepted by the hierarchy.
    pub demand_stores: u64,
    /// Instruction fetch line accesses accepted.
    pub inst_fetches: u64,
    /// Demand accesses that missed the LLC (went to DRAM).
    pub llc_demand_misses: u64,
    /// DRAM reads issued on behalf of prefetches.
    pub prefetch_reads: u64,
    /// DRAM reads issued on behalf of runahead execution.
    pub runahead_reads: u64,
    /// DRAM reads issued on behalf of wrong-path demand accesses.
    pub wrong_path_reads: u64,
    /// Writebacks sent to DRAM.
    pub writebacks: u64,
    /// Accesses rejected because MSHRs were full.
    pub rejections: u64,
}

/// A private memory hierarchy: the [`MultiCoreMemory`] with one core.
/// Every method delegates to that system as core 0, so a single-core run
/// counts misses, MLP and DRAM traffic with the same access algorithm a mix
/// does. See the [crate docs](crate) for the model and an example.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    sys: MultiCoreMemory,
}

impl MemoryHierarchy {
    /// Creates a hierarchy from a configuration.
    pub fn new(cfg: MemConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            sys: MultiCoreMemory::new(SharedMemConfig { cores: 1, mem: cfg }),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.sys.config().mem
    }

    /// The one-core system this hierarchy is; its core 0 is this
    /// hierarchy's core.
    pub fn system(&self) -> &MultiCoreMemory {
        &self.sys
    }

    /// Performs an access at cycle `now`; see [`MultiCoreMemory::access`].
    /// `wrong_path` attributes any DRAM read this access causes to
    /// wrong-path execution in the statistics (the paper's
    /// runahead-overhead accounting).
    pub fn access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
        wrong_path: bool,
    ) -> AccessResult {
        self.sys.access(0, addr, kind, now, wrong_path)
    }

    /// Issues a runahead prefetch of the line containing `addr` into the
    /// LLC; see [`MultiCoreMemory::runahead_prefetch`]. Returns whether a
    /// DRAM read was actually issued.
    pub fn runahead_prefetch(&mut self, addr: u64, now: u64) -> bool {
        self.sys.runahead_prefetch(0, addr, now)
    }

    /// Number of demand LLC misses still outstanding at `now` — the quantity
    /// averaged for the paper's MLP figure (Fig. 14).
    pub fn outstanding_demand_misses(&mut self, now: u64) -> usize {
        self.sys.outstanding_demand_misses(0, now)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &MemStats {
        self.sys.core_stats(0)
    }

    /// DRAM statistics (the memory-traffic figure reads `total()`).
    pub fn dram_stats(&self) -> &DramStats {
        self.sys.dram_stats()
    }

    /// `(hits, misses)` of the L1D.
    pub fn l1d_stats(&self) -> (u64, u64) {
        self.sys.l1d_stats(0)
    }

    /// `(hits, misses)` of the LLC.
    pub fn llc_stats(&self) -> (u64, u64) {
        self.sys.llc_stats()
    }

    /// The prefetcher (read-only view for reports).
    pub fn prefetcher(&self) -> &StreamPrefetcher {
        self.sys.prefetcher(0)
    }

    /// Enables host-side timing of the MSHR and MLP bookkeeping structures
    /// (see [`crate::prof`]). Idempotent; never changes simulated state.
    pub fn enable_prof(&mut self) {
        self.sys.enable_heap_prof();
    }

    /// Detaches and returns the host timers (`None` when profiling was
    /// never enabled), summed across both MSHR files.
    pub fn take_prof(&mut self) -> Option<MemProfReport> {
        self.sys.take_prof()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_BYTES;

    fn no_pf() -> MemConfig {
        MemConfig {
            prefetcher: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
            ..MemConfig::default()
        }
    }

    fn done(r: AccessResult) -> AccessOutcome {
        r.outcome()
            .unwrap_or_else(|full| panic!("access unexpectedly backpressured: {full}"))
    }

    #[test]
    fn l1_llc_dram_levels() {
        let mut m = MemoryHierarchy::new(no_pf());
        let first = done(m.access(0x10000, AccessKind::Load, 0, false));
        assert_eq!(first.level, HitLevel::Dram);
        assert!(first.ready_at >= 20 + 86, "l1+llc+dram latency");

        let hit = done(m.access(0x10000, AccessKind::Load, first.ready_at, false));
        assert_eq!(hit.level, HitLevel::L1);
        assert_eq!(hit.ready_at, first.ready_at + 2);

        // Evict from L1 by filling 9 lines in the same L1 set (64 sets, 8 ways)
        // but not from the 16-way LLC: next access is an LLC hit.
        for i in 1..=8u64 {
            m.access(0x10000 + i * 64 * 64, AccessKind::Load, 10_000 * i, false);
        }
        let llc_hit = done(m.access(0x10000, AccessKind::Load, 1_000_000, false));
        assert_eq!(llc_hit.level, HitLevel::Llc);
        assert_eq!(llc_hit.ready_at, 1_000_000 + 2 + 18);
    }

    #[test]
    fn mshr_merge_same_line() {
        let mut m = MemoryHierarchy::new(no_pf());
        let a = done(m.access(0x20000, AccessKind::Load, 0, false));
        // Second miss to the same line while outstanding: merged, same-ish time.
        let b = done(m.access(0x20008, AccessKind::Load, 1, false));
        assert_eq!(b.level, HitLevel::L1, "line already filled tag-wise");
        let _ = a;
    }

    #[test]
    fn rejection_when_mshrs_full() {
        let mut cfg = no_pf();
        cfg.llc_mshrs = 2;
        cfg.l1d_mshrs = 2;
        let mut m = MemoryHierarchy::new(cfg);
        assert!(matches!(
            m.access(0x0, AccessKind::Load, 0, false),
            AccessResult::Done(_)
        ));
        assert!(matches!(
            m.access(0x10000, AccessKind::Load, 0, false),
            AccessResult::Done(_)
        ));
        let r = m.access(0x20000, AccessKind::Load, 0, false);
        let full = r.outcome().expect_err("third distinct line must reject");
        // The L1D MSHR file sits in front of the LLC's, so it is the one
        // that reports full here.
        assert_eq!(full.level, MshrLevel::L1d);
        assert!(full.retry_at > 0, "retry hint must point forward in time");
        assert_eq!(m.stats().rejections, 1);
        // The hint is honest: retrying at `retry_at` succeeds.
        assert!(matches!(
            m.access(0x20000, AccessKind::Load, full.retry_at, false),
            AccessResult::Done(_)
        ));
        // After the misses complete, capacity frees up.
        assert!(matches!(
            m.access(0x20000, AccessKind::Load, 100_000, false),
            AccessResult::Done(_)
        ));
    }

    /// The headline PR-6 regression: a reject-then-retry sequence must
    /// leave exactly the same statistics as an unconstrained run of the
    /// same logical accesses — a rejected access used to bump the demand
    /// counters, the cache hit/miss counters, and `llc_demand_misses`
    /// before bouncing, so every retry double-counted.
    #[test]
    fn reject_then_retry_counts_once() {
        let small = MemConfig {
            l1d_mshrs: 2,
            ..no_pf()
        };
        let mut constrained = MemoryHierarchy::new(small);
        let mut unconstrained = MemoryHierarchy::new(no_pf());

        // Three parallel misses to distinct lines: the third bounces off
        // the 2-entry L1D MSHR file and must be retried.
        let lines = [0x0u64, 0x10000, 0x20000];
        for &a in &lines {
            assert!(!unconstrained
                .access(a, AccessKind::Load, 0, false)
                .is_rejected());
        }
        assert!(!constrained
            .access(lines[0], AccessKind::Load, 0, false)
            .is_rejected());
        assert!(!constrained
            .access(lines[1], AccessKind::Load, 0, false)
            .is_rejected());
        let full = constrained
            .access(lines[2], AccessKind::Load, 0, false)
            .outcome()
            .expect_err("third miss must bounce");
        assert!(!constrained
            .access(lines[2], AccessKind::Load, full.retry_at, false)
            .is_rejected());

        let mut c = *constrained.stats();
        assert_eq!(c.rejections, 1);
        c.rejections = 0;
        assert_eq!(
            c,
            *unconstrained.stats(),
            "a bounced access must contribute nothing but its rejection tick"
        );
        // The cache-level counters agree too: the bounced access never
        // reached the L1D or the LLC.
        assert_eq!(constrained.l1d_stats(), unconstrained.l1d_stats());
        assert_eq!(constrained.llc_stats(), unconstrained.llc_stats());
    }

    /// Rejected accesses must not train the prefetcher: training a bounced
    /// access and its mandatory retry used to advance the stream detector
    /// twice per logical miss.
    #[test]
    fn prefetcher_trains_only_on_accepted_accesses() {
        let small = MemConfig {
            l1d_mshrs: 8,
            llc_mshrs: 3,
            ..MemConfig::default()
        };
        let mut constrained = MemoryHierarchy::new(small);
        let mut unconstrained = MemoryHierarchy::new(MemConfig::default());

        // Two far-apart misses plus the stream head pin all three LLC
        // MSHRs; the stream's second touch bounces at the LLC level, which
        // is where the old code had already trained the prefetcher.
        let (a, b) = (0x40_0000u64, 0x80_0000);
        let (s0, s1) = (0xC0_0000u64, 0xC0_0000 + LINE_BYTES);
        for h in [&mut constrained, &mut unconstrained] {
            assert!(!h.access(a, AccessKind::Load, 0, false).is_rejected());
            assert!(!h.access(b, AccessKind::Load, 1, false).is_rejected());
            assert!(!h.access(s0, AccessKind::Load, 2, false).is_rejected());
        }
        // s0 trained on both; its prefetches were dropped (constrained) or
        // issued (unconstrained) — `issued()` counts trained candidates
        // either way.
        let r = constrained.access(s1, AccessKind::Load, 3, false);
        let full = r.outcome().expect_err("LLC MSHRs are pinned");
        assert_eq!(full.level, MshrLevel::Llc);
        assert!(!constrained
            .access(s1, AccessKind::Load, full.retry_at, false)
            .is_rejected());
        assert!(!unconstrained
            .access(s1, AccessKind::Load, 3, false)
            .is_rejected());
        assert_eq!(
            constrained.prefetcher().issued(),
            unconstrained.prefetcher().issued(),
            "the bounced access must not have trained the stream detector"
        );
    }

    #[test]
    fn outstanding_demand_misses_counts_parallel_misses() {
        let mut m = MemoryHierarchy::new(no_pf());
        m.access(0x0, AccessKind::Load, 0, false);
        m.access(0x10000, AccessKind::Load, 0, false);
        m.access(0x20000, AccessKind::Load, 0, false);
        assert_eq!(m.outstanding_demand_misses(5), 3);
        assert_eq!(m.outstanding_demand_misses(1_000_000), 0);
    }

    #[test]
    fn wrong_path_attribution() {
        let mut m = MemoryHierarchy::new(no_pf());
        m.access(0x0, AccessKind::Load, 0, true);
        m.access(0x10000, AccessKind::Load, 0, false);
        assert_eq!(m.stats().wrong_path_reads, 1);
    }

    #[test]
    fn prefetcher_reduces_demand_miss_latency() {
        // Stream through memory with the prefetcher on and off; the prefetched
        // run must see more LLC hits.
        let mut on = MemoryHierarchy::new(MemConfig::default());
        let mut off = MemoryHierarchy::new(no_pf());
        let mut now = 0u64;
        let (mut llc_hits_on, mut llc_hits_off) = (0, 0);
        for i in 0..256u64 {
            let addr = 0x100000 + i * LINE_BYTES;
            if done(on.access(addr, AccessKind::Load, now, false)).level == HitLevel::Llc {
                llc_hits_on += 1;
            }
            if done(off.access(addr, AccessKind::Load, now, false)).level == HitLevel::Llc {
                llc_hits_off += 1;
            }
            now += 300;
        }
        assert!(
            llc_hits_on > llc_hits_off + 100,
            "prefetcher must convert DRAM misses into LLC hits: {llc_hits_on} vs {llc_hits_off}"
        );
        assert!(on.stats().prefetch_reads > 0);
    }

    #[test]
    fn stores_write_allocate_and_writeback() {
        let mut cfg = no_pf();
        cfg.l1d = CacheConfig {
            capacity_bytes: 1024,
            ways: 2,
        }; // 8 sets
        cfg.llc = CacheConfig {
            capacity_bytes: 2048,
            ways: 2,
        }; // 16 sets
        let mut m = MemoryHierarchy::new(cfg);
        // Write then force eviction through both levels.
        m.access(0x0, AccessKind::Store, 0, false);
        let mut now = 100_000u64;
        for i in 1..64u64 {
            m.access(i * 2048, AccessKind::Store, now, false);
            now += 100_000;
        }
        assert!(m.stats().writebacks > 0, "dirty lines must reach DRAM");
        assert!(m.dram_stats().writes > 0);
    }

    #[test]
    fn inst_fetches_use_l1i() {
        let mut m = MemoryHierarchy::new(no_pf());
        let a = done(m.access(0x40, AccessKind::InstFetch, 0, false));
        assert_eq!(a.level, HitLevel::Dram);
        let b = done(m.access(0x40, AccessKind::InstFetch, a.ready_at, false));
        assert_eq!(b.level, HitLevel::L1);
        // Data access to the same line does not hit (separate L1s) but hits LLC.
        let c = done(m.access(0x40, AccessKind::Load, a.ready_at, false));
        assert_eq!(c.level, HitLevel::Llc);
        assert_eq!(m.stats().inst_fetches, 2);
    }

    #[test]
    fn a_fill_is_resident_in_the_system() {
        let mut m = MemoryHierarchy::new(no_pf());
        assert_eq!(m.system().llc_occupancy(0), 0);
        m.access(0x5000, AccessKind::Load, 0, false);
        assert_eq!(m.system().llc_occupancy(0), 1);
        assert_eq!(m.system().config().cores, 1);
    }
}
