//! The full memory hierarchy: L1I + L1D + LLC + MSHRs + prefetcher + DRAM.

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig, DramStats};
use crate::event::{EventMshr, EventOutstanding};
use crate::line_addr;
use crate::mshr::{Mshr, MshrOutcome};
use crate::prefetch::{PrefetcherConfig, StreamPrefetcher};
use crate::prof::{HeapProf, MemProfReport, TimerKind};

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

/// Which bookkeeping implementation the hierarchy runs on. Both produce
/// bit-identical timing and statistics (proven by `cdf-sim equiv --mem`);
/// only the cost of tracking outstanding misses differs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemModelKind {
    /// Outstanding misses retire on completion-cycle min-heaps
    /// ([`EventMshr`]): O(1) occupancy queries and per-cycle MLP samples.
    /// Requires monotonically non-decreasing access times, which the core
    /// guarantees. The default.
    #[default]
    EventDriven,
    /// The original lazy implementation ([`Mshr`] + `Vec` retain/filter):
    /// every query rescans entries against `now`. Kept compiled as the
    /// equivalence oracle.
    ReferenceLazy,
}

impl MemModelKind {
    /// Stable label used in serialized reports and result-store keys.
    pub fn as_str(self) -> &'static str {
        match self {
            MemModelKind::EventDriven => "mem-event",
            MemModelKind::ReferenceLazy => "mem-lazy",
        }
    }
}

/// An MSHR file, dispatching to the lazy or event-driven implementation.
/// All methods take `&mut self` because the event model advances its
/// expiry heap on every query. Every operation is counted by an optional
/// host timer ([`HeapProf`]), which times it on sampled cycles, so profiled
/// runs can attribute wall time to MSHR bookkeeping; an unprofiled file
/// pays one null check per call.
#[derive(Clone, Debug)]
struct MshrFile {
    imp: MshrImpl,
    prof: Option<Box<HeapProf>>,
}

#[derive(Clone, Debug)]
enum MshrImpl {
    Lazy(Mshr),
    Event(EventMshr),
}

impl MshrFile {
    fn new(capacity: usize, model: MemModelKind) -> MshrFile {
        MshrFile {
            imp: match model {
                MemModelKind::EventDriven => MshrImpl::Event(EventMshr::new(capacity)),
                MemModelKind::ReferenceLazy => MshrImpl::Lazy(Mshr::new(capacity)),
            },
            prof: None,
        }
    }

    #[inline]
    fn finish(&mut self, t0: Option<std::time::Instant>) {
        if let Some(p) = self.prof.as_mut() {
            p.finish(t0);
        }
    }

    fn try_alloc(&mut self, line: u64, now: u64, completes_at: u64) -> MshrOutcome {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = match &mut self.imp {
            MshrImpl::Lazy(m) => m.try_alloc(line, now, completes_at),
            MshrImpl::Event(m) => m.try_alloc(line, now, completes_at),
        };
        self.finish(t0);
        r
    }

    fn outstanding(&mut self, line: u64, now: u64) -> Option<u64> {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = match &mut self.imp {
            MshrImpl::Lazy(m) => m.outstanding(line, now),
            MshrImpl::Event(m) => m.outstanding(line, now),
        };
        self.finish(t0);
        r
    }

    fn len(&mut self, now: u64) -> usize {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = match &mut self.imp {
            MshrImpl::Lazy(m) => m.len(now),
            MshrImpl::Event(m) => m.len(now),
        };
        self.finish(t0);
        r
    }

    fn capacity(&self) -> usize {
        match &self.imp {
            MshrImpl::Lazy(m) => m.capacity(),
            MshrImpl::Event(m) => m.capacity(),
        }
    }

    fn earliest_release(&mut self, now: u64) -> Option<u64> {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = match &mut self.imp {
            MshrImpl::Lazy(m) => m.earliest_release(now),
            MshrImpl::Event(m) => m.earliest_release(now),
        };
        self.finish(t0);
        r
    }
}

/// Completion cycles of outstanding *demand* LLC misses, for MLP
/// measurement (merged and prefetch requests are not double counted).
/// Operations carry the same optional host timer as [`MshrFile`].
#[derive(Clone, Debug)]
struct MlpTracker {
    imp: MlpImpl,
    prof: Option<Box<HeapProf>>,
}

#[derive(Clone, Debug)]
enum MlpImpl {
    /// Reference: `retain` on insert, filter-count on sample.
    Lazy(Vec<u64>),
    /// Event-driven: min-heap popped as completions pass.
    Event(EventOutstanding),
}

impl MlpTracker {
    fn new(model: MemModelKind) -> MlpTracker {
        MlpTracker {
            imp: match model {
                MemModelKind::EventDriven => MlpImpl::Event(EventOutstanding::default()),
                MemModelKind::ReferenceLazy => MlpImpl::Lazy(Vec::new()),
            },
            prof: None,
        }
    }

    #[inline]
    fn finish(&mut self, t0: Option<std::time::Instant>) {
        if let Some(p) = self.prof.as_mut() {
            p.finish(t0);
        }
    }

    fn note(&mut self, done: u64, now: u64) {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MlpHeap, now);
        match &mut self.imp {
            MlpImpl::Lazy(v) => {
                v.retain(|&d| d > now);
                v.push(done);
            }
            MlpImpl::Event(h) => h.note(done),
        }
        self.finish(t0);
    }

    fn outstanding(&mut self, now: u64) -> usize {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MlpHeap, now);
        let r = match &mut self.imp {
            MlpImpl::Lazy(v) => v.iter().filter(|&&d| d > now).count(),
            MlpImpl::Event(h) => h.outstanding(now),
        };
        self.finish(t0);
        r
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

/// Result of [`MemoryHierarchy::access`].
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

/// The memory hierarchy the core talks to. See the [crate docs](crate) for
/// the model and an example.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    cfg: MemConfig,
    model: MemModelKind,
    l1i: Cache,
    l1d: Cache,
    llc: Cache,
    l1d_mshr: MshrFile,
    llc_mshr: MshrFile,
    prefetcher: StreamPrefetcher,
    dram: Dram,
    stats: MemStats,
    demand_outstanding: MlpTracker,
}

impl MemoryHierarchy {
    /// Creates a hierarchy from a configuration, using the default
    /// (event-driven) bookkeeping model.
    pub fn new(cfg: MemConfig) -> MemoryHierarchy {
        MemoryHierarchy::with_model(cfg, MemModelKind::default())
    }

    /// Creates a hierarchy running on an explicit bookkeeping model.
    pub fn with_model(cfg: MemConfig, model: MemModelKind) -> MemoryHierarchy {
        MemoryHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            llc: Cache::new(cfg.llc),
            l1d_mshr: MshrFile::new(cfg.l1d_mshrs, model),
            llc_mshr: MshrFile::new(cfg.llc_mshrs, model),
            prefetcher: StreamPrefetcher::new(cfg.prefetcher),
            dram: Dram::new(cfg.dram),
            stats: MemStats::default(),
            demand_outstanding: MlpTracker::new(model),
            model,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// The bookkeeping model this hierarchy runs on.
    pub fn model(&self) -> MemModelKind {
        self.model
    }

    /// Performs an access at cycle `now`. `wrong_path` attributes any DRAM
    /// read this access causes to wrong-path execution in the statistics
    /// (the paper's runahead-overhead accounting).
    ///
    /// Admission is decided *before* any state changes: a rejected access
    /// leaves the caches, MSHRs, prefetcher, and statistics (other than
    /// `rejections`) untouched, so the mandatory retry replays it cleanly
    /// without double-counting anything.
    pub fn access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
        wrong_path: bool,
    ) -> AccessResult {
        let is_write = kind == AccessKind::Store;
        let is_inst = kind == AccessKind::InstFetch;
        let line = line_addr(addr);

        // --- Admission (no mutation of architectural state; the event
        // model may advance its expiry heaps, which is not visible). The
        // probes mirror exactly the lookups the accepted path performs, so
        // acceptance here cannot turn into a structural conflict below.
        let l1_hit = if is_inst {
            self.l1i.probe(addr)
        } else {
            self.l1d.probe(addr)
        };
        // L1 miss: check the L1 MSHRs (data side only; the in-order fetch
        // unit has a single outstanding I-miss by construction).
        let l1d_merge = if !l1_hit && !is_inst {
            let merge = self.l1d_mshr.outstanding(line, now);
            if merge.is_none() && self.l1d_mshr.len(now) >= self.l1d_mshr.capacity() {
                self.stats.rejections += 1;
                return AccessResult::Rejected(MshrFull {
                    level: MshrLevel::L1d,
                    retry_at: self.l1d_mshr.earliest_release(now).unwrap_or(now + 1),
                });
            }
            merge
        } else {
            None
        };
        // Requests that reach the LLC and miss it need an LLC MSHR (a merge
        // with an outstanding DRAM-bound miss does not).
        if !l1_hit
            && l1d_merge.is_none()
            && !self.llc.probe(addr)
            && self.llc_mshr.outstanding(line, now).is_none()
            && self.llc_mshr.len(now) >= self.llc_mshr.capacity()
        {
            self.stats.rejections += 1;
            return AccessResult::Rejected(MshrFull {
                level: MshrLevel::Llc,
                retry_at: self.llc_mshr.earliest_release(now).unwrap_or(now + 1),
            });
        }

        // --- Accepted: count the access exactly once.
        match kind {
            AccessKind::Load => self.stats.demand_loads += 1,
            AccessKind::Store => self.stats.demand_stores += 1,
            AccessKind::InstFetch => self.stats.inst_fetches += 1,
        }

        // --- L1 ---
        let l1 = if is_inst {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        let l1_info = l1.access(addr, is_write);
        debug_assert_eq!(l1_info.hit, l1_hit, "probe agrees with access");
        if l1_info.hit {
            return AccessResult::Done(AccessOutcome {
                ready_at: now + self.cfg.l1_latency,
                level: HitLevel::L1,
            });
        }
        if let Some(done) = l1d_merge {
            // Merge with an in-flight L1 miss.
            return AccessResult::Done(AccessOutcome {
                ready_at: done,
                level: HitLevel::Llc,
            });
        }

        // --- LLC ---
        let llc_info = self.llc.access(addr, false);
        let ready_at;
        let level;
        if llc_info.hit {
            if llc_info.first_use_of_prefetch {
                self.prefetcher.on_prefetch_hit();
            }
            ready_at = now + self.cfg.l1_latency + self.cfg.llc_latency;
            level = HitLevel::Llc;
        } else {
            // LLC miss → DRAM, moderated by the LLC MSHRs.
            self.stats.llc_demand_misses += 1;
            let issue_at = now + self.cfg.l1_latency + self.cfg.llc_latency;
            if let Some(done) = self.llc_mshr.outstanding(line, now) {
                ready_at = done.max(issue_at);
                level = HitLevel::Dram;
            } else {
                let done = self.dram.read(line, issue_at);
                let outcome = self.llc_mshr.try_alloc(line, now, done);
                debug_assert_eq!(outcome, MshrOutcome::Allocated);
                if wrong_path {
                    self.stats.wrong_path_reads += 1;
                }
                self.demand_outstanding.note(done, now);
                // Fill the LLC now (tag-available model).
                if let Some(ev) = self.llc.fill(line, false) {
                    self.evict_inclusive(ev.line_addr, ev.dirty, done);
                }
                ready_at = done;
                level = HitLevel::Dram;
            }
        }

        // Train the prefetcher only on *accepted* L1D demand misses, and
        // only after the demand request itself has been issued: the demand
        // DRAM read goes to the memory controller ahead of the prefetch
        // reads it triggers (demand priority).
        if !is_inst {
            let pf_lines = self.prefetcher.on_demand_miss(addr);
            for pf in pf_lines {
                self.issue_prefetch(pf, now, false);
            }
        }

        // Fill L1 and track the outstanding miss in the L1D MSHRs.
        let l1 = if is_inst {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if let Some(ev) = l1.fill(addr, is_write) {
            if ev.dirty {
                // Inclusive-ish: push dirty L1 victims down into the LLC.
                // When the LLC still holds the line, `fill` on the resident
                // copy is a dirty-merge: it ORs in the dirty bit and
                // promotes to MRU without allocating a second way (pinned
                // by `cache::tests::fill_on_resident_line_merges`).
                if self.llc.probe(ev.line_addr) {
                    self.llc.fill(ev.line_addr, true);
                } else {
                    self.writeback(ev.line_addr, now);
                }
            }
        }
        if !is_inst {
            self.l1d_mshr.try_alloc(line, now, ready_at);
        }

        AccessResult::Done(AccessOutcome { ready_at, level })
    }

    /// Issues a runahead prefetch of the line containing `addr` into the
    /// LLC. Runahead loads bypass the L1D MSHRs (they fill the LLC only, as
    /// PRE's prefetches do) but still consume LLC MSHRs and DRAM bandwidth.
    /// Returns whether a DRAM read was actually issued.
    pub fn runahead_prefetch(&mut self, addr: u64, now: u64) -> bool {
        self.issue_prefetch(line_addr(addr), now, true)
    }

    fn issue_prefetch(&mut self, pf_addr: u64, now: u64, runahead: bool) -> bool {
        let line = line_addr(pf_addr);
        if self.llc.probe(line) || self.llc_mshr.outstanding(line, now).is_some() {
            return false;
        }
        if self.llc_mshr.len(now) >= self.llc_mshr.capacity() {
            return false; // prefetches are dropped, never queued
        }
        // Unified issue-time model: every DRAM-bound request — demand or
        // prefetch — traverses the L1 + LLC lookup path before reaching
        // the memory controller, so prefetches get no unphysical head
        // start over the demand misses that triggered them.
        let done = self
            .dram
            .read(line, now + self.cfg.l1_latency + self.cfg.llc_latency);
        self.llc_mshr.try_alloc(line, now, done);
        if runahead {
            self.stats.runahead_reads += 1;
            // Runahead loads count toward measured MLP (the paper's Fig. 14
            // explicitly includes PRE's wrong-path/runahead loads in MLP).
            self.demand_outstanding.note(done, now);
        } else {
            self.stats.prefetch_reads += 1;
        }
        // Runahead fills are tagged `prefetched` too: both speculative fill
        // kinds count as a prefetch hit on first demand use (FDP feedback).
        if let Some(ev) = self.llc.fill_tagged(line, false, true) {
            self.evict_inclusive(ev.line_addr, ev.dirty, now);
        }
        true
    }

    /// Evicts a line from the LLC under inclusion: dirty inner (L1) copies
    /// are folded into the writeback decision before being invalidated.
    fn evict_inclusive(&mut self, victim_line: u64, llc_dirty: bool, now: u64) {
        let l1_dirty = self.l1d.invalidate(victim_line) == Some(true);
        self.l1i.invalidate(victim_line);
        if llc_dirty || l1_dirty {
            self.writeback(victim_line, now);
        }
    }

    fn writeback(&mut self, victim_line: u64, now: u64) {
        self.dram.write(victim_line, now);
        self.stats.writebacks += 1;
    }

    /// Whether the line containing `addr` is resident in the LLC or closer
    /// (used by the retire stage to classify a load as an "LLC miss" for the
    /// Critical Count Tables without disturbing cache state).
    pub fn probe_cached(&self, addr: u64) -> bool {
        self.l1d.probe(addr) || self.llc.probe(addr)
    }

    /// Number of demand LLC misses still outstanding at `now` — the quantity
    /// averaged for the paper's MLP figure (Fig. 14). Takes `&mut self`
    /// because the event-driven model retires completed entries here
    /// instead of rescanning them on every sample.
    pub fn outstanding_demand_misses(&mut self, now: u64) -> usize {
        self.demand_outstanding.outstanding(now)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// DRAM statistics (the memory-traffic figure reads `total()`).
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// `(hits, misses)` of the L1D.
    pub fn l1d_stats(&self) -> (u64, u64) {
        self.l1d.stats()
    }

    /// `(hits, misses)` of the LLC.
    pub fn llc_stats(&self) -> (u64, u64) {
        self.llc.stats()
    }

    /// The prefetcher (read-only view for reports).
    pub fn prefetcher(&self) -> &StreamPrefetcher {
        &self.prefetcher
    }

    /// Enables host-side timing of the MSHR and MLP bookkeeping structures
    /// (see [`crate::prof`]). Idempotent; never changes simulated state.
    pub fn enable_prof(&mut self) {
        for mshr in [&mut self.l1d_mshr, &mut self.llc_mshr] {
            if mshr.prof.is_none() {
                mshr.prof = Some(Box::default());
            }
        }
        if self.demand_outstanding.prof.is_none() {
            self.demand_outstanding.prof = Some(Box::default());
        }
    }

    /// Detaches and returns the host timers (`None` when profiling was
    /// never enabled), summed across both MSHR files.
    pub fn take_prof(&mut self) -> Option<MemProfReport> {
        let l1d = self.l1d_mshr.prof.take();
        let llc = self.llc_mshr.prof.take();
        let mlp = self.demand_outstanding.prof.take();
        if l1d.is_none() && llc.is_none() && mlp.is_none() {
            return None;
        }
        let mut r = MemProfReport::default();
        for p in [l1d, llc].into_iter().flatten() {
            r.mshr.merge(&p);
        }
        if let Some(p) = mlp {
            r.mlp = *p;
        }
        Some(r)
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
    fn probe_cached_reflects_residency() {
        let mut m = MemoryHierarchy::new(no_pf());
        assert!(!m.probe_cached(0x5000));
        m.access(0x5000, AccessKind::Load, 0, false);
        assert!(m.probe_cached(0x5000));
    }

    /// Both bookkeeping models, driven with the identical access sequence,
    /// agree on every outcome and every statistic (the in-crate smoke
    /// version of the `cdf-sim equiv --mem` proof).
    #[test]
    fn models_agree_on_mixed_sequence() {
        let cfg = MemConfig {
            l1d_mshrs: 4,
            llc_mshrs: 3,
            ..MemConfig::default()
        };
        let mut event = MemoryHierarchy::with_model(cfg.clone(), MemModelKind::EventDriven);
        let mut lazy = MemoryHierarchy::with_model(cfg, MemModelKind::ReferenceLazy);
        assert_eq!(event.model(), MemModelKind::EventDriven);
        assert_eq!(lazy.model(), MemModelKind::ReferenceLazy);

        let mut now = 0u64;
        let mut x = 0x1234_5678u64;
        for i in 0..4000u64 {
            // Deterministic mixed pattern: streams, random lines, stores,
            // fetches, occasional runahead prefetches; bursty timing so
            // MSHRs saturate and drain.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            now += x % 7;
            let addr = match i % 4 {
                0 => 0x10_0000 + (i / 4) * LINE_BYTES, // ascending stream
                1 => (x >> 16) & 0x3F_FFC0,            // random line
                2 => 0x40_0000 + (x & 0xFFF8),         // hot region
                _ => 0x80_0000 + (i % 512) * 8,        // fetch region
            };
            let kind = match i % 4 {
                3 => AccessKind::InstFetch,
                2 => AccessKind::Store,
                _ => AccessKind::Load,
            };
            let a = event.access(addr, kind, now, i % 64 == 9);
            let b = lazy.access(addr, kind, now, i % 64 == 9);
            assert_eq!(a, b, "access {i} at cycle {now} diverged");
            if i % 16 == 5 {
                assert_eq!(
                    event.runahead_prefetch(addr ^ 0x1_0000, now),
                    lazy.runahead_prefetch(addr ^ 0x1_0000, now)
                );
            }
            assert_eq!(
                event.outstanding_demand_misses(now),
                lazy.outstanding_demand_misses(now),
                "MLP sample {i} diverged"
            );
        }
        assert_eq!(event.stats(), lazy.stats());
        assert_eq!(event.l1d_stats(), lazy.l1d_stats());
        assert_eq!(event.llc_stats(), lazy.llc_stats());
        assert_eq!(event.dram_stats(), lazy.dram_stats());
        assert!(
            event.stats().rejections > 0,
            "sequence exercised backpressure"
        );
    }
}
