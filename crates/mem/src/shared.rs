//! The memory system: N private L1 slices in front of one LLC, one LLC
//! MSHR pool, and one DDR4 DRAM.
//!
//! Each core owns a private L1I/L1D pair, an L1D MSHR file, and a stream
//! prefetcher; the LLC, the LLC (DRAM-bound) MSHR pool, and the DRAM
//! channels are shared. This is the simulator's one access algorithm
//! (admission before mutation, the counting contract, and the
//! fill/eviction/writeback/prefetch ordering): the private
//! [`MemoryHierarchy`](crate::MemoryHierarchy) is this system with one core,
//! so a single-core run and a mix read their LLC misses, MLP and DRAM
//! traffic off the same code. Every MSHR file and MLP tracker is a
//! completion-cycle heap ([`crate::EventMshr`], [`crate::EventOutstanding`]).
//!
//! On top of the access algorithm the system keeps the contention
//! accounting a multi-core mix needs:
//!
//! * **per-core [`MemStats`]** that fold exactly to an independently
//!   maintained shared total (the conservation invariant the proptest
//!   battery checks);
//! * **MSHR fairness**: every LLC-pool rejection is attributed — a core
//!   bounced while holding less than its fair share (`capacity / cores`)
//!   suffered a *steal*, charged to the core holding the most entries;
//! * **LLC occupancy share**: every LLC line records the core whose fill
//!   allocated it;
//! * **DDR4 channel utilization** from the per-channel busy counters.
//!
//! Inclusion is enforced across *all* cores: an LLC eviction invalidates
//! every core's L1 copies and folds their dirty bits into the writeback.
//!
//! ## Per-core physical namespaces
//!
//! Co-scheduled mix workloads are separate programs with **private
//! architectural memories** (each core gets its own `MemoryImage`), so two
//! cores using the same virtual address do not share data — and must not
//! alias to the same line in the shared LLC or DRAM row space, or one
//! core's streaming would "prefetch" another core's working set out of
//! thin air. Every address entering the shared system is therefore offset
//! into a per-core physical region ([`phys`]): core 0 maps identity (the
//! private hierarchy sees its own addresses), and higher cores' footprints
//! are disjoint. Contention is exactly the shared *capacity*, *pool*, and
//! *bandwidth* — never phantom data sharing.

use crate::cache::Cache;
use crate::dram::{Dram, DramStats};
use crate::event::{MlpTracker, MshrFile, MshrOutcome};
use crate::hierarchy::{
    AccessKind, AccessOutcome, AccessResult, HitLevel, MemConfig, MemStats, MshrFull, MshrLevel,
};
use crate::line_addr;
use crate::prefetch::StreamPrefetcher;
use crate::prof::{HeapProf, MemProfReport, TimerKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the memory system: one [`MemConfig`] stamps out every
/// core's private L1 slice *and* the shared LLC/MSHR/DRAM; with `cores: 1`
/// it is a private hierarchy.
#[derive(Clone, PartialEq, Debug)]
pub struct SharedMemConfig {
    /// Number of cores sharing the LLC, MSHR pool, and DRAM channels.
    pub cores: usize,
    /// Geometry and timing (per-core L1 fields + shared LLC/DRAM fields).
    pub mem: MemConfig,
}

impl SharedMemConfig {
    /// A shared system for `cores` cores with the default Table-1 geometry.
    pub fn new(cores: usize) -> SharedMemConfig {
        SharedMemConfig {
            cores,
            mem: MemConfig::default(),
        }
    }
}

/// Per-core shared-resource accounting beyond [`MemStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreShareStats {
    /// DRAM reads issued on behalf of this core (demand + prefetch +
    /// runahead). Folds to the shared [`DramStats::reads`].
    pub dram_reads: u64,
    /// DRAM writebacks issued on behalf of this core. Folds to the shared
    /// [`DramStats::writes`].
    pub dram_writes: u64,
    /// Rejections this core took at the *shared* LLC MSHR pool
    /// specifically (a subset of its `MemStats::rejections`).
    pub llc_rejections: u64,
    /// LLC-pool rejections this core suffered while holding less than its
    /// fair share of the pool — the pool was eaten by co-runners.
    pub mshr_steals_suffered: u64,
    /// Steals charged to this core for holding the most pool entries when
    /// an under-share co-runner bounced.
    pub mshr_steals_caused: u64,
}

/// One core's private L1 slice.
#[derive(Clone, Debug)]
struct CoreL1 {
    l1i: Cache,
    l1d: Cache,
    l1d_mshr: MshrFile,
    prefetcher: StreamPrefetcher,
    /// Completion cycles of this core's outstanding demand LLC misses
    /// (its MLP signal).
    demand_outstanding: MlpTracker,
    stats: MemStats,
    share: CoreShareStats,
}

/// N cores' worth of memory system behind one LLC: each core's private
/// L1I/L1D, L1D MSHR file and stream prefetcher in front of a shared LLC,
/// LLC MSHR pool and DRAM. See the [crate docs](crate) for the model.
#[derive(Clone, Debug)]
pub struct MultiCoreMemory {
    cfg: SharedMemConfig,
    cores: Vec<CoreL1>,
    llc: Cache,
    llc_mshr: MshrFile,
    dram: Dram,
    /// Shared totals, maintained *independently* of the per-core stats so
    /// the fold invariant is a real check, not a tautology.
    stats: MemStats,
    /// LLC-pool entries currently held per core.
    inflight: Vec<usize>,
    /// Expiry heap mirroring `inflight`: `(completion cycle, core)`.
    inflight_expiry: BinaryHeap<Reverse<(u64, u32)>>,
    /// Total fairness steals across all cores.
    total_steals: u64,
    /// Optional host timer over whole accesses (see [`crate::prof`]):
    /// counts every access and times the sampled ones. `None` — the
    /// default — costs one null check per access.
    prof: Option<Box<HeapProf>>,
}

impl MultiCoreMemory {
    /// Creates a memory system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero.
    pub fn new(cfg: SharedMemConfig) -> MultiCoreMemory {
        assert!(cfg.cores > 0, "a shared memory system needs cores");
        let m = &cfg.mem;
        let cores = (0..cfg.cores)
            .map(|_| CoreL1 {
                l1i: Cache::new(m.l1i),
                l1d: Cache::new(m.l1d),
                l1d_mshr: MshrFile::new(m.l1d_mshrs),
                prefetcher: StreamPrefetcher::new(m.prefetcher),
                demand_outstanding: MlpTracker::default(),
                stats: MemStats::default(),
                share: CoreShareStats::default(),
            })
            .collect();
        MultiCoreMemory {
            cores,
            llc: Cache::new(m.llc),
            llc_mshr: MshrFile::new(m.llc_mshrs),
            dram: Dram::new(m.dram),
            stats: MemStats::default(),
            inflight: vec![0; cfg.cores],
            inflight_expiry: BinaryHeap::new(),
            total_steals: 0,
            prof: None,
            cfg,
        }
    }

    /// Enables host-side timing of whole accesses (the `shared_llc`
    /// subsystem row of a mix's host profile). Idempotent; the timer only
    /// reads the clock, so simulated state and statistics are unchanged.
    pub fn enable_prof(&mut self) {
        self.prof.get_or_insert_with(Box::default);
    }

    /// Enables host-side timing of every MSHR file and MLP tracker (the
    /// `mshr_heap`/`mlp_heap` rows of a single core's host profile) —
    /// what a private hierarchy times instead of whole accesses, inside
    /// which these timers would nest.
    pub(crate) fn enable_heap_prof(&mut self) {
        self.llc_mshr.prof.get_or_insert_with(Box::default);
        for c in &mut self.cores {
            c.l1d_mshr.prof.get_or_insert_with(Box::default);
            c.demand_outstanding.prof.get_or_insert_with(Box::default);
        }
    }

    /// Detaches and returns every host timer, each MSHR file's and each
    /// MLP tracker's summed into one row (`None` when profiling was never
    /// enabled).
    pub fn take_prof(&mut self) -> Option<MemProfReport> {
        let mut r = MemProfReport::default();
        let mut any = drain(&mut self.prof, &mut r.shared_llc);
        any |= drain(&mut self.llc_mshr.prof, &mut r.mshr);
        for c in &mut self.cores {
            any |= drain(&mut c.l1d_mshr.prof, &mut r.mshr);
            any |= drain(&mut c.demand_outstanding.prof, &mut r.mlp);
        }
        any.then_some(r)
    }

    /// The configuration.
    pub fn config(&self) -> &SharedMemConfig {
        &self.cfg
    }

    /// Retires in-flight-per-core entries whose completion cycle has
    /// passed, matching the MSHR files' `done <= now` rule so
    /// `sum(inflight)` always equals `llc_mshr.len(now)`.
    fn advance_inflight(&mut self, now: u64) {
        while let Some(&Reverse((done, core))) = self.inflight_expiry.peek() {
            if done > now {
                break;
            }
            self.inflight_expiry.pop();
            self.inflight[core as usize] -= 1;
        }
    }

    fn note_inflight(&mut self, core: usize, done: u64) {
        self.inflight[core] += 1;
        self.inflight_expiry.push(Reverse((done, core as u32)));
    }

    /// Fairness attribution for one LLC-pool rejection taken by `core`:
    /// bounced under fair share → a steal, charged to the heaviest holder.
    fn note_llc_rejection(&mut self, core: usize) {
        self.cores[core].share.llc_rejections += 1;
        let fair = self.llc_mshr.capacity() / self.cfg.cores;
        if self.inflight[core] < fair {
            self.total_steals += 1;
            self.cores[core].share.mshr_steals_suffered += 1;
            let culprit = (0..self.cfg.cores)
                .max_by_key(|&c| (self.inflight[c], Reverse(c)))
                .expect("at least one core");
            self.cores[culprit].share.mshr_steals_caused += 1;
        }
    }

    /// Translates a core-local address into the shared physical space (see
    /// the module docs). Workload addresses sit far below bit 44, so the
    /// tag is a plain disjoint offset; core 0's namespace is the identity
    /// mapping.
    fn phys(core: usize, addr: u64) -> u64 {
        addr | ((core as u64) << 44)
    }

    /// Performs one access on behalf of `core` at cycle `now`. `wrong_path`
    /// attributes any DRAM read this access causes to wrong-path execution
    /// in the statistics (the paper's runahead-overhead accounting).
    ///
    /// Admission is decided *before* any state changes: a rejected access
    /// leaves the caches, MSHRs, prefetcher, and statistics (other than
    /// `rejections`) untouched, so the mandatory retry replays it cleanly
    /// without double-counting anything.
    ///
    /// Times must be globally non-decreasing across *all* cores — the
    /// round-robin lockstep stepping discipline guarantees this and the
    /// event-driven MSHRs assert it in debug builds.
    pub fn access(
        &mut self,
        core: usize,
        addr: u64,
        kind: AccessKind,
        now: u64,
        wrong_path: bool,
    ) -> AccessResult {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::SharedLlc, now);
        let r = self.access_inner(core, addr, kind, now, wrong_path);
        if let Some(p) = self.prof.as_mut() {
            p.finish(t0);
        }
        r
    }

    fn access_inner(
        &mut self,
        core: usize,
        addr: u64,
        kind: AccessKind,
        now: u64,
        wrong_path: bool,
    ) -> AccessResult {
        let is_write = kind == AccessKind::Store;
        let is_inst = kind == AccessKind::InstFetch;
        let addr = Self::phys(core, addr);
        let line = line_addr(addr);
        self.advance_inflight(now);

        // --- Admission (no mutation of architectural state; the MSHR
        // files may advance their expiry heaps, which is not visible). The
        // probes mirror exactly the lookups the accepted path performs, so
        // acceptance here cannot turn into a structural conflict below.
        let l1_hit = if is_inst {
            self.cores[core].l1i.probe(addr)
        } else {
            self.cores[core].l1d.probe(addr)
        };
        // L1 miss: check the L1 MSHRs (data side only; the in-order fetch
        // unit has a single outstanding I-miss by construction).
        let l1d_merge = if !l1_hit && !is_inst {
            let c = &mut self.cores[core];
            let merge = c.l1d_mshr.outstanding(line, now);
            if merge.is_none() && c.l1d_mshr.len(now) >= c.l1d_mshr.capacity() {
                c.stats.rejections += 1;
                self.stats.rejections += 1;
                let retry_at = self.cores[core]
                    .l1d_mshr
                    .earliest_release(now)
                    .unwrap_or(now + 1);
                return AccessResult::Rejected(MshrFull {
                    level: MshrLevel::L1d,
                    retry_at,
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
            self.cores[core].stats.rejections += 1;
            self.stats.rejections += 1;
            self.note_llc_rejection(core);
            return AccessResult::Rejected(MshrFull {
                level: MshrLevel::Llc,
                retry_at: self.llc_mshr.earliest_release(now).unwrap_or(now + 1),
            });
        }

        // --- Accepted: count the access exactly once, on both ledgers ---
        {
            let c = &mut self.cores[core];
            match kind {
                AccessKind::Load => {
                    c.stats.demand_loads += 1;
                    self.stats.demand_loads += 1;
                }
                AccessKind::Store => {
                    c.stats.demand_stores += 1;
                    self.stats.demand_stores += 1;
                }
                AccessKind::InstFetch => {
                    c.stats.inst_fetches += 1;
                    self.stats.inst_fetches += 1;
                }
            }
        }

        // --- L1 ---
        let l1 = if is_inst {
            &mut self.cores[core].l1i
        } else {
            &mut self.cores[core].l1d
        };
        let l1_info = l1.access(addr, is_write);
        debug_assert_eq!(l1_info.hit, l1_hit, "probe agrees with access");
        if l1_info.hit {
            return AccessResult::Done(AccessOutcome {
                ready_at: now + self.cfg.mem.l1_latency,
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

        // --- LLC (shared) ---
        let llc_info = self.llc.access(addr, false);
        let ready_at;
        let level;
        if llc_info.hit {
            if llc_info.first_use_of_prefetch {
                // FDP feedback is credited to the consuming core's
                // prefetcher.
                self.cores[core].prefetcher.on_prefetch_hit();
            }
            ready_at = now + self.cfg.mem.l1_latency + self.cfg.mem.llc_latency;
            level = HitLevel::Llc;
        } else {
            // LLC miss → DRAM, moderated by the LLC MSHRs.
            self.cores[core].stats.llc_demand_misses += 1;
            self.stats.llc_demand_misses += 1;
            let issue_at = now + self.cfg.mem.l1_latency + self.cfg.mem.llc_latency;
            if let Some(done) = self.llc_mshr.outstanding(line, now) {
                ready_at = done.max(issue_at);
                level = HitLevel::Dram;
            } else {
                let done = self.dram.read(line, issue_at);
                self.cores[core].share.dram_reads += 1;
                let outcome = self.llc_mshr.try_alloc(line, now, done);
                debug_assert_eq!(outcome, MshrOutcome::Allocated);
                self.note_inflight(core, done);
                if wrong_path {
                    self.cores[core].stats.wrong_path_reads += 1;
                    self.stats.wrong_path_reads += 1;
                }
                self.cores[core].demand_outstanding.note(done, now);
                // Fill the LLC now (tag-available model).
                if let Some(ev) = self.llc.fill_tagged(line, false, false, core as u32) {
                    self.evict_inclusive(core, ev.line_addr, ev.dirty, done);
                }
                ready_at = done;
                level = HitLevel::Dram;
            }
        }

        // Train the accessing core's prefetcher only on *accepted* L1D
        // demand misses, and only after the demand request itself has been
        // issued: the demand DRAM read goes to the memory controller ahead
        // of the prefetch reads it triggers (demand priority).
        if !is_inst {
            let pf_lines = self.cores[core].prefetcher.on_demand_miss(addr);
            for pf in pf_lines {
                self.issue_prefetch(core, pf, now, false);
            }
        }

        // Fill this core's L1 and track the miss in its L1D MSHRs.
        let l1 = if is_inst {
            &mut self.cores[core].l1i
        } else {
            &mut self.cores[core].l1d
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
                    self.writeback(core, ev.line_addr, now);
                }
            }
        }
        if !is_inst {
            self.cores[core].l1d_mshr.try_alloc(line, now, ready_at);
        }

        AccessResult::Done(AccessOutcome { ready_at, level })
    }

    /// Issues a runahead prefetch of the line containing `addr` on behalf
    /// of `core`. Runahead loads bypass the L1D MSHRs (they fill the shared
    /// LLC only, as PRE's prefetches do) but still consume LLC MSHRs and
    /// DRAM bandwidth. Returns whether a DRAM read was actually issued.
    pub fn runahead_prefetch(&mut self, core: usize, addr: u64, now: u64) -> bool {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::SharedLlc, now);
        let r = self.issue_prefetch(core, line_addr(Self::phys(core, addr)), now, true);
        if let Some(p) = self.prof.as_mut() {
            p.finish(t0);
        }
        r
    }

    /// `pf_addr` is already in the shared physical space: prefetcher
    /// training happens on translated addresses, and the runahead entry
    /// point translates before calling here.
    fn issue_prefetch(&mut self, core: usize, pf_addr: u64, now: u64, runahead: bool) -> bool {
        let line = line_addr(pf_addr);
        self.advance_inflight(now);
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
        let done = self.dram.read(
            line,
            now + self.cfg.mem.l1_latency + self.cfg.mem.llc_latency,
        );
        self.cores[core].share.dram_reads += 1;
        self.llc_mshr.try_alloc(line, now, done);
        self.note_inflight(core, done);
        if runahead {
            self.cores[core].stats.runahead_reads += 1;
            self.stats.runahead_reads += 1;
            // Runahead loads count toward measured MLP (the paper's Fig. 14
            // explicitly includes PRE's wrong-path/runahead loads in MLP).
            self.cores[core].demand_outstanding.note(done, now);
        } else {
            self.cores[core].stats.prefetch_reads += 1;
            self.stats.prefetch_reads += 1;
        }
        // Runahead fills are tagged `prefetched` too: both speculative fill
        // kinds count as a prefetch hit on first demand use (FDP feedback).
        if let Some(ev) = self.llc.fill_tagged(line, false, true, core as u32) {
            self.evict_inclusive(core, ev.line_addr, ev.dirty, now);
        }
        true
    }

    /// Evicts a line from the shared LLC under inclusion: every core's L1
    /// copies are invalidated and their dirty bits folded into the
    /// writeback decision (charged to the core that caused the eviction).
    fn evict_inclusive(&mut self, core: usize, victim_line: u64, llc_dirty: bool, now: u64) {
        let mut dirty = llc_dirty;
        for c in &mut self.cores {
            dirty |= c.l1d.invalidate(victim_line) == Some(true);
            c.l1i.invalidate(victim_line);
        }
        if dirty {
            self.writeback(core, victim_line, now);
        }
    }

    fn writeback(&mut self, core: usize, victim_line: u64, now: u64) {
        self.dram.write(victim_line, now);
        self.cores[core].share.dram_writes += 1;
        self.cores[core].stats.writebacks += 1;
        self.stats.writebacks += 1;
    }

    /// `core`'s demand LLC misses still outstanding at `now` (its MLP
    /// sample). Takes `&mut self` because the tracker retires completed
    /// entries here instead of rescanning them on every sample.
    pub fn outstanding_demand_misses(&mut self, core: usize, now: u64) -> usize {
        self.cores[core].demand_outstanding.outstanding(now)
    }

    /// `core`'s own memory statistics.
    pub fn core_stats(&self, core: usize) -> &MemStats {
        &self.cores[core].stats
    }

    /// `core`'s shared-resource accounting.
    pub fn core_share(&self, core: usize) -> &CoreShareStats {
        &self.cores[core].share
    }

    /// `(hits, misses)` of `core`'s L1D.
    pub fn l1d_stats(&self, core: usize) -> (u64, u64) {
        self.cores[core].l1d.stats()
    }

    /// `core`'s stream prefetcher (read-only view for reports).
    pub fn prefetcher(&self, core: usize) -> &StreamPrefetcher {
        &self.cores[core].prefetcher
    }

    /// Shared totals, maintained independently of the per-core ledgers.
    pub fn shared_stats(&self) -> &MemStats {
        &self.stats
    }

    /// `(hits, misses)` of the shared LLC.
    pub fn llc_stats(&self) -> (u64, u64) {
        self.llc.stats()
    }

    /// Shared DRAM statistics.
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Accumulated per-channel DRAM data-bus busy cycles.
    pub fn channel_busy(&self) -> &[u64] {
        self.dram.channel_busy()
    }

    /// Number of resident LLC lines whose fill was caused by `core` — the
    /// occupancy-share signal. Scans the LLC's tags.
    pub fn llc_occupancy(&self, core: usize) -> usize {
        self.llc.occupancy(core as u32)
    }

    /// Total LLC-MSHR fairness steals (equals the fold of per-core
    /// `mshr_steals_caused`).
    pub fn total_steals(&self) -> u64 {
        self.total_steals
    }

    /// LLC-pool entries currently held by `core` (as of the last access).
    pub fn inflight(&self, core: usize) -> usize {
        self.inflight[core]
    }

    /// Asserts the shared-pool conservation invariants at `now`:
    ///
    /// * per-core in-flight counts sum to the LLC MSHR pool occupancy,
    ///   which never exceeds capacity;
    /// * fairness steal attributions sum to the steal total;
    /// * per-core [`MemStats`] fold to the independently maintained shared
    ///   totals, and per-core DRAM read/write attribution folds to the
    ///   shared [`DramStats`].
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated — a simulator bug, never a
    /// workload property.
    pub fn check_invariants(&mut self, now: u64) {
        self.advance_inflight(now);
        let pool = self.llc_mshr.len(now);
        assert!(
            pool <= self.llc_mshr.capacity(),
            "LLC MSHR pool over capacity: {pool}/{}",
            self.llc_mshr.capacity()
        );
        assert_eq!(
            self.inflight.iter().sum::<usize>(),
            pool,
            "per-core in-flight counts disagree with the shared pool"
        );
        assert_eq!(
            self.cores
                .iter()
                .map(|c| c.share.mshr_steals_caused)
                .sum::<u64>(),
            self.total_steals,
            "steal attributions must sum to the steal total"
        );
        let fold = self
            .cores
            .iter()
            .fold(MemStats::default(), |a, c| MemStats {
                demand_loads: a.demand_loads + c.stats.demand_loads,
                demand_stores: a.demand_stores + c.stats.demand_stores,
                inst_fetches: a.inst_fetches + c.stats.inst_fetches,
                llc_demand_misses: a.llc_demand_misses + c.stats.llc_demand_misses,
                prefetch_reads: a.prefetch_reads + c.stats.prefetch_reads,
                runahead_reads: a.runahead_reads + c.stats.runahead_reads,
                wrong_path_reads: a.wrong_path_reads + c.stats.wrong_path_reads,
                writebacks: a.writebacks + c.stats.writebacks,
                rejections: a.rejections + c.stats.rejections,
            });
        assert_eq!(
            fold, self.stats,
            "per-core MemStats must fold to the shared totals"
        );
        assert_eq!(
            self.cores.iter().map(|c| c.share.dram_reads).sum::<u64>(),
            self.dram.stats().reads,
            "per-core DRAM read attribution must fold to the DRAM total"
        );
        assert_eq!(
            self.cores.iter().map(|c| c.share.dram_writes).sum::<u64>(),
            self.dram.stats().writes,
            "per-core DRAM write attribution must fold to the DRAM total"
        );
    }
}

/// Moves a host timer's counts into `into`; whether there was a timer.
fn drain(timer: &mut Option<Box<HeapProf>>, into: &mut HeapProf) -> bool {
    timer.take().map(|p| into.merge(&p)).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryHierarchy, LINE_BYTES};

    fn small_cfg() -> MemConfig {
        MemConfig {
            l1d_mshrs: 4,
            llc_mshrs: 6,
            ..MemConfig::default()
        }
    }

    /// Deterministic mixed access pattern, shared by several tests.
    /// `f` gets the address, kind, cycle, wrong-path flag, and whether a
    /// runahead prefetch rides along.
    fn drive(f: &mut dyn FnMut(u64, AccessKind, u64, bool, bool)) {
        let mut now = 0u64;
        let mut x = 0x9E37_79B9u64;
        for i in 0..3000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            now += x % 5;
            let addr = match i % 4 {
                0 => 0x10_0000 + (i / 4) * LINE_BYTES,
                1 => (x >> 16) & 0x3F_FFC0,
                2 => 0x40_0000 + (x & 0xFFF8),
                _ => 0x80_0000 + (i % 512) * 8,
            };
            let kind = match i % 4 {
                3 => AccessKind::InstFetch,
                2 => AccessKind::Store,
                _ => AccessKind::Load,
            };
            f(addr, kind, now, i % 64 == 9, i % 3 == 0);
        }
    }

    /// A second core that never issues leaves the first exactly where the
    /// one-core system (the private hierarchy) leaves it: the N-core
    /// inclusion, fairness and occupancy paths add attribution, never
    /// events.
    #[test]
    fn idle_co_core_matches_private_hierarchy() {
        let mut pair = MultiCoreMemory::new(SharedMemConfig {
            cores: 2,
            mem: small_cfg(),
        });
        let mut private = MemoryHierarchy::new(small_cfg());
        drive(&mut |addr, kind, now, wp, prefetch| {
            let a = pair.access(0, addr, kind, now, wp);
            let b = private.access(addr, kind, now, wp);
            assert_eq!(
                a, b,
                "core 0 of an idle pair diverged from a private hierarchy"
            );
            assert_eq!(
                pair.outstanding_demand_misses(0, now),
                private.outstanding_demand_misses(now)
            );
            if prefetch {
                assert_eq!(
                    pair.runahead_prefetch(0, addr ^ 0x2_0000, now),
                    private.runahead_prefetch(addr ^ 0x2_0000, now)
                );
            }
        });
        assert_eq!(pair.core_stats(0), private.stats());
        assert_eq!(pair.shared_stats(), private.stats());
        assert_eq!(pair.core_stats(1), &MemStats::default());
        assert_eq!(pair.l1d_stats(0), private.l1d_stats());
        assert_eq!(pair.llc_stats(), private.llc_stats());
        assert_eq!(pair.dram_stats(), private.dram_stats());
        assert_eq!(pair.total_steals(), 0, "an idle core suffers no steals");
        assert_eq!(pair.llc_occupancy(1), 0);
        pair.check_invariants(u64::MAX / 2);
    }

    /// The shared pool stays conserved, and backpressures, with two cores
    /// contending for it.
    #[test]
    fn two_cores_conserve_the_shared_pool() {
        let mut m = MultiCoreMemory::new(SharedMemConfig {
            cores: 2,
            mem: small_cfg(),
        });
        drive(&mut |addr, kind, now, wp, _| {
            // Core 1 hammers a conflicting region at the same cycles.
            m.access(0, addr, kind, now, wp);
            m.access(1, addr ^ 0x100_0000, kind, now, wp);
            m.check_invariants(now);
        });
        assert!(
            m.shared_stats().rejections > 0,
            "the tiny pool must have backpressured"
        );
        assert!(m.dram_stats().reads > 0);
        assert!(
            m.channel_busy().iter().sum::<u64>() > 0,
            "channel busy counters must accumulate"
        );
    }

    #[test]
    fn fairness_steals_are_attributed() {
        // Core 0 fills the whole pool with far-apart misses; core 1's first
        // miss bounces while holding zero entries — a steal caused by 0.
        let mut m = MultiCoreMemory::new(SharedMemConfig {
            cores: 2,
            mem: MemConfig {
                llc_mshrs: 4,
                prefetcher: crate::PrefetcherConfig {
                    enabled: false,
                    ..crate::PrefetcherConfig::default()
                },
                ..MemConfig::default()
            },
        });
        for i in 0..4u64 {
            let r = m.access(0, 0x100_0000 + i * 0x10_0000, AccessKind::Load, 0, false);
            assert!(!r.is_rejected(), "pool has room for core 0's misses");
        }
        let r = m.access(1, 0x800_0000, AccessKind::Load, 0, false);
        assert!(r.is_rejected(), "pool is pinned by core 0");
        assert_eq!(m.total_steals(), 1);
        assert_eq!(m.core_share(1).mshr_steals_suffered, 1);
        assert_eq!(m.core_share(0).mshr_steals_caused, 1);
        assert_eq!(m.core_share(1).llc_rejections, 1);
        m.check_invariants(0);
    }

    #[test]
    fn inclusion_invalidates_l1_and_namespaces_stay_disjoint() {
        // Tiny LLC so evictions are easy to force. Both cores touch the
        // same *core-local* address — distinct physical lines under the
        // per-core namespaces.
        let mut m = MultiCoreMemory::new(SharedMemConfig {
            cores: 2,
            mem: MemConfig {
                llc: crate::CacheConfig {
                    capacity_bytes: 2048,
                    ways: 2,
                }, // 16 sets
                prefetcher: crate::PrefetcherConfig {
                    enabled: false,
                    ..crate::PrefetcherConfig::default()
                },
                ..MemConfig::default()
            },
        });
        let victim = 0x0u64;
        let phys0 = MultiCoreMemory::phys(0, victim);
        let phys1 = MultiCoreMemory::phys(1, victim);
        m.access(0, victim, AccessKind::Load, 0, false);
        m.access(1, victim, AccessKind::Load, 1000, false);
        assert!(m.llc.probe(phys0) && m.llc.probe(phys1));
        assert_eq!(
            m.llc_occupancy(0) + m.llc_occupancy(1),
            2,
            "same core-local address must occupy two distinct physical lines"
        );
        // Walk same-set lines on core 0 until its victim leaves the LLC.
        let mut now = 10_000u64;
        for i in 1..8u64 {
            m.access(0, victim + i * 2048 * 64, AccessKind::Load, now, false);
            now += 10_000;
        }
        assert!(
            !m.llc.probe(phys0),
            "core 0's victim must have been evicted"
        );
        assert!(
            !m.cores[0].l1d.probe(phys0),
            "inclusion must invalidate the owning core's L1 copy"
        );
        // Core 1's physical line shares the set, so core 0's capacity
        // pressure legally evicted it too — and inclusion must have
        // stripped core 1's L1 copy along with it.
        assert!(!m.llc.probe(phys1), "set pressure evicts across namespaces");
        assert!(
            !m.cores[1].l1d.probe(phys1),
            "inclusion must reach the non-evicting core's L1"
        );
        m.check_invariants(now);
    }

    #[test]
    fn occupancy_tracks_fills() {
        let mut m = MultiCoreMemory::new(SharedMemConfig {
            cores: 2,
            mem: small_cfg(),
        });
        let mut now = 0;
        for i in 0..16u64 {
            m.access(0, 0x100_0000 + i * LINE_BYTES, AccessKind::Load, now, false);
            now += 2000;
        }
        for i in 0..4u64 {
            m.access(1, 0x900_0000 + i * LINE_BYTES, AccessKind::Load, now, false);
            now += 2000;
        }
        assert!(
            m.llc_occupancy(0) >= 16,
            "core 0 filled at least its demands"
        );
        assert!(m.llc_occupancy(1) >= 4);
        m.check_invariants(now);
    }
}
