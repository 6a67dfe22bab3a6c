//! Criticality-provenance diagnostics: chain-lifecycle tracing plus the
//! coverage / accuracy / timeliness metric families the prefetching
//! literature uses to explain a mechanism, applied to CDF's critical chains.
//!
//! Every reconstructed chain gets a stable id at walk time (stamped on the
//! [`Trace`](crate::uop_cache::Trace) it installs); the pipeline stages
//! report lifecycle events against that id — walk → install → CUC hit at
//! fetch → critical issue → CMQ-replay consumption, or poison/squash — so a
//! run can be *explained*, not just scored:
//!
//! * **Coverage** — of the retired LLC-miss loads and mispredicted
//!   hard-to-predict branches (the events CDF exists to hide), what fraction
//!   had a live CUC trace marking that very uop critical at retire time?
//! * **Accuracy** — of the uops the critical stream fetched, what fraction
//!   was actually consumed by the replayed program-order stream (vs.
//!   poisoned by a dependence violation, squashed by a flush, or simply
//!   never replayed — wasted)?
//! * **Timeliness** — for each critical-stream LLC-miss initiation, how many
//!   cycles of lead did the early issue buy before the program-order stream
//!   replayed the load (log₂ histogram), and how far ahead of the regular
//!   stream did DBQ-resolved branches flip their entries?
//!
//! Coverage and accuracy are also sampled over time: every [`INTERVAL`]
//! cycles into an [`IntervalSeries`] of [`DiagIntervalSample`]s.
//!
//! The collector follows the repo's zero-cost observability contract: it
//! lives in an `Option<CdfDiagnostics>` sidecar on the core
//! ([`Core::enable_diagnostics`](crate::Core::enable_diagnostics)), is never
//! part of [`CoreStats`](crate::CoreStats) (golden snapshots stay
//! untouched), and a disabled run executes none of this module's code —
//! enabled and disabled runs are bit-identical, which
//! `crates/sim/tests/explain.rs` enforces across all seven mechanisms.

use crate::series::{interval_sample, IntervalSeries, INTERVAL};
use crate::telemetry::Histogram;
use cdf_isa::{Pc, WordMap};

/// Cap on distinct chain records kept; later chains still feed the aggregate
/// counters but are not individually recorded (see
/// [`CdfDiagnostics::chains_dropped`]).
pub const MAX_CHAIN_RECORDS: usize = 65_536;

interval_sample! {
    /// One interval's worth of coverage/accuracy activity (deltas, not
    /// cumulative values).
    pub struct DiagIntervalSample from |now, d: &CdfDiagnostics| {
        /// Fill-buffer walks in the interval.
        walks: d.walks,
        /// CUC installs in the interval.
        installs: d.installs,
        /// Critical-fetch CUC hits in the interval.
        cuc_hits: d.cuc_fetch_hits,
        /// Critical-fetch CUC misses in the interval.
        cuc_misses: d.cuc_fetch_misses,
        /// Critical uops fetched in the interval.
        fetched: d.critical_uops_fetched,
        /// Fetched uops consumed by replay in the interval.
        consumed: d.critical_uops_consumed,
        /// Fetched uops poisoned in the interval.
        poisoned: d.critical_uops_poisoned,
        /// Fetched uops squashed in the interval.
        squashed: d.critical_uops_squashed,
        /// Covered retired LLC-miss loads in the interval.
        loads_covered: d.load_coverage.covered,
        /// All retired LLC-miss loads in the interval.
        loads_total: d.load_coverage.total,
        /// Covered retired mispredicted H2P branches in the interval.
        branches_covered: d.branch_coverage.covered,
        /// All retired mispredicted H2P branches in the interval.
        branches_total: d.branch_coverage.total,
        /// Critical-stream LLC-miss initiations in the interval.
        miss_initiations: d.llc_miss_initiations,
    }
}

impl DiagIntervalSample {
    /// Accuracy over the interval: consumed / fetched (0 when idle).
    pub fn accuracy(&self) -> f64 {
        if self.fetched == 0 {
            0.0
        } else {
            self.consumed as f64 / self.fetched as f64
        }
    }

    /// LLC-miss-load coverage over the interval.
    pub fn load_coverage(&self) -> Coverage {
        Coverage {
            covered: self.loads_covered,
            total: self.loads_total,
        }
    }

    /// Mispredicted-H2P-branch coverage over the interval.
    pub fn branch_coverage(&self) -> Coverage {
        Coverage {
            covered: self.branches_covered,
            total: self.branches_total,
        }
    }
}

/// Lifetime counters for one reconstructed chain (one installed CUC trace).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChainRecord {
    /// Stable id assigned by the walk that built the chain (1-based; 0 means
    /// "no chain" everywhere else in the core).
    pub id: u64,
    /// Basic block the trace tags.
    pub block_start: Pc,
    /// Total uops in the block.
    pub block_len: u32,
    /// Critical uops the trace marks.
    pub crit_uops: u32,
    /// Cycle the trace entered the Critical Uop Cache.
    pub installed_at: u64,
    /// CUC hits against this trace by the critical fetch stream.
    pub cuc_hits: u64,
    /// Critical uops fetched from this trace.
    pub uops_fetched: u64,
    /// Fetched uops whose mapping the program-order stream replayed.
    pub uops_consumed: u64,
    /// Fetched uops discarded as poisoned (dependence violation).
    pub uops_poisoned: u64,
    /// Fetched uops removed by a pipeline flush before replay.
    pub uops_squashed: u64,
    /// Cycle of the most recent lifecycle event against this chain.
    pub last_event: u64,
}

impl ChainRecord {
    /// Fetched uops with no recorded outcome (never replayed before the
    /// trace went cold or the run ended) — pure waste.
    pub fn uops_wasted(&self) -> u64 {
        self.uops_fetched
            .saturating_sub(self.uops_consumed + self.uops_poisoned + self.uops_squashed)
    }
}

/// One coverage ratio: how many of `denominator` trigger events had a live
/// covering trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Coverage {
    /// Trigger events whose uop a live CUC trace marked critical.
    pub covered: u64,
    /// All trigger events (retired LLC-miss loads, or retired mispredicted
    /// H2P branches).
    pub total: u64,
}

impl Coverage {
    /// `covered / total` (0 when there were no triggers).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.covered as f64 / self.total as f64
        }
    }
}

/// The criticality-provenance collector. Observation-only: the pipeline
/// reports events into it; it never influences execution.
#[derive(Clone, Debug, Default)]
pub struct CdfDiagnostics {
    chains: Vec<ChainRecord>,
    index: WordMap<usize>,
    /// Chains beyond [`MAX_CHAIN_RECORDS`] that were aggregated but not
    /// individually recorded.
    pub chains_dropped: u64,

    /// Fill-buffer walks performed.
    pub walks: u64,
    /// Walks whose output the density/seed guards discarded.
    pub walks_dropped: u64,
    /// Traces installed into the CUC (chain creations or refreshes).
    pub installs: u64,
    /// Walk rows the CUC rejected (oversized traces).
    pub installs_rejected: u64,

    /// Critical-fetch CUC lookups that hit.
    pub cuc_fetch_hits: u64,
    /// Critical-fetch CUC lookups that missed (each ends CDF mode).
    pub cuc_fetch_misses: u64,

    /// Coverage of retired LLC-miss loads.
    pub load_coverage: Coverage,
    /// Coverage of retired mispredicted hard-to-predict branches.
    pub branch_coverage: Coverage,

    /// Uops fetched by the critical stream.
    pub critical_uops_fetched: u64,
    /// Fetched uops consumed by CMQ replay in the program-order stream.
    pub critical_uops_consumed: u64,
    /// Fetched uops discarded as poisoned at replay.
    pub critical_uops_poisoned: u64,
    /// Fetched uops removed by flushes before replay.
    pub critical_uops_squashed: u64,

    /// Critical-stream LLC-miss initiations (loads the critical stream
    /// issued that went to DRAM). Every initiation contributes exactly one
    /// [`lead_time`](Self::lead_time) sample.
    pub llc_miss_initiations: u64,
    /// log₂ histogram of miss-initiation lead time: cycles between the
    /// critical stream issuing an LLC-miss load and the program-order stream
    /// replaying it. Initiations squashed or never replayed record 0 (no
    /// lead realized).
    pub lead_time: Histogram,
    /// log₂ histogram of branch early-resolution distance: how many sequence
    /// numbers ahead of the regular fetch stream a critical-stream branch
    /// resolved (DBQ entry fixed in place, no refetch).
    pub branch_resolution: Histogram,

    /// LLC-miss initiations still awaiting their replay (seq → issue cycle).
    pending_leads: WordMap<u64>,

    intervals: IntervalSeries<DiagIntervalSample>,
}

impl CdfDiagnostics {
    /// A fresh, empty collector. Its coverage/accuracy series samples
    /// every [`INTERVAL`] cycles into a ring of
    /// [`RING_CAPACITY`](crate::series::RING_CAPACITY) samples.
    pub fn new() -> CdfDiagnostics {
        CdfDiagnostics::default()
    }

    /// The per-interval coverage/accuracy time series.
    pub fn intervals(&self) -> &IntervalSeries<DiagIntervalSample> {
        &self.intervals
    }

    /// Whether cycle `now` lands on an interval boundary (the core calls
    /// [`sample_interval`](Self::sample_interval) then).
    pub fn interval_due(&self, now: u64) -> bool {
        now.is_multiple_of(INTERVAL)
    }

    /// Closes the current interval at cycle `now` and starts the next one.
    pub fn sample_interval(&mut self, now: u64) {
        let reading = DiagIntervalSample::read(now, self);
        self.intervals.sample(reading);
    }

    /// All chain records, in walk order.
    pub fn chains(&self) -> &[ChainRecord] {
        &self.chains
    }

    /// Fetched uops with no outcome recorded — wasted critical fetch work.
    pub fn critical_uops_wasted(&self) -> u64 {
        self.critical_uops_fetched.saturating_sub(
            self.critical_uops_consumed + self.critical_uops_poisoned + self.critical_uops_squashed,
        )
    }

    /// Accuracy: consumed / fetched (0 when nothing was fetched).
    pub fn accuracy(&self) -> f64 {
        if self.critical_uops_fetched == 0 {
            0.0
        } else {
            self.critical_uops_consumed as f64 / self.critical_uops_fetched as f64
        }
    }

    // -- walk / install lifecycle ------------------------------------------

    /// A fill-buffer walk ran.
    pub fn note_walk(&mut self) {
        self.walks += 1;
    }

    /// A walk's output was discarded by the density/seed guards.
    pub fn note_walk_dropped(&mut self) {
        self.walks_dropped += 1;
    }

    /// Chain `id`'s trace entered the CUC at cycle `now`.
    pub fn note_install(&mut self, id: u64, block_start: Pc, block_len: u32, crit: u32, now: u64) {
        self.installs += 1;
        if let Some(&i) = self.index.get(&id) {
            let c = &mut self.chains[i];
            c.crit_uops = crit;
            c.last_event = now;
            return;
        }
        if self.chains.len() >= MAX_CHAIN_RECORDS {
            self.chains_dropped += 1;
            return;
        }
        self.index.insert(id, self.chains.len());
        self.chains.push(ChainRecord {
            id,
            block_start,
            block_len,
            crit_uops: crit,
            installed_at: now,
            cuc_hits: 0,
            uops_fetched: 0,
            uops_consumed: 0,
            uops_poisoned: 0,
            uops_squashed: 0,
            last_event: now,
        });
    }

    /// The CUC rejected a walk row (trace larger than a set).
    pub fn note_install_rejected(&mut self) {
        self.installs_rejected += 1;
    }

    fn chain_mut(&mut self, id: u64, now: u64) -> Option<&mut ChainRecord> {
        let i = *self.index.get(&id)?;
        let c = &mut self.chains[i];
        c.last_event = now;
        Some(c)
    }

    // -- fetch -------------------------------------------------------------

    /// The critical fetch stream hit chain `id` in the CUC and emitted
    /// `uops` critical uops from it.
    pub fn note_cuc_hit(&mut self, id: u64, uops: u64, now: u64) {
        self.cuc_fetch_hits += 1;
        self.critical_uops_fetched += uops;
        if let Some(c) = self.chain_mut(id, now) {
            c.cuc_hits += 1;
            c.uops_fetched += uops;
        }
    }

    /// The critical fetch stream missed in the CUC (CDF mode will wind
    /// down).
    pub fn note_cuc_miss(&mut self) {
        self.cuc_fetch_misses += 1;
    }

    // -- replay outcomes ---------------------------------------------------

    /// The program-order stream replayed a critical uop's mapping from the
    /// CMQ (the fetched uop was consumed).
    pub fn note_consumed(&mut self, chain: u64, seq: u64, now: u64) {
        self.critical_uops_consumed += 1;
        if let Some(c) = self.chain_mut(chain, now) {
            c.uops_consumed += 1;
        }
        if let Some(issued) = self.pending_leads.remove(&seq) {
            self.lead_time.record(now.saturating_sub(issued));
        }
    }

    /// A critical uop reached replay poisoned (dependence violation); its
    /// result is discarded and the program-order stream re-executes.
    pub fn note_poisoned(&mut self, chain: u64, seq: u64, now: u64) {
        self.critical_uops_poisoned += 1;
        if let Some(c) = self.chain_mut(chain, now) {
            c.uops_poisoned += 1;
        }
        if self.pending_leads.remove(&seq).is_some() {
            self.lead_time.record(0);
        }
    }

    /// A fetched critical uop was removed by a flush before replay.
    pub fn note_squashed(&mut self, chain: u64, seq: u64, now: u64) {
        self.critical_uops_squashed += 1;
        if let Some(c) = self.chain_mut(chain, now) {
            c.uops_squashed += 1;
        }
        if self.pending_leads.remove(&seq).is_some() {
            self.lead_time.record(0);
        }
    }

    // -- coverage ----------------------------------------------------------

    /// A load retired; `llc_miss` says whether it was serviced by DRAM and
    /// `covered` whether a live CUC trace marked this very uop critical.
    pub fn note_load_retired(&mut self, llc_miss: bool, covered: bool) {
        if llc_miss {
            self.load_coverage.total += 1;
            if covered {
                self.load_coverage.covered += 1;
            }
        }
    }

    /// A mispredicted hard-to-predict branch retired; `covered` as above.
    pub fn note_h2p_mispredict_retired(&mut self, covered: bool) {
        self.branch_coverage.total += 1;
        if covered {
            self.branch_coverage.covered += 1;
        }
    }

    // -- timeliness --------------------------------------------------------

    /// The critical stream issued an LLC-miss load (`seq`) at cycle `now`.
    pub fn note_miss_initiated(&mut self, seq: u64, now: u64) {
        if self.pending_leads.insert(seq, now).is_none() {
            self.llc_miss_initiations += 1;
        }
    }

    /// A critical-stream branch resolved `distance` sequence numbers ahead
    /// of the regular fetch stream (its DBQ entry was fixed in place).
    pub fn note_branch_resolved_early(&mut self, distance: u64) {
        self.branch_resolution.record(distance);
    }

    /// Closes the books: initiations never consumed (still in flight at the
    /// end of the run) record a lead of 0, restoring the invariant that
    /// lead-time samples equal LLC-miss initiations. Called by
    /// [`Core::take_diagnostics`](crate::Core::take_diagnostics).
    pub fn finalize(&mut self) {
        let outstanding = self.pending_leads.len();
        self.pending_leads.clear();
        for _ in 0..outstanding {
            self.lead_time.record(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_lifecycle_counters() {
        let mut d = CdfDiagnostics::new();
        d.note_walk();
        d.note_install(1, Pc::new(16), 8, 3, 100);
        d.note_cuc_hit(1, 3, 200);
        d.note_consumed(1, 10, 210);
        d.note_squashed(1, 11, 220);
        let c = &d.chains()[0];
        assert_eq!((c.cuc_hits, c.uops_fetched), (1, 3));
        assert_eq!((c.uops_consumed, c.uops_squashed), (1, 1));
        assert_eq!(c.uops_wasted(), 1);
        assert_eq!(d.critical_uops_wasted(), 1);
        assert!((d.accuracy() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reinstall_updates_in_place() {
        let mut d = CdfDiagnostics::new();
        d.note_install(5, Pc::new(0), 8, 2, 10);
        d.note_install(5, Pc::new(0), 8, 4, 50);
        assert_eq!(d.installs, 2);
        assert_eq!(d.chains().len(), 1);
        assert_eq!(d.chains()[0].crit_uops, 4);
        assert_eq!(d.chains()[0].installed_at, 10, "first install cycle kept");
    }

    #[test]
    fn lead_time_totality_via_finalize() {
        let mut d = CdfDiagnostics::new();
        d.note_miss_initiated(1, 100);
        d.note_miss_initiated(2, 110);
        d.note_miss_initiated(3, 120);
        d.note_consumed(0, 1, 400); // 300-cycle lead
        d.note_squashed(0, 2, 150); // no lead realized
        d.finalize(); // seq 3 never replayed → 0
        assert_eq!(d.llc_miss_initiations, 3);
        assert_eq!(d.lead_time.samples(), 3);
        assert_eq!(d.lead_time.buckets()[0], 2, "squashed + unconsumed");
        assert_eq!(d.lead_time.buckets()[Histogram::bucket_of(300)], 1);
    }

    #[test]
    fn interval_series_totals_equal_cumulative_counters() {
        // Five samples more than the ring holds: the oldest five fold into
        // the totals.
        let samples = crate::series::RING_CAPACITY as u64 + 5;
        let mut d = CdfDiagnostics::new();
        for i in 1..=samples {
            let now = i * INTERVAL;
            d.note_walk();
            d.note_install(i, Pc::new(16 * i as u32), 8, 3, now - 5);
            d.note_cuc_hit(i, 3, now - 4);
            d.note_consumed(i, i, now - 3);
            d.note_load_retired(true, i % 2 == 0);
            d.note_h2p_mispredict_retired(true);
            d.note_miss_initiated(100 + i, now - 2);
            assert!(d.interval_due(now));
            assert!(!d.interval_due(now - 1));
            d.sample_interval(now);
        }
        assert_eq!(d.intervals().len(), crate::series::RING_CAPACITY);
        assert_eq!(d.intervals().evicted_count(), 5);
        let t = d.intervals().totals();
        assert_eq!(t.walks, d.walks);
        assert_eq!(t.installs, d.installs);
        assert_eq!(t.cuc_hits, d.cuc_fetch_hits);
        assert_eq!(t.fetched, d.critical_uops_fetched);
        assert_eq!(t.consumed, d.critical_uops_consumed);
        assert_eq!(t.loads_covered, d.load_coverage.covered);
        assert_eq!(t.loads_total, d.load_coverage.total);
        assert_eq!(t.branches_covered, d.branch_coverage.covered);
        assert_eq!(t.branches_total, d.branch_coverage.total);
        assert_eq!(t.miss_initiations, d.llc_miss_initiations);
        assert_eq!(t.start_cycle, 0);
        assert_eq!(t.end_cycle, samples * INTERVAL);
        assert_eq!(t.cycles, samples * INTERVAL);
        // A zero-width flush is dropped, not double-counted.
        d.sample_interval(samples * INTERVAL);
        assert_eq!(d.intervals().len(), crate::series::RING_CAPACITY);
        assert_eq!(d.intervals().totals(), t);
    }

    #[test]
    fn coverage_fractions() {
        let mut d = CdfDiagnostics::new();
        d.note_load_retired(true, true);
        d.note_load_retired(true, false);
        d.note_load_retired(false, false); // hit: not a trigger
        d.note_h2p_mispredict_retired(true);
        assert_eq!(
            d.load_coverage,
            Coverage {
                covered: 1,
                total: 2
            }
        );
        assert!((d.load_coverage.fraction() - 0.5).abs() < 1e-12);
        assert!((d.branch_coverage.fraction() - 1.0).abs() < 1e-12);
    }
}
