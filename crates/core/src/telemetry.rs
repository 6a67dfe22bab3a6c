//! Cycle-accounting telemetry: interval time series, occupancy histograms,
//! top-down cycle attribution, and a structured event sink.
//!
//! The simulator's end-of-run [`CoreStats`] aggregates say
//! *how much* happened; this module says *when*. Four collectors, all owned
//! by one [`Telemetry`] value attached to a core via
//! [`Core::enable_telemetry`](crate::Core::enable_telemetry):
//!
//! * an [`IntervalSeries`] — every `interval` cycles the core samples the
//!   delta of its key counters (retired, fetched, flushes, CDF residency,
//!   stall cycles, MLP sums) as an [`IntervalSample`]. Evicted samples fold
//!   into a running total, so the invariant *sum of deltas == end-of-run
//!   aggregates* holds at any ring capacity (property-tested).
//! * [`Histogram`] ×5 — per-cycle ROB/LQ/SQ/RS/MSHR occupancies, binned
//!   into log₂ buckets so a sample costs one increment.
//! * [`CycleAccounting`] — every simulated cycle lands in exactly one of six
//!   buckets (see [`CycleBucket`]); the buckets always sum to the number of
//!   cycles telemetry observed.
//! * an event sink — CDF-mode episodes, full-window-stall episodes, flush
//!   instants, and (when a [`PipeTrace`](crate::trace::PipeTrace) is live)
//!   per-stage uop slices, as [`TraceEvent`]s that `cdf-sim` serializes into
//!   Chrome/Perfetto trace-event JSON.
//!
//! **Overhead guarantee**: everything here hangs off an
//! `Option<Telemetry>` inside the core. A disabled run executes zero
//! telemetry code on the cycle path and produces bit-identical `CoreStats`
//! to a build without this module (enforced by tests in `cdf-sim`). An
//! enabled run also leaves `CoreStats` untouched — telemetry only ever
//! *reads* the architectural simulation.

use crate::series::{interval_sample, IntervalSeries};
use crate::stats::CoreStats;

/// Sizing and feature switches for one [`Telemetry`] instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TelemetryConfig {
    /// Cycles per interval sample (the sampler also flushes a final partial
    /// interval when a run window ends, so deltas always sum to the
    /// aggregates).
    pub interval: u64,
    /// Interval samples retained in the ring; older samples fold into the
    /// running totals.
    pub ring_capacity: usize,
    /// Maximum events kept by the sink; once full, further events are
    /// counted in [`Telemetry::events_dropped`] instead of stored. The
    /// sink keeps a slot free for the `E` of every `B` it stored, so a kept
    /// episode always closes: it stores a `B` only with room for both.
    pub max_events: usize,
    /// Emit per-stage uop slices for the first N retired sequence numbers
    /// (requires the core's pipe trace; `0` disables uop slices).
    pub uop_events: u64,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            interval: crate::series::INTERVAL,
            ring_capacity: crate::series::RING_CAPACITY,
            max_events: 65_536,
            uop_events: 256,
        }
    }
}

// ---------------------------------------------------------------------------
// Cycle accounting.
// ---------------------------------------------------------------------------

/// Where one simulated cycle went. Every observed cycle is attributed to
/// exactly one bucket, by the first matching rule in this order:
///
/// 1. [`Retiring`](CycleBucket::Retiring) — at least one uop retired.
/// 2. [`FlushRecovery`](CycleBucket::FlushRecovery) — no retirement, and the
///    core is within `redirect_penalty` cycles of applying a pipeline flush.
/// 3. [`FullWindowStall`](CycleBucket::FullWindowStall) — no retirement and
///    the paper's full-window-stall condition held (rename blocked by a full
///    backend structure while the ROB head waits on memory).
/// 4. [`CdfMode`](CycleBucket::CdfMode) — no retirement, but CDF fetch mode
///    is engaged (the critical stream is running ahead).
/// 5. [`FrontendStarved`](CycleBucket::FrontendStarved) — no retirement and
///    the backend had nothing to chew on: the window is empty, or nothing
///    was dispatched because decode had no ready uop.
/// 6. [`BackendBound`](CycleBucket::BackendBound) — everything else: work is
///    in flight but the oldest uop is still executing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum CycleBucket {
    /// ≥1 uop retired this cycle.
    Retiring = 0,
    /// Draining/refilling after a mispredict, memory-order, or poison flush.
    FlushRecovery = 1,
    /// ROB full with the head load waiting on DRAM (the paper's target).
    FullWindowStall = 2,
    /// CDF fetch mode engaged without retirement (critical stream warming).
    CdfMode = 3,
    /// The backend was empty or rename had no decoded uop available.
    FrontendStarved = 4,
    /// Uops in flight, none ready to retire.
    BackendBound = 5,
}

impl CycleBucket {
    /// All buckets in attribution-priority order.
    pub const ALL: [CycleBucket; 6] = [
        CycleBucket::Retiring,
        CycleBucket::FlushRecovery,
        CycleBucket::FullWindowStall,
        CycleBucket::CdfMode,
        CycleBucket::FrontendStarved,
        CycleBucket::BackendBound,
    ];

    /// Stable snake_case label (used in JSON and tables).
    pub fn label(self) -> &'static str {
        match self {
            CycleBucket::Retiring => "retiring",
            CycleBucket::FlushRecovery => "flush_recovery",
            CycleBucket::FullWindowStall => "full_window_stall",
            CycleBucket::CdfMode => "cdf_mode",
            CycleBucket::FrontendStarved => "frontend_starved",
            CycleBucket::BackendBound => "backend_bound",
        }
    }
}

/// Top-down cycle attribution: six counters that always sum to the number
/// of cycles telemetry observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CycleAccounting {
    counts: [u64; 6],
}

impl CycleAccounting {
    /// Adds one cycle to `bucket`.
    #[inline]
    pub fn record(&mut self, bucket: CycleBucket) {
        self.counts[bucket as usize] += 1;
    }

    /// The cycle count of one bucket.
    pub fn get(&self, bucket: CycleBucket) -> u64 {
        self.counts[bucket as usize]
    }

    /// Total cycles attributed — equals the cycles telemetry observed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(bucket, cycles, fraction)` rows in priority order; fractions sum to
    /// 1 (or are all 0 when no cycles were observed).
    pub fn breakdown(&self) -> Vec<(CycleBucket, u64, f64)> {
        let total = self.total();
        CycleBucket::ALL
            .iter()
            .map(|&b| {
                let c = self.get(b);
                let frac = if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                };
                (b, c, frac)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Occupancy histograms.
// ---------------------------------------------------------------------------

/// Number of log₂ buckets per histogram: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`; the last bucket also absorbs
/// everything larger.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A log₂-bucketed occupancy histogram: one increment per sample, constant
/// space, exact counts and sum for the mean.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    samples: u64,
    sum: u64,
}

impl Histogram {
    /// The bucket index for `value`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The inclusive value range `[lo, hi]` a bucket covers (the last bucket
    /// is open-ended and reports `u64::MAX`).
    pub fn bucket_range(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 0),
            i if i >= HISTOGRAM_BUCKETS - 1 => (1 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.samples += 1;
        self.sum += value;
    }

    /// Samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// The raw bucket counters.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// Per-cycle occupancy histograms of the core's queuing structures.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OccupancyHistograms {
    /// Reorder buffer entries in use.
    pub rob: Histogram,
    /// Load-queue entries in use.
    pub lq: Histogram,
    /// Store-queue entries in use.
    pub sq: Histogram,
    /// Reservation-station entries in use.
    pub rs: Histogram,
    /// Outstanding demand misses (L1D MSHRs with a miss in flight).
    pub mshr: Histogram,
}

impl OccupancyHistograms {
    /// `(name, histogram)` pairs in report order.
    pub fn named(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("rob", &self.rob),
            ("lq", &self.lq),
            ("sq", &self.sq),
            ("rs", &self.rs),
            ("mshr", &self.mshr),
        ]
    }
}

/// One cycle's occupancy readings, taken by the core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OccupancySample {
    /// ROB entries in use.
    pub rob: u64,
    /// Load-queue entries in use.
    pub lq: u64,
    /// Store-queue entries in use.
    pub sq: u64,
    /// Reservation-station entries in use.
    pub rs: u64,
    /// Outstanding demand misses.
    pub mshr: u64,
}

// ---------------------------------------------------------------------------
// Interval sampler.
// ---------------------------------------------------------------------------

interval_sample! {
    /// Delta-[`CoreStats`] over one sampling interval.
    pub struct IntervalSample from |now, s: &CoreStats| {
        /// Uops retired.
        retired: s.retired,
        /// Regular-stream uops fetched.
        fetched_regular: s.fetched_regular,
        /// Critical-stream uops fetched.
        fetched_critical: s.fetched_critical,
        /// Branch-mispredict flushes.
        mispredicts: s.mispredicts,
        /// Memory-ordering flushes.
        memory_violations: s.memory_violations,
        /// CDF poison (dependence) flushes.
        dependence_violations: s.dependence_violations,
        /// Full-window stall cycles.
        full_window_stall_cycles: s.full_window_stall_cycles,
        /// Cycles with CDF fetch mode engaged.
        cdf_mode_cycles: s.cdf_mode_cycles,
        /// Sum of outstanding demand misses over the interval (MLP numerator).
        mlp_sum: s.mlp_sum,
        /// Cycles with ≥1 outstanding demand miss (MLP denominator).
        mlp_cycles: s.mlp_cycles,
    }
}

impl IntervalSample {
    /// IPC over the interval.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// MLP proxy over the interval (mean outstanding demand misses while
    /// ≥1 outstanding).
    pub fn mlp(&self) -> f64 {
        if self.mlp_cycles == 0 {
            0.0
        } else {
            self.mlp_sum as f64 / self.mlp_cycles as f64
        }
    }

    /// Fraction of interval cycles spent with CDF fetch mode engaged.
    pub fn cdf_residency(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.cdf_mode_cycles as f64 / self.cycles as f64
        }
    }

    /// Flushes of all kinds in the interval.
    pub fn flushes(&self) -> u64 {
        self.mispredicts + self.memory_violations + self.dependence_violations
    }
}

// ---------------------------------------------------------------------------
// Event sink.
// ---------------------------------------------------------------------------

/// The Chrome trace-event phase of a [`TraceEvent`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventPhase {
    /// `"B"` — duration begin.
    Begin,
    /// `"E"` — duration end.
    End,
    /// `"X"` — complete event with a duration.
    Complete,
    /// `"i"` — instant.
    Instant,
}

impl EventPhase {
    /// The phase letter Chrome/Perfetto expects.
    pub fn code(self) -> &'static str {
        match self {
            EventPhase::Begin => "B",
            EventPhase::End => "E",
            EventPhase::Complete => "X",
            EventPhase::Instant => "i",
        }
    }
}

/// One structured event. Timestamps are core cycles; `cdf-sim` maps them
/// 1:1 onto trace microseconds when serializing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Event name (e.g. `cdf_mode`, `full_window_stall`, `execute`).
    pub name: &'static str,
    /// Category: `mode`, `stall`, `flush`, or `uop`.
    pub cat: &'static str,
    /// Phase.
    pub ph: EventPhase,
    /// Start cycle.
    pub ts: u64,
    /// Duration in cycles ([`EventPhase::Complete`] only).
    pub dur: u64,
    /// Track id: 0 = episodes, 1 = flushes, 2+ = uop lanes.
    pub tid: u64,
    /// Optional `(key, value)` arguments (sequence numbers, PCs, …).
    pub args: Vec<(&'static str, u64)>,
}

// ---------------------------------------------------------------------------
// Telemetry root.
// ---------------------------------------------------------------------------

/// All telemetry collected over one core's run. See the [module
/// docs](self) for the guarantees.
#[derive(Clone, PartialEq, Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// Top-down cycle attribution.
    pub accounting: CycleAccounting,
    /// Per-cycle structure occupancies.
    pub occupancy: OccupancyHistograms,
    /// The interval time series.
    pub intervals: IntervalSeries<IntervalSample>,
    events: Vec<TraceEvent>,
    events_dropped: u64,
    /// The open episode of each kind in [`EPISODES`]: its start cycle and
    /// whether the sink stored its `B` (and so holds a slot for its `E`).
    open: [Option<(u64, bool)>; 2],
    observed_cycles: u64,
}

impl Telemetry {
    /// A fresh collector.
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        let ring = cfg.ring_capacity;
        Telemetry {
            cfg,
            accounting: CycleAccounting::default(),
            occupancy: OccupancyHistograms::default(),
            intervals: IntervalSeries::new(ring),
            events: Vec::new(),
            events_dropped: 0,
            open: [None; 2],
            observed_cycles: 0,
        }
    }

    /// The configuration this collector was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Cycles observed (equals `accounting.total()` and the per-histogram
    /// sample counts).
    pub fn observed_cycles(&self) -> u64 {
        self.observed_cycles
    }

    /// The collected events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events discarded because the sink hit
    /// [`TelemetryConfig::max_events`].
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Whether per-stage uop slices are wanted for `seq`.
    pub fn wants_uop_events(&self, seq: u64) -> bool {
        seq < self.cfg.uop_events
    }

    /// Whether the sink can store `n` more events and still close every
    /// episode whose `B` it stored.
    fn has_room(&self, n: usize) -> bool {
        let reserved = self.open.iter().flatten().filter(|(_, kept)| *kept).count();
        self.events.len() + reserved + n <= self.cfg.max_events
    }

    /// Stores `ev` if `keep`, or counts it as dropped.
    fn store(&mut self, keep: bool, ev: TraceEvent) {
        if keep {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Pushes an event, honouring the sink bound.
    pub fn push_event(&mut self, ev: TraceEvent) {
        self.store(self.has_room(1), ev);
    }

    /// Called by the core once per cycle with the attribution decision and
    /// the occupancy readings.
    #[inline]
    pub fn on_cycle(&mut self, bucket: CycleBucket, occ: OccupancySample) {
        self.observed_cycles += 1;
        self.accounting.record(bucket);
        self.occupancy.rob.record(occ.rob);
        self.occupancy.lq.record(occ.lq);
        self.occupancy.sq.record(occ.sq);
        self.occupancy.rs.record(occ.rs);
        self.occupancy.mshr.record(occ.mshr);
    }

    /// Called by the core on interval boundaries (and at window ends via
    /// [`flush_window`](Self::flush_window)).
    pub fn sample_interval(&mut self, now: u64, stats: &CoreStats) {
        self.intervals.sample(IntervalSample::read(now, stats));
    }

    /// Whether `now` lands on an interval boundary.
    #[inline]
    pub fn interval_due(&self, now: u64) -> bool {
        now.is_multiple_of(self.cfg.interval)
    }

    /// Tracks CDF-mode and full-window-stall episode transitions, emitting
    /// `B`/`E` event pairs. A `B` is stored only with room for its `E` too,
    /// and the `E` of a stored `B` always is, so the stored pairs balance.
    pub fn track_episodes(&mut self, now: u64, cdf_active: bool, stall_active: bool) {
        for (i, active) in [cdf_active, stall_active].into_iter().enumerate() {
            let (name, cat, tid) = EPISODES[i];
            let (ph, keep, args) = match (active, self.open[i]) {
                (true, None) => {
                    let keep = self.has_room(2);
                    self.open[i] = Some((now, keep));
                    (EventPhase::Begin, keep, vec![])
                }
                (false, Some((start, keep))) => {
                    self.open[i] = None;
                    (EventPhase::End, keep, vec![("cycles", now - start)])
                }
                _ => continue,
            };
            let ev = TraceEvent {
                name,
                cat,
                ph,
                ts: now,
                dur: 0,
                tid,
                args,
            };
            self.store(keep, ev);
        }
    }

    /// Records a pipeline flush as an instant event.
    pub fn note_flush(&mut self, now: u64, kind: &'static str, target_seq: u64) {
        self.push_event(TraceEvent {
            name: kind,
            cat: "flush",
            ph: EventPhase::Instant,
            ts: now,
            dur: 0,
            tid: 1,
            args: vec![("seq", target_seq)],
        });
    }

    /// Emits per-stage `X` slices for one retired uop from its pipe-trace
    /// row. Stages with missing timestamps (e.g. a critical-stream uop that
    /// skipped regular fetch) are omitted.
    pub fn note_uop_retired(&mut self, seq: u64, pc: u64, row: &crate::trace::TraceRow) {
        let lane = 2 + (seq % 8);
        let stages: [(&'static str, Option<u64>, Option<u64>); 4] = [
            ("frontend", row.fetch, row.dispatch),
            ("queue", row.dispatch, row.execute),
            ("execute", row.execute, row.complete),
            ("commit", row.complete, row.retire),
        ];
        for (name, start, end) in stages {
            if let (Some(s), Some(e)) = (start, end) {
                self.push_event(TraceEvent {
                    name,
                    cat: "uop",
                    ph: EventPhase::Complete,
                    ts: s,
                    dur: e.saturating_sub(s).max(1),
                    tid: lane,
                    args: vec![("seq", seq), ("pc", pc), ("critical", row.critical as u64)],
                });
            }
        }
    }

    /// Ends a run window: flushes the partial interval so the series sums
    /// to the aggregates, and closes any open episode so the event stream
    /// is balanced. Called by the core when `run_bounded` returns; safe to
    /// call repeatedly (resumed runs re-open episodes on the next cycle).
    pub fn flush_window(&mut self, now: u64, stats: &CoreStats) {
        self.sample_interval(now, stats);
        self.track_episodes(now, false, false);
    }
}

/// The `(name, cat, tid)` of the episode kinds: CDF mode, then full-window
/// stalls.
const EPISODES: [(&str, &str, u64); 2] =
    [("cdf_mode", "mode", 0), ("full_window_stall", "stall", 1)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Ranges agree with bucket_of at both edges.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(Histogram::bucket_of(lo), i, "lo edge of bucket {i}");
            if hi != u64::MAX {
                assert_eq!(Histogram::bucket_of(hi), i, "hi edge of bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_counts_and_mean() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.samples(), 6);
        assert!((h.mean() - 110.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 2); // 2 and 3
        assert_eq!(h.buckets()[Histogram::bucket_of(100)], 1);
    }

    #[test]
    fn accounting_is_total() {
        let mut a = CycleAccounting::default();
        a.record(CycleBucket::Retiring);
        a.record(CycleBucket::Retiring);
        a.record(CycleBucket::BackendBound);
        assert_eq!(a.total(), 3);
        let rows = a.breakdown();
        assert_eq!(rows.len(), 6);
        let frac_sum: f64 = rows.iter().map(|(_, _, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].1, 2);
    }

    #[test]
    fn interval_ring_evicts_into_totals() {
        let mut t = Telemetry::new(TelemetryConfig {
            interval: 10,
            ring_capacity: 2,
            ..TelemetryConfig::default()
        });
        let mut stats = CoreStats::default();
        for i in 1..=5u64 {
            stats.retired += i; // distinct per-interval deltas
            t.sample_interval(i * 10, &stats);
        }
        assert_eq!(t.intervals.len(), 2, "ring holds the newest two");
        assert_eq!(t.intervals.evicted_count(), 3);
        let totals = t.intervals.totals();
        assert_eq!(totals.cycles, 50);
        assert_eq!(totals.retired, 1 + 2 + 3 + 4 + 5);
        assert_eq!(totals.start_cycle, 0);
        assert_eq!(totals.end_cycle, 50);
        // A window flush at a non-boundary cycle extends the totals exactly.
        stats.retired += 7;
        t.flush_window(53, &stats);
        assert_eq!(t.intervals.totals().cycles, 53);
        assert_eq!(t.intervals.totals().retired, 22);
        // Flushing again at the same cycle is a no-op (zero-width delta).
        t.flush_window(53, &stats);
        assert_eq!(t.intervals.totals().cycles, 53);
    }

    #[test]
    fn episode_tracking_emits_balanced_pairs() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.track_episodes(5, true, false);
        t.track_episodes(6, true, true);
        t.track_episodes(9, false, true);
        t.track_episodes(12, false, false);
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].name, "cdf_mode");
        assert_eq!(evs[0].ph, EventPhase::Begin);
        let end = evs
            .iter()
            .find(|e| e.name == "cdf_mode" && e.ph == EventPhase::End);
        assert_eq!(end.unwrap().args, vec![("cycles", 4)]);
        let stall_end = evs
            .iter()
            .find(|e| e.name == "full_window_stall" && e.ph == EventPhase::End)
            .unwrap();
        assert_eq!(stall_end.args, vec![("cycles", 6)]);
    }

    /// Episodes opening and closing past the sink's bound, between flush
    /// instants that fill it: the sink never exceeds its bound, counts
    /// every event it does not store, and closes every `B` it stored with
    /// an `E` before the kind's next `B`.
    #[test]
    fn a_full_sink_keeps_every_stored_episode_closed() {
        for max_events in 0..12 {
            let mut t = Telemetry::new(TelemetryConfig {
                max_events,
                ..TelemetryConfig::default()
            });
            let (mut emitted, mut was) = (0, (false, false));
            for now in 0..=40u64 {
                let is = if now < 40 {
                    (now % 5 < 3, now % 7 < 2)
                } else {
                    (false, false)
                };
                t.track_episodes(now, is.0, is.1);
                emitted += u64::from(is.0 != was.0) + u64::from(is.1 != was.1);
                was = is;
                if now % 3 == 0 {
                    t.note_flush(now, "mispredict", now);
                    emitted += 1;
                }
                assert!(t.events().len() <= max_events);
            }
            assert_eq!(t.events().len() as u64 + t.events_dropped(), emitted);
            for (name, _, _) in EPISODES {
                let mut open = false;
                for e in t.events().iter().filter(|e| e.name == name) {
                    assert_eq!(e.ph == EventPhase::End, open, "{name} at {}", e.ts);
                    open = !open;
                }
                assert!(!open, "{name}'s last stored B is closed");
            }
            if max_events >= 8 {
                assert!(t.events_dropped() > 0, "the flushes overflow the sink");
                assert!(
                    t.events().iter().any(|e| e.ph == EventPhase::Begin),
                    "episodes are kept while there is room"
                );
            }
        }
    }

    #[test]
    fn event_sink_is_bounded() {
        let mut t = Telemetry::new(TelemetryConfig {
            max_events: 2,
            ..TelemetryConfig::default()
        });
        for i in 0..5 {
            t.note_flush(i, "mispredict", i);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events_dropped(), 3);
    }
}
