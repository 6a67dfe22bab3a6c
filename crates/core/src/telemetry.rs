//! Cycle-accounting telemetry: interval time series, occupancy histograms,
//! top-down cycle attribution, and a structured event sink.
//!
//! The simulator's end-of-run [`CoreStats`] aggregates say
//! *how much* happened; this module says *when*. Four collectors, all owned
//! by one [`Telemetry`] value attached to a core via
//! [`Core::enable_telemetry`](crate::Core::enable_telemetry):
//!
//! * [`IntervalSeries`] — every `interval` cycles the core snapshots the
//!   delta of its key counters (retired, fetched, flushes, CDF residency,
//!   stall cycles, MLP sums) into a ring-buffered time series. Evicted
//!   samples fold into a running total, so the invariant *sum of deltas ==
//!   end-of-run aggregates* holds at any ring capacity (property-tested).
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

use crate::stats::CoreStats;
use std::collections::VecDeque;

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
    /// counted in [`Telemetry::events_dropped`] instead of stored.
    pub max_events: usize,
    /// Emit per-stage uop slices for the first N retired sequence numbers
    /// (requires the core's pipe trace; `0` disables uop slices).
    pub uop_events: u64,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            interval: 1024,
            ring_capacity: 512,
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

/// The counters the interval sampler tracks, as absolute values at one
/// point in time (taken from the live [`CoreStats`] plus the core clock).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct CounterSnapshot {
    cycles: u64,
    retired: u64,
    fetched_regular: u64,
    fetched_critical: u64,
    mispredicts: u64,
    memory_violations: u64,
    dependence_violations: u64,
    full_window_stall_cycles: u64,
    cdf_mode_cycles: u64,
    mlp_sum: u64,
    mlp_cycles: u64,
}

impl CounterSnapshot {
    fn take(now: u64, s: &CoreStats) -> CounterSnapshot {
        CounterSnapshot {
            cycles: now,
            retired: s.retired,
            fetched_regular: s.fetched_regular,
            fetched_critical: s.fetched_critical,
            mispredicts: s.mispredicts,
            memory_violations: s.memory_violations,
            dependence_violations: s.dependence_violations,
            full_window_stall_cycles: s.full_window_stall_cycles,
            cdf_mode_cycles: s.cdf_mode_cycles,
            mlp_sum: s.mlp_sum,
            mlp_cycles: s.mlp_cycles,
        }
    }
}

/// Delta-`CoreStats` over one sampling interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IntervalSample {
    /// First cycle covered (exclusive of the previous sample's end).
    pub start_cycle: u64,
    /// Last cycle covered.
    pub end_cycle: u64,
    /// Cycles in the interval (`end_cycle - start_cycle`).
    pub cycles: u64,
    /// Uops retired.
    pub retired: u64,
    /// Regular-stream uops fetched.
    pub fetched_regular: u64,
    /// Critical-stream uops fetched.
    pub fetched_critical: u64,
    /// Branch-mispredict flushes.
    pub mispredicts: u64,
    /// Memory-ordering flushes.
    pub memory_violations: u64,
    /// CDF poison (dependence) flushes.
    pub dependence_violations: u64,
    /// Full-window stall cycles.
    pub full_window_stall_cycles: u64,
    /// Cycles with CDF fetch mode engaged.
    pub cdf_mode_cycles: u64,
    /// Sum of outstanding demand misses over the interval (MLP numerator).
    pub mlp_sum: u64,
    /// Cycles with ≥1 outstanding demand miss (MLP denominator).
    pub mlp_cycles: u64,
}

impl IntervalSample {
    fn delta(prev: &CounterSnapshot, cur: &CounterSnapshot) -> IntervalSample {
        IntervalSample {
            start_cycle: prev.cycles,
            end_cycle: cur.cycles,
            cycles: cur.cycles - prev.cycles,
            retired: cur.retired - prev.retired,
            fetched_regular: cur.fetched_regular - prev.fetched_regular,
            fetched_critical: cur.fetched_critical - prev.fetched_critical,
            mispredicts: cur.mispredicts - prev.mispredicts,
            memory_violations: cur.memory_violations - prev.memory_violations,
            dependence_violations: cur.dependence_violations - prev.dependence_violations,
            full_window_stall_cycles: cur.full_window_stall_cycles - prev.full_window_stall_cycles,
            cdf_mode_cycles: cur.cdf_mode_cycles - prev.cdf_mode_cycles,
            mlp_sum: cur.mlp_sum - prev.mlp_sum,
            mlp_cycles: cur.mlp_cycles - prev.mlp_cycles,
        }
    }

    fn accumulate(&mut self, other: &IntervalSample) {
        if self.cycles == 0 {
            self.start_cycle = other.start_cycle;
        }
        self.end_cycle = other.end_cycle;
        self.cycles += other.cycles;
        self.retired += other.retired;
        self.fetched_regular += other.fetched_regular;
        self.fetched_critical += other.fetched_critical;
        self.mispredicts += other.mispredicts;
        self.memory_violations += other.memory_violations;
        self.dependence_violations += other.dependence_violations;
        self.full_window_stall_cycles += other.full_window_stall_cycles;
        self.cdf_mode_cycles += other.cdf_mode_cycles;
        self.mlp_sum += other.mlp_sum;
        self.mlp_cycles += other.mlp_cycles;
    }

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

/// The ring-buffered interval time series. Samples older than the ring
/// capacity are folded into [`totals`](Self::totals) rather than lost, so
/// the series always accounts for the whole run.
#[derive(Clone, PartialEq, Debug)]
pub struct IntervalSeries {
    ring: VecDeque<IntervalSample>,
    capacity: usize,
    evicted: IntervalSample,
    evicted_count: u64,
    last: CounterSnapshot,
}

impl IntervalSeries {
    fn new(capacity: usize) -> IntervalSeries {
        IntervalSeries {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            evicted: IntervalSample::default(),
            evicted_count: 0,
            last: CounterSnapshot::default(),
        }
    }

    fn sample(&mut self, now: u64, stats: &CoreStats) {
        let cur = CounterSnapshot::take(now, stats);
        let delta = IntervalSample::delta(&self.last, &cur);
        self.last = cur;
        if delta.cycles == 0 {
            return; // a zero-width flush (window boundary on an interval edge)
        }
        if self.ring.len() == self.capacity {
            let old = self.ring.pop_front().expect("ring non-empty at capacity");
            self.evicted.accumulate(&old);
            self.evicted_count += 1;
        }
        self.ring.push_back(delta);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &IntervalSample> {
        self.ring.iter()
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Samples evicted into the running totals.
    pub fn evicted_count(&self) -> u64 {
        self.evicted_count
    }

    /// Sum of **all** deltas since telemetry was enabled — evicted and
    /// retained. Equals the end-of-run aggregate deltas (property-tested).
    pub fn totals(&self) -> IntervalSample {
        let mut t = self.evicted;
        for s in &self.ring {
            t.accumulate(s);
        }
        t
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
    pub intervals: IntervalSeries,
    events: Vec<TraceEvent>,
    events_dropped: u64,
    cdf_since: Option<u64>,
    stall_since: Option<u64>,
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
            cdf_since: None,
            stall_since: None,
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

    /// Pushes an event, honouring the sink bound.
    pub fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cfg.max_events {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
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
        self.intervals.sample(now, stats);
    }

    /// Whether `now` lands on an interval boundary.
    #[inline]
    pub fn interval_due(&self, now: u64) -> bool {
        now.is_multiple_of(self.cfg.interval)
    }

    /// Tracks CDF-mode and full-window-stall episode transitions, emitting
    /// `B`/`E` event pairs.
    pub fn track_episodes(&mut self, now: u64, cdf_active: bool, stall_active: bool) {
        match (cdf_active, self.cdf_since) {
            (true, None) => {
                self.cdf_since = Some(now);
                self.push_event(TraceEvent {
                    name: "cdf_mode",
                    cat: "mode",
                    ph: EventPhase::Begin,
                    ts: now,
                    dur: 0,
                    tid: 0,
                    args: vec![],
                });
            }
            (false, Some(start)) => {
                self.cdf_since = None;
                self.push_event(TraceEvent {
                    name: "cdf_mode",
                    cat: "mode",
                    ph: EventPhase::End,
                    ts: now,
                    dur: 0,
                    tid: 0,
                    args: vec![("cycles", now - start)],
                });
            }
            _ => {}
        }
        match (stall_active, self.stall_since) {
            (true, None) => {
                self.stall_since = Some(now);
                self.push_event(TraceEvent {
                    name: "full_window_stall",
                    cat: "stall",
                    ph: EventPhase::Begin,
                    ts: now,
                    dur: 0,
                    tid: 1,
                    args: vec![],
                });
            }
            (false, Some(start)) => {
                self.stall_since = None;
                self.push_event(TraceEvent {
                    name: "full_window_stall",
                    cat: "stall",
                    ph: EventPhase::End,
                    ts: now,
                    dur: 0,
                    tid: 1,
                    args: vec![("cycles", now - start)],
                });
            }
            _ => {}
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
        let (cdf, stall) = (self.cdf_since.is_some(), self.stall_since.is_some());
        if cdf || stall {
            self.track_episodes(now, false, false);
        }
    }
}

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
