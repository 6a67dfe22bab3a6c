//! Host-side self-profiling: where does the *simulator's* wall-clock go?
//!
//! The guest has had measurement discipline since PR 2 (cycle accounting,
//! chain provenance, durable result records); this module applies the same
//! discipline to the instrument itself. A [`HostProf`] is an optional
//! sidecar on [`Core`](crate::Core) — the exact pattern of
//! [`Telemetry`](crate::telemetry::Telemetry) and
//! [`CdfDiagnostics`](crate::diag::CdfDiagnostics) — that splits each cycle
//! of the per-cycle loop into its pipeline stages and counts heap churn per
//! stage through [`CountingAlloc`]. Subsystem boundaries (scheduler
//! wakeup/select, the MSHR/MLP completion heaps, the memory port, the
//! shared LLC) get their own timers, placed *inside* the stages; the stage
//! rows alone answer the totality question.
//!
//! # Sampling
//!
//! A clock read costs about as much as the smaller operations it would
//! time, so the timers sample: each timer kind reads the clock on one
//! simulated cycle in [`SAMPLE_PERIOD`](cdf_mem::prof::SAMPLE_PERIOD), on
//! its own residue, by the rule in [`cdf_mem::prof`]. On a stage-timed
//! cycle the read that ends one stage also starts the next, so seven reads
//! tile the cycle. Counts stay exhaustive: every stage boundary snapshots
//! the allocation counters and counts a call, and every subsystem
//! operation counts, timed or not; only nanoseconds are sampled.
//!
//! [`HostProf::into_profile`] turns the samples into estimates anchored to
//! the wall the harness measured around the run. With n cycles, k of them
//! stage-timed with summed span S, the untimed cycles averaged
//! u = (wall − S)/(n − k) each; every cycle is costed at min(u, S/k) and
//! split among the stages in the timed cycles' proportions. What the timed
//! cycles ran over u — the cost of the timer's own reads — is
//! `untracked_ns`. A subsystem reports its timed nanoseconds scaled by
//! `ops / timed`; each timed operation still includes one clock-read gap.
//!
//! # Overhead guarantee
//!
//! A core without a profiler runs zero profiling code beyond one `Option`
//! null check per stage — the same standard the telemetry and diagnostics
//! sidecars are held to — and an enabled profiler only ever *reads*
//! simulation state, so [`CoreStats`](crate::CoreStats) are bit-identical
//! either way (enforced by `crates/sim/tests/prof.rs` across all seven
//! mechanisms).
//!
//! # Totality invariant
//!
//! The estimated stages sum to at most the measured wall, and the
//! remainder is reported explicitly as `untracked_ns`, so
//! `Σ stages + untracked == total` holds for every finished profile (a
//! proptest fuzzes the invariant over generated programs).

use cdf_mem::prof::{is_timed, HeapProf, TimerKind};
use cdf_mem::MemProfReport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One pipeline stage of the per-cycle loop, in execution order
/// (backwards through the pipeline, like [`Core`](crate::Core) itself).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// In-order retirement (includes store commit into the memory system).
    Retire,
    /// Completion-event drain + register wakeup.
    Complete,
    /// Select + execute (issue ports, functional execution, load/store
    /// address generation and memory access).
    Schedule,
    /// Decode drain, rename, dispatch into ROB/RS/LSQ (covers the decode
    /// and rename stages of the modeled pipeline).
    Rename,
    /// Critical + regular instruction fetch, including I-cache access.
    Fetch,
    /// Pipeline flush recovery (replaces fetch on flush cycles).
    Flush,
    /// End-of-cycle bookkeeping (stall accounting, partition controllers,
    /// telemetry sampling).
    PostCycle,
}

impl Stage {
    /// Every stage, in per-cycle execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Retire,
        Stage::Complete,
        Stage::Schedule,
        Stage::Rename,
        Stage::Fetch,
        Stage::Flush,
        Stage::PostCycle,
    ];

    /// Stable label used in `cdf-profile/1` documents and tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Retire => "retire",
            Stage::Complete => "complete",
            Stage::Schedule => "schedule_execute",
            Stage::Rename => "rename_dispatch",
            Stage::Fetch => "fetch",
            Stage::Flush => "flush",
            Stage::PostCycle => "post_cycle",
        }
    }
}

/// A subsystem boundary timed *inside* the stages (never added to the
/// stage totality sum — subsystem time is a refinement, not a partition).
/// Each is sampled on cycles of its own, so a subsystem's estimate can read
/// above the stage that encloses it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Subsystem {
    /// Event-driven scheduler wakeup (waiter drain + ready enqueue).
    SchedWake,
    /// Event-driven scheduler select loop.
    SchedSelect,
    /// The core↔memory boundary: the access calls themselves (demand
    /// accesses, runahead prefetches, MLP samples through
    /// [`MemSide`](crate::MemSide)), with the memory system's work inside.
    MemPort,
    /// MSHR completion-heap operations (from `cdf-mem`).
    MshrHeap,
    /// MLP outstanding-miss heap operations (from `cdf-mem`).
    MlpHeap,
    /// Shared-LLC accesses of a multi-core memory system (from `cdf-mem`).
    SharedLlc,
}

impl Subsystem {
    /// Every subsystem, in report order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::SchedWake,
        Subsystem::SchedSelect,
        Subsystem::MemPort,
        Subsystem::MshrHeap,
        Subsystem::MlpHeap,
        Subsystem::SharedLlc,
    ];

    /// Stable label used in `cdf-profile/1` documents and tables.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::SchedWake => "sched_wake",
            Subsystem::SchedSelect => "sched_select",
            Subsystem::MemPort => "memport",
            Subsystem::MshrHeap => "mshr_heap",
            Subsystem::MlpHeap => "mlp_heap",
            Subsystem::SharedLlc => "shared_llc",
        }
    }

    /// The timer kind whose cycles this subsystem is timed on.
    pub fn timer(self) -> TimerKind {
        match self {
            Subsystem::SchedWake => TimerKind::SchedWake,
            Subsystem::SchedSelect => TimerKind::SchedSelect,
            Subsystem::MemPort => TimerKind::MemPort,
            Subsystem::MshrHeap => TimerKind::MshrHeap,
            Subsystem::MlpHeap => TimerKind::MlpHeap,
            Subsystem::SharedLlc => TimerKind::SharedLlc,
        }
    }
}

// ---------------------------------------------------------------------
// Counting allocator.
// ---------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator: two relaxed atomic
/// increments per allocation, so per-stage heap churn can be attributed by
/// snapshotting [`alloc_counts`] at stage boundaries.
///
/// Install it in a *binary* (`cdf-sim` and `perfbench` do):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: cdf_core::prof::CountingAlloc = cdf_core::prof::CountingAlloc;
/// ```
///
/// When it is not installed the counters simply stay zero and profiles
/// report no allocation data; nothing else changes.
#[derive(Debug, Default)]
pub struct CountingAlloc;

// SAFETY: delegates allocation verbatim to `System`; the only additional
// work is two relaxed counter increments, which touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Cumulative `(allocation calls, allocated bytes)` since process start —
/// zero unless [`CountingAlloc`] is installed as the global allocator.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Collection.
// ---------------------------------------------------------------------

/// An open stage interval: the allocation counters at its start and, on a
/// stage-timed cycle, the clock reading that started it.
#[derive(Debug)]
pub struct ProfToken {
    at: Option<Instant>,
    allocs: u64,
    alloc_bytes: u64,
}

const STAGES: usize = Stage::ALL.len();
const SUBS: usize = Subsystem::ALL.len();

/// The live collector: per-stage call counts, heap churn and sampled
/// wall-clock, plus per-subsystem operation counts and sampled wall-clock.
/// Attached to a core via [`Core::enable_prof`](crate::Core::enable_prof)
/// and drained by [`Core::take_profile`](crate::Core::take_profile).
#[derive(Clone, Debug, Default)]
pub struct HostProf {
    /// Stage nanoseconds, summed over the stage-timed cycles only.
    stage_ns: [u64; STAGES],
    stage_calls: [u64; STAGES],
    stage_allocs: [u64; STAGES],
    stage_alloc_bytes: [u64; STAGES],
    /// Cycles whose stages were timed.
    timed_cycles: u64,
    subs: [HeapProf; SUBS],
}

impl HostProf {
    /// A fresh collector.
    pub fn new() -> HostProf {
        HostProf::default()
    }

    /// Opens the first stage interval of simulated cycle `now`, reading the
    /// clock only if `now` is a stage-timed cycle.
    pub fn begin_cycle(&mut self, now: u64) -> ProfToken {
        let (allocs, alloc_bytes) = alloc_counts();
        let at = is_timed(TimerKind::Stages, now).then(Instant::now);
        self.timed_cycles += u64::from(at.is_some());
        ProfToken {
            at,
            allocs,
            alloc_bytes,
        }
    }

    /// Closes `stage`'s interval and opens the next stage's at the same
    /// instant: on a timed cycle one clock read ends one stage and starts
    /// the next.
    pub fn end_stage(&mut self, stage: Stage, t: ProfToken) -> ProfToken {
        let i = stage as usize;
        let (allocs, alloc_bytes) = alloc_counts();
        self.stage_calls[i] += 1;
        self.stage_allocs[i] += allocs - t.allocs;
        self.stage_alloc_bytes[i] += alloc_bytes - t.alloc_bytes;
        let at = t.at.map(|t0| {
            let t1 = Instant::now();
            self.stage_ns[i] += (t1 - t0).as_nanos() as u64;
            t1
        });
        ProfToken {
            at,
            allocs,
            alloc_bytes,
        }
    }

    /// Counts one subsystem operation, with its time if it was timed (`t0`
    /// from [`HeapProf::start`] with [`Subsystem::timer`]).
    pub fn end_sub(&mut self, sub: Subsystem, t0: Option<Instant>) {
        self.subs[sub as usize].finish(t0);
    }

    /// Folds externally-timed subsystem counters in (the `cdf-mem` heap
    /// timers report through [`MemProfReport`]).
    pub fn fold_mem(&mut self, mem: &MemProfReport) {
        self.subs[Subsystem::MshrHeap as usize].merge(&mem.mshr);
        self.subs[Subsystem::MlpHeap as usize].merge(&mem.mlp);
        self.subs[Subsystem::SharedLlc as usize].merge(&mem.shared_llc);
    }

    /// Merges another collector's counters into this one (the multi-core
    /// driver folds per-core collectors before finalizing: cores interleave
    /// on one host thread, so their intervals are disjoint in wall time).
    pub fn merge(&mut self, other: &HostProf) {
        for i in 0..STAGES {
            self.stage_ns[i] += other.stage_ns[i];
            self.stage_calls[i] += other.stage_calls[i];
            self.stage_allocs[i] += other.stage_allocs[i];
            self.stage_alloc_bytes[i] += other.stage_alloc_bytes[i];
        }
        self.timed_cycles += other.timed_cycles;
        for (a, b) in self.subs.iter_mut().zip(&other.subs) {
            a.merge(b);
        }
    }

    /// Finalizes into a [`HostProfile`]. `total_wall_ns` is the wall time
    /// the harness measured around the whole run; the stage estimates (see
    /// `scale_stages`) sum to at most it, and the remainder is
    /// `untracked_ns`. Only a wall shorter than the timed spans themselves
    /// (such as 0) can break that bound; the total then clamps up to the
    /// stage sum, so the totality invariant holds by construction.
    pub fn into_profile(self, cycles: u64, retired: u64, total_wall_ns: u64) -> HostProfile {
        let n = self.stage_calls[Stage::Retire as usize];
        let stage_ns = scale_stages(&self.stage_ns, n, self.timed_cycles, total_wall_ns);
        let stages: Vec<StageSample> = Stage::ALL
            .iter()
            .map(|&s| {
                let i = s as usize;
                StageSample {
                    name: s.label().to_string(),
                    ns: stage_ns[i],
                    calls: self.stage_calls[i],
                    allocs: self.stage_allocs[i],
                    alloc_bytes: self.stage_alloc_bytes[i],
                }
            })
            .collect();
        let subsystems: Vec<SubsystemSample> = Subsystem::ALL
            .iter()
            .map(|&s| {
                let sub = &self.subs[s as usize];
                SubsystemSample {
                    name: s.label().to_string(),
                    ns: sub.estimated_ns(),
                    ops: sub.ops,
                }
            })
            .collect();
        let tracked: u64 = stage_ns.iter().sum();
        HostProfile {
            cycles,
            retired,
            total_wall_ns: total_wall_ns.max(tracked),
            untracked_ns: total_wall_ns.saturating_sub(tracked),
            stages,
            subsystems,
        }
    }
}

/// Estimates every stage's nanoseconds over all `n` cycles from the spans
/// `raw` it took in the `k` stage-timed cycles, anchored to the measured
/// `wall`. With S = Σ `raw`, the untimed cycles took
/// u = (wall − S)/(n − k) each on average; every cycle is costed at
/// min(u, S/k) and split in the timed cycles' proportions, so stage `i`
/// gets `raw[i] · n · min(u, S/k) / S` and the stages sum to at most the
/// wall whenever the wall holds S. No cycle timed gives all zeros.
fn scale_stages(raw: &[u64; STAGES], n: u64, k: u64, wall: u64) -> [u64; STAGES] {
    let span: u64 = raw.iter().sum();
    if k == 0 || span == 0 {
        return [0; STAGES];
    }
    let (s, n, k) = (u128::from(span), u128::from(n), u128::from(k));
    let untimed = u128::from(wall.saturating_sub(span));
    // The cycle cost as a fraction num/den: u when the untimed cycles ran
    // no slower than the timed ones, S/k otherwise.
    let (num, den) = if n > k && untimed * k <= s * (n - k) {
        (untimed, n - k)
    } else {
        (s, k)
    };
    raw.map(|r| (u128::from(r) * n * num / (s * den)) as u64)
}

// ---------------------------------------------------------------------
// The finished profile.
// ---------------------------------------------------------------------

/// One stage's aggregated host-side cost.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageSample {
    /// Stable stage label ([`Stage::label`]).
    pub name: String,
    /// Estimated wall-clock nanoseconds spent inside the stage: its
    /// sampled spans scaled to every call and anchored to the measured
    /// wall (see [`HostProf::into_profile`]).
    pub ns: u64,
    /// Times the stage ran (= cycles simulated while profiling).
    pub calls: u64,
    /// Heap allocations performed inside the stage (0 without
    /// [`CountingAlloc`]).
    pub allocs: u64,
    /// Bytes allocated inside the stage (0 without [`CountingAlloc`]).
    pub alloc_bytes: u64,
}

/// One subsystem's aggregated host-side cost.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubsystemSample {
    /// Stable subsystem label ([`Subsystem::label`]).
    pub name: String,
    /// Estimated wall-clock nanoseconds spent inside the subsystem: its
    /// sampled operations' time scaled to every operation, one clock-read
    /// gap per operation included.
    pub ns: u64,
    /// Operations, every one counted whether or not it was timed.
    pub ops: u64,
}

/// A finished host profile: stage-level wall-clock attribution with the
/// totality invariant (`Σ stages + untracked = total`, both sides ≥ 0),
/// host throughput denominators, and the subsystem refinement.
#[derive(Clone, PartialEq, Debug)]
pub struct HostProfile {
    /// Guest cycles simulated while profiling.
    pub cycles: u64,
    /// Guest uops retired while profiling.
    pub retired: u64,
    /// Total wall-clock nanoseconds measured around the run (≥ Σ stages).
    pub total_wall_ns: u64,
    /// Wall time not attributed to any stage: what the stage-timed cycles
    /// ran over the untimed mean, i.e. the cost of the sampled clock reads.
    /// `total_wall_ns - Σ stages`, ≥ 0 by construction.
    pub untracked_ns: u64,
    /// Per-stage attribution, in per-cycle execution order.
    pub stages: Vec<StageSample>,
    /// Per-subsystem refinement (nested inside stages but sampled on cycles
    /// of their own; not part of the totality sum).
    pub subsystems: Vec<SubsystemSample>,
}

impl HostProfile {
    /// Σ stage nanoseconds (the tracked portion of the wall).
    pub fn tracked_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.ns).sum()
    }

    /// Host simulation rate in guest cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.total_wall_ns == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e9 / self.total_wall_ns as f64
        }
    }

    /// Host simulation rate in retired guest uops per wall-clock second —
    /// the ROADMAP's 10M uops/s target is stated in this unit.
    pub fn uops_per_sec(&self) -> f64 {
        if self.total_wall_ns == 0 {
            0.0
        } else {
            self.retired as f64 * 1e9 / self.total_wall_ns as f64
        }
    }

    /// Merges another profile into this one by summing every field —
    /// multi-core mixes fold their per-core profiles this way, which is
    /// sound because the round-robin driver interleaves cores on one host
    /// thread, so per-core stage intervals are disjoint in wall time.
    pub fn fold(&mut self, other: &HostProfile) {
        self.cycles += other.cycles;
        self.retired += other.retired;
        self.total_wall_ns += other.total_wall_ns;
        self.untracked_ns += other.untracked_ns;
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            debug_assert_eq!(a.name, b.name);
            a.ns += b.ns;
            a.calls += b.calls;
            a.allocs += b.allocs;
            a.alloc_bytes += b.alloc_bytes;
        }
        for (a, b) in self.subsystems.iter_mut().zip(&other.subsystems) {
            debug_assert_eq!(a.name, b.name);
            a.ns += b.ns;
            a.ops += b.ops;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_unique() {
        let mut seen = Vec::new();
        for s in Stage::ALL {
            assert!(!seen.contains(&s.label()), "duplicate {}", s.label());
            seen.push(s.label());
        }
        for s in Subsystem::ALL {
            assert!(!seen.contains(&s.label()), "duplicate {}", s.label());
            seen.push(s.label());
        }
    }

    /// One stage-timed cycle: every stage closes once, and Retire through
    /// Rename, Fetch and PostCycle take measurable time.
    fn timed_cycle(p: &mut HostProf) {
        let mut t = p.begin_cycle(0);
        for s in Stage::ALL {
            if s != Stage::Flush {
                std::hint::black_box(0u64);
                t = p.end_stage(s, t);
            }
        }
    }

    #[test]
    fn totality_holds_by_construction() {
        let mut p = HostProf::new();
        timed_cycle(&mut p);
        p.end_sub(Subsystem::SchedWake, Some(Instant::now()));
        // A wall shorter than the timed spans must clamp, never underflow.
        let tight = p.clone().into_profile(10, 5, 0);
        assert_eq!(tight.untracked_ns, 0);
        assert!(tight.total_wall_ns >= tight.tracked_ns());
        // A generous wall leaves the remainder as untracked.
        let wide = p.into_profile(10, 5, u64::MAX / 2);
        assert_eq!(wide.total_wall_ns, u64::MAX / 2, "the wall is kept");
        assert_eq!(
            wide.tracked_ns() + wide.untracked_ns,
            wide.total_wall_ns,
            "stages + untracked partition the wall"
        );
    }

    #[test]
    fn only_sampled_cycles_read_the_clock_but_every_cycle_counts() {
        let mut p = HostProf::new();
        for now in 1..=3 * cdf_mem::prof::SAMPLE_PERIOD {
            let t = p.begin_cycle(now);
            assert_eq!(t.at.is_some(), is_timed(TimerKind::Stages, now));
            let t = p.end_stage(Stage::Retire, t);
            p.end_stage(Stage::PostCycle, t);
        }
        assert_eq!(p.timed_cycles, 3);
        assert_eq!(p.stage_calls[Stage::Retire as usize], 183);
        assert_eq!(p.stage_calls[Stage::PostCycle as usize], 183);
    }

    /// Known spans: `k` timed cycles of `timed_ns` each, split 1:3 between
    /// retire and fetch, among `n` cycles whose untimed ones took
    /// `untimed_ns` each.
    fn known(n: u64, k: u64, timed_ns: u64, untimed_ns: u64) -> HostProfile {
        let mut p = HostProf::new();
        p.stage_calls = [n; STAGES];
        p.timed_cycles = k;
        p.stage_ns[Stage::Retire as usize] = k * timed_ns / 4;
        p.stage_ns[Stage::Fetch as usize] = k * timed_ns * 3 / 4;
        p.into_profile(n, n, k * timed_ns + (n - k) * untimed_ns)
    }

    #[test]
    fn equal_cost_cycles_scale_by_n_over_k() {
        let p = known(610, 10, 100, 100);
        assert_eq!(p.stages[Stage::Retire as usize].ns, 250 * 61);
        assert_eq!(p.stages[Stage::Fetch as usize].ns, 750 * 61);
        assert_eq!(p.untracked_ns, 0);
        assert_eq!(p.total_wall_ns, 61_000);
    }

    #[test]
    fn slower_timed_cycles_scale_to_the_untimed_mean() {
        // Timed cycles took 150 ns, untimed 100: each cycle is costed 100,
        // and the 10 × 50 ns the timed reads added land in untracked.
        let p = known(610, 10, 150, 100);
        assert_eq!(p.stages[Stage::Retire as usize].ns, 610 * 25);
        assert_eq!(p.stages[Stage::Fetch as usize].ns, 610 * 75);
        assert_eq!(p.untracked_ns, 10 * 150 - 10 * 100);
        assert_eq!(p.tracked_ns() + p.untracked_ns, p.total_wall_ns);
        // Faster timed cycles are costed at their own mean instead, and
        // the untimed cycles' excess is untracked.
        let p = known(610, 10, 100, 150);
        assert_eq!(p.tracked_ns(), 61_000);
        assert_eq!(p.untracked_ns, 600 * 50);
    }

    #[test]
    fn no_timed_cycle_leaves_the_whole_wall_untracked() {
        let p = known(40, 0, 0, 100);
        assert!(p.stages.iter().all(|s| s.ns == 0));
        assert_eq!(p.untracked_ns, p.total_wall_ns);
        assert_eq!(p.total_wall_ns, 4_000);
    }

    #[test]
    fn fold_sums_fields() {
        let mut a = HostProf::new();
        timed_cycle(&mut a);
        let mut p1 = a.clone().into_profile(100, 50, 1_000_000);
        let p2 = a.into_profile(200, 70, 2_000_000);
        p1.fold(&p2);
        assert_eq!(p1.cycles, 300);
        assert_eq!(p1.retired, 120);
        assert_eq!(p1.total_wall_ns, 3_000_000);
        assert_eq!(p1.stages[4].calls, 2);
    }

    #[test]
    fn mem_report_folds_into_subsystems() {
        let mut p = HostProf::new();
        let timer = |ns, ops, timed| HeapProf { ns, ops, timed };
        p.fold_mem(&MemProfReport {
            mshr: timer(7, 3, 1),
            mlp: timer(5, 2, 2),
            shared_llc: timer(11, 1, 1),
        });
        let prof = p.into_profile(1, 1, 100);
        let get = |n: &str| {
            prof.subsystems
                .iter()
                .find(|s| s.name == n)
                .expect("present")
                .clone()
        };
        assert_eq!(get("mshr_heap").ns, 21);
        assert_eq!(get("mshr_heap").ops, 3);
        assert_eq!(get("mlp_heap").ops, 2);
        assert_eq!(get("shared_llc").ns, 11);
    }
}
