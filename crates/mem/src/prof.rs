//! Host-side timers for the memory system's event structures, and the
//! sampling rule every host timer of the simulator follows.
//!
//! The throughput push made MSHR and MLP bookkeeping event-driven (PR 6);
//! these counters measure what those heaps actually cost on the host so
//! the next optimization target is picked from a profile, not intuition.
//! The pattern mirrors the core's profiling sidecar: every timer hangs off
//! an `Option` that is `None` by default, so an unprofiled hierarchy runs
//! one null check per heap operation and nothing else, and enabling the
//! timers never changes simulated state (they only read the clock).
//!
//! # Sampling
//!
//! Reading the monotonic clock costs tens of nanoseconds, about as much as
//! the smaller operations it would time. So no timer reads it every cycle:
//! each [`TimerKind`] reads it only on the simulated cycles [`is_timed`]
//! picks, one in [`SAMPLE_PERIOD`], and counts its operations on every
//! cycle. A report scales the sampled nanoseconds by the exact counts.
//! This module is the single place that decides, for `cdf-core`'s timers
//! as well as these: `cdf-mem` is the lower crate, and every timed call
//! already receives the cycle `now`.

use std::time::Instant;

/// Each timer kind reads the clock on one simulated cycle in this many.
/// A prime, so no power-of-two period in the model (the 1024-cycle
/// telemetry interval, the ROB-mix sample every 16 stall cycles, MDP aging
/// every 65 536 cycles) always or never lands on a timed cycle.
pub const SAMPLE_PERIOD: u64 = 61;

/// Distance between the residues of consecutive timer kinds. Seven kinds ×
/// 8 stay below [`SAMPLE_PERIOD`], so every kind owns its own residue.
const RESIDUE_STEP: u64 = 8;

/// A kind of host timer. Each owns one residue modulo [`SAMPLE_PERIOD`], so
/// no timed interval ever contains another timer's clock reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerKind {
    /// `cdf-core`'s pipeline-stage timers, which tile the whole cycle.
    Stages,
    /// `cdf-core`'s scheduler wakeup timer.
    SchedWake,
    /// `cdf-core`'s scheduler select timer.
    SchedSelect,
    /// `cdf-core`'s memory-port timer.
    MemPort,
    /// MSHR completion-heap operations.
    MshrHeap,
    /// MLP outstanding-miss heap operations.
    MlpHeap,
    /// Shared-LLC accesses of a multi-core memory system.
    SharedLlc,
}

/// Whether timers of `kind` read the clock on simulated cycle `now`: kind
/// `j` (in declaration order) runs where `now % SAMPLE_PERIOD == 8·j`.
#[inline]
pub fn is_timed(kind: TimerKind, now: u64) -> bool {
    now % SAMPLE_PERIOD == RESIDUE_STEP * kind as u64
}

/// Operation count plus sampled nanoseconds for one timed boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HeapProf {
    /// Wall-clock nanoseconds inside the boundary, summed over the timed
    /// operations only.
    pub ns: u64,
    /// Operations, every one counted whether or not its cycle was timed.
    pub ops: u64,
    /// Operations whose nanoseconds are in [`ns`](Self::ns).
    pub timed: u64,
}

impl HeapProf {
    /// Starts a timer when profiling is enabled (`enabled` is the
    /// containing `Option`'s `is_some()`) and `now` is one of `kind`'s
    /// timed cycles; `None` otherwise.
    #[inline]
    pub fn start(enabled: bool, kind: TimerKind, now: u64) -> Option<Instant> {
        (enabled && is_timed(kind, now)).then(Instant::now)
    }

    /// Counts one operation, closing the timer [`start`](Self::start)
    /// opened for it if its cycle was timed.
    #[inline]
    pub fn finish(&mut self, t0: Option<Instant>) {
        self.ops += 1;
        if let Some(t0) = t0 {
            self.ns += t0.elapsed().as_nanos() as u64;
            self.timed += 1;
        }
    }

    /// Adds another timer's counts to this one.
    pub fn merge(&mut self, other: &HeapProf) {
        self.ns += other.ns;
        self.ops += other.ops;
        self.timed += other.timed;
    }

    /// Estimated nanoseconds over all [`ops`](Self::ops): the timed
    /// nanoseconds scaled by `ops / timed` (0 when nothing was timed).
    pub fn estimated_ns(&self) -> u64 {
        if self.timed == 0 {
            0
        } else {
            (u128::from(self.ns) * u128::from(self.ops) / u128::from(self.timed)) as u64
        }
    }
}

/// What the memory system spent on the host, drained once per run by the
/// core's `take_profile` (private hierarchies) or the mix driver (shared
/// systems) and folded into the `shared_llc`/`mshr_heap`/`mlp_heap`
/// subsystem rows of the host profile.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemProfReport {
    /// MSHR completion-heap operations (admission checks + allocations),
    /// both MSHR files together.
    pub mshr: HeapProf,
    /// MLP outstanding-heap operations (notes + samples).
    pub mlp: HeapProf,
    /// Shared-LLC accesses (multi-core systems only).
    pub shared_llc: HeapProf,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_kind_owns_one_residue() {
        const KINDS: [TimerKind; 7] = [
            TimerKind::Stages,
            TimerKind::SchedWake,
            TimerKind::SchedSelect,
            TimerKind::MemPort,
            TimerKind::MshrHeap,
            TimerKind::MlpHeap,
            TimerKind::SharedLlc,
        ];
        for now in 0..3 * SAMPLE_PERIOD {
            let timed = KINDS.iter().filter(|&&k| is_timed(k, now)).count();
            assert!(timed <= 1, "cycle {now} is timed by {timed} kinds");
        }
        for k in KINDS {
            let hits = (0..10 * SAMPLE_PERIOD).filter(|&n| is_timed(k, n)).count();
            assert_eq!(hits, 10, "{k:?} times one cycle in {SAMPLE_PERIOD}");
        }
    }

    #[test]
    fn finish_counts_every_op_and_times_only_sampled_ones() {
        let mut p = HeapProf::default();
        p.finish(None);
        p.finish(HeapProf::start(true, TimerKind::MshrHeap, 32));
        p.finish(HeapProf::start(true, TimerKind::MshrHeap, 33));
        p.finish(HeapProf::start(false, TimerKind::MshrHeap, 32));
        assert_eq!((p.ops, p.timed), (4, 1));
        let q = HeapProf {
            ns: 30,
            ops: 12,
            timed: 2,
        };
        assert_eq!(q.estimated_ns(), 180);
        assert_eq!(HeapProf::default().estimated_ns(), 0);
    }
}
