//! Frontend plumbing: fetched-uop records, the decode pipeline, and the
//! critical instruction buffer.

use crate::types::{Seq, Stream};
use cdf_bpred::Prediction;
use cdf_isa::{Pc, StaticUop};
use std::collections::VecDeque;

/// A uop between fetch and rename.
#[derive(Clone, Debug)]
#[allow(dead_code)] // `stream` documents provenance; kept for debugging dumps
pub(crate) struct FetchedUop {
    pub seq: Seq,
    pub pc: Pc,
    pub uop: StaticUop,
    pub stream: Stream,
    /// Predictor state for conditional branches (attached to whichever copy
    /// will actually execute).
    pub pred: Option<Prediction>,
    pub pred_taken: bool,
    /// Fetched while CDF mode was active (recovery semantics, §3.6).
    pub fetched_in_cdf: bool,
    /// Regular-stream copy of a uop the critical stream also fetched; it is
    /// discarded at rename after its CMQ replay (§3.3 "The critical uops are
    /// discarded at the Rename stage").
    pub critical_dup: bool,
    /// Chain-provenance id of the CUC trace this uop was fetched from
    /// (0 for regular-stream uops and uops with no trace provenance).
    pub chain: u64,
}

/// A fixed-latency decode pipe: uops become visible to rename
/// `latency` cycles after fetch. Critical uops from the Critical Uop Cache
/// are already decoded and use a 1-cycle pipe instead (§3.3).
#[derive(Clone, Debug)]
pub(crate) struct DecodePipe {
    latency: u64,
    entries: VecDeque<(u64, FetchedUop)>,
    capacity: usize,
}

impl DecodePipe {
    pub fn new(latency: u64, capacity: usize) -> DecodePipe {
        DecodePipe {
            latency,
            entries: VecDeque::new(),
            capacity,
        }
    }

    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    #[cfg(test)]
    pub fn space(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Inserts a uop fetched at `now`.
    pub fn push(&mut self, now: u64, uop: FetchedUop) {
        debug_assert!(self.has_space());
        self.entries.push_back((now + self.latency, uop));
    }

    /// The head uop if it has finished decoding by `now`.
    pub fn front_ready(&self, now: u64) -> Option<&FetchedUop> {
        self.entries
            .front()
            .filter(|(ready, _)| *ready <= now)
            .map(|(_, u)| u)
    }

    /// Removes and returns the head uop (call after [`front_ready`]).
    pub fn pop(&mut self) -> Option<FetchedUop> {
        self.entries.pop_front().map(|(_, u)| u)
    }

    /// Drops all uops younger than `target` (flush), showing each to
    /// `removed` first. The caller uses the removed branches' predictor
    /// checkpoints for history repair.
    pub fn flush_after(&mut self, target: Seq, mut removed: impl FnMut(&FetchedUop)) {
        self.entries.retain(|(_, u)| {
            let keep = u.seq <= target;
            if !keep {
                removed(u);
            }
            keep
        });
    }

    /// Drops everything.
    #[cfg(test)]
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uop(seq: u64) -> FetchedUop {
        FetchedUop {
            seq: Seq(seq),
            pc: Pc::new(0),
            uop: StaticUop::nop(),
            stream: Stream::Regular,
            pred: None,
            pred_taken: false,
            fetched_in_cdf: false,
            critical_dup: false,
            chain: 0,
        }
    }

    #[test]
    fn latency_gates_visibility() {
        let mut p = DecodePipe::new(3, 8);
        p.push(10, uop(1));
        assert!(p.front_ready(12).is_none());
        assert!(p.front_ready(13).is_some());
        assert_eq!(p.pop().unwrap().seq, Seq(1));
        assert!(p.pop().is_none());
    }

    #[test]
    fn capacity_limits() {
        let mut p = DecodePipe::new(1, 2);
        p.push(0, uop(1));
        assert_eq!(p.space(), 1);
        p.push(0, uop(2));
        assert!(!p.has_space());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut p = DecodePipe::new(0, 8);
        for i in 1..=4 {
            p.push(0, uop(i));
        }
        for i in 1..=4 {
            assert_eq!(p.front_ready(0).unwrap().seq, Seq(i));
            p.pop();
        }
    }

    #[test]
    fn flush_drops_young() {
        let mut p = DecodePipe::new(0, 8);
        for i in 1..=4 {
            p.push(0, uop(i));
        }
        let mut removed = Vec::new();
        p.flush_after(Seq(2), |u| removed.push(u.seq));
        assert_eq!(removed, vec![Seq(3), Seq(4)]);
        assert_eq!(p.len(), 2);
        p.clear();
        assert_eq!(p.len(), 0);
    }
}
