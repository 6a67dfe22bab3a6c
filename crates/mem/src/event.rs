//! Event-wheel bookkeeping of outstanding misses.
//!
//! Every MSHR file and every MLP tracker keys its entries on completion
//! cycles in a min-heap, so expiry pops exactly the entries whose time has
//! come and every query is O(1) (map lookup / heap peek) amortized. The
//! invariant behind every query: after `advance(now)` exactly the entries
//! with `done > now` remain (the completion cycle itself counts as done).
//! That holds as long as `now` never moves backwards, which the core
//! guarantees (all call sites pass its monotonic cycle counter) and a debug
//! watermark asserts.
//!
//! The memory system holds each MSHR file as an [`MshrFile`] and each MLP
//! tracker as an [`MlpTracker`]: the structure plus an optional host timer.

use crate::prof::{HeapProf, TimerKind};
use cdf_isa::WordMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of trying to allocate an MSHR for a line miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrOutcome {
    /// The line already has an outstanding miss; the new request merges and
    /// completes at the recorded cycle.
    Merged(u64),
    /// A new entry was allocated.
    Allocated,
    /// All entries are in use — the requester must retry later. This is the
    /// mechanism that bounds memory-level parallelism.
    Full,
}

/// A fixed-capacity set of Miss Status Holding Registers keyed by line
/// address, whose entries retire on a completion-cycle min-heap.
///
/// Requires monotonically non-decreasing `now` across calls (asserted in
/// debug builds): popped entries cannot be resurrected.
#[derive(Clone, Debug)]
pub struct EventMshr {
    capacity: usize,
    /// line address → completion cycle, entries with `done > watermark`.
    entries: WordMap<u64>,
    /// Min-heap of `(completion cycle, line address)` mirroring `entries`.
    expiry: BinaryHeap<Reverse<(u64, u64)>>,
    /// Largest `now` seen; advance-only time assertion.
    watermark: u64,
}

impl EventMshr {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> EventMshr {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        EventMshr {
            capacity,
            // Twice the entries it can hold: the table then always
            // rehashes its tombstones in place instead of growing, so a
            // full file never allocates.
            entries: WordMap::with_capacity_and_hasher(2 * capacity, Default::default()),
            expiry: BinaryHeap::with_capacity(capacity),
            watermark: 0,
        }
    }

    /// Pops every entry whose completion cycle has passed (the completion
    /// cycle itself counts as done). `entries` and `expiry` stay in
    /// bijection: lines are inserted into both together and only removed
    /// here, and a line cannot be re-allocated while still present in
    /// `entries`.
    fn advance(&mut self, now: u64) {
        debug_assert!(
            now >= self.watermark,
            "EventMshr time moved backwards: {now} < {}",
            self.watermark
        );
        self.watermark = now;
        while let Some(&Reverse((done, line))) = self.expiry.peek() {
            if done > now {
                break;
            }
            self.expiry.pop();
            let removed = self.entries.remove(&line);
            debug_assert_eq!(removed, Some(done), "heap/map bijection");
        }
    }

    /// Attempts to track a miss of `line` that will complete at
    /// `completes_at`. See [`MshrOutcome`].
    pub fn try_alloc(&mut self, line: u64, now: u64, completes_at: u64) -> MshrOutcome {
        self.advance(now);
        if let Some(&done) = self.entries.get(&line) {
            return MshrOutcome::Merged(done);
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(line, completes_at);
        self.expiry.push(Reverse((completes_at, line)));
        MshrOutcome::Allocated
    }

    /// The completion cycle of an outstanding miss of `line`, if any.
    pub fn outstanding(&mut self, line: u64, now: u64) -> Option<u64> {
        self.advance(now);
        self.entries.get(&line).copied()
    }

    /// Number of outstanding misses at `now` — O(1) after the advance.
    pub fn len(&mut self, now: u64) -> usize {
        self.advance(now);
        self.entries.len()
    }

    /// Whether no misses are outstanding at `now`.
    pub fn is_empty(&mut self, now: u64) -> bool {
        self.len(now) == 0
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The soonest cycle at which an outstanding entry completes and frees
    /// its register — the retry hint carried by MSHR-full backpressure; a
    /// heap peek.
    pub fn earliest_release(&mut self, now: u64) -> Option<u64> {
        self.advance(now);
        self.expiry.peek().map(|&Reverse((done, _))| done)
    }
}

/// Outstanding-demand-miss tracker for MLP measurement (Fig. 14): a
/// completion-cycle min-heap, popped on advance, counted in O(1).
#[derive(Clone, Debug, Default)]
pub struct EventOutstanding {
    heap: BinaryHeap<Reverse<u64>>,
}

impl EventOutstanding {
    /// Records a demand miss completing at `done` (`done` must lie in the
    /// future — DRAM completions always do).
    pub fn note(&mut self, done: u64) {
        self.heap.push(Reverse(done));
    }

    /// Number of demand misses still outstanding at `now`.
    pub fn outstanding(&mut self, now: u64) -> usize {
        while let Some(&Reverse(done)) = self.heap.peek() {
            if done > now {
                break;
            }
            self.heap.pop();
        }
        self.heap.len()
    }
}

/// An [`EventMshr`] whose every operation is counted by an optional host
/// timer ([`HeapProf`]), which times it on sampled cycles, so profiled
/// runs can attribute wall time to MSHR bookkeeping; an unprofiled file
/// pays one null check per call.
#[derive(Clone, Debug)]
pub(crate) struct MshrFile {
    mshr: EventMshr,
    pub(crate) prof: Option<Box<HeapProf>>,
}

impl MshrFile {
    pub(crate) fn new(capacity: usize) -> MshrFile {
        MshrFile {
            mshr: EventMshr::new(capacity),
            prof: None,
        }
    }

    #[inline]
    fn finish(&mut self, t0: Option<std::time::Instant>) {
        if let Some(p) = self.prof.as_mut() {
            p.finish(t0);
        }
    }

    pub(crate) fn try_alloc(&mut self, line: u64, now: u64, completes_at: u64) -> MshrOutcome {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = self.mshr.try_alloc(line, now, completes_at);
        self.finish(t0);
        r
    }

    pub(crate) fn outstanding(&mut self, line: u64, now: u64) -> Option<u64> {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = self.mshr.outstanding(line, now);
        self.finish(t0);
        r
    }

    pub(crate) fn len(&mut self, now: u64) -> usize {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = self.mshr.len(now);
        self.finish(t0);
        r
    }

    pub(crate) fn capacity(&self) -> usize {
        self.mshr.capacity()
    }

    pub(crate) fn earliest_release(&mut self, now: u64) -> Option<u64> {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = self.mshr.earliest_release(now);
        self.finish(t0);
        r
    }
}

/// Completion cycles of outstanding *demand* LLC misses, for MLP
/// measurement (merged and prefetch requests are not double counted).
/// Operations carry the same optional host timer as [`MshrFile`].
#[derive(Clone, Debug, Default)]
pub(crate) struct MlpTracker {
    misses: EventOutstanding,
    pub(crate) prof: Option<Box<HeapProf>>,
}

impl MlpTracker {
    #[inline]
    fn finish(&mut self, t0: Option<std::time::Instant>) {
        if let Some(p) = self.prof.as_mut() {
            p.finish(t0);
        }
    }

    pub(crate) fn note(&mut self, done: u64, now: u64) {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MlpHeap, now);
        self.misses.note(done);
        self.finish(t0);
    }

    pub(crate) fn outstanding(&mut self, now: u64) -> usize {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MlpHeap, now);
        let r = self.misses.outstanding(now);
        self.finish(t0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merge, full, and a slot freed by expiry.
    #[test]
    fn matches_reference_doctest_sequence() {
        let mut m = EventMshr::new(2);
        assert_eq!(m.try_alloc(0x40, 0, 100), MshrOutcome::Allocated);
        assert_eq!(m.try_alloc(0x40, 5, 999), MshrOutcome::Merged(100));
        assert_eq!(m.try_alloc(0x80, 5, 200), MshrOutcome::Allocated);
        assert_eq!(m.try_alloc(0xC0, 5, 300), MshrOutcome::Full);
        assert_eq!(m.try_alloc(0xC0, 150, 300), MshrOutcome::Allocated); // 0x40 expired
    }

    #[test]
    fn completion_cycle_counts_as_done() {
        let mut m = EventMshr::new(4);
        m.try_alloc(0x0, 0, 10);
        assert_eq!(m.outstanding(0x0, 9), Some(10));
        assert_eq!(m.outstanding(0x0, 10), None);
        assert!(m.is_empty(10));
    }

    #[test]
    fn outstanding_and_len() {
        let mut m = EventMshr::new(4);
        m.try_alloc(0x0, 0, 10);
        m.try_alloc(0x40, 0, 20);
        assert_eq!(m.outstanding(0x0, 5), Some(10));
        assert_eq!(m.len(5), 2);
        assert!(!m.is_empty(5));
        assert_eq!(m.len(15), 1);
        assert!(m.is_empty(25));
        assert_eq!(m.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        EventMshr::new(0);
    }

    #[test]
    fn earliest_release_is_heap_top() {
        let mut m = EventMshr::new(4);
        assert_eq!(m.earliest_release(0), None);
        m.try_alloc(0x0, 0, 30);
        m.try_alloc(0x40, 0, 10);
        assert_eq!(m.earliest_release(0), Some(10));
        assert_eq!(m.earliest_release(10), Some(30));
        assert_eq!(m.earliest_release(30), None);
    }

    #[test]
    fn outstanding_set_counts_and_drains() {
        let mut s = EventOutstanding::default();
        s.note(10);
        s.note(20);
        s.note(20);
        assert_eq!(s.outstanding(5), 3);
        assert_eq!(s.outstanding(10), 2);
        assert_eq!(s.outstanding(19), 2);
        assert_eq!(s.outstanding(20), 0);
    }
}
