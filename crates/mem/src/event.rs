//! Event-wheel bookkeeping for the event-driven memory model.
//!
//! The reference hierarchy tracks outstanding misses with lazily-filtered
//! `HashMap`s and `Vec`s: every query rescans the container and compares
//! each completion cycle against `now`. That is O(capacity) per access and
//! per cycle. The structures here key the same state on completion cycles
//! in a min-heap instead, so expiry pops exactly the entries whose time has
//! come and every query is O(1) (map lookup / heap peek) amortized.
//!
//! Both implementations are kept compiled and runtime-selectable via
//! [`MemModelKind`](crate::MemModelKind): the memory system holds every
//! MSHR file as an [`MshrFile`] and every MLP tracker as an [`MlpTracker`],
//! which dispatch to one or the other. The `cdf-sim equiv --mem`
//! harness proves them bit-identical. The equivalence argument is small:
//! queries on the lazy structures filter by `done > now`, and the event
//! structures maintain the invariant that after `advance(now)` exactly the
//! entries with `done > now` remain — identical visible state as long as
//! `now` never moves backwards, which the core guarantees (all call sites
//! pass its monotonic cycle counter) and a debug watermark asserts.

use crate::mshr::{Mshr, MshrOutcome};
use crate::prof::{HeapProf, TimerKind};
use crate::MemModelKind;
use cdf_isa::WordMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Event-driven Miss Status Holding Registers: the same visible semantics
/// as [`Mshr`](crate::Mshr) (lazy reference implementation), but entries
/// retire on a completion-cycle min-heap instead of being rescanned.
///
/// Requires monotonically non-decreasing `now` across calls; the lazy
/// implementation tolerates time moving backwards, this one asserts it
/// away (debug builds) because popped entries cannot be resurrected.
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
    /// cycle itself counts as done, matching the reference `done > now`
    /// filter). `entries` and `expiry` stay in bijection: lines are
    /// inserted into both together and only removed here, and a line
    /// cannot be re-allocated while still present in `entries`.
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

    /// Attempts to track a miss of `line` completing at `completes_at`.
    /// Same contract as [`Mshr::try_alloc`](crate::Mshr::try_alloc).
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

    /// The soonest cycle at which an outstanding entry completes — a heap
    /// peek instead of the reference implementation's full-map minimum.
    pub fn earliest_release(&mut self, now: u64) -> Option<u64> {
        self.advance(now);
        self.expiry.peek().map(|&Reverse((done, _))| done)
    }
}

/// Outstanding-demand-miss tracker for MLP measurement (Fig. 14): a
/// completion-cycle min-heap, popped on advance, counted in O(1) — versus
/// the reference `Vec` that is `retain`ed on every insert and filtered on
/// every per-cycle sample.
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

/// An MSHR file, dispatching to the lazy or event-driven implementation.
/// All methods take `&mut self` because the event model advances its
/// expiry heap on every query. Every operation is counted by an optional
/// host timer ([`HeapProf`]), which times it on sampled cycles, so profiled
/// runs can attribute wall time to MSHR bookkeeping; an unprofiled file
/// pays one null check per call.
#[derive(Clone, Debug)]
pub(crate) struct MshrFile {
    imp: MshrImpl,
    pub(crate) prof: Option<Box<HeapProf>>,
}

#[derive(Clone, Debug)]
enum MshrImpl {
    Lazy(Mshr),
    Event(EventMshr),
}

impl MshrFile {
    pub(crate) fn new(capacity: usize, model: MemModelKind) -> MshrFile {
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

    pub(crate) fn try_alloc(&mut self, line: u64, now: u64, completes_at: u64) -> MshrOutcome {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = match &mut self.imp {
            MshrImpl::Lazy(m) => m.try_alloc(line, now, completes_at),
            MshrImpl::Event(m) => m.try_alloc(line, now, completes_at),
        };
        self.finish(t0);
        r
    }

    pub(crate) fn outstanding(&mut self, line: u64, now: u64) -> Option<u64> {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = match &mut self.imp {
            MshrImpl::Lazy(m) => m.outstanding(line, now),
            MshrImpl::Event(m) => m.outstanding(line, now),
        };
        self.finish(t0);
        r
    }

    pub(crate) fn len(&mut self, now: u64) -> usize {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MshrHeap, now);
        let r = match &mut self.imp {
            MshrImpl::Lazy(m) => m.len(now),
            MshrImpl::Event(m) => m.len(now),
        };
        self.finish(t0);
        r
    }

    pub(crate) fn capacity(&self) -> usize {
        match &self.imp {
            MshrImpl::Lazy(m) => m.capacity(),
            MshrImpl::Event(m) => m.capacity(),
        }
    }

    pub(crate) fn earliest_release(&mut self, now: u64) -> Option<u64> {
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
pub(crate) struct MlpTracker {
    imp: MlpImpl,
    pub(crate) prof: Option<Box<HeapProf>>,
}

#[derive(Clone, Debug)]
enum MlpImpl {
    /// Reference: `retain` on insert, filter-count on sample.
    Lazy(Vec<u64>),
    /// Event-driven: min-heap popped as completions pass.
    Event(EventOutstanding),
}

impl MlpTracker {
    pub(crate) fn new(model: MemModelKind) -> MlpTracker {
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

    pub(crate) fn note(&mut self, done: u64, now: u64) {
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

    pub(crate) fn outstanding(&mut self, now: u64) -> usize {
        let t0 = HeapProf::start(self.prof.is_some(), TimerKind::MlpHeap, now);
        let r = match &mut self.imp {
            MlpImpl::Lazy(v) => v.iter().filter(|&&d| d > now).count(),
            MlpImpl::Event(h) => h.outstanding(now),
        };
        self.finish(t0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The two MSHR files against each other, counted instead of timed, on
    /// a stream of independent hashed misses into 128-entry files: up to
    /// two a cycle, each outstanding 200–263 cycles, so the files sit full
    /// and a rejected miss waits for the retry hint. Each miss makes the
    /// calls an L1D miss makes (merge lookup, occupancy check, then the
    /// retry hint or the allocation) on both files in lockstep. The lazy
    /// file walks its whole map in every `retain` (`try_alloc`) and filter
    /// (`len`, `earliest_release`); the event file pops expired entries and
    /// peeks once per call.
    #[test]
    fn lazy_file_walks_more_entries_than_the_event_file_pops() {
        const CAPACITY: usize = 128;
        let mut lazy = Mshr::new(CAPACITY);
        let mut event = EventMshr::new(CAPACITY);
        // Entries in the lazy map: only `try_alloc` changes it, leaving
        // exactly the entries outstanding at its `now`.
        let mut lazy_entries = 0u64;
        let (mut walked, mut heap_ops) = (0u64, 0u64);
        let (mut miss, mut retry_at) = (0u64, 0u64);
        for now in 0..20_000u64 {
            for _port in 0..2 {
                if now < retry_at {
                    break;
                }
                let line = (miss.wrapping_mul(0x9E37_79B9) & ((1 << 22) - 1)) & !63;
                let done = now + 200 + (line >> 6) % 64;
                // The first call at `now` pops what expired; later calls at
                // the same `now` only peek.
                let queued = event.expiry.len();
                let merge = lazy.outstanding(line, now);
                assert_eq!(event.outstanding(line, now), merge);
                heap_ops += 1 + (queued - event.expiry.len()) as u64;
                let occupied = lazy.len(now);
                assert_eq!(event.len(now), occupied);
                walked += lazy_entries;
                heap_ops += 1;
                if merge.is_none() && occupied >= CAPACITY {
                    retry_at = lazy.earliest_release(now).expect("a full file");
                    assert_eq!(event.earliest_release(now), Some(retry_at));
                    walked += lazy_entries;
                    heap_ops += 1;
                    break;
                }
                let outcome = lazy.try_alloc(line, now, done);
                assert_eq!(event.try_alloc(line, now, done), outcome);
                walked += lazy_entries;
                heap_ops += 1;
                lazy_entries = lazy.len(now) as u64;
                miss += 1;
            }
        }
        assert!(
            10 * walked >= 12 * heap_ops,
            "lazy walks {walked} entries, event pops and peeks {heap_ops} over {miss} misses"
        );
    }
}
