//! The partitioned reorder buffer (and the generic partitioned queue shared
//! with the load/store queues).

use crate::partition::Resize;
use crate::types::Seq;
use std::collections::VecDeque;

/// Anything stored in a partitioned, program-ordered queue.
pub(crate) trait HasSeq {
    fn seq(&self) -> Seq;
}

impl HasSeq for Seq {
    fn seq(&self) -> Seq {
        *self
    }
}

/// A queue split into a critical and a non-critical section, each held in
/// program order, with movable capacity — the ROB/LQ/SQ organization of §3.5.
///
/// "Instructions in each section of the ROB are present in program order, and
/// the oldest instructions in each section are looked up to ensure retirement
/// occurs in-order."
#[derive(Clone, Debug)]
pub(crate) struct PartitionedQueue<T> {
    crit: VecDeque<T>,
    noncrit: VecDeque<T>,
    crit_cap: usize,
    noncrit_cap: usize,
    /// The non-critical partition's capacity may never shrink below this
    /// (guarantees forward progress for the regular stream); the critical
    /// partition may shrink to zero (the baseline has no critical section).
    min_cap: usize,
}

impl<T: HasSeq> PartitionedQueue<T> {
    /// Creates a queue with `total` capacity, `crit_cap` of it critical.
    pub fn new(total: usize, crit_cap: usize, min_cap: usize) -> PartitionedQueue<T> {
        assert!(crit_cap <= total && min_cap <= total - crit_cap);
        PartitionedQueue {
            crit: VecDeque::new(),
            noncrit: VecDeque::new(),
            crit_cap,
            noncrit_cap: total - crit_cap,
            min_cap,
        }
    }

    pub fn total_cap(&self) -> usize {
        self.crit_cap + self.noncrit_cap
    }

    pub fn crit_cap(&self) -> usize {
        self.crit_cap
    }

    pub fn len(&self) -> usize {
        self.crit.len() + self.noncrit.len()
    }

    pub fn section_len(&self, critical: bool) -> usize {
        if critical {
            self.crit.len()
        } else {
            self.noncrit.len()
        }
    }

    pub fn has_space(&self, critical: bool) -> bool {
        if critical {
            self.crit.len() < self.crit_cap
        } else {
            self.noncrit.len() < self.noncrit_cap
        }
    }

    /// Appends to the chosen section.
    ///
    /// # Panics
    ///
    /// Panics if the section is full or the entry is out of program order for
    /// its section (callers gate on [`has_space`](Self::has_space)).
    pub fn push(&mut self, item: T, critical: bool) {
        assert!(self.has_space(critical), "section full");
        let q = if critical {
            &mut self.crit
        } else {
            &mut self.noncrit
        };
        if let Some(back) = q.back() {
            assert!(back.seq() < item.seq(), "out of order push");
        }
        q.push_back(item);
    }

    /// The oldest entry in each section: `(critical head, non-critical head)`.
    pub fn heads(&self) -> (Option<&T>, Option<&T>) {
        (self.crit.front(), self.noncrit.front())
    }

    /// Pops the head of the chosen section.
    pub fn pop_head(&mut self, critical: bool) -> Option<T> {
        if critical {
            self.crit.pop_front()
        } else {
            self.noncrit.pop_front()
        }
    }

    /// Removes every entry with `seq > target` (flush), passing each to
    /// `removed`: the critical section first, each youngest first.
    pub fn flush_after(&mut self, target: Seq, mut removed: impl FnMut(T)) {
        for q in [&mut self.crit, &mut self.noncrit] {
            while q.back().is_some_and(|back| back.seq() > target) {
                removed(q.pop_back().expect("just peeked"));
            }
        }
    }

    /// Iterates over all entries (critical section first; not globally
    /// ordered).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.crit.iter().chain(self.noncrit.iter())
    }

    /// The two sections, `[critical, non-critical]`, each in program order.
    pub fn sections(&self) -> [&VecDeque<T>; 2] {
        [&self.crit, &self.noncrit]
    }

    /// The entry with `seq`, found by binary search in each section.
    pub fn get_mut(&mut self, seq: Seq) -> Option<&mut T> {
        match self.crit.binary_search_by_key(&seq, T::seq) {
            Ok(i) => self.crit.get_mut(i),
            Err(_) => {
                let i = self.noncrit.binary_search_by_key(&seq, T::seq).ok()?;
                self.noncrit.get_mut(i)
            }
        }
    }

    /// Grows the critical section by `step` (shrinking non-critical), bounded
    /// by `min_cap` and current occupancy. Returns the capacity actually
    /// moved. This is the §3.5 pointer-boundary adjustment: a slot only moves
    /// when the donor section has a free slot to give.
    pub fn grow_critical(&mut self, step: usize) -> usize {
        let donatable = self
            .noncrit_cap
            .saturating_sub(self.noncrit.len().max(self.min_cap));
        let moved = step.min(donatable);
        self.noncrit_cap -= moved;
        self.crit_cap += moved;
        moved
    }

    /// Grows the non-critical section by `step` (shrinking critical; the
    /// critical section has no floor and drains to zero outside CDF mode).
    pub fn grow_noncritical(&mut self, step: usize) -> usize {
        let donatable = self.crit_cap.saturating_sub(self.crit.len());
        let moved = step.min(donatable);
        self.crit_cap -= moved;
        self.noncrit_cap += moved;
        moved
    }

    /// Grows the section `r` names by `step`; returns the capacity moved.
    pub fn resize(&mut self, r: Resize, step: usize) -> usize {
        match r {
            Resize::GrowCritical => self.grow_critical(step),
            Resize::GrowNonCritical => self.grow_noncritical(step),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> PartitionedQueue<Seq> {
        PartitionedQueue::new(16, 8, 2)
    }

    #[test]
    fn push_pop_in_order() {
        let mut q = q();
        q.push(Seq(1), true);
        q.push(Seq(2), false);
        q.push(Seq(3), true);
        assert_eq!(q.len(), 3);
        let (c, n) = q.heads();
        assert_eq!(c.copied(), Some(Seq(1)));
        assert_eq!(n.copied(), Some(Seq(2)));
        assert_eq!(q.pop_head(true), Some(Seq(1)));
        assert_eq!(q.pop_head(true), Some(Seq(3)));
        assert_eq!(q.pop_head(true), None);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut q = q();
        q.push(Seq(5), true);
        q.push(Seq(4), true);
    }

    #[test]
    fn capacity_respected() {
        let mut q: PartitionedQueue<Seq> = PartitionedQueue::new(4, 2, 1);
        q.push(Seq(1), true);
        q.push(Seq(2), true);
        assert!(!q.has_space(true));
        assert!(q.has_space(false));
    }

    #[test]
    fn flush_removes_young_entries_from_both_sections() {
        let mut q = q();
        q.push(Seq(1), true);
        q.push(Seq(2), false);
        q.push(Seq(3), true);
        q.push(Seq(4), false);
        let mut seqs = Vec::new();
        q.flush_after(Seq(2), |s| seqs.push(s.0));
        assert_eq!(seqs, vec![3, 4], "critical section first");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn resize_moves_capacity_within_bounds() {
        let mut q: PartitionedQueue<Seq> = PartitionedQueue::new(16, 8, 2);
        assert_eq!(q.grow_critical(4), 4);
        assert_eq!(q.crit_cap(), 12);
        // Non-critical is now at min bound of 2 after another big request.
        assert_eq!(q.grow_critical(10), 2);
        assert_eq!(q.crit_cap(), 14);
        assert_eq!(q.grow_critical(1), 0, "min_cap floor reached");
        // Move back: the critical section has no floor.
        assert_eq!(q.grow_noncritical(20), 14);
        assert_eq!(q.crit_cap(), 0);
    }

    #[test]
    fn resize_respects_occupancy() {
        let mut q: PartitionedQueue<Seq> = PartitionedQueue::new(8, 4, 1);
        for i in 1..=4 {
            q.push(Seq(i), false);
        }
        // Non-critical holds 4 entries; its cap is 4, nothing to donate.
        assert_eq!(q.grow_critical(2), 0);
        q.pop_head(false);
        assert_eq!(q.grow_critical(2), 1, "one free slot to donate");
    }

    #[test]
    fn total_capacity_invariant() {
        let mut q: PartitionedQueue<Seq> = PartitionedQueue::new(32, 16, 4);
        for step in [3, 7, 20, 1] {
            q.grow_critical(step);
            assert_eq!(q.total_cap(), 32);
            q.grow_noncritical(step / 2);
            assert_eq!(q.total_cap(), 32);
        }
    }
}
