//! Miss Status Holding Registers.

use cdf_isa::WordMap;

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
/// address.
///
/// Entries are lazily expired: any operation first drops entries whose
/// completion cycle has passed relative to the supplied `now`.
///
/// ```
/// use cdf_mem::{Mshr, MshrOutcome};
/// let mut m = Mshr::new(2);
/// assert_eq!(m.try_alloc(0x40, 0, 100), MshrOutcome::Allocated);
/// assert_eq!(m.try_alloc(0x40, 5, 999), MshrOutcome::Merged(100));
/// assert_eq!(m.try_alloc(0x80, 5, 200), MshrOutcome::Allocated);
/// assert_eq!(m.try_alloc(0xC0, 5, 300), MshrOutcome::Full);
/// assert_eq!(m.try_alloc(0xC0, 150, 300), MshrOutcome::Allocated); // 0x40 expired
/// ```
#[derive(Clone, Debug)]
pub struct Mshr {
    capacity: usize,
    /// line address → completion cycle.
    entries: WordMap<u64>,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Mshr {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        Mshr {
            capacity,
            // Twice the entries it can hold: the table then always
            // rehashes its tombstones in place instead of growing, so a
            // full file never allocates.
            entries: WordMap::with_capacity_and_hasher(2 * capacity, Default::default()),
        }
    }

    fn expire(&mut self, now: u64) {
        self.entries.retain(|_, &mut done| done > now);
    }

    /// Attempts to track a miss of `line` that will complete at
    /// `completes_at`. See [`MshrOutcome`].
    pub fn try_alloc(&mut self, line: u64, now: u64, completes_at: u64) -> MshrOutcome {
        self.expire(now);
        if let Some(&done) = self.entries.get(&line) {
            return MshrOutcome::Merged(done);
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(line, completes_at);
        MshrOutcome::Allocated
    }

    /// The completion cycle of an outstanding miss of `line`, if any.
    pub fn outstanding(&self, line: u64, now: u64) -> Option<u64> {
        self.entries.get(&line).copied().filter(|&done| done > now)
    }

    /// Number of outstanding (unexpired) misses at `now`.
    pub fn len(&self, now: u64) -> usize {
        self.entries.values().filter(|&&done| done > now).count()
    }

    /// Whether no misses are outstanding at `now`.
    pub fn is_empty(&self, now: u64) -> bool {
        self.len(now) == 0
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The soonest cycle at which an outstanding entry completes and frees
    /// its register — the retry hint carried by MSHR-full backpressure.
    pub fn earliest_release(&self, now: u64) -> Option<u64> {
        self.entries
            .values()
            .copied()
            .filter(|&done| done > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_returns_original_completion() {
        let mut m = Mshr::new(4);
        m.try_alloc(0x40, 0, 50);
        assert_eq!(m.try_alloc(0x40, 10, 999), MshrOutcome::Merged(50));
    }

    #[test]
    fn full_then_expire() {
        let mut m = Mshr::new(1);
        assert_eq!(m.try_alloc(0x0, 0, 10), MshrOutcome::Allocated);
        assert_eq!(m.try_alloc(0x40, 5, 20), MshrOutcome::Full);
        assert_eq!(m.try_alloc(0x40, 10, 20), MshrOutcome::Allocated);
    }

    #[test]
    fn outstanding_and_len() {
        let mut m = Mshr::new(4);
        m.try_alloc(0x0, 0, 10);
        m.try_alloc(0x40, 0, 20);
        assert_eq!(m.outstanding(0x0, 5), Some(10));
        assert_eq!(
            m.outstanding(0x0, 10),
            None,
            "completion cycle itself counts as done"
        );
        assert_eq!(m.len(5), 2);
        assert_eq!(m.len(15), 1);
        assert!(m.is_empty(25));
        assert_eq!(m.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        Mshr::new(0);
    }

    #[test]
    fn earliest_release_tracks_minimum() {
        let mut m = Mshr::new(4);
        assert_eq!(m.earliest_release(0), None);
        m.try_alloc(0x0, 0, 30);
        m.try_alloc(0x40, 0, 10);
        assert_eq!(m.earliest_release(0), Some(10));
        assert_eq!(m.earliest_release(10), Some(30), "expired entries ignored");
        assert_eq!(m.earliest_release(30), None);
    }
}
