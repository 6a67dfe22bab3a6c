//! A generic set-associative cache with true-LRU replacement.

use crate::{line_addr, LINE_BYTES};

/// Geometry of a [`Cache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by capacity, ways, and the 64B line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not produce a power-of-two set count.
    pub fn sets(&self) -> usize {
        let sets = self.capacity_bytes / (self.ways as u64 * LINE_BYTES);
        assert!(
            sets.is_power_of_two() && sets > 0,
            "cache geometry must give a power-of-two number of sets, got {sets}"
        );
        sets as usize
    }
}

#[derive(Clone, Copy, Default, Debug)]
struct Line {
    tag: u64,
    /// The core whose fill allocated the line (LLC occupancy share). Sits
    /// in what would otherwise be padding: a line stays 16 bytes.
    owner: u32,
    dirty: bool,
    /// Set by prefetch fills; cleared (and counted) on first demand hit —
    /// the accuracy signal for Feedback Directed Prefetching.
    prefetched: bool,
    valid: bool,
}

/// What a fill evicted, if anything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// Line address of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
}

/// Result of a demand access (crate-internal; the public API is
/// [`crate::MemoryHierarchy`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct AccessInfo {
    pub hit: bool,
    /// The hit line had been brought in by the prefetcher and this is its
    /// first demand use.
    pub first_use_of_prefetch: bool,
}

/// A set-associative, write-back, write-allocate cache model.
///
/// Only tags and metadata are modeled — data values live in the functional
/// memory image. Replacement is true LRU, maintained by position within the
/// set (index 0 = MRU).
///
/// ```
/// use cdf_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { capacity_bytes: 4096, ways: 4 });
/// assert!(!c.probe(0x1000));
/// c.fill(0x1000, false);
/// assert!(c.probe(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache {
            sets: vec![vec![Line::default(); cfg.ways]; sets],
            set_mask: sets as u64 - 1,
            cfg,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_of(&self, addr: u64) -> usize {
        ((line_addr(addr) / LINE_BYTES) & self.set_mask) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        line_addr(addr) / LINE_BYTES / (self.set_mask + 1)
    }

    /// Tag check without any state change (no LRU update, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        self.sets[self.set_of(addr)]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Demand access: updates LRU and hit/miss statistics; marks the line
    /// dirty on a write hit. Does **not** allocate on a miss — the caller
    /// fills after the miss is serviced (see [`fill`](Cache::fill)).
    pub(crate) fn access(&mut self, addr: u64, is_write: bool) -> AccessInfo {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|l| l.valid && l.tag == tag) {
            let mut line = ways.remove(pos);
            let first_use = line.prefetched;
            line.prefetched = false;
            line.dirty |= is_write;
            ways.insert(0, line);
            self.hits += 1;
            AccessInfo {
                hit: true,
                first_use_of_prefetch: first_use,
            }
        } else {
            self.misses += 1;
            AccessInfo {
                hit: false,
                first_use_of_prefetch: false,
            }
        }
    }

    /// Fills the line containing `addr` as MRU, returning the eviction if a
    /// valid line was displaced. `prefetched` tags prefetch fills for FDP
    /// accounting; `owner` records which core the allocation is for. A
    /// resident line keeps its owner and prefetch tag.
    pub fn fill_tagged(
        &mut self,
        addr: u64,
        dirty: bool,
        prefetched: bool,
        owner: u32,
    ) -> Option<Eviction> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let shift = self.set_mask + 1;
        let ways = &mut self.sets[set];
        // Refill of a resident line just refreshes metadata.
        if let Some(pos) = ways.iter().position(|l| l.valid && l.tag == tag) {
            let mut line = ways.remove(pos);
            line.dirty |= dirty;
            ways.insert(0, line);
            return None;
        }
        let victim = ways.pop().expect("ways > 0");
        let evicted = victim.valid.then(|| Eviction {
            line_addr: (victim.tag * shift + set as u64) * LINE_BYTES,
            dirty: victim.dirty,
        });
        ways.insert(
            0,
            Line {
                tag,
                owner,
                dirty,
                prefetched,
                valid: true,
            },
        );
        evicted
    }

    /// Fills the line containing `addr` as a demand fill for owner 0.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.fill_tagged(addr, dirty, false, 0)
    }

    /// Invalidates the line containing `addr`. Returns `Some(dirty)` if the
    /// line was present (so an inclusive outer level can write back dirty
    /// inner copies), `None` if absent.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|l| l.valid && l.tag == tag) {
            ways[pos].valid = false;
            Some(ways[pos].dirty)
        } else {
            None
        }
    }

    /// `(hits, misses)` of demand accesses since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid lines allocated by a fill for `owner`.
    pub fn occupancy(&self, owner: u32) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|l| l.valid && l.owner == owner)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B = 256B.
        Cache::new(CacheConfig {
            capacity_bytes: 256,
            ways: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = Cache::new(CacheConfig {
            capacity_bytes: 32 * 1024,
            ways: 8,
        });
        assert_eq!(c.config().sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_panics() {
        let _ = CacheConfig {
            capacity_bytes: 3 * 1024,
            ways: 8,
        }
        .sets();
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false).hit);
        assert_eq!(c.fill(0x1000, false), None);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x103F, false).hit, "same 64B line");
        assert!(!c.access(0x1040, false).hit, "next line");
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 lines: line_addr multiples of 128 (2 sets).
        c.fill(0x0, false);
        c.fill(0x80, false);
        c.access(0x0, false); // promote 0x0
        let ev = c.fill(0x100, false).unwrap();
        assert_eq!(ev.line_addr, 0x80);
        assert!(!ev.dirty);
        assert!(c.probe(0x0));
        assert!(!c.probe(0x80));
    }

    #[test]
    fn dirty_writeback_on_eviction() {
        let mut c = tiny();
        c.fill(0x0, false);
        c.access(0x0, true); // write hit sets dirty
        c.fill(0x80, false);
        let ev = c.fill(0x100, false).unwrap();
        assert_eq!(ev.line_addr, 0x0);
        assert!(ev.dirty);
    }

    #[test]
    fn victim_address_reconstruction() {
        let mut c = tiny();
        // Fill three lines in set 1 (odd line index).
        c.fill(0x40, true);
        c.fill(0xC0, false);
        let ev = c.fill(0x140, false).unwrap();
        assert_eq!(ev.line_addr, 0x40);
        assert!(ev.dirty);
    }

    #[test]
    fn refill_resident_line_no_eviction() {
        let mut c = tiny();
        c.fill(0x0, false);
        assert_eq!(c.fill(0x0, true), None);
        // After the refresh of 0x0, filling 0x80 makes 0x0 the LRU; the next
        // fill evicts it with the merged dirty bit.
        c.fill(0x80, false);
        let ev = c.fill(0x100, false).unwrap();
        assert_eq!(ev.line_addr, 0x0);
        assert!(ev.dirty, "dirty bit from the refill must be preserved");
    }

    /// Pins the fill-on-resident-line semantics the hierarchy's dirty-L1-
    /// victim pushdown relies on: no duplicate way is allocated, the line
    /// is promoted to MRU, the dirty bit is ORed in, and the prefetched
    /// tag survives untouched (audited for PR 6 — the pushdown path calls
    /// `fill` on a probed-hit LLC line on purpose, as a dirty merge).
    #[test]
    fn fill_on_resident_line_merges() {
        let mut c = tiny();
        c.fill_tagged(0x0, false, true, 0); // prefetched, clean
        c.fill(0x80, false); // set 0 now full: [0x80, 0x0]
        assert_eq!(c.fill(0x0, true), None, "merge, not a second way");
        // 0x0 was promoted to MRU, so the next fill evicts 0x80 — proving
        // the set still holds exactly one copy of 0x0 and it is not LRU.
        let ev = c.fill(0x100, false).unwrap();
        assert_eq!(ev.line_addr, 0x80, "resident fill promotes to MRU");
        // The merged dirty bit and the original prefetched tag both held.
        let a = c.access(0x0, false);
        assert!(
            a.first_use_of_prefetch,
            "a dirty merge must not consume the FDP first-use tag"
        );
        c.fill(0x180, false);
        let ev = c.fill(0x100, false).unwrap();
        assert_eq!(ev.line_addr, 0x0);
        assert!(ev.dirty, "dirty bit from the merge must be preserved");
    }

    #[test]
    fn prefetch_first_use_flag() {
        let mut c = tiny();
        c.fill_tagged(0x0, false, true, 0);
        let a = c.access(0x0, false);
        assert!(a.hit && a.first_use_of_prefetch);
        let b = c.access(0x0, false);
        assert!(b.hit && !b.first_use_of_prefetch, "only first use counts");
    }

    #[test]
    fn invalidate() {
        let mut c = tiny();
        c.fill(0x0, false);
        c.access(0x0, true); // dirty it
        assert_eq!(c.invalidate(0x0), Some(true));
        assert!(!c.probe(0x0));
        assert_eq!(c.invalidate(0x0), None);
        c.fill(0x40, false);
        assert_eq!(c.invalidate(0x40), Some(false));
    }

    #[test]
    fn occupancy_counts_each_owners_resident_lines() {
        let mut c = tiny();
        c.fill_tagged(0x0, false, false, 1);
        c.fill_tagged(0x80, false, true, 2);
        c.fill_tagged(0x40, false, false, 1);
        assert_eq!((c.occupancy(1), c.occupancy(2)), (2, 1));
        // A refill of a resident line keeps the allocating owner.
        c.fill_tagged(0x0, true, false, 2);
        assert_eq!((c.occupancy(1), c.occupancy(2)), (2, 1));
        // Eviction and invalidation release the line.
        assert_eq!(
            c.fill_tagged(0x100, false, false, 2).unwrap().line_addr,
            0x80
        );
        c.invalidate(0x40);
        assert_eq!((c.occupancy(1), c.occupancy(2)), (1, 1));
        assert_eq!(std::mem::size_of::<Line>(), 16, "owner fits the padding");
    }

    #[test]
    fn probe_does_not_touch_lru_or_stats() {
        let mut c = tiny();
        c.fill(0x0, false);
        c.fill(0x80, false); // 0x80 MRU, 0x0 LRU
        assert!(c.probe(0x0)); // must not promote
        let ev = c.fill(0x100, false).unwrap();
        assert_eq!(ev.line_addr, 0x0);
        assert_eq!(c.stats(), (0, 0));
    }
}
