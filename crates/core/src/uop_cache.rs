//! The Critical Uop Cache (§3.2, Fig. 7).
//!
//! Stores **decoded critical-uop traces**, one per basic block, tagged with
//! the block's first instruction. A trace records which uops of the block
//! are critical (a bit mask of their offsets), the block length (so the
//! critical fetch logic can skip timestamp values for the non-critical
//! uops), and whether the block ends in a branch (the "ends in a branch"
//! bit). Blocks with more than 8 critical uops consume multiple 8-uop lines,
//! as in the paper.

use cdf_isa::Pc;

/// A critical-uop trace for one basic block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Trace {
    /// First instruction of the basic block (the tag).
    pub block_start: Pc,
    /// Total uops in the block — critical fetch advances its timestamp
    /// cursor by this amount per block.
    pub block_len: u32,
    /// Bit `i` is set when the uop at offset `i` of the block is critical.
    pub crit_mask: u64,
    /// Provenance: id of the reconstruction walk that produced this trace
    /// (0 for traces installed outside the walk pipeline). Stable across the
    /// trace's CUC lifetime, so diagnostics can attribute every downstream
    /// fetch/consume/squash back to the walk that built the chain.
    pub chain: u64,
}

impl Trace {
    /// Builds a trace from a criticality mask over the block.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is 0 or the mask marks offsets ≥ `block_len`
    /// (offsets ≥ 64 cannot be represented and must have been dropped by the
    /// caller).
    pub fn from_mask(block_start: Pc, block_len: u32, mask: u64) -> Trace {
        assert!(block_len > 0);
        assert!(
            block_len >= 64 || mask >> block_len == 0,
            "mask bit beyond block length"
        );
        Trace {
            block_start,
            block_len,
            crit_mask: mask,
            chain: 0,
        }
    }

    /// The same trace tagged with a chain-provenance id.
    #[must_use]
    pub fn with_chain(mut self, chain: u64) -> Trace {
        self.chain = chain;
        self
    }

    /// Number of critical uops in the block.
    pub fn crit_count(&self) -> u32 {
        self.crit_mask.count_ones()
    }

    /// Whether the uop at `offset` within the block is critical.
    pub fn is_critical(&self, offset: u32) -> bool {
        offset < 64 && (self.crit_mask >> offset) & 1 == 1
    }

    /// Offsets (within the block) of the critical uops, ascending.
    pub fn crit_offsets(&self) -> impl Iterator<Item = u32> {
        let mut rest = self.crit_mask;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let off = rest.trailing_zeros();
                rest &= rest - 1;
                off
            })
        })
    }

    /// Number of 8-uop cache lines this trace occupies.
    pub fn lines(&self) -> usize {
        (self.crit_count() as usize).div_ceil(8).max(1)
    }
}

#[derive(Clone, Debug)]
struct Slot {
    trace: Trace,
    lru: u64,
}

/// Set-associative trace storage. Table 1: 18KB, 4-way, 8 uops (8B each) per
/// entry; the default geometry below (64 sets × 4 lines) is the nearest
/// power-of-two equivalent.
///
/// ```
/// use cdf_core::uop_cache::{CriticalUopCache, Trace};
/// use cdf_isa::Pc;
///
/// let mut c = CriticalUopCache::new(64, 4);
/// c.insert(Trace::from_mask(Pc::new(16), 10, 0b1001));
/// let t = c.lookup(Pc::new(16)).unwrap();
/// assert_eq!(t.crit_offsets().collect::<Vec<_>>(), vec![0, 3]);
/// assert!(c.lookup(Pc::new(17)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct CriticalUopCache {
    sets: usize,
    lines_per_set: usize,
    slots: Vec<Vec<Slot>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl CriticalUopCache {
    /// Creates a cache with `sets` sets of `lines_per_set` 8-uop lines.
    pub fn new(sets: usize, lines_per_set: usize) -> CriticalUopCache {
        CriticalUopCache {
            slots: vec![Vec::new(); sets],
            sets,
            lines_per_set,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, block_start: Pc) -> usize {
        block_start.index() % self.sets
    }

    /// Looks up the trace whose block starts at `pc`, updating LRU and
    /// hit/miss statistics. A hit is what switches the processor into CDF
    /// mode (§3.3).
    pub fn lookup(&mut self, pc: Pc) -> Option<&Trace> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(pc);
        let slots = &mut self.slots[set];
        match slots.iter_mut().find(|s| s.trace.block_start == pc) {
            Some(s) => {
                s.lru = clock;
                self.hits += 1;
                Some(&s.trace)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Trace access without statistics or LRU effects (used by the regular
    /// fetch stream to flag critical duplicates without double-counting the
    /// lookup the critical stream already performed).
    pub fn peek(&self, pc: Pc) -> Option<&Trace> {
        self.slots[self.set_of(pc)]
            .iter()
            .find(|s| s.trace.block_start == pc)
            .map(|s| &s.trace)
    }

    /// Tag probe without statistics or LRU effects.
    pub fn probe(&self, pc: Pc) -> bool {
        self.slots[self.set_of(pc)]
            .iter()
            .any(|s| s.trace.block_start == pc)
    }

    /// Inserts (or replaces) a trace, evicting LRU traces until its lines
    /// fit. Traces larger than a whole set are rejected (returns `false`).
    pub fn insert(&mut self, trace: Trace) -> bool {
        if trace.lines() > self.lines_per_set {
            return false;
        }
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(trace.block_start);
        let slots = &mut self.slots[set];
        slots.retain(|s| s.trace.block_start != trace.block_start);
        let mut used: usize = slots.iter().map(|s| s.trace.lines()).sum();
        while used + trace.lines() > self.lines_per_set {
            let victim = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.lru)
                .map(|(i, _)| i)
                .expect("set nonempty if over capacity");
            used -= slots[victim].trace.lines();
            slots.remove(victim);
        }
        slots.push(Slot { trace, lru: clock });
        true
    }

    /// Removes the trace for a block (density guard, §3.2).
    pub fn remove(&mut self, block_start: Pc) {
        let set = self.set_of(block_start);
        self.slots[set].retain(|s| s.trace.block_start != block_start);
    }

    /// `(hits, misses)` of lookups.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total traces currently stored.
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.len()).sum()
    }

    /// Whether no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_mask_decodes_offsets() {
        let t = Trace::from_mask(Pc::new(0), 12, 0b1010_0000_0001);
        assert_eq!(t.crit_offsets().collect::<Vec<_>>(), vec![0, 9, 11]);
        assert_eq!(t.crit_count(), 3);
        assert!(t.is_critical(9) && !t.is_critical(10) && !t.is_critical(64));
        assert_eq!(t.lines(), 1);
        let full = Trace::from_mask(Pc::new(0), 64, u64::MAX);
        assert_eq!(full.crit_offsets().last(), Some(63));
        assert!(full.is_critical(63));
    }

    #[test]
    #[should_panic(expected = "beyond block length")]
    fn mask_past_block_panics() {
        Trace::from_mask(Pc::new(0), 3, 0b1000);
    }

    #[test]
    fn big_traces_take_multiple_lines() {
        let mask = (1u64 << 9) - 1; // 9 critical uops
        let t = Trace::from_mask(Pc::new(0), 20, mask);
        assert_eq!(t.lines(), 2);
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = CriticalUopCache::new(8, 4);
        assert!(c.insert(Trace::from_mask(Pc::new(3), 5, 0b101)));
        assert!(c.probe(Pc::new(3)));
        assert_eq!(c.lookup(Pc::new(3)).unwrap().block_len, 5);
        c.remove(Pc::new(3));
        assert!(c.lookup(Pc::new(3)).is_none());
        assert_eq!(c.stats(), (1, 1));
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_replaces() {
        let mut c = CriticalUopCache::new(8, 4);
        c.insert(Trace::from_mask(Pc::new(3), 5, 0b001));
        c.insert(Trace::from_mask(Pc::new(3), 5, 0b111));
        assert_eq!(c.lookup(Pc::new(3)).unwrap().crit_mask, 0b111);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_frees_enough_lines() {
        let mut c = CriticalUopCache::new(1, 2);
        // Two 1-line traces fill the set.
        c.insert(Trace::from_mask(Pc::new(0), 4, 0b1));
        c.insert(Trace::from_mask(Pc::new(1), 4, 0b1));
        // A 2-line trace must evict both.
        let mask9 = (1u64 << 9) - 1;
        assert!(c.insert(Trace::from_mask(Pc::new(2), 9, mask9)));
        assert_eq!(c.len(), 1);
        assert!(c.probe(Pc::new(2)));
    }

    #[test]
    fn oversized_trace_rejected() {
        let mut c = CriticalUopCache::new(1, 1);
        let mask9 = (1u64 << 9) - 1;
        assert!(!c.insert(Trace::from_mask(Pc::new(0), 9, mask9)));
        assert!(c.is_empty());
    }

    #[test]
    fn lru_prefers_recently_hit() {
        let mut c = CriticalUopCache::new(1, 2);
        c.insert(Trace::from_mask(Pc::new(0), 4, 0b1));
        c.insert(Trace::from_mask(Pc::new(1), 4, 0b1));
        c.lookup(Pc::new(0)); // refresh 0
        c.insert(Trace::from_mask(Pc::new(2), 4, 0b1)); // evict 1
        assert!(c.probe(Pc::new(0)));
        assert!(!c.probe(Pc::new(1)));
    }
}
