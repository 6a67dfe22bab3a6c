//! Partitioned load and store queues with memory disambiguation.
//!
//! §3.5 "Memory Disambiguation": both queues are partitioned like the ROB;
//! each section is in program order, so ordering checks are associative
//! lookups over two (smaller) ordered queues keyed by timestamp. Violations
//! are detected when a store resolves its address and finds a younger,
//! already-executed load to the same word.
//!
//! The lookups stay cheap on the host: [`Lsq`] makes every change to the
//! queues, so it keeps, per queue, a counting filter over the words of the
//! entries whose address is known. A load probing for a forwarding store
//! and a store checking for violated loads walk their queue only when the
//! filter admits the word, and then only the part of each section on the
//! right side of their timestamp. The per-uop updates find their entry by
//! binary search on the timestamp in each section.

use crate::partition::Resize;
use crate::rob::{HasSeq, PartitionedQueue};
use crate::types::Seq;
use cdf_isa::word_hash;

/// A load-queue record.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LqEntry {
    pub seq: Seq,
    /// Effective word address once computed.
    pub addr: Option<u64>,
    /// The load has produced its value.
    pub done: bool,
}

impl HasSeq for LqEntry {
    fn seq(&self) -> Seq {
        self.seq
    }
}

/// A store-queue record.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SqEntry {
    pub seq: Seq,
    pub addr: Option<u64>,
    /// Store data once the data source is read.
    pub data: Option<u64>,
}

impl HasSeq for SqEntry {
    fn seq(&self) -> Seq {
        self.seq
    }
}

/// Outcome of a load probing the store queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ForwardResult {
    /// No older store to the same word: go to memory.
    Miss,
    /// Youngest older same-word store has its data: forward it.
    Forward(u64),
    /// Youngest older same-word store's data isn't ready: retry later.
    Stall,
}

/// Slots in each queue's [`WordFilter`] (a power of two, several times the
/// largest queue, so unrelated words rarely share a slot).
const FILTER_SLOTS: usize = 1024;

/// A counting filter over the words of one queue's addressed entries: each
/// slot counts the entries whose word hashes to it, so a zero count proves
/// that no entry holds a word of that slot.
#[derive(Clone, Debug)]
struct WordFilter {
    counts: Box<[u32]>,
}

impl WordFilter {
    fn new() -> WordFilter {
        WordFilter {
            counts: vec![0; FILTER_SLOTS].into_boxed_slice(),
        }
    }

    fn slot(word: u64) -> usize {
        word_hash(word) as usize & (FILTER_SLOTS - 1)
    }

    /// Counts an entry's word, if it has one.
    fn add(&mut self, word: Option<u64>) {
        if let Some(w) = word {
            self.counts[Self::slot(w)] += 1;
        }
    }

    /// Uncounts an entry's word, if it had one.
    fn remove(&mut self, word: Option<u64>) {
        if let Some(w) = word {
            self.counts[Self::slot(w)] -= 1;
        }
    }

    /// Whether some entry may hold `word` (false means none does).
    fn may_hold(&self, word: u64) -> bool {
        self.counts[Self::slot(word)] != 0
    }
}

/// The paired load/store queues. Every change to either queue goes through
/// here, which keeps each queue's word filter equal to the words of its
/// addressed entries.
#[derive(Clone, Debug)]
pub(crate) struct Lsq {
    lq: PartitionedQueue<LqEntry>,
    sq: PartitionedQueue<SqEntry>,
    lq_words: WordFilter,
    sq_words: WordFilter,
}

/// Word-granularity address used for ordering checks (all memory ops are
/// 8-byte in this ISA).
fn word(addr: u64) -> u64 {
    addr >> 3
}

impl Lsq {
    pub fn new(
        lq_total: usize,
        lq_crit: usize,
        sq_total: usize,
        sq_crit: usize,
        min: usize,
    ) -> Lsq {
        Lsq {
            lq: PartitionedQueue::new(lq_total, lq_crit, min),
            sq: PartitionedQueue::new(sq_total, sq_crit, min),
            lq_words: WordFilter::new(),
            sq_words: WordFilter::new(),
        }
    }

    /// The load queue (occupancy and capacity).
    pub fn lq(&self) -> &PartitionedQueue<LqEntry> {
        &self.lq
    }

    /// The store queue (occupancy and capacity).
    pub fn sq(&self) -> &PartitionedQueue<SqEntry> {
        &self.sq
    }

    /// Dispatches the load `seq` into the chosen LQ section, address unknown.
    pub fn push_load(&mut self, seq: Seq, critical: bool) {
        let e = LqEntry {
            seq,
            addr: None,
            done: false,
        };
        self.lq.push(e, critical);
    }

    /// Dispatches the store `seq` into the chosen SQ section, address and
    /// data unknown.
    pub fn push_store(&mut self, seq: Seq, critical: bool) {
        let e = SqEntry {
            seq,
            addr: None,
            data: None,
        };
        self.sq.push(e, critical);
    }

    /// Retires the head of the chosen LQ section.
    pub fn retire_load(&mut self, critical: bool) -> Option<LqEntry> {
        let e = self.lq.pop_head(critical)?;
        self.lq_words.remove(e.addr);
        Some(e)
    }

    /// Retires the head of the chosen SQ section.
    pub fn retire_store(&mut self, critical: bool) -> Option<SqEntry> {
        let e = self.sq.pop_head(critical)?;
        self.sq_words.remove(e.addr);
        Some(e)
    }

    /// Removes every entry with `seq > target` from both queues (flush).
    pub fn flush_after(&mut self, target: Seq) {
        let (lq_words, sq_words) = (&mut self.lq_words, &mut self.sq_words);
        self.lq.flush_after(target, |e| lq_words.remove(e.addr));
        self.sq.flush_after(target, |e| sq_words.remove(e.addr));
    }

    /// Moves LQ capacity between the sections (§3.5).
    pub fn resize_lq(&mut self, r: Resize, step: usize) -> usize {
        self.lq.resize(r, step)
    }

    /// Moves SQ capacity between the sections (§3.5).
    pub fn resize_sq(&mut self, r: Resize, step: usize) -> usize {
        self.sq.resize(r, step)
    }

    /// Records the computed address (and readiness) for the load `seq`.
    pub fn set_load_state(&mut self, seq: Seq, addr: u64, done: bool) {
        if let Some(e) = self.lq.get_mut(seq) {
            let w = Some(word(addr));
            if e.addr != w {
                self.lq_words.remove(e.addr);
                self.lq_words.add(w);
                e.addr = w;
            }
            e.done = done;
        }
    }

    /// Records the computed address for the store `seq`.
    pub fn set_store_addr(&mut self, seq: Seq, addr: u64) {
        if let Some(e) = self.sq.get_mut(seq) {
            let w = Some(word(addr));
            if e.addr != w {
                self.sq_words.remove(e.addr);
                self.sq_words.add(w);
                e.addr = w;
            }
        }
    }

    /// Records the data value for the store `seq`.
    pub fn set_store_data(&mut self, seq: Seq, data: u64) {
        if let Some(e) = self.sq.get_mut(seq) {
            e.data = Some(data);
        }
    }

    /// Store-to-load forwarding probe for a load at `load_seq` reading
    /// `addr`: finds the *youngest older* store to the same word across both
    /// sections.
    ///
    /// Older stores with unresolved addresses are speculatively ignored (the
    /// violation check below catches mis-speculation) — this is what lets
    /// CDF's critical loads run ahead of non-critical stores, §3.5.
    pub fn forward(&self, load_seq: Seq, addr: u64) -> ForwardResult {
        let w = word(addr);
        if !self.sq_words.may_hold(w) {
            return ForwardResult::Miss;
        }
        // Each section's youngest older same-word store, then the younger
        // of the two.
        let best = self
            .sq
            .sections()
            .into_iter()
            .filter_map(|s| {
                let older = s.partition_point(|e| e.seq < load_seq);
                s.range(..older).rev().find(|e| e.addr == Some(w))
            })
            .max_by_key(|e| e.seq);
        match best {
            None => ForwardResult::Miss,
            Some(e) => match e.data {
                Some(v) => ForwardResult::Forward(v),
                None => ForwardResult::Stall,
            },
        }
    }

    /// Whether any store older than `load_seq` still has an unresolved
    /// address (used by the memory-dependence predictor: a load predicted to
    /// conflict waits for these instead of speculating past them).
    pub fn older_store_addr_unknown(&self, load_seq: Seq) -> bool {
        self.sq.iter().any(|e| e.seq < load_seq && e.addr.is_none())
    }

    /// Memory-ordering violation check when the store at `store_seq`
    /// resolves `addr`: returns the *oldest younger executed* load of the
    /// same word, if any — everything from that load must be flushed.
    pub fn check_violation(&self, store_seq: Seq, addr: u64) -> Option<Seq> {
        let w = word(addr);
        if !self.lq_words.may_hold(w) {
            return None;
        }
        // Each section's oldest younger executed same-word load, then the
        // older of the two.
        self.lq
            .sections()
            .into_iter()
            .filter_map(|s| {
                let younger = s.partition_point(|e| e.seq <= store_seq);
                s.range(younger..)
                    .find(|e| e.done && e.addr == Some(w))
                    .map(|e| e.seq)
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lsq() -> Lsq {
        Lsq::new(8, 4, 8, 4, 1)
    }

    /// Dispatches the store `seq` and resolves its address and data.
    fn store(l: &mut Lsq, seq: u64, critical: bool, addr: u64, data: Option<u64>) {
        l.push_store(Seq(seq), critical);
        l.set_store_addr(Seq(seq), addr);
        if let Some(d) = data {
            l.set_store_data(Seq(seq), d);
        }
    }

    /// Dispatches the load `seq` and resolves its address.
    fn load(l: &mut Lsq, seq: u64, critical: bool, addr: u64, done: bool) {
        l.push_load(Seq(seq), critical);
        l.set_load_state(Seq(seq), addr, done);
    }

    #[test]
    fn forward_from_youngest_older_store() {
        let mut l = lsq();
        store(&mut l, 1, false, 0x100, Some(11));
        store(&mut l, 3, true, 0x100, Some(33));
        store(&mut l, 5, false, 0x100, Some(55));
        // Load at seq 4 must see the store at seq 3, not 1 or 5.
        assert_eq!(l.forward(Seq(4), 0x100), ForwardResult::Forward(33));
        // Different word: miss.
        assert_eq!(l.forward(Seq(4), 0x200), ForwardResult::Miss);
    }

    #[test]
    fn forward_stalls_on_data_not_ready() {
        let mut l = lsq();
        store(&mut l, 2, false, 0x80, None);
        assert_eq!(l.forward(Seq(5), 0x80), ForwardResult::Stall);
    }

    #[test]
    fn unresolved_older_store_is_speculatively_ignored() {
        let mut l = lsq();
        l.push_store(Seq(2), false);
        assert_eq!(l.forward(Seq(5), 0x80), ForwardResult::Miss);
    }

    #[test]
    fn violation_finds_oldest_younger_done_load() {
        let mut l = lsq();
        load(&mut l, 4, true, 0x40, true);
        load(&mut l, 6, true, 0x40, true);
        load(&mut l, 5, false, 0x40, false);
        assert_eq!(l.check_violation(Seq(3), 0x40), Some(Seq(4)));
        // Store younger than all loads: no violation.
        assert_eq!(l.check_violation(Seq(9), 0x40), None);
        // Different word: no violation.
        assert_eq!(l.check_violation(Seq(3), 0x1040), None);
    }

    #[test]
    fn older_unknown_store_addresses_are_visible() {
        let mut l = lsq();
        l.push_store(Seq(3), false);
        assert!(l.older_store_addr_unknown(Seq(5)));
        assert!(
            !l.older_store_addr_unknown(Seq(2)),
            "younger stores don't count"
        );
        l.set_store_addr(Seq(3), 0x40);
        assert!(!l.older_store_addr_unknown(Seq(5)));
    }

    #[test]
    fn not_done_loads_do_not_violate() {
        let mut l = lsq();
        load(&mut l, 4, false, 0x40, false);
        assert_eq!(l.check_violation(Seq(3), 0x40), None);
    }

    #[test]
    fn same_word_different_byte_addresses_conflict() {
        let mut l = lsq();
        store(&mut l, 1, false, 0x100, Some(7));
        assert_eq!(l.forward(Seq(2), 0x104), ForwardResult::Forward(7));
    }

    #[test]
    fn set_state_updates_entries_across_sections() {
        let mut l = lsq();
        l.push_load(Seq(2), true);
        l.push_store(Seq(3), false);
        l.set_load_state(Seq(2), 0x60, true);
        l.set_store_addr(Seq(3), 0x60);
        l.set_store_data(Seq(3), 99);
        assert_eq!(l.check_violation(Seq(1), 0x60), Some(Seq(2)));
        assert_eq!(l.forward(Seq(9), 0x64), ForwardResult::Forward(99));
    }

    /// The queues as they were before the filters: one unordered list per
    /// queue, every lookup a full scan.
    #[derive(Default)]
    struct ScanModel {
        lq: Vec<(bool, LqEntry)>,
        sq: Vec<(bool, SqEntry)>,
    }

    impl ScanModel {
        fn forward(&self, load_seq: Seq, addr: u64) -> ForwardResult {
            let best = self
                .sq
                .iter()
                .map(|(_, e)| e)
                .filter(|e| e.seq < load_seq && e.addr == Some(word(addr)))
                .max_by_key(|e| e.seq);
            match best.map(|e| e.data) {
                None => ForwardResult::Miss,
                Some(Some(v)) => ForwardResult::Forward(v),
                Some(None) => ForwardResult::Stall,
            }
        }

        fn check_violation(&self, store_seq: Seq, addr: u64) -> Option<Seq> {
            self.lq
                .iter()
                .map(|(_, e)| e)
                .filter(|e| e.seq > store_seq && e.done && e.addr == Some(word(addr)))
                .map(|e| e.seq)
                .min()
        }

        fn older_store_addr_unknown(&self, load_seq: Seq) -> bool {
            self.sq
                .iter()
                .any(|(_, e)| e.seq < load_seq && e.addr.is_none())
        }

        /// The oldest entry of one section, as `retire_*` pops it.
        fn head<T: HasSeq>(q: &[(bool, T)], critical: bool) -> Option<usize> {
            (0..q.len())
                .filter(|&i| q[i].0 == critical)
                .min_by_key(|&i| q[i].1.seq())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over any sequence of dispatches into either section, address
        /// and data updates, probes, retirements and flushes, the filtered
        /// queues answer every probe as a full scan does, retire the same
        /// entries, and their filters count nothing once both queues empty.
        /// Words come from a small pool of three words and, for each, a
        /// word in the same filter slot, so same-word hits, filter
        /// collisions and misses all occur.
        #[test]
        fn filtered_queues_answer_as_a_full_scan(
            ops in prop::collection::vec((0u8..9, 0u64..12, 0u64..6, any::<bool>()), 1..200),
        ) {
            let mut l = Lsq::new(12, 6, 12, 6, 1);
            let mut m = ScanModel::default();
            let mut next = 1u64;
            let alias = |w: u64| {
                (w + 1..)
                    .find(|&v| WordFilter::slot(v) == WordFilter::slot(w))
                    .expect("some word shares the slot")
            };
            let words = [0, 1, 2, alias(0), alias(1), alias(2)];
            let addr = |k: u64| words[k as usize % words.len()] * 8;
            for (op, pick, a, crit) in ops {
                // An in-flight seq near `pick` positions back from the
                // youngest, or a fresh one past it.
                let seq = Seq(next.saturating_sub(pick));
                match op {
                    0 if l.lq().has_space(crit) => {
                        l.push_load(Seq(next), crit);
                        m.lq.push((crit, LqEntry { seq: Seq(next), addr: None, done: false }));
                        next += 1;
                    }
                    1 if l.sq().has_space(crit) => {
                        l.push_store(Seq(next), crit);
                        m.sq.push((crit, SqEntry { seq: Seq(next), addr: None, data: None }));
                        next += 1;
                    }
                    2 => {
                        let done = a % 2 == 0;
                        l.set_load_state(seq, addr(a), done);
                        if let Some((_, e)) = m.lq.iter_mut().find(|(_, e)| e.seq == seq) {
                            e.addr = Some(word(addr(a)));
                            e.done = done;
                        }
                    }
                    3 => {
                        l.set_store_addr(seq, addr(a));
                        l.set_store_data(seq, a);
                        if let Some((_, e)) = m.sq.iter_mut().find(|(_, e)| e.seq == seq) {
                            e.addr = Some(word(addr(a)));
                            e.data = Some(a);
                        }
                    }
                    4 => {
                        let got = l.retire_load(crit).map(|e| (e.seq, e.addr, e.done));
                        let want = ScanModel::head(&m.lq, crit)
                            .map(|i| m.lq.remove(i).1)
                            .map(|e| (e.seq, e.addr, e.done));
                        prop_assert_eq!(got, want);
                    }
                    5 => {
                        let got = l.retire_store(crit).map(|e| (e.seq, e.addr, e.data));
                        let want = ScanModel::head(&m.sq, crit)
                            .map(|i| m.sq.remove(i).1)
                            .map(|e| (e.seq, e.addr, e.data));
                        prop_assert_eq!(got, want);
                    }
                    6 => {
                        l.flush_after(seq);
                        m.lq.retain(|(_, e)| e.seq <= seq);
                        m.sq.retain(|(_, e)| e.seq <= seq);
                        next = next.min(seq.0 + 1).max(1);
                    }
                    _ => {}
                }
                for probe in [seq, Seq(next)] {
                    for k in [a, a + 3] {
                        prop_assert_eq!(l.forward(probe, addr(k)), m.forward(probe, addr(k)));
                        prop_assert_eq!(
                            l.check_violation(probe, addr(k)),
                            m.check_violation(probe, addr(k))
                        );
                    }
                    prop_assert_eq!(
                        l.older_store_addr_unknown(probe),
                        m.older_store_addr_unknown(probe)
                    );
                }
                prop_assert_eq!(l.lq().len(), m.lq.len());
                prop_assert_eq!(l.sq().len(), m.sq.len());
            }
            l.flush_after(Seq(0));
            prop_assert_eq!(l.lq().len() + l.sq().len(), 0);
            prop_assert!(l.lq_words.counts.iter().all(|&c| c == 0), "LQ filter drained");
            prop_assert!(l.sq_words.counts.iter().all(|&c| c == 0), "SQ filter drained");
        }
    }
}
