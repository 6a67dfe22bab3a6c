//! The Fill Buffer and the backwards dataflow walk (§3.2, Figs. 5–6).
//!
//! At retire, each uop is recorded into a 1024-entry FIFO along with its
//! source/destination register bit-vectors and memory-location tags. When
//! the buffer is full, a backwards (youngest → oldest) walk marks every uop
//! in the dependence chains of the CCT-predicted critical loads and
//! branches, following both register and memory (store→load) dependences —
//! the Filtered-Runahead-style chain construction, generalized to multiple
//! simultaneous critical seeds. The per-block criticality masks produced by
//! the walk are merged into the Mask Cache and turned into Critical Uop
//! Cache traces by the core.

use crate::mask_cache::MaskCache;
use cdf_isa::{Pc, RegSet, WordSet};
use std::collections::VecDeque;

/// One retired-uop record (Fig. 6: decoded uop, register bit-vectors, memory
/// tags, criticality bit).
#[derive(Clone, Copy, Debug)]
pub struct FbEntry {
    /// The uop's PC.
    pub pc: Pc,
    /// Start of the containing basic block (the Mask Cache / trace tag).
    pub block_start: Pc,
    /// Length of the containing basic block.
    pub block_len: u32,
    /// Offset of the uop within its block.
    pub offset: u8,
    /// Registers read.
    pub srcs: RegSet,
    /// Registers written.
    pub dsts: RegSet,
    /// Word tag of a memory location read (loads).
    pub mem_read: Option<u64>,
    /// Word tag of a memory location written (stores).
    pub mem_write: Option<u64>,
    /// Marked critical by the Critical Count Tables at retire.
    pub crit_seed: bool,
}

/// Result of a backwards walk.
#[derive(Clone, Debug)]
pub struct WalkResult {
    /// Parallel to the walked entries (oldest-first): criticality marks.
    pub marks: Vec<bool>,
    /// Per-block merged masks produced by this walk, keyed by
    /// `(block_start, block_len)`.
    pub block_masks: Vec<(Pc, u32, u64)>,
    /// Number of marked uops.
    pub marked: usize,
    /// Number of uops seeded critical by the CCTs in this window (as opposed
    /// to marked via chains or accumulated masks).
    pub seeds: usize,
    /// Total uops walked.
    pub total: usize,
}

impl WalkResult {
    /// Fraction of walked uops marked critical — checked against the <2% /
    /// >50% density guards of §3.2.
    pub fn marked_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.marked as f64 / self.total as f64
        }
    }
}

/// The retired-uop FIFO. Table 1: 1024 entries, 16KB.
///
/// ```
/// use cdf_core::fill_buffer::{FbEntry, FillBuffer};
/// use cdf_core::mask_cache::MaskCache;
/// use cdf_isa::{Pc, RegSet, ArchReg};
///
/// let mut fb = FillBuffer::new(4);
/// let mk = |crit| FbEntry {
///     pc: Pc::new(0), block_start: Pc::new(0), block_len: 1, offset: 0,
///     srcs: RegSet::EMPTY, dsts: RegSet::EMPTY,
///     mem_read: None, mem_write: None, crit_seed: crit,
/// };
/// for _ in 0..3 { fb.push(mk(false)); }
/// assert!(!fb.is_full());
/// fb.push(mk(true));
/// assert!(fb.is_full());
/// let walk = fb.walk(&MaskCache::new(4, 2));
/// assert_eq!(walk.marked, 1);
/// ```
#[derive(Clone, Debug)]
pub struct FillBuffer {
    cap: usize,
    entries: VecDeque<FbEntry>,
    pushes: u64,
}

impl FillBuffer {
    /// Creates a fill buffer holding `cap` retired uops.
    pub fn new(cap: usize) -> FillBuffer {
        FillBuffer {
            cap,
            entries: VecDeque::with_capacity(cap),
            pushes: 0,
        }
    }

    /// Appends a retired uop. The buffer is a ring of the most recent `cap`
    /// retires: when full, the oldest record is dropped (the walk may be
    /// gated by the 10k-instruction period, and must see the *latest*
    /// window when it finally runs).
    pub fn push(&mut self, e: FbEntry) {
        if self.entries.len() >= self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(e);
        self.pushes += 1;
    }

    /// Whether the buffer has reached capacity (time to walk).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total pushes (energy accounting).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Empties the buffer (after a walk).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The backwards dataflow walk (Fig. 5). Walks youngest → oldest,
    /// marking a uop critical if:
    ///
    /// * the CCT seeded it critical at retire, or
    /// * a previously seen (younger) critical uop reads a register this uop
    ///   writes, or
    /// * a younger critical load reads a memory word this uop writes
    ///   (store→load dependence), or
    /// * the Mask Cache already marks this offset for the block (the union
    ///   over earlier control-flow paths).
    ///
    /// Marked uops contribute their sources (registers and the load's memory
    /// word) to the live sets.
    pub fn walk(&self, mask_cache: &MaskCache) -> WalkResult {
        let n = self.entries.len();
        let mut marks = vec![false; n];
        let mut live_regs = RegSet::EMPTY;
        let mut live_mem = WordSet::default();
        for i in (0..n).rev() {
            let e = &self.entries[i];
            let mask_bit = mask_cache
                .get(e.block_start)
                .map(|m| e.offset < 64 && m & (1 << e.offset) != 0)
                .unwrap_or(false);
            let mut mark = e.crit_seed || mask_bit;
            if !mark && e.dsts.intersects(live_regs) {
                mark = true;
            }
            if !mark {
                if let Some(w) = e.mem_write {
                    if live_mem.contains(&w) {
                        mark = true;
                    }
                }
            }
            if mark {
                marks[i] = true;
                live_regs = live_regs.difference(e.dsts).union(e.srcs);
                if let Some(r) = e.mem_read {
                    live_mem.insert(r);
                }
                if let Some(w) = e.mem_write {
                    live_mem.remove(&w);
                }
            }
        }

        // Collapse marks into per-block masks (union over occurrences).
        // Every block that appeared in the buffer is reported — blocks with
        // no critical uops get a zero mask, which becomes an *empty* trace:
        // the critical fetch logic still needs the block's length and
        // terminator to skip timestamps and follow control flow through
        // non-critical code (§3.3, "Assigning Timestamps").
        let mut block_masks: Vec<(Pc, u32, u64)> = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            let bit = if marks[i] && e.offset < 64 {
                1u64 << e.offset
            } else {
                0
            };
            match block_masks.iter_mut().find(|(b, _, _)| *b == e.block_start) {
                Some((_, _, m)) => *m |= bit,
                None => block_masks.push((e.block_start, e.block_len, bit)),
            }
        }

        let marked = marks.iter().filter(|&&m| m).count();
        let seeds = self.entries.iter().filter(|e| e.crit_seed).count();
        WalkResult {
            marks,
            block_masks,
            marked,
            seeds,
            total: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdf_isa::ArchReg;

    fn entry(offset: u8) -> FbEntry {
        FbEntry {
            pc: Pc::new(offset as u32),
            block_start: Pc::new(0),
            block_len: 16,
            offset,
            srcs: RegSet::EMPTY,
            dsts: RegSet::EMPTY,
            mem_read: None,
            mem_write: None,
            crit_seed: false,
        }
    }

    fn rs(regs: &[ArchReg]) -> RegSet {
        regs.iter().copied().collect()
    }

    /// The paper's Fig. 5 example: I0..I8 where I6 (`R2 <- [R1]`) is the
    /// critical load; the walk must mark I6, then I3 (produces R1), then I0
    /// (produces R0 used by I3's address).
    #[test]
    fn fig5_backwards_walk() {
        use ArchReg::*;
        let mut fb = FillBuffer::new(16);
        // I0: R0 <- R0 - 1
        fb.push(FbEntry {
            srcs: rs(&[R0]),
            dsts: rs(&[R0]),
            offset: 0,
            ..entry(0)
        });
        // I1: BRZ (reads R0)
        fb.push(FbEntry {
            srcs: rs(&[R0]),
            offset: 1,
            ..entry(1)
        });
        // I3: R1 <- [R3 + R0]
        fb.push(FbEntry {
            srcs: rs(&[R3, R0]),
            dsts: rs(&[R1]),
            mem_read: Some(0x111),
            offset: 2,
            ..entry(2)
        });
        // I4: R4 <- [0x200 + R0]
        fb.push(FbEntry {
            srcs: rs(&[R0]),
            dsts: rs(&[R4]),
            mem_read: Some(0x222),
            offset: 3,
            ..entry(3)
        });
        // I5: R5 <- R4 >> 2
        fb.push(FbEntry {
            srcs: rs(&[R4]),
            dsts: rs(&[R5]),
            offset: 4,
            ..entry(4)
        });
        // I6: R2 <- [R1]   ← critical seed
        fb.push(FbEntry {
            srcs: rs(&[R1]),
            dsts: rs(&[R2]),
            mem_read: Some(0x333),
            crit_seed: true,
            offset: 5,
            ..entry(5)
        });
        // I7: [0x300 + R5] <- R2
        fb.push(FbEntry {
            srcs: rs(&[R5, R2]),
            mem_write: Some(0x444),
            offset: 6,
            ..entry(6)
        });
        // I8: BRNZ
        fb.push(FbEntry {
            srcs: rs(&[R0]),
            offset: 7,
            ..entry(7)
        });

        let w = fb.walk(&MaskCache::new(4, 2));
        // Marked: I6 (seed), I3 (writes R1), I0 (writes R0 read by I3).
        assert_eq!(
            w.marks,
            vec![true, false, true, false, false, true, false, false]
        );
        assert_eq!(w.marked, 3);
        assert_eq!(w.block_masks.len(), 1);
        let (_, _, mask) = w.block_masks[0];
        assert_eq!(mask, 0b100101);
    }

    #[test]
    fn store_to_load_memory_dependence_marks_store_chain() {
        use ArchReg::*;
        let mut fb = FillBuffer::new(8);
        // Store [T] <- R7 (older)
        fb.push(FbEntry {
            srcs: rs(&[R7]),
            mem_write: Some(0x7A_u64),
            offset: 0,
            ..entry(0)
        });
        // Critical load reads [T]
        fb.push(FbEntry {
            srcs: rs(&[R1]),
            dsts: rs(&[R2]),
            mem_read: Some(0x7A_u64),
            crit_seed: true,
            offset: 1,
            ..entry(1)
        });
        let w = fb.walk(&MaskCache::new(4, 2));
        assert_eq!(
            w.marks,
            vec![true, true],
            "store feeding a critical load is critical"
        );
    }

    #[test]
    fn mask_cache_premarks_accumulate() {
        use ArchReg::*;
        let mut mc = MaskCache::new(4, 2);
        // A previous walk marked offset 2 of block 0 (another path).
        mc.merge(Pc::new(0), 0b100);
        let mut fb = FillBuffer::new(8);
        fb.push(FbEntry {
            dsts: rs(&[R9]),
            offset: 1,
            ..entry(1)
        }); // feeds offset 2's src
        fb.push(FbEntry {
            srcs: rs(&[R9]),
            offset: 2,
            ..entry(2)
        });
        let w = fb.walk(&mc);
        assert_eq!(w.marks, vec![true, true], "premark pulls in its producers");
    }

    #[test]
    fn no_seeds_marks_nothing() {
        let mut fb = FillBuffer::new(4);
        for i in 0..4 {
            fb.push(entry(i));
        }
        let w = fb.walk(&MaskCache::new(4, 2));
        assert_eq!(w.marked, 0);
        assert_eq!(w.block_masks, vec![(Pc::new(0), 16, 0)], "empty mask kept");
        assert_eq!(w.marked_fraction(), 0.0);
    }

    #[test]
    fn clear_resets_occupancy_not_push_count() {
        let mut fb = FillBuffer::new(2);
        fb.push(entry(0));
        fb.push(entry(1));
        assert!(fb.is_full());
        fb.clear();
        assert!(fb.is_empty());
        assert_eq!(fb.pushes(), 2);
    }

    #[test]
    fn killed_dependence_stops_chain() {
        use ArchReg::*;
        // R1 written twice: only the younger write feeds the critical load.
        let mut fb = FillBuffer::new(8);
        fb.push(FbEntry {
            srcs: rs(&[R3]),
            dsts: rs(&[R1]),
            offset: 0,
            ..entry(0)
        }); // old write
        fb.push(FbEntry {
            srcs: rs(&[R4]),
            dsts: rs(&[R1]),
            offset: 1,
            ..entry(1)
        }); // young write
        fb.push(FbEntry {
            srcs: rs(&[R1]),
            dsts: rs(&[R2]),
            crit_seed: true,
            offset: 2,
            ..entry(2)
        });
        let w = fb.walk(&MaskCache::new(4, 2));
        assert_eq!(
            w.marks,
            vec![false, true, true],
            "older killed write of R1 is not in the chain"
        );
    }
}
