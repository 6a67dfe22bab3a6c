//! Physical register file, register alias tables, and the rename undo log.

use crate::types::{PhysReg, Seq};
use cdf_isa::{ArchReg, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// The physical register file: values, ready bits, and the free list.
///
/// The critical partition limit implements §3.5: "The Reservation Stations
/// and Physical Registers are partitioned by imposing a limit on the number
/// of critical uops in both the structures."
#[derive(Clone, Debug)]
pub(crate) struct RegFile {
    values: Vec<u64>,
    ready: Vec<bool>,
    critical: Vec<bool>,
    free: VecDeque<PhysReg>,
    critical_in_use: usize,
    critical_limit: usize,
}

impl RegFile {
    /// Creates a PRF with `size` registers, all free.
    pub fn new(size: usize, critical_limit: usize) -> RegFile {
        RegFile {
            values: vec![0; size],
            ready: vec![false; size],
            critical: vec![false; size],
            free: (0..size as u32).map(PhysReg).collect(),
            critical_in_use: 0,
            critical_limit,
        }
    }

    /// Whether an [`alloc`](Self::alloc) with the given criticality would
    /// succeed (resource check before committing to a rename).
    pub fn can_alloc(&self, critical: bool) -> bool {
        !self.free.is_empty() && (!critical || self.critical_in_use < self.critical_limit)
    }

    /// Allocates a register. Returns `None` when the free list is empty or
    /// the critical partition limit is reached.
    pub fn alloc(&mut self, critical: bool) -> Option<PhysReg> {
        if critical && self.critical_in_use >= self.critical_limit {
            return None;
        }
        let p = self.free.pop_front()?;
        self.ready[p.0 as usize] = false;
        self.critical[p.0 as usize] = critical;
        if critical {
            self.critical_in_use += 1;
        }
        Some(p)
    }

    /// Returns a register to the free list.
    pub fn dealloc(&mut self, p: PhysReg) {
        if self.critical[p.0 as usize] {
            self.critical[p.0 as usize] = false;
            self.critical_in_use -= 1;
        }
        debug_assert!(!self.free.contains(&p), "double free of {p:?}");
        self.free.push_back(p);
    }

    /// Writes a value and marks the register ready. This is the sole
    /// false→true readiness transition after construction — the core's
    /// event-driven scheduler hangs its wakeup hook on exactly this edge.
    #[inline]
    pub fn write(&mut self, p: PhysReg, value: u64) {
        self.values[p.0 as usize] = value;
        self.ready[p.0 as usize] = true;
    }

    /// Reads a register's value.
    ///
    /// # Panics
    ///
    /// Debug-asserts the register is ready (scheduling bug otherwise).
    #[inline]
    pub fn read(&self, p: PhysReg) -> u64 {
        debug_assert!(self.ready[p.0 as usize], "read of not-ready {p:?}");
        self.values[p.0 as usize]
    }

    /// Whether the register's value has been produced.
    #[inline]
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.ready[p.0 as usize]
    }

    /// Number of free registers.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of critical-partition registers currently allocated.
    #[cfg(test)]
    pub fn critical_in_use(&self) -> usize {
        self.critical_in_use
    }

    /// Adjusts the critical partition limit (dynamic partitioning).
    #[allow(dead_code)] // RS limits track the ROB split today; PRF partitioning knob kept
    pub fn set_critical_limit(&mut self, limit: usize) {
        self.critical_limit = limit;
    }
}

/// A register alias table with per-entry poison bits.
///
/// The poison bit is the dependence-violation detector of §3.6/Fig. 11: the
/// regular RAT's poison bit for `r` is set when a *non-critical* uop renames
/// a write to `r`, and cleared when a critical uop's rename is replayed; a
/// replayed critical uop that *reads* a poisoned register has executed
/// incorrectly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Rat {
    map: [PhysReg; NUM_ARCH_REGS],
    poison: [bool; NUM_ARCH_REGS],
}

impl Rat {
    /// Creates a RAT with all architectural registers mapped to the given
    /// initial physical registers.
    pub fn new(initial: [PhysReg; NUM_ARCH_REGS]) -> Rat {
        Rat {
            map: initial,
            poison: [false; NUM_ARCH_REGS],
        }
    }

    pub fn get(&self, r: ArchReg) -> PhysReg {
        self.map[r.index()]
    }

    /// Updates the mapping, returning the previous physical register.
    pub fn set(&mut self, r: ArchReg, p: PhysReg) -> PhysReg {
        std::mem::replace(&mut self.map[r.index()], p)
    }

    pub fn poisoned(&self, r: ArchReg) -> bool {
        self.poison[r.index()]
    }

    /// Sets or clears the poison bit, returning its previous state.
    pub fn set_poison(&mut self, r: ArchReg, v: bool) -> bool {
        std::mem::replace(&mut self.poison[r.index()], v)
    }

    /// Clears every poison bit (on CDF exit).
    pub fn clear_all_poison(&mut self) {
        self.poison = [false; NUM_ARCH_REGS];
    }

    /// Copies the register mappings (not the poison bits) from `other` —
    /// the critical RAT's "copy of the RAT after the last regular-mode
    /// instruction has been renamed" (§3.4).
    pub fn copy_maps_from(&mut self, other: &Rat) {
        self.map = other.map;
    }
}

/// Which RAT a rename-log entry applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RatKind {
    Regular,
    Critical,
}

/// One undoable rename operation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RenameLogEntry {
    pub seq: Seq,
    pub kind: RatKind,
    /// Destination register whose mapping changed, with its previous mapping
    /// and previous poison state. `None` for uops without a destination that
    /// still need log-tracked allocation (never happens today, kept simple).
    pub areg: Option<ArchReg>,
    pub prev_preg: PhysReg,
    pub prev_poison: bool,
    /// A physical register allocated by this operation, to be freed if the
    /// operation is undone. (`critical` records the PRF partition.)
    pub allocated: Option<(PhysReg, bool)>,
}

/// The rename undo log: supports walking back all rename operations younger
/// than a flush point, and pruning entries once their uop retires.
///
/// Entries are appended in rename order. Both RATs log into the same
/// structure so a flush unwinds them together in exact reverse order — this
/// is what makes CDF's dual-RAT recovery work without checkpoint storms.
#[derive(Clone, Debug, Default)]
pub(crate) struct RenameLog {
    entries: VecDeque<RenameLogEntry>,
}

impl RenameLog {
    pub fn new() -> RenameLog {
        RenameLog::default()
    }

    pub fn push(&mut self, e: RenameLogEntry) {
        self.entries.push_back(e);
    }

    /// Removes all entries with `seq > target`, passing each to `undo` in
    /// reverse rename order; `undo` applies it to the RATs and the free
    /// list.
    ///
    /// The log is in *rename* order, not sequence order — the critical
    /// stream renames young uops before the regular stream renames older
    /// ones — so the whole log is scanned: young critical entries can be
    /// buried beneath later-pushed old regular entries.
    pub fn unwind(&mut self, target: Seq, mut undo: impl FnMut(RenameLogEntry)) {
        for e in self.entries.iter().rev().filter(|e| e.seq > target) {
            undo(*e);
        }
        self.entries.retain(|e| e.seq <= target);
    }

    /// Drops entries for uops at or before `retired` (their mappings are
    /// architectural now). Stops at the first younger entry; entries of
    /// retired uops buried behind in-flight critical entries are dropped
    /// when those retire (the log stays bounded by the in-flight count).
    pub fn prune(&mut self, retired: Seq) {
        while let Some(front) = self.entries.front() {
            if front.seq <= retired {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn initial_rat(rf: &mut RegFile) -> Rat {
        let mut init = [PhysReg(0); NUM_ARCH_REGS];
        for (i, slot) in init.iter_mut().enumerate() {
            let p = rf.alloc(false).unwrap();
            rf.write(p, 0);
            *slot = p;
            let _ = i;
        }
        Rat::new(init)
    }

    #[test]
    fn alloc_write_read_cycle() {
        let mut rf = RegFile::new(8, 4);
        let p = rf.alloc(false).unwrap();
        assert!(!rf.is_ready(p));
        rf.write(p, 42);
        assert!(rf.is_ready(p));
        assert_eq!(rf.read(p), 42);
        assert_eq!(rf.free_count(), 7);
        rf.dealloc(p);
        assert_eq!(rf.free_count(), 8);
    }

    #[test]
    fn critical_limit_enforced() {
        let mut rf = RegFile::new(8, 2);
        let a = rf.alloc(true).unwrap();
        let _b = rf.alloc(true).unwrap();
        assert_eq!(rf.alloc(true), None, "critical limit");
        assert!(rf.alloc(false).is_some(), "non-critical unaffected");
        rf.dealloc(a);
        assert!(rf.alloc(true).is_some(), "freed critical slot reusable");
        assert_eq!(rf.critical_in_use(), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rf = RegFile::new(2, 2);
        rf.alloc(false).unwrap();
        rf.alloc(false).unwrap();
        assert_eq!(rf.alloc(false), None);
    }

    #[test]
    fn rat_set_returns_previous() {
        let mut rf = RegFile::new(64, 16);
        let mut rat = initial_rat(&mut rf);
        let r = ArchReg::R5;
        let old = rat.get(r);
        let p = rf.alloc(false).unwrap();
        assert_eq!(rat.set(r, p), old);
        assert_eq!(rat.get(r), p);
    }

    #[test]
    fn poison_bits() {
        let mut rf = RegFile::new(64, 16);
        let mut rat = initial_rat(&mut rf);
        assert!(!rat.poisoned(ArchReg::R3));
        assert!(!rat.set_poison(ArchReg::R3, true));
        assert!(rat.poisoned(ArchReg::R3));
        assert!(rat.set_poison(ArchReg::R3, false));
        rat.set_poison(ArchReg::R1, true);
        rat.clear_all_poison();
        assert!(!rat.poisoned(ArchReg::R1));
    }

    #[test]
    fn copy_maps_preserves_poison() {
        let mut rf = RegFile::new(64, 16);
        let rat_a = initial_rat(&mut rf);
        let mut rat_b = initial_rat(&mut rf);
        rat_b.set_poison(ArchReg::R2, true);
        rat_b.copy_maps_from(&rat_a);
        assert_eq!(rat_b.get(ArchReg::R2), rat_a.get(ArchReg::R2));
        assert!(rat_b.poisoned(ArchReg::R2), "poison untouched by map copy");
    }

    #[test]
    fn rename_log_unwind_order_and_prune() {
        let mut log = RenameLog::new();
        for i in 1..=5u64 {
            log.push(RenameLogEntry {
                seq: Seq(i),
                kind: RatKind::Regular,
                areg: Some(ArchReg::R1),
                prev_preg: PhysReg(i as u32),
                prev_poison: false,
                allocated: None,
            });
        }
        let mut undone = Vec::new();
        log.unwind(Seq(3), |e| undone.push(e));
        assert_eq!(undone.len(), 2);
        assert_eq!(undone[0].seq, Seq(5), "youngest first");
        assert_eq!(undone[1].seq, Seq(4));
        assert_eq!(log.len(), 3);
        log.prune(Seq(2));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn unwind_finds_buried_critical_entries() {
        // Rename order: critical seq 100 first, then regular seq 50.
        let mut log = RenameLog::new();
        let entry = |seq, kind| RenameLogEntry {
            seq: Seq(seq),
            kind,
            areg: Some(ArchReg::R1),
            prev_preg: PhysReg(0),
            prev_poison: false,
            allocated: None,
        };
        log.push(entry(100, RatKind::Critical));
        log.push(entry(50, RatKind::Regular));
        let mut undone = Vec::new();
        log.unwind(Seq(60), |e| undone.push(e));
        assert_eq!(undone.len(), 1, "buried critical entry must be found");
        assert_eq!(undone[0].seq, Seq(100));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn rename_log_round_trip_restores_rat() {
        // Property exercised more heavily in the proptest suite: applying the
        // unwind entries in order restores the exact RAT state.
        let mut rf = RegFile::new(64, 16);
        let mut rat = initial_rat(&mut rf);
        let mut log = RenameLog::new();
        let snapshot = rat.clone();
        for i in 1..=10u64 {
            let r = ArchReg::new((i % 4) as usize).unwrap();
            let p = rf.alloc(false).unwrap();
            let prev = rat.set(r, p);
            let prev_poison = rat.set_poison(r, i % 2 == 0);
            log.push(RenameLogEntry {
                seq: Seq(i),
                kind: RatKind::Regular,
                areg: Some(r),
                prev_preg: prev,
                prev_poison,
                allocated: Some((p, false)),
            });
        }
        log.unwind(Seq(0), |e| {
            let r = e.areg.unwrap();
            rat.set(r, e.prev_preg);
            rat.set_poison(r, e.prev_poison);
            if let Some((p, _)) = e.allocated {
                rf.dealloc(p);
            }
        });
        assert_eq!(rat, snapshot);
        assert_eq!(rf.free_count(), 64 - NUM_ARCH_REGS);
    }
}
