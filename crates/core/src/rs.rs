//! Reservation stations and execution-port accounting.

use crate::types::Seq;

/// Reservation-station occupancy tracking with a critical-partition limit
/// (§3.5: RS is partitioned "by imposing a limit on the number of critical
/// uops").
///
/// Wakeup/select runs in the core (it needs the instruction pool); this type
/// owns capacity accounting and the entry list.
#[derive(Clone, Debug)]
pub(crate) struct ReservationStations {
    entries: Vec<(Seq, bool)>,
    cap: usize,
    crit_count: usize,
    crit_limit: usize,
}

impl ReservationStations {
    pub fn new(cap: usize, crit_limit: usize) -> ReservationStations {
        ReservationStations {
            entries: Vec::with_capacity(cap),
            cap,
            crit_count: 0,
            crit_limit,
        }
    }

    pub fn has_space(&self, critical: bool) -> bool {
        self.entries.len() < self.cap && (!critical || self.crit_count < self.crit_limit)
    }

    pub fn insert(&mut self, seq: Seq, critical: bool) {
        debug_assert!(self.has_space(critical));
        self.entries.push((seq, critical));
        if critical {
            self.crit_count += 1;
        }
    }

    pub fn remove(&mut self, seq: Seq) {
        if let Some(pos) = self.entries.iter().position(|&(s, _)| s == seq) {
            let (_, critical) = self.entries.swap_remove(pos);
            if critical {
                self.crit_count -= 1;
            }
        }
    }

    /// Removes all entries younger than `target` (flush).
    pub fn flush_after(&mut self, target: Seq) {
        self.entries.retain(|&(s, _)| s <= target);
        self.crit_count = self.entries.iter().filter(|&&(_, c)| c).count();
    }

    /// Waiting entries in ascending seq order (oldest-first select).
    pub fn entries_oldest_first(&self) -> Vec<Seq> {
        let mut v: Vec<Seq> = self.entries.iter().map(|&(s, _)| s).collect();
        v.sort();
        v
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub fn critical_count(&self) -> usize {
        self.crit_count
    }

    pub fn set_critical_limit(&mut self, limit: usize) {
        self.crit_limit = limit;
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Per-cycle execution-port budget.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PortBudget {
    pub int: u32,
    pub fp: u32,
    pub load: u32,
    pub store: u32,
}

impl PortBudget {
    /// Tries to consume a port of the given class; returns whether one was
    /// available.
    pub fn take(&mut self, class: PortClass) -> bool {
        let slot = match class {
            PortClass::Int => &mut self.int,
            PortClass::Fp => &mut self.fp,
            PortClass::Load => &mut self.load,
            PortClass::Store => &mut self.store,
        };
        if *slot > 0 {
            *slot -= 1;
            true
        } else {
            false
        }
    }

    /// One bit ([`PortClass::bit`]) per class that still has a free port;
    /// zero once every class is spent.
    pub fn free_mask(&self) -> u8 {
        let free = |n: u32, c: PortClass| if n > 0 { c.bit() } else { 0 };
        free(self.int, PortClass::Int)
            | free(self.fp, PortClass::Fp)
            | free(self.load, PortClass::Load)
            | free(self.store, PortClass::Store)
    }
}

/// Execution port classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PortClass {
    Int,
    Fp,
    Load,
    Store,
}

impl PortClass {
    /// Number of port classes.
    pub const COUNT: usize = 4;

    /// This class's bit in a port-class mask ([`PortBudget::free_mask`]).
    pub fn bit(self) -> u8 {
        1 << self as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_and_critical_limit() {
        let mut rs = ReservationStations::new(4, 2);
        rs.insert(Seq(1), true);
        rs.insert(Seq(2), true);
        assert!(!rs.has_space(true), "critical limit");
        assert!(rs.has_space(false));
        rs.insert(Seq(3), false);
        rs.insert(Seq(4), false);
        assert!(!rs.has_space(false), "full");
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.critical_count(), 2);
    }

    #[test]
    fn remove_updates_critical_count() {
        let mut rs = ReservationStations::new(4, 2);
        rs.insert(Seq(1), true);
        rs.insert(Seq(2), false);
        rs.remove(Seq(1));
        assert_eq!(rs.critical_count(), 0);
        assert_eq!(rs.len(), 1);
        rs.remove(Seq(99)); // absent: no-op
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn flush_and_ordering() {
        let mut rs = ReservationStations::new(8, 4);
        for i in [5u64, 1, 3, 7] {
            rs.insert(Seq(i), i % 2 == 1);
        }
        assert_eq!(
            rs.entries_oldest_first(),
            vec![Seq(1), Seq(3), Seq(5), Seq(7)]
        );
        rs.flush_after(Seq(3));
        assert_eq!(rs.entries_oldest_first(), vec![Seq(1), Seq(3)]);
        assert_eq!(rs.critical_count(), 2);
    }

    #[test]
    fn port_budget() {
        let mut p = PortBudget {
            int: 2,
            fp: 1,
            load: 1,
            store: 0,
        };
        assert!(p.take(PortClass::Int));
        assert!(p.take(PortClass::Int));
        assert!(!p.take(PortClass::Int));
        assert!(p.take(PortClass::Fp));
        assert!(!p.take(PortClass::Store));
        assert_eq!(p.free_mask(), PortClass::Load.bit(), "a load port remains");
        assert!(p.take(PortClass::Load));
        assert_eq!(p.free_mask(), 0);
    }
}
