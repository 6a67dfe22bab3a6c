//! Reservation stations and execution-port accounting.

/// Reservation-station occupancy with a critical-partition limit (§3.5: RS
/// is partitioned "by imposing a limit on the number of critical uops").
///
/// The stations hold exactly the instruction pool's `Waiting` uops, so
/// this type keeps only their counts, total and critical: dispatch inserts
/// a uop, and issue or a flush removes it, each in O(1). Wakeup and select
/// run in the core over the pool.
#[derive(Clone, Debug)]
pub(crate) struct ReservationStations {
    len: usize,
    crit_count: usize,
    cap: usize,
    crit_limit: usize,
}

impl ReservationStations {
    pub fn new(cap: usize, crit_limit: usize) -> ReservationStations {
        ReservationStations {
            len: 0,
            crit_count: 0,
            cap,
            crit_limit,
        }
    }

    pub fn has_space(&self, critical: bool) -> bool {
        self.len < self.cap && (!critical || self.crit_count < self.crit_limit)
    }

    /// A uop enters the stations at dispatch.
    pub fn insert(&mut self, critical: bool) {
        debug_assert!(self.has_space(critical));
        self.len += 1;
        self.crit_count += usize::from(critical);
    }

    /// A waiting uop leaves the stations: it issued, or a flush removed it.
    pub fn remove(&mut self, critical: bool) {
        self.len -= 1;
        self.crit_count -= usize::from(critical);
    }

    pub fn len(&self) -> usize {
        self.len
    }

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
        rs.insert(true);
        rs.insert(true);
        assert!(!rs.has_space(true), "critical limit");
        assert!(rs.has_space(false));
        rs.insert(false);
        rs.insert(false);
        assert!(!rs.has_space(false), "full");
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.critical_count(), 2);
    }

    #[test]
    fn remove_updates_critical_count() {
        let mut rs = ReservationStations::new(4, 2);
        rs.insert(true);
        rs.insert(false);
        rs.remove(true);
        assert_eq!(rs.critical_count(), 0);
        assert_eq!(rs.len(), 1);
        rs.remove(false);
        assert_eq!(rs.len(), 0);
        assert!(rs.has_space(true));
    }

    #[test]
    fn critical_limit_moves_without_touching_occupancy() {
        let mut rs = ReservationStations::new(8, 4);
        for crit in [false, true, false, true] {
            rs.insert(crit);
        }
        rs.set_critical_limit(2);
        assert!(!rs.has_space(true), "two critical uops fill a limit of two");
        assert!(rs.has_space(false));
        rs.set_critical_limit(3);
        assert!(rs.has_space(true));
        assert_eq!((rs.len(), rs.critical_count(), rs.capacity()), (4, 2, 8));
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
