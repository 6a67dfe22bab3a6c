//! Event-driven wakeup/select scheduler state.
//!
//! The scan scheduler the core shipped with rebuilt, heap-allocated and
//! sorted a `Vec` of every reservation-station entry and re-polled source
//! readiness on every waiting uop, every cycle — O(RS) work per cycle even
//! when nothing woke up. Real wakeup/select hardware is event-driven: a
//! completing uop broadcasts its destination tag and wakes exactly the
//! entries waiting on it. This module is that design:
//!
//! * **Waiter lists (the scoreboard):** one list per physical register,
//!   holding the `(seq, uid)` of every dispatched uop that had that register
//!   as a not-yet-ready source at rename. The completion stage drains the
//!   destination register's list; a woken uop whose sources are now all
//!   ready enters the ready queue of its port class.
//! * **Per-class ready queues:** one min-heap keyed by sequence number per
//!   (criticality × port class) — critical and regular int, fp, load and
//!   store. Select merges the heads of the queues whose class still has a
//!   free port, critical queues first, so it is oldest-first with critical
//!   priority (§3.5) without sorting anything per cycle, and it never pops
//!   a uop whose port class is already spent this cycle.
//! * **Lazy invalidation:** flushes never walk the scheduler. Stale entries
//!   (flushed uops, or re-used sequence numbers) are dropped at wake/select
//!   time by validating `(seq, uid)` against the instruction pool. This
//!   keeps the flush path O(flushed work) and the steady state
//!   allocation-free — every buffer here is reused, never rebuilt. Stale
//!   tokens left in a spent class's queue stay bounded: popping one takes
//!   no port, and live sequence numbers only grow past it, so it reaches
//!   its queue's head and is dropped once select pops that far.
//!
//! Select-order equivalence with the reference scan: the scan visits every
//! entry in `(!critical, seq)` order and issues each ready one whose class
//! has a port left. Port budgets only shrink within a cycle, so a uop the
//! merge never reaches — its class was spent before its turn — is one the
//! scan skipped without side effect; every uop that does issue is popped in
//! the scan's relative order. Store→load forwarding, violation checks and
//! MSHR admission therefore see the same sequence, which the
//! scheduler-equivalence suite in `cdf-sim` proves: both schedulers produce
//! bit-identical `CoreStats` and retirement digests on every mechanism.

use crate::rs::PortClass;
use crate::types::PhysReg;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduler token: the sequence number and dispatch uid of one uop. The
/// uid guards against sequence-number reuse after flushes — a token is only
/// acted on if the pool still holds the same dispatch.
pub(crate) type Token = (u64, u64);

/// Index of one ready queue: critical queues take
/// `0..PortClass::COUNT` (in class order), regular queues the next
/// `PortClass::COUNT`, so the low half of a queue bit mask is the critical
/// half.
pub(crate) type Queue = usize;

const QUEUES: usize = 2 * PortClass::COUNT;
const CRITICAL_QUEUES: u8 = (1 << PortClass::COUNT) - 1;

/// The ready queue holding `class` uops of the given criticality.
fn queue(critical: bool, class: PortClass) -> Queue {
    class as usize + if critical { 0 } else { PortClass::COUNT }
}

/// Event-driven wakeup/select state (see the [module docs](self)).
#[derive(Clone, Debug)]
pub(crate) struct Scheduler {
    /// Per-physical-register waiter lists. Indexed by `PhysReg.0`.
    waiters: Vec<Vec<Token>>,
    /// Ready uops per [`Queue`], each oldest (smallest seq) first.
    ready: [BinaryHeap<Reverse<Token>>; QUEUES],
    /// Bit `q` is set iff `ready[q]` is non-empty.
    nonempty: u8,
    /// Tokens popped this cycle that must be retried next cycle (an execute
    /// attempt that left the uop waiting: MSHR rejection, store-forward
    /// data stall, memory-dependence wait), with their queue.
    deferred: Vec<(Queue, Token)>,
}

impl Scheduler {
    /// Creates scheduler state for a PRF of `phys_regs` registers.
    pub fn new(phys_regs: usize) -> Scheduler {
        Scheduler {
            waiters: vec![Vec::new(); phys_regs],
            ready: Default::default(),
            nonempty: 0,
            deferred: Vec::new(),
        }
    }

    /// Registers `token` as waiting on `p` becoming ready.
    pub fn add_waiter(&mut self, p: PhysReg, token: Token) {
        self.waiters[p.0 as usize].push(token);
    }

    /// Moves the waiter list of `p` into `buf` (cleared first). The list
    /// keeps its capacity for reuse; the caller validates each token and
    /// re-enqueues the genuinely ready ones.
    pub fn drain_waiters(&mut self, p: PhysReg, buf: &mut Vec<Token>) {
        buf.clear();
        buf.append(&mut self.waiters[p.0 as usize]);
    }

    /// Enqueues a ready uop of port class `class` for selection.
    pub fn enqueue_ready(&mut self, critical: bool, class: PortClass, token: Token) {
        self.push(queue(critical, class), token);
    }

    fn push(&mut self, q: Queue, token: Token) {
        self.ready[q].push(Reverse(token));
        self.nonempty |= 1 << q;
    }

    /// Pops the oldest ready token among the queues whose port class has
    /// its bit set in `free` (see [`PortClass::bit`]), critical queues
    /// first. Queues of spent classes are not touched.
    pub fn pop_ready(&mut self, free: u8) -> Option<(Queue, Token)> {
        let eligible = self.nonempty & (free | free << PortClass::COUNT);
        let mut bits = if eligible & CRITICAL_QUEUES != 0 {
            eligible & CRITICAL_QUEUES
        } else {
            eligible
        };
        let mut oldest: Option<(Queue, Token)> = None;
        while bits != 0 {
            let q = bits.trailing_zeros() as Queue;
            bits &= bits - 1;
            let Reverse(head) = *self.ready[q].peek().expect("non-empty bit set");
            if oldest.is_none_or(|(_, t)| head < t) {
                oldest = Some((q, head));
            }
        }
        let (q, token) = oldest?;
        self.ready[q].pop();
        if self.ready[q].is_empty() {
            self.nonempty &= !(1 << q);
        }
        Some((q, token))
    }

    /// Holds a token popped from queue `q` for retry next cycle (it stays
    /// selected-order stable: re-insertion into the seq-keyed heap restores
    /// its position).
    pub fn defer(&mut self, q: Queue, token: Token) {
        self.deferred.push((q, token));
    }

    /// Returns every deferred token to its ready queue (end of select).
    pub fn requeue_deferred(&mut self) {
        while let Some((q, token)) = self.deferred.pop() {
            self.push(q, token);
        }
    }

    /// Number of queued-ready tokens (stale tokens included until popped).
    #[cfg(test)]
    pub fn ready_len(&self) -> usize {
        self.ready.iter().map(BinaryHeap::len).sum()
    }

    /// Number of registered waiter tokens across all registers.
    #[cfg(test)]
    pub fn waiter_len(&self) -> usize {
        self.waiters.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u8 = (1 << PortClass::COUNT) - 1;

    #[test]
    fn select_is_oldest_first_with_critical_priority() {
        let mut s = Scheduler::new(8);
        s.enqueue_ready(false, PortClass::Int, (5, 50));
        s.enqueue_ready(true, PortClass::Load, (9, 90));
        s.enqueue_ready(false, PortClass::Load, (3, 30));
        s.enqueue_ready(true, PortClass::Int, (7, 70));
        // Critical queues drain first; across classes, oldest-first.
        let order: Vec<Token> = std::iter::from_fn(|| s.pop_ready(ALL).map(|(_, t)| t)).collect();
        assert_eq!(order, vec![(7, 70), (9, 90), (3, 30), (5, 50)]);

        // A spent class is skipped and keeps its tokens queued.
        s.enqueue_ready(true, PortClass::Load, (1, 10));
        s.enqueue_ready(false, PortClass::Int, (2, 20));
        let no_load = ALL & !PortClass::Load.bit();
        assert_eq!(
            s.pop_ready(no_load),
            Some((queue(false, PortClass::Int), (2, 20)))
        );
        assert_eq!(s.pop_ready(no_load), None);
        assert_eq!(s.ready_len(), 1);
        assert_eq!(
            s.pop_ready(ALL),
            Some((queue(true, PortClass::Load), (1, 10)))
        );
        assert_eq!(s.pop_ready(ALL), None);
    }

    #[test]
    fn wakeup_drains_exactly_the_written_register() {
        let mut s = Scheduler::new(4);
        s.add_waiter(PhysReg(1), (10, 1));
        s.add_waiter(PhysReg(1), (11, 2));
        s.add_waiter(PhysReg(2), (12, 3));
        let mut buf = Vec::new();
        s.drain_waiters(PhysReg(1), &mut buf);
        assert_eq!(buf, vec![(10, 1), (11, 2)]);
        assert_eq!(s.waiter_len(), 1, "p2's waiter is untouched");
        s.drain_waiters(PhysReg(1), &mut buf);
        assert!(buf.is_empty(), "a second drain finds nothing");
    }

    #[test]
    fn deferred_tokens_return_to_their_queue_in_order() {
        let mut s = Scheduler::new(4);
        s.enqueue_ready(false, PortClass::Load, (4, 1));
        s.enqueue_ready(false, PortClass::Load, (2, 2));
        s.enqueue_ready(true, PortClass::Store, (3, 3));
        while let Some((q, t)) = s.pop_ready(ALL) {
            s.defer(q, t);
        }
        assert_eq!(s.ready_len(), 0);
        s.requeue_deferred();
        let load = queue(false, PortClass::Load);
        assert_eq!(s.pop_ready(PortClass::Load.bit()), Some((load, (2, 2))));
        assert_eq!(s.pop_ready(PortClass::Load.bit()), Some((load, (4, 1))));
        assert_eq!(
            s.pop_ready(PortClass::Store.bit()),
            Some((queue(true, PortClass::Store), (3, 3))),
            "each token returns to its own class's queue"
        );
    }
}
