//! Lockstep retirement observation.
//!
//! The retire stage is the only place the out-of-order core touches
//! architectural state, so it is the natural seam for differential
//! validation: a [`RetireObserver`] attached to a [`Core`](crate::Core) sees
//! every retired uop's architectural effects ([`RetiredUop`]) in program
//! order, regardless of how speculatively the uop was fetched or executed.
//!
//! [`OracleLockstep`] is the reference observer: it advances the functional
//! executor from `cdf-isa` one step per retired uop and records the first
//! point where the timing core's retirement stream deviates from the
//! architectural truth — wrong destination value, wrong store address or
//! data, wrong control flow, or a retirement stream that is too long or too
//! short. Catching a divergence *at the retiring uop* (instead of comparing
//! final states at halt) turns "the final checksum is wrong" into "uop 17482
//! at pc 23 loaded 0 instead of 42", which is what makes fuzzing the CDF
//! replay machinery practical.
//!
//! Observation is strictly read-only: a core with no observer attached runs
//! zero observer code and produces bit-identical
//! [`CoreStats`](crate::CoreStats) to one built before this module existed,
//! and an attached observer never feeds anything back into the pipeline.

use cdf_isa::{ArchReg, ExecError, Executor, MemoryImage, Op, Pc, Program};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The architectural effects of one retired uop, in program order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetiredUop {
    /// Position in the retirement stream (0 for the first retired uop).
    pub index: u64,
    /// Static program counter of the uop.
    pub pc: Pc,
    /// The operation.
    pub op: Op,
    /// Destination register and the value it received (`MovImm`, ALU, loads).
    pub dst: Option<(ArchReg, u64)>,
    /// Committed store: effective address and data.
    pub store: Option<(u64, u64)>,
    /// Completed load: effective address and loaded value.
    pub load: Option<(u64, u64)>,
    /// Resolved direction for conditional branches.
    pub taken: Option<bool>,
    /// Architectural next PC (`None` after `Halt`).
    pub next_pc: Option<Pc>,
    /// The uop retired from the critical ROB partition (CDF/PRE stream).
    pub critical: bool,
    /// CDF dependence-chain id the uop was fetched under (0 = none) —
    /// provenance only, never folded into the digest: the architectural
    /// stream must be identical whatever chain fetched it.
    pub chain: u64,
}

/// A hook invoked once per retired uop, in program order.
///
/// Implementations must be observation-only: the core guarantees the hook
/// cannot perturb simulation (it receives no mutable core access), and the
/// zero-cost contract in [`crate::Core::attach_retire_observer`] relies on
/// it.
pub trait RetireObserver: fmt::Debug {
    /// Called after the uop's architectural effects have been committed.
    fn on_retire(&mut self, uop: &RetiredUop);
}

/// Which architectural effect disagreed with the oracle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DivergenceKind {
    /// The retired pc was not the pc the oracle was about to execute.
    Pc,
    /// Destination register or value mismatch.
    DestValue,
    /// Store effective-address mismatch.
    StoreAddr,
    /// Store data mismatch.
    StoreData,
    /// Load value mismatch (address or loaded data).
    LoadValue,
    /// Conditional-branch direction mismatch.
    BranchDirection,
    /// Architectural next-PC mismatch.
    NextPc,
    /// The core retired a uop after the oracle halted (or the oracle left
    /// the program) — the retirement stream is too long.
    StreamTooLong,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::Pc => "pc",
            DivergenceKind::DestValue => "dest-value",
            DivergenceKind::StoreAddr => "store-addr",
            DivergenceKind::StoreData => "store-data",
            DivergenceKind::LoadValue => "load-value",
            DivergenceKind::BranchDirection => "branch-direction",
            DivergenceKind::NextPc => "next-pc",
            DivergenceKind::StreamTooLong => "stream-too-long",
        };
        f.write_str(s)
    }
}

/// The first point where the retirement stream deviated from the oracle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// Retirement-stream index of the offending uop.
    pub index: u64,
    /// Its program counter.
    pub pc: Pc,
    /// Which effect disagreed.
    pub kind: DivergenceKind,
    /// What the oracle produced, rendered for humans.
    pub expected: String,
    /// What the core retired, rendered for humans.
    pub actual: String,
    /// The dependence-chain id of the offending uop (0 = none) so fuzz
    /// reports name the CDF chain whose replay went wrong.
    pub chain: u64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "uop {} at {}: {} expected {}, got {}",
            self.index, self.pc, self.kind, self.expected, self.actual
        )?;
        if self.chain != 0 {
            write!(f, " (chain {})", self.chain)?;
        }
        Ok(())
    }
}

/// Shared result of a lockstep run, readable after the core finishes via the
/// handle returned by [`OracleLockstep::log`].
#[derive(Clone, Debug)]
pub struct LockstepLog {
    /// Retired uops compared against the oracle.
    pub checked: u64,
    /// Retired uops from the critical partition.
    pub critical: u64,
    /// The first divergence, if any. Comparison stops at the first hit so
    /// the report points at the root cause, not at downstream fallout.
    pub divergence: Option<Divergence>,
    /// FNV-1a digest over the architectural effects of the retirement
    /// stream. Two mechanisms that retire identical architectural streams
    /// have identical digests, whatever their timing.
    pub digest: u64,
}

impl Default for LockstepLog {
    fn default() -> LockstepLog {
        LockstepLog {
            checked: 0,
            critical: 0,
            divergence: None,
            digest: FNV_OFFSET,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl LockstepLog {
    fn fold(&mut self, uop: &RetiredUop) {
        let mut h = self.digest;
        h = fnv_u64(h, uop.pc.index() as u64);
        if let Some((r, v)) = uop.dst {
            h = fnv_u64(h, r.index() as u64 + 1);
            h = fnv_u64(h, v);
        }
        if let Some((a, v)) = uop.store {
            h = fnv_u64(h, a);
            h = fnv_u64(h, v);
        }
        h = fnv_u64(h, uop.next_pc.map(|p| p.index() as u64 + 1).unwrap_or(0));
        self.digest = h;
    }
}

/// A [`RetireObserver`] that replays the program on the functional executor
/// in lockstep with retirement and records the first divergence.
///
/// ```
/// use cdf_core::{Core, CoreConfig, OracleLockstep};
/// use cdf_isa::{ProgramBuilder, ArchReg::*, MemoryImage};
///
/// # fn main() -> Result<(), cdf_isa::BuildError> {
/// let mut b = ProgramBuilder::new();
/// b.movi(R1, 5);
/// let top = b.label("top");
/// b.bind(top)?;
/// b.addi(R2, R2, 3);
/// b.addi(R1, R1, -1);
/// b.brnz(R1, top);
/// b.halt();
/// let program = b.build()?;
///
/// let mem = MemoryImage::new();
/// let checker = OracleLockstep::new(&program, mem.clone());
/// let log = checker.log();
/// let mut core = Core::new(&program, mem, CoreConfig::default());
/// core.attach_retire_observer(Box::new(checker));
/// core.run(100_000);
/// let log = log.borrow();
/// assert!(log.divergence.is_none());
/// assert_eq!(log.checked, 17);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OracleLockstep<'p> {
    exec: Executor<'p>,
    log: Rc<RefCell<LockstepLog>>,
}

impl<'p> OracleLockstep<'p> {
    /// Creates a checker over the same program and initial memory the core
    /// was built with.
    pub fn new(program: &'p Program, mem: MemoryImage) -> OracleLockstep<'p> {
        OracleLockstep {
            exec: Executor::new(program, mem),
            log: Rc::new(RefCell::new(LockstepLog::default())),
        }
    }

    /// A shared handle to the comparison log; read it after the run.
    pub fn log(&self) -> Rc<RefCell<LockstepLog>> {
        Rc::clone(&self.log)
    }
}

fn diverge(uop: &RetiredUop, kind: DivergenceKind, expected: String, actual: String) -> Divergence {
    Divergence {
        index: uop.index,
        pc: uop.pc,
        kind,
        expected,
        actual,
        chain: uop.chain,
    }
}

fn fmt_opt<T: fmt::Debug>(v: &Option<T>) -> String {
    match v {
        Some(x) => format!("{x:?}"),
        None => "none".to_string(),
    }
}

impl RetireObserver for OracleLockstep<'_> {
    fn on_retire(&mut self, uop: &RetiredUop) {
        let mut log = self.log.borrow_mut();
        log.checked += 1;
        if uop.critical {
            log.critical += 1;
        }
        log.fold(uop);
        if log.divergence.is_some() {
            return; // report the first root cause only
        }
        let oracle_pc = self.exec.pc();
        let ev = match self.exec.step() {
            Ok(ev) => ev,
            Err(e) => {
                let what = match e {
                    ExecError::AlreadyHalted => "oracle already halted".to_string(),
                    other => format!("oracle error: {other}"),
                };
                log.divergence = Some(diverge(
                    uop,
                    DivergenceKind::StreamTooLong,
                    what,
                    format!("retired {:?} at {}", uop.op, uop.pc),
                ));
                return;
            }
        };
        let d = if uop.pc != oracle_pc {
            Some(diverge(
                uop,
                DivergenceKind::Pc,
                format!("{oracle_pc}"),
                format!("{}", uop.pc),
            ))
        } else if uop.dst != ev.dst {
            Some(diverge(
                uop,
                DivergenceKind::DestValue,
                fmt_opt(&ev.dst),
                fmt_opt(&uop.dst),
            ))
        } else if uop.store.map(|(a, _)| a) != ev.store.map(|(a, _)| a) {
            Some(diverge(
                uop,
                DivergenceKind::StoreAddr,
                fmt_opt(&ev.store),
                fmt_opt(&uop.store),
            ))
        } else if uop.store != ev.store {
            Some(diverge(
                uop,
                DivergenceKind::StoreData,
                fmt_opt(&ev.store),
                fmt_opt(&uop.store),
            ))
        } else if uop.load != ev.load {
            Some(diverge(
                uop,
                DivergenceKind::LoadValue,
                fmt_opt(&ev.load),
                fmt_opt(&uop.load),
            ))
        } else if uop.taken != ev.branch_taken {
            Some(diverge(
                uop,
                DivergenceKind::BranchDirection,
                fmt_opt(&ev.branch_taken),
                fmt_opt(&uop.taken),
            ))
        } else if uop.next_pc != ev.next_pc {
            Some(diverge(
                uop,
                DivergenceKind::NextPc,
                fmt_opt(&ev.next_pc),
                fmt_opt(&uop.next_pc),
            ))
        } else {
            None
        };
        log.divergence = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdf_isa::ArchReg::*;
    use cdf_isa::ProgramBuilder;

    fn toy_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(R1, 3);
        b.movi(R2, 0x100);
        let top = b.label("top");
        b.bind(top).unwrap();
        b.add(R3, R3, R1);
        b.store(R3, R2, 0);
        b.load(R4, R2, 0);
        b.addi(R1, R1, -1);
        b.brnz(R1, top);
        b.halt();
        b.build().unwrap()
    }

    /// Feeds the oracle's own step events back as "retired uops": must never
    /// diverge, and the digest must be reproducible.
    #[test]
    fn oracle_agrees_with_itself() {
        let p = toy_program();
        let mut checker = OracleLockstep::new(&p, MemoryImage::new());
        let log = checker.log();
        let mut reference = Executor::new(&p, MemoryImage::new());
        let mut index = 0;
        while !reference.is_halted() {
            let pc = reference.pc();
            let op = p.get(pc).unwrap().op;
            let ev = reference.step().unwrap();
            checker.on_retire(&RetiredUop {
                index,
                pc,
                op,
                dst: ev.dst,
                store: ev.store,
                load: ev.load,
                taken: ev.branch_taken,
                next_pc: ev.next_pc,
                critical: false,
                chain: 0,
            });
            index += 1;
        }
        let log = log.borrow();
        assert_eq!(log.divergence, None);
        assert_eq!(log.checked, index);
        assert_ne!(log.digest, 0);
    }

    #[test]
    fn wrong_dest_value_is_caught() {
        let p = toy_program();
        let mut checker = OracleLockstep::new(&p, MemoryImage::new());
        let log = checker.log();
        checker.on_retire(&RetiredUop {
            index: 0,
            pc: Pc::new(0),
            op: Op::MovImm,
            dst: Some((R1, 999)), // oracle says 3
            store: None,
            load: None,
            taken: None,
            next_pc: Some(Pc::new(1)),
            critical: false,
            chain: 0,
        });
        let log = log.borrow();
        let d = log.divergence.as_ref().expect("must diverge");
        assert_eq!(d.kind, DivergenceKind::DestValue);
        assert_eq!(d.index, 0);
    }

    #[test]
    fn stream_too_long_is_caught() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let mut checker = OracleLockstep::new(&p, MemoryImage::new());
        let log = checker.log();
        let halt = RetiredUop {
            index: 0,
            pc: Pc::new(0),
            op: Op::Halt,
            dst: None,
            store: None,
            load: None,
            taken: None,
            next_pc: None,
            critical: false,
            chain: 0,
        };
        checker.on_retire(&halt);
        assert!(log.borrow().divergence.is_none());
        checker.on_retire(&RetiredUop { index: 1, ..halt });
        let log = log.borrow();
        assert_eq!(
            log.divergence.as_ref().map(|d| d.kind),
            Some(DivergenceKind::StreamTooLong)
        );
    }
}
