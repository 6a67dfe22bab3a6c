//! # cdf-isa — the uop ISA underneath the CDF simulator
//!
//! This crate defines the compact, RISC-style 64-bit micro-op (uop) ISA that
//! the Criticality Driven Fetch reproduction simulates. It plays the role of
//! the decoded-uop level that Scarab (the paper's simulator) operates on: the
//! timing core in `cdf-core` fetches, renames and executes these uops, and
//! the workload kernels in `cdf-workloads` are small assembly programs built
//! with [`ProgramBuilder`].
//!
//! The crate contains:
//!
//! * [`ArchReg`] / [`RegSet`] — architectural registers and the register
//!   bit-vectors stored per Fill Buffer entry (paper §3.2, Fig. 6);
//! * [`Op`], [`StaticUop`] — opcodes and static uops, including loads/stores
//!   with base+index×scale+displacement addressing and conditional branches;
//! * [`Program`] — a static program with basic-block (CFG leader) analysis,
//!   which the Mask Cache and Critical Uop Cache are keyed on;
//! * [`ProgramBuilder`] — a tiny assembler with labels;
//! * [`MemoryImage`] — a sparse 64-bit memory;
//! * [`Executor`] — the functional (oracle) executor used to validate that the
//!   out-of-order core, with or without CDF/PRE, retires the architecturally
//!   correct result.
//!
//! ```
//! use cdf_isa::{ProgramBuilder, ArchReg, Executor, MemoryImage};
//!
//! # fn main() -> Result<(), cdf_isa::BuildError> {
//! let r = ArchReg::R1;
//! let mut b = ProgramBuilder::new();
//! b.movi(r, 5);
//! let top = b.label("top");
//! b.bind(top)?;
//! b.addi(r, r, -1);
//! b.brnz(r, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut exec = Executor::new(&program, MemoryImage::new());
//! let steps = exec.run(1_000).expect("program halts");
//! assert_eq!(exec.state().reg(r), 0);
//! assert_eq!(steps, 12); // movi + 5 * (addi, brnz) + halt
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod builder;
mod exec;
mod hash;
mod mem_image;
mod op;
mod program;
mod reg;
mod uop;

pub use builder::{BuildError, Label, ProgramBuilder};
pub use exec::{ArchState, ExecError, Executor, StepEvent};
pub use hash::{word_hash, WordHash, WordHasher, WordMap, WordSet};
pub use mem_image::MemoryImage;
pub use op::{AluOp, Cond, Op};
pub use program::{BasicBlock, BlockId, Pc, Program};
pub use reg::{ArchReg, RegSet, NUM_ARCH_REGS};
pub use uop::{MemAddressing, StaticUop};
