//! N cores in deterministic round-robin lockstep over one shared memory
//! system.
//!
//! Each core runs its own program on its own architectural state, with a
//! private L1 slice; the LLC, the LLC MSHR pool, and the DDR4 channels are
//! shared through [`MultiCoreMemory`]. The driver advances all live cores
//! **one cycle at a time, in core-id order** — never letting any core's
//! clock run ahead — so every shared-resource interaction (MSHR admission,
//! DRAM bank/bus queueing, LLC eviction) happens in one globally defined
//! order and runs are bit-reproducible: same programs + same configs ⇒
//! same per-core [`CoreStats`] and shared counters, every time. The
//! determinism argument is spelled out in DESIGN.md ("Multi-core
//! boundary").
//!
//! A core leaves the rotation when it halts, hits its retirement target,
//! or exhausts the cycle budget; the survivors keep stepping, so global
//! time stays monotone non-decreasing across every access the shared
//! system sees (the event-driven MSHR watermark asserts this in debug
//! builds).

use crate::config::CoreConfig;
use crate::core_impl::Core;
use crate::stats::CoreStats;
use cdf_isa::{MemoryImage, Program};
use cdf_mem::{CoreShareStats, DramStats, MemStats, MultiCoreMemory, SharedMemConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// What one core produced in a co-scheduled run.
#[derive(Clone, Debug)]
pub struct CoreOutcome {
    /// The core's pipeline statistics (identical in shape to a solo run).
    pub stats: CoreStats,
    /// The core's memory traffic (its slice of the shared system).
    pub mem: MemStats,
    /// Shared-resource attribution: DRAM traffic, LLC rejections, and MSHR
    /// fairness steals suffered/caused.
    pub share: CoreShareStats,
    /// Resident LLC lines this core's fills own at end of run.
    pub llc_occupancy: usize,
}

/// End-of-run snapshot of the shared resources.
#[derive(Clone, PartialEq, Debug)]
pub struct SharedStatsReport {
    /// Shared totals across all cores (folds the per-core slices).
    pub mem: MemStats,
    /// `(hits, misses)` of the shared LLC.
    pub llc: (u64, u64),
    /// Shared DRAM counters.
    pub dram: DramStats,
    /// Per-channel DRAM data-bus busy cycles (divide by `cycles` for
    /// utilization).
    pub channel_busy: Vec<u64>,
    /// Total MSHR fairness steals.
    pub total_steals: u64,
    /// Cycles the longest-running core consumed (the mix's wall clock).
    pub cycles: u64,
}

/// N cores over one shared memory system, stepped in round-robin lockstep.
/// See the [module docs](self).
#[derive(Debug)]
pub struct MultiCore<'p> {
    cores: Vec<Core<'p>>,
    sys: Rc<RefCell<MultiCoreMemory>>,
}

impl<'p> MultiCore<'p> {
    /// Builds `workloads.len()` cores sharing one memory system. Each entry
    /// supplies the core's program, initial data memory, and configuration;
    /// the **first** core's `cfg.mem` stamps out the shared geometry (L1
    /// slices included), keeping one-config-per-system semantics.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    pub fn new(workloads: Vec<(&'p Program, MemoryImage, CoreConfig)>) -> MultiCore<'p> {
        assert!(!workloads.is_empty(), "a multi-core system needs cores");
        let shared_cfg = SharedMemConfig {
            cores: workloads.len(),
            mem: workloads[0].2.mem.clone(),
        };
        let sys = Rc::new(RefCell::new(MultiCoreMemory::new(shared_cfg)));
        let cores = workloads
            .into_iter()
            .enumerate()
            .map(|(id, (program, mem, cfg))| {
                Core::new_shared(program, mem, cfg, id, Rc::clone(&sys))
            })
            .collect();
        MultiCore { cores, sys }
    }

    /// The shared memory system (invariant checks, diagnostics).
    pub fn shared(&self) -> &Rc<RefCell<MultiCoreMemory>> {
        &self.sys
    }

    /// The cores (read access to per-core state mid-run).
    pub fn cores(&self) -> &[Core<'p>] {
        &self.cores
    }

    /// Mutable access to the cores, so a driver can enable per-core
    /// observation sidecars (telemetry, host profiling) before
    /// [`run`](Self::run) and drain them after.
    pub fn cores_mut(&mut self) -> &mut [Core<'p>] {
        &mut self.cores
    }

    /// Runs every core until it halts, retires `max_instructions`, or the
    /// shared clock reaches `cycle_budget`, advancing live cores one cycle
    /// at a time in core-id order. Returns per-core outcomes (index =
    /// core id); shared totals come from [`shared_report`](Self::shared_report).
    ///
    /// A core that [stalls](Core::stalled) stops there while the others run
    /// on. Conservation invariants of the shared pool are asserted at end of
    /// run (and continuously by the proptest battery).
    ///
    /// # Panics
    ///
    /// Panics on a shared-pool invariant violation — a simulator bug, never
    /// a workload property.
    pub fn run(&mut self, max_instructions: u64, cycle_budget: u64) -> Vec<CoreOutcome> {
        self.run_inner(max_instructions, cycle_budget, false)
    }

    /// Like [`run`](Self::run), but asserts the shared pool's conservation
    /// invariants after **every** round-robin sweep instead of only at end
    /// of run (per-core rejections + in-flight ≤ pool capacity, fairness
    /// counters summing to total steals, per-core ledgers folding to the
    /// shared totals). Much slower; this is the property-test entry point.
    pub fn run_checked(&mut self, max_instructions: u64, cycle_budget: u64) -> Vec<CoreOutcome> {
        self.run_inner(max_instructions, cycle_budget, true)
    }

    fn run_inner(
        &mut self,
        max_instructions: u64,
        cycle_budget: u64,
        check_every_sweep: bool,
    ) -> Vec<CoreOutcome> {
        let live = |c: &mut Core| {
            !c.halted()
                && c.stalled().is_none()
                && c.stats().retired < max_instructions
                && c.now() < cycle_budget
        };
        loop {
            let mut any = false;
            for core in self.cores.iter_mut() {
                if live(core) {
                    core.step();
                    any = true;
                }
            }
            if check_every_sweep {
                let now = self.cores.iter().map(Core::now).max().unwrap_or(0);
                self.sys.borrow_mut().check_invariants(now);
            }
            if !any {
                break;
            }
        }
        let outcomes: Vec<CoreOutcome> = self
            .cores
            .iter_mut()
            .enumerate()
            .map(|(id, core)| {
                let stats = core.finalize_stats();
                let sys = self.sys.borrow();
                CoreOutcome {
                    stats,
                    mem: *sys.core_stats(id),
                    share: *sys.core_share(id),
                    llc_occupancy: sys.llc_occupancy(id),
                }
            })
            .collect();
        let end = outcomes.iter().map(|o| o.stats.cycles).max().unwrap_or(0);
        self.sys.borrow_mut().check_invariants(end);
        outcomes
    }

    /// Snapshot of the shared resources (call after [`run`](Self::run)).
    pub fn shared_report(&self) -> SharedStatsReport {
        let sys = self.sys.borrow();
        SharedStatsReport {
            mem: *sys.shared_stats(),
            llc: sys.llc_stats(),
            dram: *sys.dram_stats(),
            channel_busy: sys.channel_busy().to_vec(),
            total_steals: sys.total_steals(),
            cycles: self.cores.iter().map(|c| c.now()).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreMode;
    use cdf_isa::{ArchReg::*, ProgramBuilder};

    fn loop_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(R1, iters);
        let top = b.label("top");
        b.bind(top).unwrap();
        b.addi(R2, R2, 7);
        b.addi(R1, R1, -1);
        b.brnz(R1, top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn two_cores_run_to_completion_deterministically() {
        let p = loop_program(500);
        let run = || {
            let mut mc = MultiCore::new(vec![
                (&p, MemoryImage::new(), CoreConfig::default()),
                (&p, MemoryImage::new(), CoreConfig::default()),
            ]);
            let out = mc.run(100_000, 2_000_000);
            (
                out[0].stats.clone(),
                out[1].stats.clone(),
                mc.shared_report().dram,
            )
        };
        let (a0, a1, ad) = run();
        let (b0, b1, bd) = run();
        assert!(a0.halted && a1.halted);
        assert_eq!(a0.retired, a1.retired, "symmetric cores retire alike");
        assert_eq!(a0, b0, "run-to-run bit-identical (core 0)");
        assert_eq!(a1, b1, "run-to-run bit-identical (core 1)");
        assert_eq!(ad, bd, "run-to-run bit-identical (shared DRAM)");
    }

    #[test]
    fn uneven_programs_leave_lockstep_cleanly() {
        let short = loop_program(10);
        let long = loop_program(5_000);
        let mut mc = MultiCore::new(vec![
            (&short, MemoryImage::new(), CoreConfig::default()),
            (&long, MemoryImage::new(), CoreConfig::default()),
        ]);
        let out = mc.run(100_000, 2_000_000);
        assert!(out[0].stats.halted && out[1].stats.halted);
        assert!(
            out[1].stats.cycles > out[0].stats.cycles,
            "the long program must outlive the short one"
        );
    }

    #[test]
    fn cdf_mode_runs_shared() {
        let p = loop_program(300);
        let mut mc = MultiCore::new(vec![
            (
                &p,
                MemoryImage::new(),
                CoreConfig {
                    mode: CoreMode::Cdf(crate::config::CdfConfig::default()),
                    ..CoreConfig::default()
                },
            ),
            (&p, MemoryImage::new(), CoreConfig::default()),
        ]);
        let out = mc.run(100_000, 2_000_000);
        assert!(out[0].stats.halted && out[1].stats.halted);
    }
}
