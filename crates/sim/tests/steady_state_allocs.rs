//! Pins the fetch and flush stages at zero steady-state heap allocations.
//!
//! Every frontend-heavy cell runs its default warmup unprofiled, then its
//! measured window with the profiler attached; neither stage may allocate
//! inside that window. The same window pins the profiler's exact counts:
//! the seven stages' allocations add up to every allocation the window
//! made (allocation counting is never sampled), and the profile counts the
//! window's cycles and uops only, not the warmup's. The allocation
//! counters are process-wide, so this binary holds exactly one test: a
//! second one running in parallel would charge its allocations to these
//! stages.

use cdf_core::prof::alloc_counts;
use cdf_core::{Core, CoreConfig, Stage};
use cdf_sim::{EvalConfig, Mechanism};
use cdf_workloads::registry;

#[global_allocator]
static ALLOC: cdf_core::CountingAlloc = cdf_core::CountingAlloc;

#[test]
fn fetch_and_flush_do_not_allocate_after_warmup() {
    let eval = EvalConfig::default();
    let end = eval.warmup_instructions + eval.measure_instructions;
    for name in ["astar_like", "mcf_like", "bzip_like", "lbm_like"] {
        let w = registry::lookup(name, &eval.gen).expect("known workload");
        for mech in [Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre] {
            let cfg = CoreConfig {
                mode: mech.mode(),
                ..eval.core.clone()
            };
            let mut core = Core::new(&w.program, w.memory.clone(), cfg);
            core.run(eval.warmup_instructions);
            core.enable_prof();
            let warm = core.stats().retired;
            let (allocs0, _) = alloc_counts();
            while !core.halted() && core.stats().retired < end {
                core.step();
            }
            let (allocs1, _) = alloc_counts();
            let retired = core.stats().retired;
            assert!(retired >= end, "{name}/{}: window ran", mech.label());
            let profile = core.take_profile(0).expect("profiling was enabled");
            let stage = |s: Stage| {
                profile
                    .stages
                    .iter()
                    .find(|x| x.name == s.label())
                    .expect("every stage is reported")
            };
            assert_eq!(
                profile.cycles,
                stage(Stage::Retire).calls,
                "{name}/{}: the profile counts the window's cycles",
                mech.label()
            );
            assert_eq!(
                profile.retired,
                retired - warm,
                "{name}/{}: the profile counts the window's uops",
                mech.label()
            );
            let staged: u64 = profile.stages.iter().map(|s| s.allocs).sum();
            assert_eq!(
                staged,
                allocs1 - allocs0,
                "{name}/{}: every allocation of the window lands in a stage",
                mech.label()
            );
            for s in [Stage::Fetch, Stage::Flush] {
                let sample = stage(s);
                assert_eq!(
                    sample.allocs,
                    0,
                    "{name}/{}: {} allocated {} times ({} bytes)",
                    mech.label(),
                    s.label(),
                    sample.allocs,
                    sample.alloc_bytes
                );
            }
        }
    }
}
