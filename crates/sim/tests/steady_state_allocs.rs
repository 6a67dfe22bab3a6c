//! Pins the fetch and flush stages at zero steady-state heap allocations.
//!
//! Every frontend-heavy cell runs its default warmup unprofiled, then its
//! measured window with the profiler attached; neither stage may allocate
//! inside that window. The allocation counters are process-wide, so this
//! binary holds exactly one test: a second one running in parallel would
//! charge its allocations to these stages.

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
            let stats = core.run(end);
            assert!(stats.retired >= end, "{name}/{}: window ran", mech.label());
            let profile = core.take_profile(0).expect("profiling was enabled");
            for stage in [Stage::Fetch, Stage::Flush] {
                let sample = profile
                    .stages
                    .iter()
                    .find(|s| s.name == stage.label())
                    .expect("every stage is reported");
                assert_eq!(
                    sample.allocs,
                    0,
                    "{name}/{}: {} allocated {} times ({} bytes)",
                    mech.label(),
                    stage.label(),
                    sample.allocs,
                    sample.alloc_bytes
                );
            }
        }
    }
}
