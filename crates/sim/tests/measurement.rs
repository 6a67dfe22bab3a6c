//! A caller that steps a [`Core`] itself derives the same [`Measurement`]
//! as the run path: a [`Reading`] taken at each end of the measurement
//! window, differenced by [`Measurement::between`], equals what
//! [`simulate`] reports, field for field.

use cdf_core::{Core, CoreConfig};
use cdf_sim::{simulate, EvalConfig, Measurement, Mechanism, Reading};
use cdf_workloads::registry;

#[test]
fn readings_around_the_window_give_the_simulate_measurement() {
    let eval = EvalConfig::quick();
    let w = registry::lookup("astar_like", &eval.gen).expect("registered workload");
    for mech in [Mechanism::Baseline, Mechanism::Cdf] {
        let cfg = CoreConfig {
            mode: mech.mode(),
            ..eval.core.clone()
        };
        let mut core = Core::new(&w.program, w.memory.clone(), cfg);
        let warm = core.run_bounded(eval.warmup_instructions, u64::MAX);
        let start = Reading::take(&core, warm);
        let target = eval.warmup_instructions + eval.measure_instructions;
        let end_stats = core.run_bounded(target, u64::MAX);
        let end = Reading::take(&core, end_stats);
        assert_eq!(
            Measurement::between(w.name, mech.label(), &start, &end),
            simulate("astar_like", mech, &eval),
            "{}",
            mech.label()
        );
    }
}
