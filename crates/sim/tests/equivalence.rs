//! Scheduler-equivalence suite: the event-driven wakeup/select scheduler
//! must be **bit-identical** to the reference scan scheduler it replaced —
//! same retirement digest, same oracle-checked uop count, same complete
//! [`CoreStats`] — on every mechanism, with every retired uop also checked
//! against the functional executor by the lockstep oracle.
//!
//! The in-tree test runs a bounded campaign; the full ISSUE-4 campaign
//! (500 seeds × all seven mechanisms = 3500 dual-scheduler cases) is the
//! `#[ignore]`d `full_equivalence_campaign`, run explicitly in CI release
//! mode or via `cdf-sim equiv`.
//!
//! [`CoreStats`]: cdf_core::CoreStats

use cdf_core::ExecPorts;
use cdf_sim::{
    run_equivalence, workload_equivalence_axis, EquivAxis, EquivConfig, EvalConfig, Mechanism,
};

#[test]
fn bounded_fuzz_equivalence_all_mechanisms() {
    let cfg = EquivConfig {
        seeds: 24,
        start_seed: 1,
        mechanisms: Mechanism::ALL.to_vec(),
        ..EquivConfig::default()
    };
    let report = run_equivalence(&cfg);
    assert!(report.clean(), "{}", report.render_summary());
    assert_eq!(report.cases, 24 * 7);
    assert!(report.checked_uops > 0, "oracle compared retired uops");
}

/// Full warmup+measure windows compared [`cdf_sim::Measurement`]-for-
/// measurement: DRAM line traffic and energy are folded in, so a scheduler
/// that reordered memory-system events would fail here even with a clean
/// retirement stream. The second case is port-starved — one port per class
/// and four L1D MSHRs — so int, fp, load and store ports run out in
/// different orders within a cycle, and select must skip spent classes
/// while younger uops of other classes still issue.
#[test]
fn workload_windows_bit_identical_across_schedulers() {
    let mut cfg = EvalConfig::quick();
    cfg.warmup_instructions = 5_000;
    cfg.measure_instructions = 10_000;
    let mut starved = cfg.clone();
    starved.core.ports = ExecPorts {
        int: 1,
        fp: 1,
        load: 1,
        store: 1,
    };
    starved.core.mem.l1d_mshrs = 4;
    let cases: [(&[&str], EvalConfig); 2] = [
        (&["astar_like", "mcf_like", "libq_like", "sphinx_like"], cfg),
        (
            &[
                "astar_like",
                "mcf_like",
                "bzip_like",
                "lbm_like",
                "libq_like",
            ],
            starved,
        ),
    ];
    for (workloads, cfg) in &cases {
        let mismatches = workload_equivalence_axis(
            workloads,
            &[Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre],
            cfg,
            EquivAxis::Scheduler,
        );
        assert!(mismatches.is_empty(), "windows diverged: {mismatches:#?}");
    }
}

/// The full acceptance campaign: 500 seeds × all seven mechanisms, each
/// seed run to completion under both schedulers with per-retired-uop oracle
/// checking. `cargo test -p cdf-sim --release --test equivalence -- --ignored`
#[test]
#[ignore = "full 3500-case campaign; run explicitly in release mode"]
fn full_equivalence_campaign() {
    let report = run_equivalence(&EquivConfig::default());
    assert_eq!(report.cases, 3500);
    assert!(report.clean(), "{}", report.render_summary());
}
