//! Memory-model equivalence suite: the event-driven memory-hierarchy
//! bookkeeping must be **bit-identical** to the lazy rescanning reference
//! it replaced — same retirement digest, same oracle-checked uop count,
//! same complete [`CoreStats`] — on every mechanism, and the full golden
//! grid must agree cell for cell.
//!
//! The in-tree tests run bounded campaigns; the full acceptance campaign
//! (500 seeds × all seven mechanisms) is the `#[ignore]`d
//! `full_mem_equivalence_campaign`, run explicitly in CI release mode or
//! via `cdf-sim equiv --mem`.
//!
//! [`CoreStats`]: cdf_core::CoreStats

use cdf_core::MemModelKind;
use cdf_sim::{
    collect_golden, run_equivalence, workload_equivalence_axis, EquivAxis, EquivConfig, EvalConfig,
    GoldenConfig, Mechanism,
};

#[test]
fn bounded_fuzz_mem_equivalence_all_mechanisms() {
    let cfg = EquivConfig {
        seeds: 24,
        start_seed: 1,
        mechanisms: Mechanism::ALL.to_vec(),
        axis: EquivAxis::MemModel,
        ..EquivConfig::default()
    };
    let report = run_equivalence(&cfg);
    assert!(report.clean(), "{}", report.render_summary());
    assert_eq!(report.cases, 24 * 7);
    assert!(report.checked_uops > 0, "oracle compared retired uops");
}

/// Full warmup+measure windows compared [`cdf_sim::Measurement`]-for-
/// measurement under both memory models: DRAM line traffic and energy are
/// folded in, so a model that reordered memory-system events would fail
/// here even with a clean retirement stream. The second case inflates the
/// MSHR files to 128 L1D and 256 LLC entries, the high-MLP regime where
/// the lazy files rescan the most entries per access.
#[test]
fn workload_windows_bit_identical_across_mem_models() {
    let mut cfg = EvalConfig::quick();
    cfg.warmup_instructions = 5_000;
    cfg.measure_instructions = 10_000;
    let mut inflated = cfg.clone();
    inflated.core.mem.l1d_mshrs = 128;
    inflated.core.mem.llc_mshrs = 256;
    let cases: [(&[&str], EvalConfig); 2] = [
        (&["astar_like", "mcf_like", "libq_like", "sphinx_like"], cfg),
        (&["mcf_like", "lbm_like"], inflated),
    ];
    for (workloads, cfg) in &cases {
        let mismatches = workload_equivalence_axis(
            workloads,
            &[Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre],
            cfg,
            EquivAxis::MemModel,
        );
        assert!(mismatches.is_empty(), "windows diverged: {mismatches:#?}");
    }
}

/// The complete golden grid (every workload × every mechanism), collected
/// under both memory models and compared cell for cell — the grid-level
/// version of the `cdf-sim equiv --mem` proof.
#[test]
fn golden_grid_bit_identical_across_mem_models() {
    let event = collect_golden(&GoldenConfig {
        mem_model: MemModelKind::EventDriven,
        ..GoldenConfig::default()
    });
    let lazy = collect_golden(&GoldenConfig {
        mem_model: MemModelKind::ReferenceLazy,
        ..GoldenConfig::default()
    });
    assert_eq!(event.len(), lazy.len());
    for (e, l) in event.iter().zip(&lazy) {
        assert_eq!(e.workload, l.workload);
        assert_eq!(e.mechanism, l.mechanism);
        assert_eq!(
            e.stats, l.stats,
            "mem models diverged on {}/{}",
            e.workload, e.mechanism
        );
    }
}

/// The full acceptance campaign: 500 seeds × all seven mechanisms, each
/// seed run to completion under both memory models with per-retired-uop
/// oracle checking.
/// `cargo test -p cdf-sim --release --test mem_equivalence -- --ignored`
#[test]
#[ignore = "full 3500-case campaign; run explicitly in release mode"]
fn full_mem_equivalence_campaign() {
    let report = run_equivalence(&EquivConfig {
        axis: EquivAxis::MemModel,
        ..EquivConfig::default()
    });
    assert_eq!(report.cases, 3500);
    assert!(report.clean(), "{}", report.render_summary());
}
