//! Acceptance suite for the host self-profiling plane:
//!
//! * **observation-only** — attaching the profiler, alone or together with
//!   telemetry and diagnostics, leaves the `Measurement` of all seven
//!   mechanisms bit-identical to a bare run;
//! * **totality property** — for proptest-chosen fuzz programs, the
//!   finalized profile satisfies `tracked + untracked == total_wall` with
//!   the measured wall kept as the total, every stage fraction is sane, and
//!   the stage call and select operation counts cover the run;
//! * **regression classification** — a results store holding `"profile"`
//!   rows lets `compare_runs` flag an injected host-time regression
//!   (slower wall for identical simulated cycles) while leaving exact
//!   metrics untouched.

use cdf_core::{Core, CoreConfig, TelemetryConfig};
use cdf_sim::{
    compare_runs, records_from_cells, run, run_cell, CompareConfig, EvalConfig, Mechanism,
    MetricClass, RecordPayload,
};
use cdf_workloads::fuzz::FuzzSpec;
use cdf_workloads::registry;
use proptest::prelude::*;

fn quick_eval() -> EvalConfig {
    let mut eval = EvalConfig::default();
    eval.gen.scale = 0.02;
    eval.warmup_instructions = 1_000;
    eval.measure_instructions = 2_000;
    eval
}

/// Profiling must be a pure observer — identical measurements with and
/// without it, on every mechanism — and so must all three observers
/// attached at once, as `sweep --telemetry N --explain --profile` runs.
#[test]
fn profiled_measurements_are_bit_identical_on_all_mechanisms() {
    let eval = quick_eval();
    let all_observers = EvalConfig {
        telemetry: Some(TelemetryConfig::default()),
        diagnostics: true,
        ..eval.clone()
    };
    let w = registry::lookup("mcf_like", &eval.gen).expect("known workload");
    for mech in Mechanism::ALL {
        let label = mech.label();
        let run_with = |cfg: &EvalConfig, profile: bool| {
            run(&w, mech.mode(), label, cfg, profile).expect("run succeeds")
        };
        let plain = run_with(&eval, false);
        let profiled = run_with(&eval, true);
        let observed = run_with(&all_observers, true);
        assert_eq!(
            plain.measurement, profiled.measurement,
            "{label}: profiling perturbed the measurement"
        );
        assert_eq!(
            plain.measurement, observed.measurement,
            "{label}: telemetry, diagnostics and the profiler together perturbed the measurement"
        );
        assert!(
            plain.telemetry.is_none() && plain.diagnostics.is_none() && plain.profile.is_none(),
            "{label}: a bare run attaches no observer"
        );
        assert!(
            observed.telemetry.is_some()
                && observed.diagnostics.is_some()
                && observed.profile.is_some(),
            "{label}: every attached observer is returned"
        );
        let p = profiled.profile.expect("profiler returned");
        // Profile cycles span the whole run (warmup + measurement), so they
        // dominate the measured-window cycle count.
        assert!(
            p.cycles >= plain.measurement.cycles,
            "{label}: profile covers the whole run"
        );
        assert!(p.total_wall_ns > 0, "{label}: wall clock ran");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 4b: the totality invariant holds for arbitrary programs,
    /// not just the curated registry.
    #[test]
    fn profile_totality_holds_on_fuzz_programs(seed in 0u64..1_000) {
        let fp = FuzzSpec::from_seed(seed).build();
        let mut core = Core::new(&fp.program, fp.memory.clone(), CoreConfig::default());
        core.enable_prof();
        let t0 = std::time::Instant::now();
        let stats = core.run(fp.fuel);
        let wall = t0.elapsed().as_nanos() as u64;
        let p = core.take_profile(wall).expect("profiling was enabled");
        prop_assert_eq!(
            p.tracked_ns() + p.untracked_ns,
            p.total_wall_ns,
            "stage sum + untracked must tile the wall exactly"
        );
        prop_assert_eq!(p.total_wall_ns, wall, "the estimates fit inside the measured wall");
        prop_assert_eq!(p.retired, stats.retired);
        for s in &p.stages {
            prop_assert!(
                s.ns <= p.total_wall_ns,
                "stage {} exceeds the wall", s.name
            );
        }
        // Every cycle passes through retire and select exactly once, and
        // both are counted on every cycle, timed or not.
        let retire = p.stages.iter().find(|s| s.name == "retire").expect("retire stage");
        prop_assert_eq!(retire.calls, stats.cycles);
        let select = p
            .subsystems
            .iter()
            .find(|s| s.name == "sched_select")
            .expect("sched_select subsystem");
        prop_assert_eq!(select.ops, stats.cycles);
    }
}

/// Satellite 4d: `"profile"` rows in the results store make host-time
/// regressions visible to `compare_runs` — simulated cycles stay exact
/// (Neutral on match), cycles/sec is tolerance-classified and flags the
/// injected slowdown.
#[test]
fn compare_classifies_injected_host_time_regression_from_profile_rows() {
    let eval = quick_eval();
    let cdf = Mechanism::Cdf;
    let cell = run_cell("astar_like", cdf, cdf.mode(), &eval, true);
    assert!(cell.result.is_ok() && cell.profile.is_some());
    let cells = vec![cell];
    let prov = cdf_core::Provenance {
        git_commit: Some("ab".repeat(20)),
        git_dirty: Some(false),
        rustc_version: None,
        host: "test".to_string(),
        timestamp: Some(0),
    };
    let records_a = records_from_cells("runA", &prov, &eval, &cells);
    assert_eq!(records_a.len(), 2, "cell row + profile row");
    assert_eq!(records_a[1].key.kind, "profile");

    // Run B: identical simulated cycles, 3x the host wall time — the kind
    // of regression a slow allocator or accidental O(n^2) introduces.
    let mut records_b = records_from_cells("runB", &prov, &eval, &cells);
    for r in &mut records_b {
        r.run_id = "runB".to_string();
        if let RecordPayload::Throughput { wall_seconds, .. } = &mut r.payload {
            *wall_seconds *= 3.0;
        }
    }

    let refs_a: Vec<_> = records_a.iter().collect();
    let refs_b: Vec<_> = records_b.iter().collect();
    let report = compare_runs(
        ("runA", &refs_a),
        ("runB", &refs_b),
        &CompareConfig::default(),
    );
    assert!(
        report.has_regressions(),
        "3x wall time must classify as a regression:\n{}",
        report.render_summary()
    );
    let profile_diff = report
        .cells
        .iter()
        .find(|d| d.key.kind == "profile")
        .expect("profile cell in the diff");
    let cps = profile_diff
        .metrics
        .iter()
        .find(|m| m.name == "cycles_per_sec")
        .expect("cycles_per_sec metric");
    assert_eq!(cps.class, MetricClass::Regressed);
    let cycles = profile_diff
        .metrics
        .iter()
        .find(|m| m.name == "simulated_cycles")
        .expect("simulated_cycles metric");
    assert_eq!(cycles.class, MetricClass::Unchanged, "cycles stayed exact");

    // Identical runs classify clean: no false positives from profile rows.
    let clean = compare_runs(
        ("runA", &refs_a),
        ("runA", &refs_a),
        &CompareConfig::default(),
    );
    assert!(!clean.has_regressions(), "{}", clean.render_summary());
}
