//! End-to-end guarantees of the telemetry layer:
//!
//! * the six cycle-accounting buckets sum exactly to `CoreStats::cycles` on
//!   every registered workload;
//! * interval-sampler deltas sum to the end-of-run aggregates for arbitrary
//!   interval lengths and ring capacities (property-tested);
//! * telemetry — enabled or disabled — never perturbs `CoreStats` or
//!   `Measurement`s, in direct runs and through the sweep runner;
//! * the one trace (`Sweep::trace_json`) and telemetry-enabled sweep JSON
//!   are well-formed (validated with the crate's own parser, no `jq`).

use cdf_core::{
    CdfConfig, Core, CoreConfig, CoreMode, CoreStats, CycleBucket, Telemetry, TelemetryConfig,
};
use cdf_sim::json::Json;
use cdf_sim::{run, run_sweep, EvalConfig, Mechanism, RunOutput, SweepConfig, TELEMETRY_SCHEMA};
use cdf_workloads::{registry, GenConfig};
use proptest::prelude::*;

fn small_gen() -> GenConfig {
    GenConfig {
        seed: 0xC0FFEE,
        scale: 1.0 / 32.0,
        iters: u64::MAX / 4,
    }
}

fn small_eval() -> EvalConfig {
    EvalConfig {
        gen: small_gen(),
        warmup_instructions: 10_000,
        measure_instructions: 20_000,
        ..EvalConfig::quick()
    }
}

/// Runs `instructions` of one workload on a fresh instrumented core.
fn run_instrumented(
    name: &str,
    mode: CoreMode,
    instructions: u64,
    tcfg: TelemetryConfig,
) -> (CoreStats, Telemetry) {
    let w = registry::lookup(name, &small_gen()).expect("registered workload");
    let mut core = Core::new(
        &w.program,
        w.memory.clone(),
        CoreConfig {
            mode,
            ..CoreConfig::default()
        },
    );
    core.enable_telemetry(tcfg);
    let stats = core.run_bounded(instructions, u64::MAX);
    let tel = core.take_telemetry().expect("telemetry was enabled");
    (stats, tel)
}

#[test]
fn accounting_buckets_sum_to_cycles_on_every_workload() {
    for name in registry::NAMES {
        let (stats, tel) = run_instrumented(
            name,
            CoreMode::Cdf(CdfConfig::default()),
            15_000,
            TelemetryConfig::default(),
        );
        assert_eq!(
            tel.accounting.total(),
            stats.cycles,
            "{name}: buckets must partition every cycle"
        );
        assert_eq!(tel.observed_cycles(), stats.cycles, "{name}");
        for (structure, h) in tel.occupancy.named() {
            assert_eq!(h.samples(), stats.cycles, "{name}/{structure}");
        }
        // Retirement happened, so the top bucket is populated.
        assert!(tel.accounting.get(CycleBucket::Retiring) > 0, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The interval-sum invariant: for any interval length and ring
    /// capacity, the sum of all sampled deltas (evicted + retained) equals
    /// the end-of-run aggregates, counter for counter.
    #[test]
    fn interval_deltas_sum_to_end_of_run_aggregates(
        interval in 1u64..3000,
        ring in 1usize..24,
        instructions in 2_000u64..9_000,
        wl in 0usize..3,
    ) {
        let name = ["libq_like", "astar_like", "mcf_like"][wl];
        let (stats, tel) = run_instrumented(
            name,
            CoreMode::Cdf(CdfConfig::default()),
            instructions,
            TelemetryConfig { interval, ring_capacity: ring, ..TelemetryConfig::default() },
        );
        let totals = tel.intervals.totals();
        prop_assert_eq!(totals.cycles, stats.cycles);
        prop_assert_eq!(totals.end_cycle, stats.cycles);
        prop_assert_eq!(totals.retired, stats.retired);
        prop_assert_eq!(totals.fetched_regular, stats.fetched_regular);
        prop_assert_eq!(totals.fetched_critical, stats.fetched_critical);
        prop_assert_eq!(
            totals.flushes(),
            stats.mispredicts + stats.memory_violations + stats.dependence_violations
        );
        prop_assert_eq!(totals.full_window_stall_cycles, stats.full_window_stall_cycles);
        prop_assert_eq!(totals.cdf_mode_cycles, stats.cdf_mode_cycles);
        prop_assert_eq!(totals.mlp_sum, stats.mlp_sum);
        prop_assert_eq!(totals.mlp_cycles, stats.mlp_cycles);
    }
}

#[test]
fn instrumented_core_stats_are_bit_identical_to_plain() {
    let w = registry::lookup("mcf_like", &small_gen()).expect("registered");
    let mk = || {
        Core::new(
            &w.program,
            w.memory.clone(),
            CoreConfig {
                mode: CoreMode::Cdf(CdfConfig::default()),
                ..CoreConfig::default()
            },
        )
    };
    let plain_stats = mk().run_bounded(12_000, u64::MAX);
    let mut instrumented = mk();
    instrumented.enable_telemetry(TelemetryConfig::default());
    let tel_stats = instrumented.run_bounded(12_000, u64::MAX);
    assert_eq!(
        plain_stats, tel_stats,
        "telemetry must be observation-only, stat for stat"
    );
}

fn run_cdf(w: &cdf_workloads::Workload, cfg: &EvalConfig) -> RunOutput {
    let cdf = Mechanism::Cdf;
    run(w, cdf.mode(), cdf.label(), cfg, false).unwrap()
}

#[test]
fn telemetry_never_perturbs_measurements() {
    let cfg = small_eval();
    let w = registry::lookup("astar_like", &cfg.gen).expect("registered");
    let plain = run_cdf(&w, &cfg);
    assert!(plain.telemetry.is_none(), "disabled by default");
    let enabled = EvalConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..cfg
    };
    let measured = run_cdf(&w, &enabled);
    assert_eq!(
        plain.measurement, measured.measurement,
        "Measurement identical with telemetry on"
    );
    let tel = measured.telemetry.expect("collector returned");
    assert_eq!(tel.accounting.total(), tel.observed_cycles());
}

#[test]
fn sweep_results_match_with_telemetry_on_and_off() {
    let workloads = ["libq_like", "astar_like"];
    let mechs = vec![Mechanism::Baseline, Mechanism::Cdf];
    let off = run_sweep(&SweepConfig::new(workloads, mechs.clone(), small_eval()));
    let on_eval = EvalConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..small_eval()
    };
    let on = run_sweep(&SweepConfig::new(workloads, mechs, on_eval));
    assert_eq!(off.cells.len(), on.cells.len());
    for (a, b) in off.cells.iter().zip(&on.cells) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(
            a.result,
            b.result,
            "{}/{}: sweep measurements must not move",
            a.workload,
            a.mechanism.label()
        );
        assert!(a.telemetry.is_none());
        assert_eq!(b.telemetry.is_some(), b.result.is_ok());
    }
}

#[test]
fn perfetto_trace_is_valid_and_contains_cdf_episode() {
    let eval = EvalConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..small_eval()
    };
    let sweep = run_sweep(&SweepConfig::new(
        ["astar_like"],
        vec![Mechanism::Cdf],
        eval,
    ));
    let m = sweep.get("astar_like", Mechanism::Cdf).expect("cell ran");
    assert!(m.cdf_mode_cycles > 0, "workload must engage CDF: {m:?}");

    let text = sweep.trace_json().render();
    let doc = Json::parse(&text).expect("trace must be well-formed JSON");
    let (name, events) = doc
        .as_arr()
        .expect("Chrome array-of-events form")
        .split_first()
        .expect("the cell's process is named first");
    assert_eq!(
        name.get("name").and_then(Json::as_str),
        Some("process_name")
    );
    assert!(!events.is_empty());
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("phase present");
        assert!(matches!(ph, "B" | "E" | "X" | "i"), "unknown phase {ph}");
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_u64).is_some());
        assert_eq!(
            e.get("pid").and_then(Json::as_u64),
            Some(1),
            "guest process"
        );
        assert!(e.get("tid").is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_u64).unwrap_or(0) >= 1);
        }
    }
    let phase_count = |name: &str, ph: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some(ph)
            })
            .count()
    };
    assert!(phase_count("cdf_mode", "B") >= 1, "≥1 CDF-mode episode");
    assert_eq!(
        phase_count("cdf_mode", "B"),
        phase_count("cdf_mode", "E"),
        "balanced episode pairs"
    );
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")),
        "per-stage uop slices present"
    );
}

#[test]
fn telemetry_enabled_sweep_json_is_well_formed() {
    let eval = EvalConfig {
        telemetry: Some(TelemetryConfig {
            interval: 512,
            ..TelemetryConfig::default()
        }),
        ..small_eval()
    };
    let sweep = run_sweep(&SweepConfig::new(
        ["astar_like"],
        vec![Mechanism::Cdf],
        eval,
    ));
    let doc = Json::parse(&sweep.to_json().render_pretty()).expect("sweep JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("cdf-sweep/1")
    );
    let tel_cfg = doc
        .get("eval")
        .and_then(|e| e.get("telemetry"))
        .expect("eval records the telemetry config");
    assert_eq!(tel_cfg.get("interval").and_then(Json::as_u64), Some(512));
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
    let tel = cells[0]
        .get("telemetry")
        .expect("per-cell telemetry section");
    assert_eq!(
        tel.get("schema").and_then(Json::as_str),
        Some(TELEMETRY_SCHEMA)
    );
    let samples = tel
        .get("series")
        .and_then(|s| s.get("samples"))
        .and_then(Json::as_arr)
        .expect("series.samples array");
    assert!(!samples.is_empty(), "interval series populated");
    let buckets = tel
        .get("accounting")
        .and_then(|a| a.get("buckets"))
        .and_then(Json::as_arr)
        .expect("accounting.buckets array");
    assert_eq!(buckets.len(), 6);
    let sum: u64 = buckets
        .iter()
        .map(|b| b.get("cycles").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert_eq!(
        tel.get("accounting")
            .and_then(|a| a.get("total_cycles"))
            .and_then(Json::as_u64),
        Some(sum),
        "serialized buckets sum to the serialized total"
    );
    assert_eq!(
        tel.get("histograms")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(5)
    );
}
