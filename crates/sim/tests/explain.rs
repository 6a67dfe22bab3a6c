//! End-to-end guarantees of the criticality-provenance diagnostics layer:
//!
//! * diagnostics — enabled or disabled — never perturb `CoreStats` or
//!   `Measurement`s, on every one of the seven mechanisms (so the golden
//!   `stats.json` snapshots need no re-bless);
//! * the totality invariants hold on arbitrary fuzz programs
//!   (property-tested): every lead-time sample corresponds to exactly one
//!   critical LLC-miss initiation, coverage numerators never exceed their
//!   denominators, and fetched critical uops bound their terminal outcomes;
//! * a hand-written stale-trace regression — a CUC trace installed for a
//!   load that later stops missing — reports accuracy < 1 and a non-zero
//!   wasted-uop count through the explain serializer;
//! * the full (workload × mechanism) explain grid emits a valid
//!   `cdf-explain/1` document for every cell (validated with the crate's
//!   own parser, no `jq`);
//! * `cdf-sim report`/`explain`, and every other flag-taking subcommand,
//!   reject mistyped flags with a hard usage error instead of silently
//!   running the default configuration.

use cdf_core::{CdfConfig, Core, CoreConfig, CoreMode, PreConfig};
use cdf_isa::{ArchReg::*, Cond, MemoryImage, Program, ProgramBuilder};
use cdf_sim::json::Json;
use cdf_sim::{
    diagnostics_json, run_explain, try_simulate_workload_diagnostics, EvalConfig, ExplainConfig,
    Mechanism, EXPLAIN_SCHEMA,
};
use cdf_workloads::fuzz::FuzzSpec;
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

/// A CDF configuration that engages quickly enough for test-sized runs.
fn aggressive_cdf() -> CdfConfig {
    CdfConfig {
        walk_period: 300,
        walk_latency: 40,
        partition_threshold: 1,
        ..CdfConfig::default()
    }
}

#[test]
fn diagnostics_never_perturb_measurements_on_any_mechanism() {
    let cfg = small_eval();
    let w = registry::lookup("astar_like", &cfg.gen).expect("registered");
    for mech in Mechanism::ALL {
        let (plain, none) = try_simulate_workload_diagnostics(&w, mech, &cfg).unwrap();
        assert!(none.is_none(), "disabled by default");
        let enabled = EvalConfig {
            diagnostics: true,
            ..cfg.clone()
        };
        let (measured, d) = try_simulate_workload_diagnostics(&w, mech, &enabled).unwrap();
        assert_eq!(
            plain,
            measured,
            "{}: diagnostics must be observation-only, stat for stat",
            mech.label()
        );
        let d = d.expect("collector returned");
        assert_eq!(d.lead_time.samples(), d.llc_miss_initiations);
    }
}

#[test]
fn diagnostics_core_stats_are_bit_identical_to_plain() {
    let w = registry::lookup("mcf_like", &small_gen()).expect("registered");
    for mode in [
        CoreMode::Baseline,
        CoreMode::Cdf(aggressive_cdf()),
        CoreMode::Pre(PreConfig::default()),
    ] {
        let mk = || {
            Core::new(
                &w.program,
                w.memory.clone(),
                CoreConfig {
                    mode: mode.clone(),
                    ..CoreConfig::default()
                },
            )
        };
        let plain_stats = mk().run_bounded(12_000, u64::MAX);
        let mut observed = mk();
        observed.enable_diagnostics();
        let diag_stats = observed.run_bounded(12_000, u64::MAX);
        assert_eq!(
            plain_stats, diag_stats,
            "{mode:?}: CoreStats moved with diagnostics attached"
        );
        assert!(observed.take_diagnostics().is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interval-series totality on arbitrary programs: no matter where the
    /// interval boundaries land or how many samples the ring evicts, the
    /// sum of every per-interval delta must equal the end-of-run cumulative
    /// counters — the time series is a decomposition of the totals, never a
    /// lossy view.
    #[test]
    fn interval_series_sums_to_cumulative_totals(seed in 0u64..200, interval in 64u64..2048, ring in 2usize..16) {
        let fp = FuzzSpec::from_seed(seed).build();
        let mut core = Core::new(
            &fp.program,
            fp.memory.clone(),
            CoreConfig {
                mode: CoreMode::Cdf(aggressive_cdf()),
                ..CoreConfig::default()
            },
        );
        core.enable_diagnostics_with(cdf_core::DiagConfig {
            interval,
            ring_capacity: ring,
        });
        core.run(fp.fuel + 8);
        let d = core.take_diagnostics().expect("collector returned");
        let t = d.intervals().totals();
        prop_assert_eq!(t.walks, d.walks);
        prop_assert_eq!(t.installs, d.installs);
        prop_assert_eq!(t.cuc_hits, d.cuc_fetch_hits);
        prop_assert_eq!(t.cuc_misses, d.cuc_fetch_misses);
        prop_assert_eq!(t.fetched, d.critical_uops_fetched);
        prop_assert_eq!(t.consumed, d.critical_uops_consumed);
        prop_assert_eq!(t.poisoned, d.critical_uops_poisoned);
        prop_assert_eq!(t.squashed, d.critical_uops_squashed);
        prop_assert_eq!(t.load_coverage(), d.load_coverage);
        prop_assert_eq!(t.branch_coverage(), d.branch_coverage);
        prop_assert_eq!(t.miss_initiations, d.llc_miss_initiations);
        // Retained + evicted = everything: the ring never drops a sample
        // without folding it into the running totals first.
        prop_assert!(d.intervals().len() <= ring);
        for s in d.intervals().samples() {
            prop_assert!(s.loads_covered <= s.loads_total);
            prop_assert!(s.branches_covered <= s.branches_total);
        }
    }

    /// Totality over arbitrary programs: lead-time samples partition the
    /// critical LLC-miss initiations exactly; coverage numerators are
    /// bounded by their denominators; and every fetched critical uop has at
    /// most one terminal outcome (consumed, poisoned, or squashed — the
    /// remainder is wasted), both in aggregate and per recorded chain.
    #[test]
    fn totality_invariants_on_fuzz_programs(seed in 0u64..500) {
        let fp = FuzzSpec::from_seed(seed).build();
        let mut core = Core::new(
            &fp.program,
            fp.memory.clone(),
            CoreConfig {
                mode: CoreMode::Cdf(aggressive_cdf()),
                ..CoreConfig::default()
            },
        );
        core.enable_diagnostics();
        core.run(fp.fuel + 8);
        let d = core.take_diagnostics().expect("collector returned");
        prop_assert_eq!(d.lead_time.samples(), d.llc_miss_initiations);
        prop_assert!(d.load_coverage.covered <= d.load_coverage.total);
        prop_assert!(d.branch_coverage.covered <= d.branch_coverage.total);
        let outcomes =
            d.critical_uops_consumed + d.critical_uops_poisoned + d.critical_uops_squashed;
        prop_assert!(outcomes <= d.critical_uops_fetched);
        prop_assert_eq!(
            d.critical_uops_wasted(),
            d.critical_uops_fetched - outcomes
        );
        prop_assert!(d.accuracy() <= 1.0);
        for c in d.chains() {
            prop_assert!(
                c.uops_consumed + c.uops_poisoned + c.uops_squashed <= c.uops_fetched,
                "chain {}: outcomes exceed fetches", c.id
            );
        }
    }
}

/// A two-phase pointer walk sharing one static load PC. Phase 1 strides
/// through a cold 12 MiB region (every load is an LLC miss → the CCT marks
/// the load critical, the walk builds a chain, and a trace is installed in
/// the CUC). Phase 2 pins the pointer to address 0 (every load hits L1),
/// but the CUC trace — keyed by the basic block — survives: it is now
/// *stale*, marking a load critical that no longer misses.
fn stale_trace_program() -> (Program, MemoryImage) {
    let mut b = ProgramBuilder::named("stale_cuc_trace");
    b.movi(R1, 0); // walk pointer
    b.movi(R2, 4096); // phase-1 stride: a fresh page every iteration
    b.movi(R3, 0); // iteration counter
    b.movi(R6, 0); // accumulator
    let top = b.label("top");
    let back = b.label("back");
    let switch = b.label("switch");
    b.bind(top).unwrap();
    b.load(R4, R1, 0); // THE load: misses in phase 1, hits in phase 2
    b.add(R6, R6, R4);
    b.add(R1, R1, R2);
    b.addi(R3, R3, 1);
    b.br_imm(Cond::Eq, R3, 3000, switch);
    b.bind(back).unwrap();
    b.br_imm(Cond::Lt, R3, 9000, top);
    b.halt();
    b.bind(switch).unwrap();
    b.movi(R2, 0); // stride 0: the same (cached) line forever after
    b.movi(R1, 0);
    b.jmp(back);
    (b.build().unwrap(), MemoryImage::new())
}

#[test]
fn stale_cuc_trace_reports_wasted_uops() {
    let (program, mem) = stale_trace_program();
    let mut core = Core::new(
        &program,
        mem,
        CoreConfig {
            mode: CoreMode::Cdf(aggressive_cdf()),
            ..CoreConfig::default()
        },
    );
    core.enable_diagnostics();
    let stats = core.run(4_000_000);
    assert!(stats.halted, "corpus program must halt: {stats:?}");
    let d = core.take_diagnostics().expect("collector returned");

    // Phase 1 trained and installed the chain, and the critical stream
    // fetched from it.
    assert!(d.installs > 0, "no trace was ever installed: {d:?}");
    assert!(d.cuc_fetch_hits > 0, "the CUC was never hit: {d:?}");
    assert!(d.critical_uops_fetched > 0);

    // The stale phase-2 trace makes perfect accuracy impossible by
    // construction: critical uops fetched for the no-longer-missing load
    // are squashed or left in flight instead of being usefully consumed.
    assert!(
        d.accuracy() < 1.0,
        "stale trace cannot be perfectly accurate: {d:?}"
    );
    let non_consumed =
        d.critical_uops_wasted() + d.critical_uops_poisoned + d.critical_uops_squashed;
    assert!(non_consumed > 0, "stale fetches must show up: {d:?}");

    // The explain serializer reports the wasted-uop count verbatim.
    let doc = Json::parse(&diagnostics_json(&d, 32).render()).expect("valid JSON");
    let acc = doc.get("accuracy").expect("accuracy section");
    assert_eq!(
        acc.get("wasted").and_then(Json::as_u64),
        Some(d.critical_uops_wasted())
    );
    assert_eq!(
        acc.get("fetched").and_then(Json::as_u64),
        Some(d.critical_uops_fetched)
    );
}

#[test]
fn full_grid_emits_valid_explain_json_for_every_cell() {
    let eval = EvalConfig {
        warmup_instructions: 5_000,
        measure_instructions: 8_000,
        gen: small_gen(),
        ..EvalConfig::quick()
    };
    let report = run_explain(&ExplainConfig::full_grid(eval));
    let expected = registry::NAMES.len() * Mechanism::ALL.len();
    assert_eq!(report.cells.len(), expected);
    assert_eq!(report.counts(), (expected, 0), "every cell must succeed");

    let doc = Json::parse(&report.to_json().render_pretty()).expect("document parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(EXPLAIN_SCHEMA)
    );
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells.len(), expected);
    for cell in cells {
        assert_eq!(cell.get("status").and_then(Json::as_str), Some("ok"));
        let d = cell.get("diagnostics").expect("diagnostics section");
        let cov = d.get("coverage").expect("coverage");
        for kind in ["loads", "branches"] {
            let c = cov.get(kind).expect("coverage kind");
            let covered = c.get("covered").and_then(Json::as_u64).unwrap();
            let total = c.get("total").and_then(Json::as_u64).unwrap();
            assert!(covered <= total);
        }
        let acc = d.get("accuracy").expect("accuracy");
        let fetched = acc.get("fetched").and_then(Json::as_u64).unwrap();
        let consumed = acc.get("consumed").and_then(Json::as_u64).unwrap();
        assert!(consumed <= fetched);
        let tim = d.get("timeliness").expect("timeliness");
        let initiations = tim
            .get("llc_miss_initiations")
            .and_then(Json::as_u64)
            .unwrap();
        let samples = tim
            .get("lead_time")
            .and_then(|l| l.get("samples"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(samples, initiations, "lead-time totality in the document");
    }
}

#[test]
fn explain_json_carries_the_interval_time_series() {
    let w = registry::lookup("mcf_like", &small_gen()).expect("registered");
    let mut core = Core::new(
        &w.program,
        w.memory.clone(),
        CoreConfig {
            mode: CoreMode::Cdf(aggressive_cdf()),
            ..CoreConfig::default()
        },
    );
    core.enable_diagnostics_with(cdf_core::DiagConfig {
        interval: 512,
        ring_capacity: 8,
    });
    core.run(30_000);
    let d = core.take_diagnostics().expect("collector returned");
    let doc = Json::parse(&diagnostics_json(&d, 4).render()).expect("valid JSON");

    let iv = doc.get("intervals").expect("intervals family");
    assert_eq!(iv.get("interval").and_then(Json::as_u64), Some(512));
    assert_eq!(
        iv.get("evicted_samples").and_then(Json::as_u64),
        Some(d.intervals().evicted_count())
    );
    let samples = iv.get("samples").and_then(Json::as_arr).expect("samples");
    assert_eq!(samples.len(), d.intervals().len());
    // The serialized totals equal the end-of-run cumulative counters —
    // the document alone is enough to check the totality contract.
    let totals = iv.get("totals").expect("totals");
    assert_eq!(
        totals.get("fetched").and_then(Json::as_u64),
        Some(d.critical_uops_fetched)
    );
    assert_eq!(totals.get("walks").and_then(Json::as_u64), Some(d.walks));
    assert_eq!(
        totals
            .get("load_coverage")
            .and_then(|c| c.get("covered"))
            .and_then(Json::as_u64),
        Some(d.load_coverage.covered)
    );
    for s in samples {
        let start = s.get("start_cycle").and_then(Json::as_u64).unwrap();
        let end = s.get("end_cycle").and_then(Json::as_u64).unwrap();
        assert!(start <= end, "samples are ordered spans");
    }
}

fn cdf_sim(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_cdf-sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn report_rejects_unknown_flags_with_usage_error() {
    let out = cdf_sim(&["report", "astar_like", "--warmupp", "1000"]);
    assert_eq!(out.status.code(), Some(2), "mistyped flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--warmupp`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn explain_rejects_unknown_flags_with_usage_error() {
    let out = cdf_sim(&["explain", "--mech", "cdf"]);
    assert_eq!(out.status.code(), Some(2), "--mech is not an explain flag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--mech`"), "{stderr}");
}

#[test]
fn every_flag_taking_subcommand_rejects_a_mistyped_flag() {
    for args in [
        &["run", "libq_like", "--mesure", "1000"][..],
        &["table1", "--robb", "512"],
        &["telemetry", "astar_like", "--intreval", "512"],
        &["sweep", "--profiel"],
        &["fuzz", "--minimise"],
        &["equiv", "--boundry"],
        &["compare", "astar_like", "--fsat"],
    ] {
        let out = cdf_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn report_still_accepts_its_documented_flags() {
    let out = cdf_sim(&[
        "report",
        "astar_like",
        "--mech",
        "cdf",
        "--fast",
        "--warmup",
        "2000",
        "--measure",
        "4000",
        "--scale",
        "0.03",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("IPC"), "{stdout}");
    assert!(stdout.contains("cycle accounting"), "{stdout}");
}
