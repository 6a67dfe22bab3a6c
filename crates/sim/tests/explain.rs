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
//! * `cdf-sim explain` turns diagnostics on for every cell of its table,
//!   document and store rows, and keeps them clock-free;
//! * every `cdf-sim` subcommand rejects mistyped, repeated and unparsable
//!   flags, flags missing their value, and stray or missing positionals
//!   with a hard usage error instead of silently running the default
//!   configuration; its usage lists every flag it accepts; a watchdog or a
//!   stalled pipeline exits 1 with a typed error, not a panic;
//! * `cdf-sim run` attaches every observer the grid commands attach,
//!   printing plain `run`'s output and then one view per observer, and
//!   writes the one-cell document and the one trace;
//! * provenance (`git`, `rustc`) is captured only when a document, store
//!   row or header that carries it is written.

use cdf_core::{CdfConfig, Core, CoreConfig, CoreMode, PreConfig};
use cdf_isa::{ArchReg::*, Cond, MemoryImage, Program, ProgramBuilder};
use cdf_sim::json::Json;
use cdf_sim::{
    diagnostics_json, explain, run, run_sweep, EvalConfig, Mechanism, SweepConfig, EXPLAIN_SCHEMA,
};
use cdf_workloads::fuzz::FuzzSpec;
use cdf_workloads::{registry, GenConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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
        let plain = run(&w, mech.mode(), mech.label(), &cfg, false).unwrap();
        assert!(plain.diagnostics.is_none(), "disabled by default");
        let enabled = EvalConfig {
            diagnostics: true,
            ..cfg.clone()
        };
        let measured = run(&w, mech.mode(), mech.label(), &enabled, false).unwrap();
        assert_eq!(
            plain.measurement,
            measured.measurement,
            "{}: diagnostics must be observation-only, stat for stat",
            mech.label()
        );
        let d = measured.diagnostics.expect("collector returned");
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

    /// Interval-series totality on arbitrary programs: wherever the run
    /// window ends against the fixed sampling cadence, the sum of every
    /// per-interval delta must equal the end-of-run cumulative counters —
    /// the time series is a decomposition of the totals, never a lossy
    /// view. (Eviction at any ring size is the series' own property test
    /// in `cdf-core`.)
    #[test]
    fn interval_series_sums_to_cumulative_totals(seed in 0u64..200) {
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
        prop_assert!(d.intervals().len() <= cdf_core::series::RING_CAPACITY);
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
        diagnostics: true,
        ..EvalConfig::quick()
    };
    let sweep = run_sweep(&SweepConfig::full_grid(eval));
    let expected = registry::NAMES.len() * Mechanism::ALL.len();
    assert_eq!(sweep.cells.len(), expected);
    assert_eq!(sweep.counts(), (expected, 0), "every cell must succeed");

    let text = explain::to_json(&sweep, explain::DEFAULT_CHAIN_LIMIT).render_pretty();
    let doc = Json::parse(&text).expect("document parses");
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

/// The document carries the whole series: a cell run past a full ring of
/// intervals (512 × 1024 cycles) evicts its oldest samples into the totals,
/// and the serialized totals still equal the cumulative counters.
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
    core.enable_diagnostics();
    let ring_cycles = cdf_core::series::RING_CAPACITY as u64 * cdf_core::series::INTERVAL;
    core.run_bounded(u64::MAX, ring_cycles + 16 * cdf_core::series::INTERVAL);
    let d = core.take_diagnostics().expect("collector returned");
    assert!(d.intervals().evicted_count() >= 16, "the ring overflowed");
    let doc = Json::parse(&diagnostics_json(&d, 4).render()).expect("valid JSON");

    let iv = doc.get("intervals").expect("intervals family");
    assert_eq!(
        iv.get("interval").and_then(Json::as_u64),
        Some(cdf_core::series::INTERVAL)
    );
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

/// Every subcommand rejects bad input the same way: exit 2, the one
/// message naming what is wrong, and the usage. A mistyped or misplaced
/// argument must fail loudly instead of silently running a default
/// configuration and reporting numbers the user did not ask for.
#[test]
fn every_subcommand_rejects_bad_input_with_a_usage_error() {
    for (cmd, message) in [
        // An unknown flag.
        ("run astar_like --warmupp 1000", "unknown flag `--warmupp`"),
        ("explain --mech cdf", "unknown flag `--mech`"),
        ("run libq_like --mesure 1000", "unknown flag `--mesure`"),
        ("table1 --robb 512", "unknown flag `--robb`"),
        (
            "run astar_like --telemetyr 512",
            "unknown flag `--telemetyr`",
        ),
        ("sweep --profiel", "unknown flag `--profiel`"),
        ("fuzz --minimise", "unknown flag `--minimise`"),
        ("equiv --boundry", "unknown flag `--boundry`"),
        (
            "campaign shard --dir c --shard 0 --abort-after 1",
            "unknown flag `--abort-after`",
        ),
        // Flags that each select a different campaign.
        (
            "equiv --mem --boundary --seeds 1",
            "--mem and --boundary select different campaigns",
        ),
        ("compare astar_like --fsat", "unknown flag `--fsat`"),
        // A value-taking flag with no value, or a `--` argument, after it.
        (
            "sweep --fast --workloads libq_like --mechs base --out",
            "missing value for --out",
        ),
        ("sweep --fast --threads", "missing value for --threads"),
        (
            "run libq_like --fast --telemetry",
            "missing value for --telemetry",
        ),
        ("record --filter", "missing value for --filter"),
        (
            "run libq_like --max-cycles --fast",
            "missing value for --max-cycles",
        ),
        (
            "compare astar_like --fast --seed",
            "missing value for --seed",
        ),
        // An argument that is neither a flag nor a flag's value.
        (
            "run libq_like mcf_like --fast --mech base",
            "unexpected argument `mcf_like`",
        ),
        (
            "sweep astar_like --fast",
            "unexpected argument `astar_like`",
        ),
        ("table1 extra", "unexpected argument `extra`"),
        ("list extra", "unexpected argument `extra`"),
        // A repeated flag: neither the first nor the last value wins.
        (
            "run astar_like --fast --mech base --seed 1 --seed 2",
            "--seed given twice",
        ),
        (
            "run astar_like --fast --mech base --mech cdf",
            "--mech given twice",
        ),
        // A value that does not parse, named with its flag.
        ("sweep --threads abc", "invalid value `abc` for --threads"),
        ("fuzz --seeds x", "invalid value `x` for --seeds"),
        (
            "run astar_like --rob many",
            "invalid value `many` for --rob",
        ),
        // A sample interval of zero cycles.
        (
            "sweep --fast --telemetry 0",
            "invalid value `0` for --telemetry",
        ),
        (
            "record --fast --telemetry 0",
            "invalid value `0` for --telemetry",
        ),
        (
            "mix --fast --workloads astar_like,mcf_like --telemetry 0",
            "invalid value `0` for --telemetry",
        ),
        (
            "run astar_like --fast --telemetry 0",
            "invalid value `0` for --telemetry",
        ),
        // A missing positional or required flag.
        ("run", "missing <workload>"),
        ("campaign status", "missing --dir"),
        ("campaign run --shards 2", "missing --spec"),
        // No subcommand at all, or one that `run` absorbed.
        ("", "usage:"),
        ("report astar_like", "usage:"),
        ("telemetry astar_like", "usage:"),
        ("profile astar_like", "usage:"),
    ] {
        let out = cdf_sim(&cmd.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{cmd}`: {stderr}");
        assert!(stderr.contains(message), "`{cmd}`: {stderr}");
        assert!(stderr.contains("usage:"), "`{cmd}`: {stderr}");
        assert!(out.stdout.is_empty(), "`{cmd}` ran anyway");
    }
}

/// The usage is generated from the declarations the parser checks, so it
/// lists every flag a subcommand accepts.
#[test]
fn usage_lists_every_accepted_flag_under_its_subcommand() {
    let usage = String::from_utf8(cdf_sim(&[]).stderr).unwrap();
    let synopsis = |name: &str| -> String {
        let start = usage
            .find(&format!("  cdf-sim {name} "))
            .unwrap_or_else(|| panic!("no `{name}` line in {usage}"));
        let rest = &usage[start + 2..];
        let end = rest.find("\n  cdf-sim").unwrap_or(rest.len());
        rest[..end].to_string()
    };
    assert!(synopsis("explain").contains("[--record] [--store FILE]"));
    for name in ["run", "sweep", "record", "mix"] {
        let s = synopsis(name);
        assert!(
            s.contains("[--telemetry N]") && s.contains("[--profile]"),
            "{s}"
        );
        assert_eq!(s.contains("[--explain]"), name != "mix", "{s}");
    }
    assert!(synopsis("run").contains("[--trace-out FILE]"));
    for name in [
        "table1",
        "run",
        "explain",
        "compare <workload>",
        "record",
        "sweep",
        "mix",
    ] {
        assert!(synopsis(name).contains("[--max-cycles N]"), "{name}");
    }
    assert!(!synopsis("compare <refA>").contains("--max-cycles"));
}

/// `explain` turns diagnostics on (off by default in `EvalConfig`), and
/// its cells are clock-free: every cell of the document has a `diagnostics`
/// section and no wall time, every column of the summary table has a
/// figure, and every row `explain --record` appends carries its
/// diagnostics summary and `wall_ms` 0, so a repeat run reproduces the
/// document and the store byte for byte.
#[test]
fn explain_attaches_diagnostics_and_is_clock_free() {
    let dir = std::env::temp_dir().join(format!("cdf-explain-clock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (doc_path, store_path) = (dir.join("e.json"), dir.join("s.jsonl"));
    let out = cdf_sim(&[
        "explain",
        "--workloads",
        "astar_like",
        "--mechs",
        "base,cdf",
        "--fast",
        "--out",
        doc_path.to_str().unwrap(),
        "--record",
        "--store",
        store_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let table = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = table
        .lines()
        .filter(|l| l.starts_with("astar_like"))
        .collect();
    assert_eq!(rows.len(), 2, "{table}");
    for row in rows {
        assert!(!row.split_whitespace().any(|f| f == "-"), "{table}");
    }
    let text = std::fs::read_to_string(&doc_path).unwrap();
    assert!(!text.contains("wall_ms"), "{text}");
    let doc = Json::parse(&text).expect("document parses");
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells.len(), 2, "{text}");
    for cell in cells {
        let d = cell.get("diagnostics").expect("diagnostics section");
        assert!(d.get("coverage").is_some(), "{text}");
    }
    let store = std::fs::read_to_string(&store_path).unwrap();
    assert_eq!(store.lines().count(), 2, "{store}");
    for row in store.lines() {
        let r = Json::parse(row).expect("store row parses");
        assert_eq!(r.get("wall_ms").and_then(Json::as_u64), Some(0), "{row}");
        let d = r.get("diagnostics").expect("diagnostics summary");
        assert!(d.get("load_coverage").is_some(), "{row}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Positionals may come anywhere: a flag before the workload runs the same
/// cell, byte for byte.
#[test]
fn a_workload_after_its_flags_runs_the_same_cell() {
    let flags_first = cdf_sim(&["run", "--fast", "astar_like", "--mech", "base"]);
    let workload_first = cdf_sim(&["run", "astar_like", "--fast", "--mech", "base"]);
    assert_eq!(flags_first.status.code(), Some(0));
    assert_eq!(flags_first.stdout, workload_first.stdout);
}

/// A run that fails inside the simulator exits 1 with a typed message, not
/// a panic: `compare <workload>`'s three runs hit the watchdog on CDF (base
/// retires its window inside this budget, CDF does not), and a window too
/// small to hold an instruction (ROB 0) or CDF's work (ROB 2) stalls the
/// pipeline.
#[test]
fn a_failed_run_exits_1_with_a_typed_error() {
    for (cmd, message) in [
        ("compare roms_like --fast --max-cycles 164000", "watchdog"),
        ("run libq_like --fast --rob 0 --mech base", "no retirement"),
        ("run astar_like --fast --rob 2 --mech cdf", "no retirement"),
    ] {
        let out = cdf_sim(&cmd.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{cmd}`: {stderr}");
        assert!(stderr.contains(message), "`{cmd}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`{cmd}`: {stderr}");
    }
}

/// `run` takes the observers the grid commands take. Its stdout is plain
/// `run`'s, then the accounting table, the provenance row and the profile
/// tables; `--out` is the one-cell sweep document with a section per
/// observer; `--trace-out` is the one trace, where every span closes and no
/// wall-clock event shares a process with a cycle-axis one.
#[test]
fn run_attaches_every_observer_and_writes_one_document_and_one_trace() {
    let dir = std::env::temp_dir().join(format!("cdf-run-observed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (doc_path, trace_path) = (dir.join("run.json"), dir.join("trace.json"));
    let plain = cdf_sim(&["run", "astar_like", "--fast"]);
    assert_eq!(plain.status.code(), Some(0), "{plain:?}");
    let out = cdf_sim(&[
        "run",
        "astar_like",
        "--fast",
        "--telemetry",
        "512",
        "--explain",
        "--profile",
        "--out",
        doc_path.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let (plain, stdout) = (
        String::from_utf8(plain.stdout).unwrap(),
        String::from_utf8(out.stdout).unwrap(),
    );
    let views = stdout
        .strip_prefix(&plain)
        .unwrap_or_else(|| panic!("{stdout}"));
    let at = |view: &str| {
        views
            .find(view)
            .unwrap_or_else(|| panic!("no {view:?}: {views}"))
    };
    assert!(at("cycle accounting") < at("intervals     :"), "{views}");
    assert!(at("intervals     :") < at("Explain —"), "{views}");
    assert!(at("Explain —") < at("host:"), "{views}");
    assert!(at("host:") < at("subsystem"), "{views}");

    let doc = Json::parse(&std::fs::read_to_string(&doc_path).unwrap()).expect("document parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("cdf-sweep/1")
    );
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells.len(), 1);
    for section in ["telemetry", "diagnostics", "profile"] {
        assert!(cells[0].get(section).is_some(), "no {section} section");
    }

    let trace = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("trace parses");
    let events = trace.as_arr().expect("array-of-events form");
    let text = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let pid = |e: &Json| e.get("pid").and_then(Json::as_u64).expect("pid");
    let mut open = BTreeMap::new();
    let (mut wall, mut cycles) = (BTreeSet::new(), BTreeSet::new());
    for e in events {
        let ph = text(e, "ph");
        let span = |lane: &str| (pid(e), text(e, "name"), e.get(lane).and_then(Json::as_u64));
        match ph.as_str() {
            "B" => *open.entry(span("tid")).or_insert(0) += 1,
            "E" => *open.entry(span("tid")).or_insert(0) -= 1,
            "b" => *open.entry(span("id")).or_insert(0) += 1,
            "e" => *open.entry(span("id")).or_insert(0) -= 1,
            _ => {}
        }
        if ph != "M" {
            let clock = if text(e, "cat") == "host" {
                &mut wall
            } else {
                &mut cycles
            };
            clock.insert(pid(e));
        }
    }
    assert!(open.values().all(|&n| n == 0), "an unclosed span: {open:?}");
    assert!(!wall.is_empty() && !cycles.is_empty(), "both clocks traced");
    assert!(wall.is_disjoint(&cycles), "{wall:?} vs {cycles:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Provenance is captured only where it is written. Stub `git` and `rustc`,
/// alone on `PATH`, note each call in a marker file: `run` without `--out`,
/// `compare <workload>` and `mix` without `--out` or `--record` call
/// neither, and `run --out` calls both once its document renders.
#[cfg(unix)]
#[test]
fn provenance_is_captured_only_for_what_is_written() {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("cdf-provenance-{}", std::process::id()));
    let bin = dir.join("bin");
    std::fs::create_dir_all(&bin).expect("temp dir");
    let marker = dir.join("called");
    for tool in ["git", "rustc"] {
        let path = bin.join(tool);
        let script = format!("#!/bin/sh\necho {tool} >> '{}'\nexit 1\n", marker.display());
        std::fs::write(&path, script).expect("stub written");
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    }
    let sized = [
        "astar_like",
        "--fast",
        "--warmup",
        "1000",
        "--measure",
        "1000",
    ];
    let run = |args: &[&str]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cdf-sim"));
        for pin in [
            "CDF_GIT_COMMIT",
            "CDF_GIT_DIRTY",
            "CDF_RUSTC",
            "CDF_HOST",
            "CDF_TIMESTAMP",
        ] {
            cmd.env_remove(pin);
        }
        let out = cmd
            .args(args)
            .env("PATH", &bin)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    };
    let mix = [
        "mix",
        "--workloads",
        "mcf_like,stream_hog",
        "--mechs",
        "base",
    ];
    for command in [&["run", sized[0]][..], &["compare", sized[0]], &mix] {
        run(&[command, &sized[1..]].concat());
        assert!(!marker.exists(), "`{}` captured provenance", command[0]);
    }
    let doc = dir.join("run.json");
    run(&[&["run"][..], &sized, &["--out", doc.to_str().unwrap()]].concat());
    let called = std::fs::read_to_string(&marker).expect("`run --out` captured provenance");
    assert!(
        called.contains("git") && called.contains("rustc"),
        "{called}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
