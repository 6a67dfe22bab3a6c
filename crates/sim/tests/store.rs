//! End-to-end guarantees of the durable results store and the compare
//! engine:
//!
//! * every `cdf-result/1` payload kind (cell with summaries, throughput
//!   row, recorded failure) round-trips bit-for-bit through the crate's
//!   own JSON parser — the store can always read what it wrote;
//! * a two-commit store fixture with a hand-injected cycles regression is
//!   classified as regressed by `compare latest latest~1`, and the emitted
//!   `cdf-compare/1` report is a valid, registered document;
//! * ref resolution accepts `latest`/`latest~N`, exact run ids, and
//!   commit prefixes, and rejects refs past the history;
//! * the CLI acceptance loop holds: `record` twice at one commit compares
//!   all-unchanged (exit 0); a perturbed config records classified
//!   regressions, exits 4, and still writes a parseable report;
//! * both emitted schema tags live in the central registry.

use cdf_core::{Coverage, Provenance};
use cdf_sim::json::Json;
use cdf_sim::store::{error_parts, DiagSummary, TelemetrySummary};
use cdf_sim::{
    compare_runs, record_from_json, record_json, records_for_run, resolve_ref, CompareConfig,
    Measurement, RecordPayload, ResultKey, ResultRecord, ResultStore, COMPARE_SCHEMA,
    RESULT_SCHEMA,
};
use cdf_workloads::GenConfig;
use std::path::PathBuf;
use std::process::Output;

fn provenance(commit: &str) -> Provenance {
    Provenance {
        git_commit: Some(commit.to_string()),
        git_dirty: Some(false),
        rustc_version: Some("rustc 1.0.0-test".to_string()),
        host: "x86_64-test".to_string(),
        timestamp: Some(0),
    }
}

fn measurement(cycles: u64) -> Measurement {
    Measurement {
        workload: "astar_like".to_string(),
        mechanism: "cdf".to_string(),
        instructions: 20_000,
        cycles,
        ipc: 20_000.0 / cycles as f64,
        mlp: 2.25,
        dram_lines: 512,
        energy_nj: 91.5,
        cdf_energy_nj: 3.25,
        branch_mpki: 4.5,
        llc_mpki: 9.0,
        rob_critical_fraction: 0.4375,
        full_window_stall_cycles: 1200,
        cdf_mode_cycles: 800,
        critical_uops: 640,
        runahead_uops: 0,
        dependence_violations: 0,
    }
}

fn cell_record(run_id: &str, seq: u64, commit: &str, workload: &str, cycles: u64) -> ResultRecord {
    ResultRecord {
        run_id: run_id.to_string(),
        seq,
        provenance: provenance(commit),
        config_hash: "cafe0123".to_string(),
        gen: Some(GenConfig {
            seed: 7,
            scale: 0.25,
            iters: 1 << 40,
        }),
        key: ResultKey {
            kind: "cell".to_string(),
            workload: workload.to_string(),
            mechanism: "cdf".to_string(),
            scheduler: "event".to_string(),
            mem_model: "mem-event".to_string(),
        },
        wall_ms: 42,
        payload: RecordPayload::Cell {
            measurement: measurement(cycles),
            diagnostics: Some(DiagSummary {
                load_coverage: Coverage {
                    covered: 30,
                    total: 40,
                },
                branch_coverage: Coverage {
                    covered: 5,
                    total: 8,
                },
                fetched: 100,
                consumed: 80,
                wasted: 15,
            }),
            telemetry: Some(TelemetrySummary {
                buckets: vec![
                    ("retiring".to_string(), 900),
                    ("mem_bound".to_string(), 400),
                ],
            }),
        },
    }
}

#[test]
fn every_payload_kind_roundtrips_through_own_parser() {
    let cell = cell_record("r0001-aaaaaaaa", 0, "aaaa", "astar_like", 45_000);
    let throughput = ResultRecord {
        gen: None,
        key: ResultKey {
            kind: "throughput".to_string(),
            workload: "stall_window".to_string(),
            mechanism: "event".to_string(),
            scheduler: String::new(),
            mem_model: String::new(),
        },
        wall_ms: 250,
        payload: RecordPayload::Throughput {
            simulated_cycles: 1_000_000,
            wall_seconds: 0.25,
        },
        ..cell.clone()
    };
    let failed = ResultRecord {
        payload: RecordPayload::Error {
            kind: "watchdog".to_string(),
            message: "cycle budget exhausted".to_string(),
        },
        ..cell.clone()
    };
    for original in [&cell, &throughput, &failed] {
        let line = record_json(original).render();
        let doc = Json::parse(&line).expect("store line parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(RESULT_SCHEMA)
        );
        assert!(cdf_sim::schema::ALL.contains(&RESULT_SCHEMA));
        let parsed = record_from_json(&doc).expect("record parses");
        assert_eq!(&parsed, original, "lossless round-trip");
    }
    assert_eq!(
        error_parts(&failed),
        Some(("watchdog", "cycle budget exhausted"))
    );
    assert!(error_parts(&cell).is_none());
}

#[test]
fn two_commit_fixture_catches_injected_cycles_regression() {
    let dir = std::env::temp_dir().join(format!("cdf-store-fixture-{}", std::process::id()));
    let path = dir.join("results.jsonl");
    let _ = std::fs::remove_file(&path);
    let store = ResultStore::open(&path);

    // Commit aaaa: two healthy cells. Commit bbbb: astar_like 10% more
    // cycles (a hand-injected regression), mcf_like untouched.
    let run_a = [
        cell_record("r0001-aaaa0000", 0, "aaaa0000", "astar_like", 45_000),
        cell_record("r0001-aaaa0000", 1, "aaaa0000", "mcf_like", 90_000),
    ];
    let run_b = [
        cell_record("r0002-bbbb0000", 0, "bbbb0000", "astar_like", 49_500),
        cell_record("r0002-bbbb0000", 1, "bbbb0000", "mcf_like", 90_000),
    ];
    store.append(&run_a).expect("append run A");
    store.append(&run_b).expect("append run B");

    let records = store.load().expect("store reloads");
    assert_eq!(records.len(), 4);
    let id_a = resolve_ref(&records, "latest~1").expect("latest~1 resolves");
    let id_b = resolve_ref(&records, "latest").expect("latest resolves");
    assert_eq!(id_a, "r0001-aaaa0000");
    assert_eq!(id_b, "r0002-bbbb0000");

    let report = compare_runs(
        ("latest~1", &records_for_run(&records, &id_a)),
        ("latest", &records_for_run(&records, &id_b)),
        &CompareConfig::default(),
    );
    assert!(report.has_regressions());
    let counts = report.counts();
    assert_eq!((counts.regressed, counts.unchanged), (1, 1));
    let astar = &report.cells[0];
    assert_eq!(astar.key.workload, "astar_like");
    let cycles = astar
        .metrics
        .iter()
        .find(|m| m.name == "cycles")
        .expect("cycles delta");
    assert_eq!(cycles.delta(), 4_500.0);

    // The emitted report is a valid, registered cdf-compare/1 document.
    let doc = Json::parse(&report.to_json().render_pretty()).expect("report parses");
    cdf_sim::schema::expect_schema(&doc, COMPARE_SCHEMA).expect("registered tag");
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("regressed").and_then(Json::as_u64), Some(1));
    assert_eq!(
        doc.get("ref_b")
            .and_then(|r| r.get("commit"))
            .and_then(Json::as_str),
        Some("bbbb0000")
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refs_resolve_by_position_id_and_commit_prefix() {
    let records = [
        cell_record("r0001-aaaa0000", 0, "aaaa0000", "astar_like", 45_000),
        cell_record("r0002-bbbb0000", 0, "bbbb0000", "astar_like", 45_000),
        cell_record("r0003-bbbb0000", 0, "bbbb0000", "astar_like", 45_000),
    ];
    assert_eq!(resolve_ref(&records, "latest").unwrap(), "r0003-bbbb0000");
    assert_eq!(resolve_ref(&records, "latest~2").unwrap(), "r0001-aaaa0000");
    assert_eq!(
        resolve_ref(&records, "r0002-bbbb0000").unwrap(),
        "r0002-bbbb0000"
    );
    // A commit prefix picks the most recent run recorded at that commit.
    assert_eq!(resolve_ref(&records, "bbbb").unwrap(), "r0003-bbbb0000");
    assert_eq!(resolve_ref(&records, "aaaa").unwrap(), "r0001-aaaa0000");
    assert!(resolve_ref(&records, "latest~3").is_err());
    assert!(resolve_ref(&records, "cccc").is_err());
    assert!(resolve_ref(&[], "latest").is_err());
}

#[test]
fn corrupt_store_line_is_a_hard_error() {
    let dir = std::env::temp_dir().join(format!("cdf-store-corrupt-{}", std::process::id()));
    let path = dir.join("results.jsonl");
    let store = ResultStore::open(&path);
    store
        .append(&[cell_record(
            "r0001-aaaa0000",
            0,
            "aaaa0000",
            "astar_like",
            1,
        )])
        .expect("append");
    let mut text = std::fs::read_to_string(&path).expect("readable");
    text.push_str("{\"schema\":\"not-a-result\"}\n");
    std::fs::write(&path, text).expect("writable");
    let err = store.load().expect_err("corrupt line must not be skipped");
    assert!(err.to_string().contains("line 2"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: N campaign shards allocating against one store concurrently
/// must mint distinct, gap-free run ordinals. Reading the store alone gives
/// every reader of one store state the same ordinal; `reserve_run_id`
/// closes that race with atomic marker-file creation.
#[test]
fn concurrent_reservations_mint_distinct_sequential_run_ids() {
    let dir = std::env::temp_dir().join(format!("cdf-store-reserve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("results.jsonl");

    let ids: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    ResultStore::open(&path)
                        .reserve_run_id(&provenance("aaaa0000"))
                        .expect("reservation succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut ordinals: Vec<u64> = ids
        .iter()
        .map(|id| id[1..5].parse().expect("rNNNN- prefix"))
        .collect();
    ordinals.sort_unstable();
    assert_eq!(ordinals, (1..=8).collect::<Vec<u64>>(), "ids: {ids:?}");

    // A later reservation continues past everything reserved so far, even
    // though the store file itself still does not exist.
    let next = ResultStore::open(&path)
        .reserve_run_id(&provenance("aaaa0000"))
        .unwrap();
    assert_eq!(next, "r0009-aaaa0000");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: two shards appending their halves of two runs in the worst
/// interleaving concurrent writers can produce still yield a store where
/// `latest`/`latest~1` resolve to the reserved runs — `run_ids` orders by
/// reserved ordinal, not by line position.
#[test]
fn interleaved_two_shard_appends_resolve_via_compare_latest() {
    let dir = std::env::temp_dir().join(format!("cdf-store-interleave-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("results.jsonl");
    let store = ResultStore::open(&path);

    let id_a = store.reserve_run_id(&provenance("aaaa0000")).unwrap();
    let id_b = store.reserve_run_id(&provenance("bbbb0000")).unwrap();
    assert_eq!(
        (id_a.as_str(), id_b.as_str()),
        ("r0001-aaaa0000", "r0002-bbbb0000")
    );

    // Shard 1 of run A lands first, then run B's shards sandwich the rest.
    store
        .append(&[cell_record(&id_a, 1, "aaaa0000", "mcf_like", 90_000)])
        .unwrap();
    store
        .append(&[cell_record(&id_b, 0, "bbbb0000", "astar_like", 45_000)])
        .unwrap();
    store
        .append(&[cell_record(&id_a, 0, "aaaa0000", "astar_like", 45_000)])
        .unwrap();
    store
        .append(&[cell_record(&id_b, 1, "bbbb0000", "mcf_like", 90_000)])
        .unwrap();

    let records = store.load().unwrap();
    assert_eq!(resolve_ref(&records, "latest").unwrap(), id_b);
    assert_eq!(resolve_ref(&records, "latest~1").unwrap(), id_a);

    let report = compare_runs(
        ("latest~1", &records_for_run(&records, &id_a)),
        ("latest", &records_for_run(&records, &id_b)),
        &CompareConfig::default(),
    );
    assert!(!report.has_regressions());
    assert_eq!(report.counts().unchanged, 2, "both cells join across runs");

    // The CLI path agrees end-to-end.
    let out = cdf_sim(
        &[
            "compare",
            "latest~1",
            "latest",
            "--store",
            path.to_str().unwrap(),
        ],
        "cccc0000",
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// CLI acceptance loop.
// ---------------------------------------------------------------------------

fn cdf_sim(args: &[&str], commit: &str) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_cdf-sim"))
        .args(args)
        .env("CDF_GIT_COMMIT", commit)
        .env("CDF_GIT_DIRTY", "0")
        .env("CDF_TIMESTAMP", "0")
        .output()
        .expect("binary runs")
}

const SIZING: &[&str] = &[
    "--fast",
    "--warmup",
    "2000",
    "--measure",
    "4000",
    "--scale",
    "0.03",
];

#[test]
fn record_twice_compares_unchanged_and_perturbed_config_exits_4() {
    let dir = std::env::temp_dir().join(format!("cdf-store-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("results.jsonl");
    let store_arg = store.to_str().expect("utf-8 path");
    let record = |extra: &[&str], commit: &str| {
        let mut args = vec!["record", "--workloads", "astar_like", "--mechs", "base,cdf"];
        args.extend_from_slice(SIZING);
        args.extend_from_slice(&["--store", store_arg]);
        args.extend_from_slice(extra);
        cdf_sim(&args, commit)
    };

    // Same commit, same config, twice: byte-identical determinism means
    // every deterministic metric must compare exactly unchanged.
    let out = record(&[], "commit-aa");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("recorded 2 cell(s)"));
    let out = record(&[], "commit-aa");
    assert_eq!(out.status.code(), Some(0));

    let out = cdf_sim(
        &["compare", "latest", "latest~1", "--store", store_arg],
        "commit-aa",
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("All cells unchanged"));

    // A perturbed config (different workload seed) must show up as
    // classified regressions on the same keys — flagged, non-zero exit,
    // and the JSON report still parses as a cdf-compare/1 document.
    let out = record(&["--seed", "999"], "commit-bb");
    assert_eq!(out.status.code(), Some(0));
    let report_path = dir.join("compare.json");
    let report_arg = report_path.to_str().expect("utf-8 path");
    let out = cdf_sim(
        &[
            "compare", "latest~1", "latest", "--store", store_arg, "--out", report_arg,
        ],
        "commit-bb",
    );
    assert_eq!(
        out.status.code(),
        Some(4),
        "regression must exit 4; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let doc = Json::parse(&std::fs::read_to_string(&report_path).expect("report written"))
        .expect("report parses");
    cdf_sim::schema::expect_schema(&doc, COMPARE_SCHEMA).expect("registered tag");
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("cells").and_then(Json::as_u64), Some(2));
    assert!(summary.get("regressed").and_then(Json::as_u64).unwrap() > 0);
    for cell in doc.get("cells").and_then(Json::as_arr).expect("cells") {
        assert_eq!(
            cell.get("config_changed").and_then(Json::as_bool),
            Some(true)
        );
    }

    // The legacy one-positional compare form still works unchanged.
    let mut legacy = vec!["compare", "astar_like"];
    legacy.extend_from_slice(SIZING);
    let out = cdf_sim(&legacy, "commit-bb");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("speedup"));

    // Mistyped flags on the store form are a hard usage error.
    let out = cdf_sim(
        &["compare", "latest", "latest~1", "--tolerancee", "0.5"],
        "commit-bb",
    );
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_store_path_is_reported_and_reused() {
    // Sanity: PathBuf form of the default constant is relative.
    assert!(PathBuf::from(cdf_sim::DEFAULT_STORE_PATH).is_relative());
}

/// Satellite: every serializer's version tag round-trips through the
/// crate's own parser and lives in the central registry. (The fuzz and
/// fuzz-case documents are exercised the same way in `tests/fuzz.rs`, the
/// throughput document in `cdf-bench`'s unit tests.)
#[test]
fn every_serializer_emits_a_registered_roundtripping_tag() {
    use cdf_sim::schema;
    let eval = cdf_sim::EvalConfig {
        warmup_instructions: 2_000,
        measure_instructions: 4_000,
        gen: GenConfig {
            seed: 0xC0FFEE,
            scale: 0.03,
            iters: 1 << 40,
        },
        ..cdf_sim::EvalConfig::quick()
    };

    let mut docs: Vec<(&str, Json)> = Vec::new();

    let mut sweep_cfg = cdf_sim::SweepConfig::full_grid(eval.clone());
    sweep_cfg.workloads = vec!["astar_like".to_string()];
    sweep_cfg.mechanisms = vec![cdf_sim::Mechanism::Baseline];
    docs.push((schema::SWEEP, cdf_sim::run_sweep(&sweep_cfg).to_json()));

    let tel_eval = cdf_sim::EvalConfig {
        telemetry: Some(cdf_core::TelemetryConfig::default()),
        ..eval.clone()
    };
    let w = cdf_workloads::registry::lookup("astar_like", &tel_eval.gen).expect("registered");
    let base = cdf_sim::Mechanism::Baseline;
    let out = cdf_sim::run(&w, base.mode(), base.label(), &tel_eval, false).expect("simulates");
    docs.push((
        schema::TELEMETRY,
        cdf_sim::telemetry_json(&out.telemetry.expect("telemetry attached")),
    ));

    let equiv_cfg = cdf_sim::EquivConfig {
        seeds: 2,
        mechanisms: vec![cdf_sim::Mechanism::Baseline],
        threads: 1,
        ..cdf_sim::EquivConfig::default()
    };
    docs.push((
        schema::EQUIV,
        cdf_sim::run_equivalence(&equiv_cfg).to_json(),
    ));

    let mut explain_cfg = cdf_sim::ExplainConfig::full_grid(eval.clone());
    explain_cfg.workloads = vec!["astar_like".to_string()];
    explain_cfg.mechanisms = vec![cdf_sim::Mechanism::Cdf];
    docs.push((
        schema::EXPLAIN,
        cdf_sim::run_explain(&explain_cfg).to_json(),
    ));

    let golden_cfg = cdf_sim::GoldenConfig {
        workloads: vec!["astar_like".to_string()],
        mechanisms: vec![cdf_sim::Mechanism::Baseline],
        max_instructions: 4_000,
        threads: 1,
        ..cdf_sim::GoldenConfig::default()
    };
    docs.push((
        schema::GOLDEN,
        cdf_sim::golden_to_json(&cdf_sim::collect_golden(&golden_cfg)),
    ));

    docs.push((
        schema::RESULT,
        record_json(&cell_record(
            "r0001-aaaa0000",
            0,
            "aaaa0000",
            "astar_like",
            1,
        )),
    ));

    let a = [cell_record(
        "r0001-aaaa0000",
        0,
        "aaaa0000",
        "astar_like",
        1,
    )];
    let report = compare_runs(
        ("latest~1", &a.iter().collect::<Vec<_>>()),
        ("latest", &a.iter().collect::<Vec<_>>()),
        &CompareConfig::default(),
    );
    docs.push((schema::COMPARE, report.to_json()));

    for (tag, doc) in docs {
        assert!(schema::ALL.contains(&tag), "{tag} missing from registry");
        let parsed = Json::parse(&doc.render()).expect("document parses");
        schema::expect_schema(&parsed, tag)
            .unwrap_or_else(|e| panic!("{tag} did not round-trip: {e}"));
    }
}
