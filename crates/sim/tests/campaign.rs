//! Acceptance suite for the sharded campaign engine:
//!
//! * **crash/resume property** — for a proptest-chosen kill point, a shard
//!   aborted mid-run and then resumed yields a journal whose cell-id set
//!   equals its grid assignment, an aggregate digest bit-identical to an
//!   uninterrupted campaign's, and a results store whose bytes equal the
//!   uninterrupted store's;
//! * **metamorphic equivalence** — the full 98-cell golden grid run through
//!   the campaign path produces `Measurement`s bit-identical to
//!   `cdf-sim sweep`'s, whether the campaign runs as 1, 2, or 7 shards;
//! * **checkpoint corruption** — a truncated final journal line resumes
//!   from the last complete record (re-running only the torn cell), while a
//!   journal that does not match the spec's grid hash is a hard error and
//!   `campaign resume` exits 2;
//! * **CLI resume loop** — an interrupted campaign finished via `campaign
//!   resume --store` records store bytes identical to a campaign that was
//!   never interrupted;
//! * **store keys** — each row of a recorded campaign has its own key, so
//!   the run compares clean against itself;
//! * **bad specs** — a misspelt or mistyped key exits 2 before any
//!   campaign directory exists;
//! * **telemetry** — a spec with a telemetry interval keeps each cell's
//!   cycle accounting in its journal line and its store row;
//! * an `#[ignore]`d at-scale run: the 5,000-cell seed-sweep example spec
//!   across 4 OS processes.

use cdf_core::{ConfigGrid, Provenance};
use cdf_sim::campaign::checkpoint::journal_path;
use cdf_sim::json::{field, Json};
use cdf_sim::{
    campaign_status, compare_runs, finalize_campaign, init_campaign, load_campaign,
    provenance_json, run_cell, run_shard, run_sweep, CampaignSpec, CellMode, CellOutcome,
    CompareConfig, EquivAxis, EvalConfig, Mechanism, RecordPayload, ResultStore, ShardOptions,
    SweepConfig,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Output;

fn prov() -> Provenance {
    Provenance {
        git_commit: Some("aaaaaaaabbbbbbbbccccccccddddddddeeeeeeee".to_string()),
        git_dirty: Some(false),
        rustc_version: Some("rustc 1.0.0-test".to_string()),
        host: "x86_64-test".to_string(),
        timestamp: Some(0),
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdf-campaign-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A tiny-but-real sweep spec: 1 workload × 2 mechanisms × 2 seeds × 2 ROB
/// points = 8 cells, sized to run in milliseconds.
fn small_sweep_spec() -> CampaignSpec {
    let mut eval = EvalConfig::default();
    eval.gen.seed = 7;
    eval.gen.scale = 0.02;
    eval.warmup_instructions = 1_000;
    eval.measure_instructions = 2_000;
    CampaignSpec {
        name: "crash-resume".to_string(),
        hypothesis: "resume is exact".to_string(),
        mode: CellMode::Sweep,
        workloads: vec!["astar_like".to_string()],
        mechanisms: vec![Mechanism::Baseline, Mechanism::Cdf],
        seeds: vec![7, 8],
        grid: ConfigGrid {
            rob: vec![256, 352],
            cuc_sets: Vec::new(),
            partition_step: Vec::new(),
        },
        eval,
        equiv_axis: EquivAxis::Scheduler,
    }
}

/// Overwrites a campaign directory's `spec.json` with `spec`, keeping the
/// shard count and pinned provenance — the "spec changed under a finished
/// campaign" corruption the grid hash exists to catch.
fn rewrite_spec(dir: &Path, spec: &CampaignSpec, shards: u64) {
    let Json::Obj(mut fields) = spec.to_json() else {
        unreachable!("spec serializes to an object");
    };
    fields.push(field("shards", shards));
    fields.push(field("provenance", provenance_json(&prov())));
    fs::write(dir.join("spec.json"), Json::Obj(fields).render_pretty()).unwrap();
}

fn serial() -> ShardOptions {
    ShardOptions {
        threads: 1,
        batch: 1,
        ..ShardOptions::default()
    }
}

/// Runs every shard of a fresh campaign to completion in `dir` and
/// finalizes into `store`, returning the digest.
fn run_uninterrupted(spec: &CampaignSpec, dir: &Path, shards: u64, store: &Path) -> String {
    let c = init_campaign(dir, spec.clone(), shards, prov()).unwrap();
    for s in 0..shards {
        run_shard(&c, s, &serial()).unwrap();
    }
    let (status, recorded) = finalize_campaign(&c, Some(store)).unwrap();
    assert!(recorded.is_some(), "sweep campaigns record to the store");
    status.digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite 1: kill shard 0 after a proptest-chosen number of cells,
    /// resume, and require bit-identity with the uninterrupted campaign on
    /// (a) the journal cell-id sets, (b) the aggregate digest, and (c) the
    /// results-store bytes.
    #[test]
    fn killed_shard_resumes_bit_identical(kill_after in 0usize..4) {
        let spec = small_sweep_spec();
        let shards = 2u64;

        let dir_ref = tmp(&format!("ref{kill_after}"));
        let store_ref = dir_ref.join("store.jsonl");
        let ref_digest = run_uninterrupted(&spec, &dir_ref, shards, &store_ref);

        let dir = tmp(&format!("kill{kill_after}"));
        let store = dir.join("store.jsonl");
        let c = init_campaign(&dir, spec.clone(), shards, prov()).unwrap();
        let assigned0 = c.assigned(&spec.cells(), 0).len();
        let aborted = run_shard(&c, 0, &ShardOptions { abort_after: Some(kill_after), ..serial() }).unwrap();
        prop_assert_eq!(aborted.completed, kill_after);
        prop_assert_eq!(aborted.remaining, assigned0 - kill_after);

        // Resume: shard 0 finishes only its pending cells, shard 1 runs fresh.
        let resumed = run_shard(&c, 0, &serial()).unwrap();
        prop_assert_eq!(resumed.completed, assigned0 - kill_after);
        prop_assert_eq!(resumed.remaining, 0);
        run_shard(&c, 1, &serial()).unwrap();

        // Journal id sets equal the grid assignment, with no duplicates.
        let journals = cdf_sim::campaign::read_journals(&c).unwrap();
        for (shard, journal) in &journals {
            let ids: Vec<u64> = journal.records.iter().map(|r| r.cell).collect();
            let uniq: BTreeSet<u64> = ids.iter().copied().collect();
            prop_assert_eq!(ids.len(), uniq.len(), "shard {} re-ran a cell", shard);
            let expect: BTreeSet<u64> = c.assigned(&spec.cells(), *shard).into_iter().collect();
            prop_assert_eq!(uniq, expect, "shard {} id set", shard);
        }

        let (status, recorded) = finalize_campaign(&c, Some(&store)).unwrap();
        prop_assert!(recorded.is_some());
        prop_assert_eq!(&status.digest, &ref_digest, "aggregate digest");
        prop_assert_eq!(
            fs::read(&store).unwrap(),
            fs::read(&store_ref).unwrap(),
            "results-store bytes"
        );

        let _ = fs::remove_dir_all(&dir_ref);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Satellite 2: the full golden grid (every registry workload × every
/// mechanism) through the campaign path produces `Measurement`s
/// bit-identical to `cdf-sim sweep`'s, under 1, 2, and 7 shards.
#[test]
fn campaign_matches_sweep_bit_for_bit_under_sharding() {
    let mut eval = EvalConfig::default();
    eval.gen.scale = 0.03;
    eval.warmup_instructions = 2_000;
    eval.measure_instructions = 4_000;

    let sweep = run_sweep(&SweepConfig::full_grid(eval.clone()));
    let golden: Vec<_> = sweep
        .cells
        .iter()
        .map(|c| c.result.as_ref().expect("golden grid cells succeed"))
        .collect();
    assert_eq!(golden.len(), 98, "14 workloads x 7 mechanisms");

    // The full registry grid, in sweep's own enumeration order.
    let spec = CampaignSpec {
        name: "golden-grid".to_string(),
        hypothesis: "campaign == sweep".to_string(),
        mode: CellMode::Sweep,
        workloads: cdf_workloads::registry::NAMES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        mechanisms: Mechanism::ALL.to_vec(),
        seeds: vec![eval.gen.seed],
        grid: ConfigGrid::default(),
        eval,
        equiv_axis: EquivAxis::Scheduler,
    };
    assert_eq!(spec.cell_count(), 98);

    for shards in [1u64, 2, 7] {
        let dir = tmp(&format!("meta{shards}"));
        let c = init_campaign(&dir, spec.clone(), shards, prov()).unwrap();
        for s in 0..shards {
            run_shard(&c, s, &ShardOptions::default()).unwrap();
        }
        let mut records: Vec<_> = cdf_sim::campaign::read_journals(&c)
            .unwrap()
            .into_iter()
            .flat_map(|(_, j)| j.records)
            .collect();
        records.sort_by_key(|r| r.cell);
        assert_eq!(records.len(), golden.len());
        for (record, want) in records.iter().zip(&golden) {
            match &record.outcome {
                CellOutcome::Stored(RecordPayload::Cell { measurement, .. }) => assert_eq!(
                    &measurement, want,
                    "cell {} under {shards} shard(s)",
                    record.cell
                ),
                other => panic!("cell {} did not measure: {other:?}", record.cell),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Satellite 3a: chopping bytes off the journal's final line leaves a torn
/// tail; resume truncates it and re-runs exactly that one cell, landing on
/// the clean digest.
#[test]
fn torn_journal_tail_resumes_from_last_complete_record() {
    let spec = small_sweep_spec();

    let dir_ref = tmp("torn-ref");
    let c_ref = init_campaign(&dir_ref, spec.clone(), 1, prov()).unwrap();
    run_shard(&c_ref, 0, &serial()).unwrap();
    let clean_digest = campaign_status(&c_ref).unwrap().digest;

    let dir = tmp("torn");
    let c = init_campaign(&dir, spec.clone(), 1, prov()).unwrap();
    run_shard(&c, 0, &serial()).unwrap();

    let path = journal_path(&dir, 0);
    let bytes = fs::read(&path).unwrap();
    // Tear the final record: drop its trailing newline plus a chunk of the
    // line, leaving a prefix that cannot parse.
    fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();

    let st = campaign_status(&c).unwrap();
    assert_eq!(st.done, 7, "status tolerates the torn tail read-only");

    let resumed = run_shard(&c, 0, &serial()).unwrap();
    assert_eq!(
        (resumed.completed, resumed.remaining),
        (1, 0),
        "resume re-runs only the torn cell"
    );
    assert_eq!(campaign_status(&c).unwrap().digest, clean_digest);

    let _ = fs::remove_dir_all(&dir_ref);
    let _ = fs::remove_dir_all(&dir);
}

/// Satellite 3b (lib half): a journal carrying a different grid hash —
/// here, the spec changed under a finished campaign — is a hard error,
/// never a silent re-enumeration.
#[test]
fn journal_grid_hash_mismatch_is_a_hard_error() {
    let dir = tmp("hash");
    let c = init_campaign(&dir, small_sweep_spec(), 1, prov()).unwrap();
    run_shard(&c, 0, &serial()).unwrap();

    // Rewrite spec.json with one more seed: same campaign name, different
    // cell enumeration, so the journals' grid hash no longer matches.
    let mut edited = small_sweep_spec();
    edited.seeds.push(9);
    rewrite_spec(&dir, &edited, 1);

    let c = load_campaign(&dir).unwrap();
    let err = run_shard(&c, 0, &serial()).unwrap_err();
    assert!(
        err.to_string().contains("different campaign"),
        "unexpected error: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// CLI half: resume loop, exit codes, store identity.
// ---------------------------------------------------------------------------

fn cdf_sim(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_cdf-sim"))
        .args(args)
        .env("CDF_GIT_COMMIT", "aaaaaaaabbbbbbbbccccccccddddddddeeeeeeee")
        .env("CDF_GIT_DIRTY", "0")
        .env("CDF_TIMESTAMP", "0")
        .output()
        .expect("binary runs")
}

fn write_small_spec(path: &Path) {
    fs::write(
        path,
        r#"
name = "cli-resume"
hypothesis = "an interrupted CLI campaign resumes to identical store bytes"
mode = "sweep"
workloads = ["astar_like"]
mechanisms = ["base", "cdf"]
seeds = [7, 8]

[grid]
rob = [256, 352]

[eval]
warmup = 1000
measure = 2000
scale = 0.02
"#,
    )
    .unwrap();
}

/// CLI smoke + satellite 3b (exit code half): run a campaign end-to-end,
/// interrupt a clone of it, finish it with `campaign resume`, and require
/// identical store bytes; then corrupt the resumed campaign's spec and
/// require `campaign resume` to refuse with exit 2.
#[test]
fn cli_resume_records_identical_store_and_rejects_foreign_journals() {
    let root = tmp("cli");
    fs::create_dir_all(&root).unwrap();
    let spec_path = root.join("spec.toml");
    write_small_spec(&spec_path);
    let (spec_s, ref_dir, ref_store) = (
        spec_path.to_str().unwrap().to_string(),
        root.join("ref"),
        root.join("ref-store.jsonl"),
    );

    // Reference: uninterrupted CLI run, 2 shard processes.
    let out = cdf_sim(&[
        "campaign",
        "run",
        "--spec",
        &spec_s,
        "--dir",
        ref_dir.to_str().unwrap(),
        "--shards",
        "2",
        "--store",
        ref_store.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "reference run failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // The announce and record lines are operator chatter on stderr; the
    // status block itself is the stdout payload.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("8 cells across 2 shard(s)"), "{stderr}");
    assert!(stderr.contains("recorded 8 cell(s)"), "{stderr}");

    // Interrupted: same campaign, shard 0 killed after one cell (the
    // deterministic stand-in for SIGKILL — the CI job does the real kill),
    // then finished by `campaign resume`.
    let dir = root.join("killed");
    let store = root.join("killed-store.jsonl");
    let spec = CampaignSpec::parse(&fs::read_to_string(&spec_path).unwrap()).unwrap();
    // Pin the same provenance the CLI captured for the reference campaign,
    // so the two stores can only differ if resume re-runs or drops cells.
    let pinned = load_campaign(&ref_dir).unwrap().provenance;
    let c = init_campaign(&dir, spec, 2, pinned).unwrap();
    run_shard(
        &c,
        0,
        &ShardOptions {
            abort_after: Some(1),
            ..serial()
        },
    )
    .unwrap();

    let out = cdf_sim(&[
        "campaign",
        "resume",
        "--dir",
        dir.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "resume failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        fs::read(&store).unwrap(),
        fs::read(&ref_store).unwrap(),
        "killed+resumed store bytes equal uninterrupted"
    );

    // `campaign status` agrees and exits 0.
    let out = cdf_sim(&["campaign", "status", "--dir", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let status_text = String::from_utf8_lossy(&out.stdout);
    assert!(status_text.contains("8/8"), "{status_text}");

    // Foreign journals: grow the spec's grid under the finished campaign;
    // resume must refuse with exit 2.
    let mut edited = CampaignSpec::parse(&fs::read_to_string(&spec_path).unwrap()).unwrap();
    edited.seeds.push(9);
    rewrite_spec(&dir, &edited, 2);
    let out = cdf_sim(&["campaign", "resume", "--dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "grid-hash mismatch exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different campaign"), "{stderr}");

    let _ = fs::remove_dir_all(&root);
}

/// A bad spec is a spec error: `campaign run` exits 2 naming the key,
/// before it creates the campaign directory. A misspelt key at any level
/// and a value of the wrong type are as bad as a zero sample interval:
/// each would otherwise run a default configuration nobody asked for.
#[test]
fn bad_specs_exit_2_before_a_campaign_exists() {
    let root = tmp("bad-specs");
    fs::create_dir_all(&root).unwrap();
    let spec_path = root.join("spec.toml");
    let dir = root.join("campaign");
    for (body, key) in [
        ("[eval]\ntelemetry_interval = 0\n", "telemetry_interval"),
        ("mechanims = [\"cdf\"]\n", "mechanims"),
        ("[grid]\ncuc = [32]\n", "cuc"),
        ("[eval]\nmesure = 3000\n", "mesure"),
        ("[eval]\nscale = \"0.03\"\n", "scale"),
        (
            "[eval]\ntelemetry_interval = \"1024\"\n",
            "telemetry_interval",
        ),
    ] {
        fs::write(
            &spec_path,
            format!("name = \"bad\"\nworkloads = [\"astar_like\"]\n{body}"),
        )
        .unwrap();
        let out = cdf_sim(&[
            "campaign",
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--dir",
            dir.to_str().unwrap(),
            "--no-record",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{body}: {stderr}");
        assert!(stderr.contains(&format!("`{key}`")), "{body}: {stderr}");
        assert!(!dir.exists(), "{body}: nothing was initialized");
    }
    let _ = fs::remove_dir_all(&root);
}

/// Every campaign row has its own store key: the workload names the cell's
/// seed and config point, so a recorded 2-seed x 2-point campaign compares
/// against itself with no regression (one key per seed and point would
/// join every row to the last one).
#[test]
fn campaign_store_rows_have_distinct_keys_and_compare_clean() {
    let dir = tmp("keys");
    let store = dir.join("store.jsonl");
    run_uninterrupted(&small_sweep_spec(), &dir, 1, &store);
    let records = ResultStore::open(&store).load().unwrap();
    assert_eq!(records.len(), 8);
    let keys: BTreeSet<String> = records.iter().map(|r| r.key.label()).collect();
    assert_eq!(keys.len(), records.len(), "{keys:?}");
    assert_eq!(
        records[0].key.workload,
        "astar_like@seed7:rob256+cuc64+part8"
    );
    let run: Vec<_> = records.iter().collect();
    let report = compare_runs(
        ("latest", &run),
        ("latest", &run),
        &CompareConfig::default(),
    );
    assert!(!report.has_regressions(), "{}", report.render_summary());
    assert_eq!(report.counts().unchanged, records.len());
    let _ = fs::remove_dir_all(&dir);
}

/// A spec with `telemetry_interval` keeps what the collector found: the
/// journal line and the store row of every cell carry a telemetry summary
/// whose buckets sum to the cycles the cell's collector observed.
#[test]
fn telemetry_specs_keep_each_cells_accounting_in_journal_and_store() {
    let mut spec = small_sweep_spec();
    spec.seeds = vec![7];
    spec.grid.rob = vec![256];
    spec.eval.telemetry = Some(cdf_core::TelemetryConfig {
        interval: 512,
        ..Default::default()
    });
    let dir = tmp("telemetry");
    let store = dir.join("store.jsonl");
    run_uninterrupted(&spec, &dir, 1, &store);
    let lines = |path: PathBuf| -> Vec<Json> {
        let text = fs::read_to_string(path).unwrap();
        text.lines().map(|l| Json::parse(l).unwrap()).collect()
    };
    // Skip the header and heartbeat lines.
    let mut journal = lines(journal_path(&dir, 0));
    journal.retain(|l| l.get("cell").is_some());
    let rows = lines(store);
    let cells = spec.cells();
    assert_eq!((journal.len(), rows.len()), (cells.len(), cells.len()));
    for ((p, line), row) in cells.iter().zip(&journal).zip(&rows) {
        let m = p.mechanism.expect("sweep cell");
        let eval = cdf_sim::campaign::cell_eval(&spec, p);
        let cell = run_cell(&p.workload, m, p.point.apply_mode(m.mode()), &eval, false);
        let observed = cell.telemetry.expect("collector").observed_cycles();
        for doc in [line, row] {
            let Some(Json::Obj(buckets)) = doc.get("telemetry") else {
                panic!("no telemetry summary: {}", doc.render());
            };
            let sum: u64 = buckets.iter().map(|(_, c)| c.as_u64().unwrap()).sum();
            assert_eq!(sum, observed, "cell {}: {}", p.id, doc.render());
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Acceptance floor: the 5,000-cell seed-sweep example spec completes
/// sharded across 4 OS processes. Ignored by default — minutes of fuzzing —
/// run with `cargo test -p cdf-sim --test campaign -- --ignored`.
#[test]
#[ignore = "at-scale acceptance run (minutes); exercised by `--ignored` runs"]
fn seed_sweep_example_completes_across_four_processes() {
    let spec_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns/seed_sweep.toml");
    let spec = CampaignSpec::parse(&fs::read_to_string(&spec_path).unwrap()).unwrap();
    assert!(
        spec.cell_count() >= 5_000,
        "seed sweep is the at-scale spec"
    );

    let root = tmp("scale");
    fs::create_dir_all(&root).unwrap();
    let dir = root.join("campaign");
    let out = cdf_sim(&[
        "campaign",
        "run",
        "--spec",
        spec_path.to_str().unwrap(),
        "--dir",
        dir.to_str().unwrap(),
        "--shards",
        "4",
    ]);
    assert!(
        out.status.success(),
        "at-scale campaign failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let c = load_campaign(&dir).unwrap();
    let st = campaign_status(&c).unwrap();
    assert!(st.complete());
    assert_eq!(st.total, spec.cell_count());
    let _ = fs::remove_dir_all(&root);
}
