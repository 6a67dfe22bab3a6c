//! The sharded, resumable campaign engine (`cdf-sim campaign`).
//!
//! A *campaign* scales the sweep harness from one process's grid run to a
//! declarative experiment: a [`CampaignSpec`] (hypothesis, parameter grid,
//! and sizing, authored in TOML or JSON) expands to a deterministic cell
//! enumeration, the cells are sharded across OS processes with per-shard
//! fault isolation, and every completed cell is journaled to an
//! append-only per-shard checkpoint before the next one starts. Kill any
//! shard — or the whole campaign — and `campaign resume` restarts exactly
//! where it stopped, never re-running a completed cell; the final
//! aggregate is bit-identical to an uninterrupted run (the crash/resume
//! property suite enforces this on the digest *and* on the results-store
//! bytes).
//!
//! Layout of a campaign directory:
//!
//! * `spec.json` — the normalized spec plus shard count and the provenance
//!   captured at initialization (so a resumed campaign records under the
//!   identity it started with).
//! * `journal-NN.jsonl` — one per shard (see [`checkpoint`]).
//! * `report.json` — the final [`schema::CAMPAIGN`](crate::schema::CAMPAIGN)
//!   aggregate, written by [`finalize`].
//! * `recorded.txt` — the run id the results were appended to the store
//!   under; its existence makes store recording idempotent across repeated
//!   `resume`/`finalize` invocations.
//!
//! Aggregation is streaming: `campaign status` reads whatever the journals
//! hold mid-run, through the same [`aggregate`] path that builds the final
//! report.

pub mod aggregate;
pub mod checkpoint;
pub mod spec;
pub mod toml;

pub use aggregate::{
    aggregate as aggregate_journals, AggregateRow, CampaignStatus, ShardProgress, WorkloadRow,
    HEARTBEAT_STALE_SECS,
};
pub use checkpoint::{CellOutcome, CellRecord, JournalError, JournalHeader, ShardJournal};
pub use spec::{CampaignSpec, CellMode, CellParams};

use crate::equivalence::check_seed;
use crate::fuzz::{check_spec, LockstepOutcome};
use crate::json::{field, Json};
use crate::provenance::{provenance_from_json, provenance_json};
use crate::run::EvalConfig;
use crate::store::{RecordPayload, ResultRecord, ResultStore, StoreError};
use crate::sweep::{parallel_map, run_cell};
use cdf_core::Provenance;
use cdf_workloads::fuzz::FuzzSpec;
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A campaign engine failure.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem error on the campaign directory.
    Io(std::io::Error),
    /// The spec (or the persisted campaign state) is invalid.
    Spec(String),
    /// A shard journal is corrupt or belongs to a different campaign.
    Journal(JournalError),
    /// The results store rejected the append.
    Store(StoreError),
    /// Finalize was asked for, but cells are still missing.
    Incomplete {
        /// Cells completed.
        done: u64,
        /// Cells in the grid.
        total: u64,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign I/O: {e}"),
            CampaignError::Spec(e) => write!(f, "campaign spec: {e}"),
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::Store(e) => write!(f, "campaign store: {e}"),
            CampaignError::Incomplete { done, total } => write!(
                f,
                "campaign is incomplete ({done}/{total} cells done) — run `campaign resume` first"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> CampaignError {
        CampaignError::Io(e)
    }
}
impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}
impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> CampaignError {
        CampaignError::Store(e)
    }
}

/// An initialized (or loaded) campaign: the spec plus the on-disk state
/// that fixes its identity.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Campaign directory.
    pub dir: PathBuf,
    /// The experiment spec.
    pub spec: CampaignSpec,
    /// Shard count the cells are partitioned over.
    pub shards: u64,
    /// Grid hash cached from the spec (stamped into every journal).
    pub grid_hash: String,
    /// Provenance captured at initialization. Resumes reuse it, so the
    /// records a killed-and-resumed campaign appends to the store are
    /// bit-identical to an uninterrupted run's.
    pub provenance: Provenance,
}

impl Campaign {
    /// The journal header every shard journal must carry.
    pub fn header(&self, shard: u64) -> JournalHeader {
        JournalHeader {
            campaign: self.spec.name.clone(),
            grid_hash: self.grid_hash.clone(),
            shard,
            shards: self.shards,
        }
    }

    fn spec_path(&self) -> PathBuf {
        self.dir.join("spec.json")
    }

    /// Path of the final aggregate report.
    pub fn report_path(&self) -> PathBuf {
        self.dir.join("report.json")
    }

    fn recorded_path(&self) -> PathBuf {
        self.dir.join("recorded.txt")
    }

    /// The cell ids shard `shard` owns, in increasing order.
    pub fn assigned(&self, cells: &[CellParams], shard: u64) -> Vec<u64> {
        cells
            .iter()
            .filter(|c| c.id % self.shards == shard)
            .map(|c| c.id)
            .collect()
    }
}

/// Creates a campaign directory: persists the normalized spec (+ shard
/// count + provenance) and one header-only journal per shard. Errors if
/// the directory already holds a campaign.
pub fn init_campaign(
    dir: &Path,
    spec: CampaignSpec,
    shards: u64,
    provenance: Provenance,
) -> Result<Campaign, CampaignError> {
    if shards == 0 {
        return Err(CampaignError::Spec("shard count must be ≥ 1".to_string()));
    }
    let grid_hash = spec.grid_hash();
    let c = Campaign {
        dir: dir.to_path_buf(),
        spec,
        shards,
        grid_hash,
        provenance,
    };
    fs::create_dir_all(dir)?;
    if c.spec_path().exists() {
        return Err(CampaignError::Spec(format!(
            "{} already holds a campaign — use `campaign resume`",
            dir.display()
        )));
    }
    let Json::Obj(mut fields) = c.spec.to_json() else {
        unreachable!("spec serializes to an object");
    };
    fields.push(field("shards", c.shards));
    fields.push(field("provenance", provenance_json(&c.provenance)));
    fs::write(c.spec_path(), Json::Obj(fields).render_pretty())?;
    for shard in 0..c.shards {
        checkpoint::create_journal(dir, &c.header(shard))?;
    }
    Ok(c)
}

/// Loads a campaign from its directory: `spec.json` holds the normalized
/// spec plus the `shards` and `provenance` keys [`init_campaign`] adds.
pub fn load_campaign(dir: &Path) -> Result<Campaign, CampaignError> {
    let path = dir.join("spec.json");
    let bad = |e: String| CampaignError::Spec(format!("{}: {e}", path.display()));
    let text = fs::read_to_string(&path)
        .map_err(|e| CampaignError::Spec(format!("no campaign at {}: {e}", dir.display())))?;
    let Json::Obj(mut fields) = Json::parse(&text).map_err(|e| bad(e.to_string()))? else {
        return Err(bad("not a JSON object".to_string()));
    };
    let mut take = |key: &str| match fields.iter().position(|(k, _)| k == key) {
        Some(i) => Ok(fields.remove(i).1),
        None => Err(bad(format!("missing {key}"))),
    };
    let shards = take("shards")?
        .as_u64()
        .ok_or_else(|| bad("`shards` must be an unsigned integer".to_string()))?;
    let provenance = provenance_from_json(&take("provenance")?).map_err(bad)?;
    let spec = CampaignSpec::from_json(&Json::Obj(fields)).map_err(bad)?;
    let grid_hash = spec.grid_hash();
    Ok(Campaign {
        dir: dir.to_path_buf(),
        spec,
        shards,
        grid_hash,
        provenance,
    })
}

/// Knobs for one shard invocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardOptions {
    /// Worker threads within the shard (0 = machine-sized).
    pub threads: usize,
    /// Stop after completing exactly this many *new* cells — the test
    /// harness's deterministic stand-in for killing the shard mid-run.
    pub abort_after: Option<usize>,
    /// Cells per journal append batch (0 = auto). Smaller batches = more
    /// checkpoints and fresher `status`; larger = less I/O.
    pub batch: usize,
}

/// What one [`run_shard`] invocation did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardRun {
    /// Cells newly completed by this invocation.
    pub completed: usize,
    /// Cells of this shard's assignment still pending on return (> 0 only
    /// after an [`ShardOptions::abort_after`] abort).
    pub remaining: usize,
}

/// Runs (or resumes) one shard in-process: replays its journal, repairs a
/// torn tail, then runs every still-pending assigned cell, appending each
/// batch to the journal as it completes.
pub fn run_shard(c: &Campaign, shard: u64, opts: &ShardOptions) -> Result<ShardRun, CampaignError> {
    if shard >= c.shards {
        return Err(CampaignError::Spec(format!(
            "shard {shard} out of range (campaign has {} shards)",
            c.shards
        )));
    }
    let cells = c.spec.cells();
    let header = c.header(shard);
    let labels = labels_fn(c, &cells, shard);
    let journal = checkpoint::read_journal(&c.dir, &header, &labels)?;
    if journal.torn_tail {
        checkpoint::truncate_torn_tail(&c.dir, shard, journal.valid_len)?;
    }
    if journal.valid_len == 0 {
        // The journal file vanished (or was never created — a campaign dir
        // restored without its journals); recreate the header line.
        checkpoint::create_journal(&c.dir, &header)?;
    }
    let done: HashSet<u64> = journal.records.iter().map(|r| r.cell).collect();
    let mut pending: Vec<&CellParams> = cells
        .iter()
        .filter(|p| p.id % c.shards == shard && !done.contains(&p.id))
        .collect();
    let total_pending = pending.len();
    if let Some(k) = opts.abort_after {
        pending.truncate(k);
    }
    let batch = if opts.batch == 0 {
        let t = if opts.threads == 0 {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            opts.threads
        };
        t.max(4)
    } else {
        opts.batch
    };
    let mut completed = 0usize;
    for chunk in pending.chunks(batch) {
        // Liveness stamp before the batch: `campaign status` can then tell
        // a shard grinding through a slow batch from one that was killed.
        checkpoint::append_heartbeat(&c.dir, shard, unix_now())?;
        let records = parallel_map(chunk, opts.threads, |p| run_campaign_cell(&c.spec, p));
        checkpoint::append_cells(&c.dir, shard, &records)?;
        completed += records.len();
    }
    Ok(ShardRun {
        completed,
        remaining: total_pending - completed,
    })
}

/// The cell-id → (workload, mechanism-label) reattachment map for one
/// shard's journal.
fn labels_fn<'a>(
    c: &'a Campaign,
    cells: &'a [CellParams],
    shard: u64,
) -> impl Fn(u64) -> Option<(String, String)> + 'a {
    move |id: u64| {
        let p = cells.get(id as usize)?;
        (p.id % c.shards == shard).then(|| {
            (
                p.workload.clone(),
                p.mechanism
                    .map(|m| m.label().to_string())
                    .unwrap_or_else(|| "*".to_string()),
            )
        })
    }
}

/// The evaluation config one cell runs under: the spec template with the
/// cell's seed and config point applied. For the default config point this
/// is the template itself (plus the seed), so default-grid campaign cells
/// run bit-identical to `cdf-sim sweep` cells.
pub fn cell_eval(spec: &CampaignSpec, p: &CellParams) -> EvalConfig {
    let mut eval = spec.eval.clone();
    eval.gen.seed = p.seed;
    eval.core = p.point.apply_core(&spec.eval.core);
    if let Some(m) = p.mechanism {
        // Carry the point-patched mechanism mode in the config too, so the
        // store's config hash distinguishes CUC/partition points (the core
        // itself re-applies the mode per mechanism either way).
        eval.core.mode = p.point.apply_mode(m.mode());
    }
    eval
}

/// Runs one campaign cell to its journaled outcome. Never panics: the
/// sweep path inherits per-cell `catch_unwind` isolation, the fuzz path
/// reports panics as lockstep failures.
pub fn run_campaign_cell(spec: &CampaignSpec, p: &CellParams) -> CellRecord {
    let t0 = Instant::now();
    let outcome = match spec.mode {
        CellMode::Sweep | CellMode::Explain => {
            let m = p.mechanism.expect("sweep cells carry a mechanism");
            let eval = cell_eval(spec, p);
            let mode = p.point.apply_mode(m.mode());
            let cell = run_cell(&p.workload, m, mode, &eval, false);
            CellOutcome::Stored(RecordPayload::of_cell(&cell))
        }
        CellMode::Fuzz => {
            let fuzz = FuzzSpec::from_seed(p.seed);
            let mut checked = 0u64;
            let mut details = Vec::new();
            for (mech, outcome) in check_spec(&fuzz, &spec.mechanisms) {
                match outcome {
                    LockstepOutcome::Ok { checked: n, .. } => checked += n,
                    LockstepOutcome::Fail { kind, detail } => {
                        details.push(format!("{}: {}: {detail}", mech.label(), kind.as_str()))
                    }
                }
            }
            CellOutcome::Checked {
                checked,
                clean: details.is_empty(),
                detail: details.join("; "),
            }
        }
        CellMode::Equiv => {
            let m = p.mechanism.expect("equiv cells carry a mechanism");
            let (checked, mismatches) = check_seed(p.seed, &[m]);
            let details: Vec<String> = mismatches
                .iter()
                .map(|mm| format!("{}: {}", mm.mechanism, mm.detail))
                .collect();
            CellOutcome::Checked {
                checked,
                clean: details.is_empty(),
                detail: details.join("; "),
            }
        }
    };
    CellRecord {
        cell: p.id,
        wall_ms: t0.elapsed().as_millis() as u64,
        outcome,
    }
}

/// Replays every shard journal (tolerating torn tails — this is the
/// read-only path `status` uses mid-run, possibly while shards are still
/// writing).
pub fn read_journals(c: &Campaign) -> Result<Vec<(u64, ShardJournal)>, CampaignError> {
    let cells = c.spec.cells();
    let mut out = Vec::new();
    for shard in 0..c.shards {
        let labels = labels_fn(c, &cells, shard);
        let journal = checkpoint::read_journal(&c.dir, &c.header(shard), &labels)?;
        out.push((shard, journal));
    }
    Ok(out)
}

/// Wall-clock unix seconds, for heartbeat stamps and staleness checks.
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// The streaming aggregate of whatever the journals hold right now, with
/// shards gone silent past [`HEARTBEAT_STALE_SECS`] flagged stale.
pub fn status(c: &Campaign) -> Result<CampaignStatus, CampaignError> {
    let mut status = aggregate::aggregate(&c.spec, &read_journals(c)?);
    status.mark_staleness(unix_now(), HEARTBEAT_STALE_SECS);
    Ok(status)
}

/// Converts a completed campaign's cells into results-store records, in
/// cell-id order. Deterministic: `wall_ms` is zeroed (journals keep the
/// real timings) and provenance is the campaign's pinned capture, so the
/// appended bytes do not depend on sharding, interruption, or timing. A
/// row's workload names its seed and config point
/// (`astar_like@seed7:rob192+cuc64+part8`), so every cell has its own key.
pub fn store_records(
    c: &Campaign,
    run_id: &str,
    journals: &[(u64, ShardJournal)],
) -> Vec<ResultRecord> {
    let cells = c.spec.cells();
    let mut by_id: Vec<&CellRecord> = journals.iter().flat_map(|(_, j)| &j.records).collect();
    by_id.sort_by_key(|r| r.cell);
    by_id
        .iter()
        .filter_map(|r| {
            let CellOutcome::Stored(payload) = &r.outcome else {
                return None;
            };
            let p = &cells[r.cell as usize];
            let workload = format!("{}@seed{}:{}", p.workload, p.seed, p.point.label());
            let key = ("cell", workload.as_str(), p.mechanism?.label());
            let (eval, payload) = (cell_eval(&c.spec, p), payload.clone());
            Some(ResultRecord::new(
                run_id,
                r.cell,
                &c.provenance,
                &eval,
                key,
                0,
                payload,
            ))
        })
        .collect()
}

/// Finalizes a complete campaign: writes `report.json` and — for
/// measuring modes, unless `store_path` is `None` — appends the cells to
/// the results store exactly once (guarded by `recorded.txt`). Errors with
/// [`CampaignError::Incomplete`] while cells are missing.
///
/// Returns the final status and the store run id if this call (or an
/// earlier one) recorded the campaign.
pub fn finalize(
    c: &Campaign,
    store_path: Option<&Path>,
) -> Result<(CampaignStatus, Option<String>), CampaignError> {
    let journals = read_journals(c)?;
    let status = aggregate::aggregate(&c.spec, &journals);
    if !status.complete() {
        return Err(CampaignError::Incomplete {
            done: status.done,
            total: status.total,
        });
    }
    fs::write(c.report_path(), status.to_json().render_pretty())?;
    let mut recorded = None;
    if c.spec.mode.measures() {
        if let Ok(existing) = fs::read_to_string(c.recorded_path()) {
            recorded = Some(existing.trim().to_string());
        } else if let Some(store_path) = store_path {
            let (run_id, _) = ResultStore::open(store_path)
                .append_run(&c.provenance, |id| store_records(c, id, &journals))?;
            fs::write(c.recorded_path(), format!("{run_id}\n"))?;
            recorded = Some(run_id);
        }
    }
    Ok((status, recorded))
}

/// Spawns one OS process per shard (`<exe> campaign shard --dir … --shard
/// …`), waits for all of them, and returns the per-shard exit codes. The
/// coordinator splits its thread budget across shards.
pub fn spawn_shards(
    c: &Campaign,
    exe: &Path,
    threads: usize,
) -> Result<Vec<(u64, Option<i32>)>, CampaignError> {
    let total_threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    let per_shard = (total_threads / c.shards.max(1) as usize).max(1);
    let mut children = Vec::new();
    for shard in 0..c.shards {
        let child = std::process::Command::new(exe)
            .arg("campaign")
            .arg("shard")
            .arg("--dir")
            .arg(&c.dir)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--threads")
            .arg(per_shard.to_string())
            .spawn()?;
        children.push((shard, child));
    }
    let mut codes = Vec::new();
    for (shard, mut child) in children {
        let exit = child.wait()?;
        codes.push((shard, exit.code()));
    }
    Ok(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Mechanism;
    use cdf_core::ConfigGrid;

    fn prov() -> Provenance {
        Provenance {
            git_commit: Some("deadbeef".repeat(5)),
            git_dirty: Some(false),
            rustc_version: None,
            host: "test".to_string(),
            timestamp: Some(0),
        }
    }

    fn fuzz_spec(seeds: u64) -> CampaignSpec {
        let mut eval = EvalConfig::default();
        eval.gen.seed = 0; // spec normalization pins the template to seeds[0]
        CampaignSpec {
            name: "engine-test".to_string(),
            hypothesis: String::new(),
            mode: CellMode::Fuzz,
            workloads: Vec::new(),
            mechanisms: vec![Mechanism::Baseline],
            seeds: (0..seeds).collect(),
            grid: ConfigGrid::default(),
            eval,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cdf-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn init_load_round_trips_identity() {
        let dir = tmp("init");
        let c = init_campaign(&dir, fuzz_spec(4), 2, prov()).unwrap();
        let loaded = load_campaign(&dir).unwrap();
        assert_eq!(c.spec, loaded.spec);
        assert_eq!(c.shards, loaded.shards);
        assert_eq!(c.grid_hash, loaded.grid_hash);
        assert_eq!(c.provenance, loaded.provenance);
        let err = init_campaign(&dir, fuzz_spec(4), 2, prov()).unwrap_err();
        assert!(err.to_string().contains("already holds"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_resume_matches_uninterrupted_digest() {
        let opts = ShardOptions {
            threads: 1,
            batch: 1,
            ..ShardOptions::default()
        };

        let dir_a = tmp("abort");
        let a = init_campaign(&dir_a, fuzz_spec(4), 1, prov()).unwrap();
        let first = run_shard(
            &a,
            0,
            &ShardOptions {
                abort_after: Some(2),
                ..opts
            },
        )
        .unwrap();
        assert_eq!((first.completed, first.remaining), (2, 2));
        assert_eq!(
            status(&a).unwrap().done,
            2,
            "mid-run status sees the checkpoint"
        );
        let second = run_shard(&a, 0, &opts).unwrap();
        assert_eq!((second.completed, second.remaining), (2, 0));

        let dir_b = tmp("clean");
        let b = init_campaign(&dir_b, fuzz_spec(4), 1, prov()).unwrap();
        run_shard(&b, 0, &opts).unwrap();

        assert_eq!(
            status(&a).unwrap().digest,
            status(&b).unwrap().digest,
            "killed+resumed aggregate is bit-identical to uninterrupted"
        );
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn finalize_requires_completion_and_writes_report() {
        let dir = tmp("finalize");
        let c = init_campaign(&dir, fuzz_spec(2), 2, prov()).unwrap();
        match finalize(&c, None) {
            Err(CampaignError::Incomplete { done: 0, total: 2 }) => {}
            other => panic!("expected Incomplete, got {other:?}"),
        }
        for shard in 0..2 {
            run_shard(&c, shard, &ShardOptions::default()).unwrap();
        }
        let (st, recorded) = finalize(&c, None).unwrap();
        assert!(st.complete());
        assert_eq!(recorded, None, "fuzz campaigns do not enter the store");
        let report = fs::read_to_string(c.report_path()).unwrap();
        assert!(report.contains("cdf-campaign/1"), "{report}");
        let _ = fs::remove_dir_all(&dir);
    }
}
