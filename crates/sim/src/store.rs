//! The durable, append-only results store (`cdf-sim record`).
//!
//! Every simulation result in this repo is deterministic and
//! provenance-stamped, but without a store the numbers evaporate when the
//! process exits. This module makes them durable: an append-only JSONL file
//! (one [`RESULT_SCHEMA`] record per line, `.cdf-results/results.jsonl` by
//! default) that accumulates results across commits so questions like *"did
//! this commit regress mcf/CDF IPC?"* become a [`crate::compare`] query
//! instead of an archaeology project.
//!
//! Each record is keyed by (git commit + dirty flag, config hash, workload,
//! mechanism, scheduler/mem-model axis) and embeds the full
//! [`Measurement`], the uniform [`Provenance`] header, the workload
//! generation parameters, and optional telemetry/diagnostics summaries —
//! enough metadata that records written months apart, possibly on
//! different machines, can still be compared honestly. Deterministic
//! metrics (cycles, IPC, retired, MLP, DRAM traffic, energy, coverage) are
//! machine-independent; only `wall_ms` / `wall_seconds` carry machine
//! noise, and the compare engine treats them accordingly.
//!
//! Records enter the store two ways:
//!
//! * `cdf-sim record` — runs the full (workload × mechanism) grid, or a
//!   `--filter` subset, as a sweep and appends one record per cell.
//! * `cdf-sim sweep --record` / `explain --record` / `mix --record` — tee
//!   the cells of a normal run into the store. Grid cells become records
//!   through [`records_from_cells`], whichever command ran them.
//! * `cdf-sim campaign` — appends a finished campaign's measuring cells.
//!
//! Every row, whoever produces it, is built by [`ResultRecord::new`] and
//! ends in the [`payload_fields`] that campaign journal lines end in too.
//!
//! With `--profile`, each cell also lands a host-performance row (kind
//! `"profile"`), so stats history and perf history live together.
//!
//! The file is append-only by construction: [`ResultStore::append`] opens
//! with `O_APPEND` and never rewrites existing lines, so the store is also
//! an audit log — a record, once written, is never edited.

use crate::json::{field, Json};
use crate::provenance::{provenance_from_json, provenance_json};
use crate::run::{EvalConfig, Measurement};
use crate::schema;
use crate::sweep::{eval_config_hash, gen_json, measurement_json, SweepCell};
use cdf_core::{CdfDiagnostics, Coverage, HostProfile, Provenance, Telemetry};
use cdf_workloads::GenConfig;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The JSON schema tag on every store line.
pub use crate::schema::RESULT as RESULT_SCHEMA;

/// Default store location, relative to the working directory.
pub const DEFAULT_STORE_PATH: &str = ".cdf-results/results.jsonl";

/// The identity a record is joined on when comparing two runs: what was
/// measured, under which runtime implementation axis. The configuration
/// (seed, sizing, core template) is deliberately *not* part of the key —
/// a perturbed config shows up as changed metrics on the same key (a
/// classified regression), not as a silently missing cell. Where one run
/// holds several cells of a workload and mechanism, the workload names
/// which: its core in a mix (`mcf_like@c0`), its seed and config point in
/// a campaign (`astar_like@seed7:rob192+cuc64+part8`).
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct ResultKey {
    /// Record kind: `"cell"` (a grid measurement) or `"profile"` (a
    /// host-perf row produced by `--profile`). Stores written by earlier
    /// versions may also hold `"throughput"` rows, which load and compare
    /// like profile rows.
    pub kind: String,
    /// Workload name (a benchmark case name on `"throughput"` rows).
    pub workload: String,
    /// Mechanism label (a variant label, e.g. `"event"`, on
    /// `"throughput"` rows).
    pub mechanism: String,
    /// Scheduler axis label ([`cdf_core::SchedulerKind::as_str`]).
    pub scheduler: String,
    /// Memory-model label ([`cdf_core::MemModelKind::as_str`]): always
    /// `mem-event` since the lazy model was retired, kept so rows recorded
    /// before and after join on one key.
    pub mem_model: String,
}

impl ResultKey {
    /// Human-readable `kind:workload/mechanism@scheduler+mem_model` form.
    pub fn label(&self) -> String {
        format!(
            "{}:{}/{}@{}+{}",
            self.kind, self.workload, self.mechanism, self.scheduler, self.mem_model
        )
    }
}

/// Compact, fully deterministic diagnostics summary embedded in a record
/// when the producing run had diagnostics enabled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DiagSummary {
    /// Coverage of retired LLC-miss loads.
    pub load_coverage: Coverage,
    /// Coverage of retired mispredicted H2P branches.
    pub branch_coverage: Coverage,
    /// Critical uops fetched.
    pub fetched: u64,
    /// Fetched uops consumed by replay.
    pub consumed: u64,
    /// Fetched uops with no outcome — wasted critical fetch work.
    pub wasted: u64,
}

impl DiagSummary {
    /// Extracts the summary from a full diagnostics collector.
    pub fn from_diagnostics(d: &CdfDiagnostics) -> DiagSummary {
        DiagSummary {
            load_coverage: d.load_coverage,
            branch_coverage: d.branch_coverage,
            fetched: d.critical_uops_fetched,
            consumed: d.critical_uops_consumed,
            wasted: d.critical_uops_wasted(),
        }
    }

    /// Accuracy: consumed / fetched (0 when nothing was fetched).
    pub fn accuracy(&self) -> f64 {
        if self.fetched == 0 {
            0.0
        } else {
            self.consumed as f64 / self.fetched as f64
        }
    }
}

/// Compact, fully deterministic telemetry summary: the six-bucket top-down
/// cycle accounting.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TelemetrySummary {
    /// `(bucket label, cycles)` in bucket order; sums to observed cycles.
    pub buckets: Vec<(String, u64)>,
}

impl TelemetrySummary {
    /// Extracts the summary from a full telemetry collector.
    pub fn from_telemetry(t: &Telemetry) -> TelemetrySummary {
        TelemetrySummary {
            buckets: t
                .accounting
                .breakdown()
                .into_iter()
                .map(|(b, cycles, _)| (b.label().to_string(), cycles))
                .collect(),
        }
    }
}

/// What a record measured: a grid-cell measurement, a host-throughput row,
/// or the cell's failure.
// The `Cell` variant dominates both the size and the population of real
// stores, so boxing it would add an allocation to the common case to slim
// the rare ones.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Debug)]
pub enum RecordPayload {
    /// A successful grid cell.
    Cell {
        /// The full measurement for the cell.
        measurement: Measurement,
        /// Diagnostics summary, when the run had diagnostics enabled.
        diagnostics: Option<DiagSummary>,
        /// Telemetry summary, when the run had telemetry enabled.
        telemetry: Option<TelemetrySummary>,
    },
    /// A host-throughput row: a `"profile"` row (or an older store's
    /// `"throughput"` row), serialized under the `"throughput"` key.
    Throughput {
        /// Simulated cycles the case executed (deterministic).
        simulated_cycles: u64,
        /// Wall-clock seconds (machine noise; compared with tolerance).
        wall_seconds: f64,
    },
    /// The cell failed; the failure is recorded so a regression from
    /// "works" to "errors" is visible in compare.
    Error {
        /// Stable error kind (see [`crate::SimError::kind`]).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

/// One line of the store: a single keyed, provenance-stamped result.
#[derive(Clone, PartialEq, Debug)]
pub struct ResultRecord {
    /// Identifier of the recording invocation this record belongs to; all
    /// records appended by one `record`/`--record` run share it.
    pub run_id: String,
    /// Position of this record within its run (grid order).
    pub seq: u64,
    /// The uniform provenance header.
    pub provenance: Provenance,
    /// FNV-1a hash of the cell's full [`EvalConfig`] (an older store's
    /// `"throughput"` rows carry a sizing tag here instead).
    pub config_hash: String,
    /// Workload generation parameters, for cell records.
    pub gen: Option<GenConfig>,
    /// The join key.
    pub key: ResultKey,
    /// Wall-clock milliseconds the cell took (machine noise).
    pub wall_ms: u64,
    /// The measured payload.
    pub payload: RecordPayload,
}

impl RecordPayload {
    /// A finished cell's payload: its measurement with the diagnostics and
    /// telemetry summaries it carries, or its error.
    pub fn of_cell(c: &SweepCell) -> RecordPayload {
        match &c.result {
            Ok(m) => RecordPayload::Cell {
                measurement: m.clone(),
                diagnostics: c.diagnostics.as_ref().map(DiagSummary::from_diagnostics),
                telemetry: c.telemetry.as_ref().map(TelemetrySummary::from_telemetry),
            },
            Err(e) => RecordPayload::Error {
                kind: e.kind().to_string(),
                message: e.to_string(),
            },
        }
    }

    /// The host-perf payload of a profiled cell or mix: simulated cycles
    /// (compared exactly) over the profiled wall time (within tolerance).
    pub fn throughput(p: &HostProfile) -> RecordPayload {
        RecordPayload::Throughput {
            simulated_cycles: p.cycles,
            wall_seconds: p.total_wall_ns as f64 / 1e9,
        }
    }
}

impl ResultRecord {
    /// The one way to build a row. `config_hash`, `gen` and the key's
    /// `scheduler`/`mem_model` all come from `eval`, the config the cell
    /// ran under, so no producer can stamp a row with another config's
    /// identity; `key` is the row's `(kind, workload, mechanism)`.
    pub fn new(
        run_id: &str,
        seq: u64,
        prov: &Provenance,
        eval: &EvalConfig,
        (kind, workload, mechanism): (&str, &str, &str),
        wall_ms: u64,
        payload: RecordPayload,
    ) -> ResultRecord {
        ResultRecord {
            run_id: run_id.to_string(),
            seq,
            provenance: prov.clone(),
            config_hash: eval_config_hash(eval),
            gen: Some(eval.gen),
            key: ResultKey {
                kind: kind.to_string(),
                workload: workload.to_string(),
                mechanism: mechanism.to_string(),
                scheduler: eval.core.scheduler.as_str().to_string(),
                mem_model: eval.core.mem_model.as_str().to_string(),
            },
            wall_ms,
            payload,
        }
    }

    /// Whether the record is a successful measurement (not an error).
    pub fn is_ok(&self) -> bool {
        !matches!(self.payload, RecordPayload::Error { .. })
    }
}

// ---------------------------------------------------------------------------
// Store I/O.
// ---------------------------------------------------------------------------

/// A store failure: I/O, or a corrupt line.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error reading or appending the store.
    Io(std::io::Error),
    /// A line of the store failed to parse as a [`RESULT_SCHEMA`] record.
    Parse {
        /// 1-based line number in the store file.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Parse { line, message } => {
                write!(f, "store line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Handle on one append-only JSONL store file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResultStore {
    path: PathBuf,
}

impl ResultStore {
    /// Opens (without touching the filesystem) the store at `path`.
    pub fn open(path: impl Into<PathBuf>) -> ResultStore {
        ResultStore { path: path.into() }
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads every record, in append order. A store that does not exist
    /// yet is an empty store, not an error; a corrupt line is an error
    /// (the store is an audit log — silent skips would hide damage).
    pub fn load(&self) -> Result<Vec<ResultRecord>, StoreError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = Json::parse(line).map_err(|e| StoreError::Parse {
                line: i + 1,
                message: e.to_string(),
            })?;
            let rec = record_from_json(&doc).map_err(|message| StoreError::Parse {
                line: i + 1,
                message,
            })?;
            records.push(rec);
        }
        Ok(records)
    }

    /// Atomically reserves the next run id against both the store contents
    /// and every id previously reserved through this method — safe when N
    /// processes (campaign shards, parallel CI jobs) allocate against one
    /// store concurrently.
    ///
    /// Reading the store alone would be race-free only for a single
    /// writer: two processes that load the same store state would mint the
    /// same ordinal and their interleaved appends would merge into one run.
    /// This method closes the race by reserving the ordinal as a
    /// `create_new` marker file under `<store>.runs/` — creation is atomic,
    /// so exactly one process wins each ordinal and the loser retries with
    /// the next one. Producers append through [`append_run`](Self::append_run).
    pub fn reserve_run_id(&self, prov: &Provenance) -> Result<String, StoreError> {
        let existing = self.load()?;
        let dir = self.runs_dir();
        std::fs::create_dir_all(&dir)?;
        let reserved_max = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| run_ordinal(&e.file_name().to_string_lossy()))
            .max()
            .unwrap_or(0);
        let stored_max = max_ordinal(&existing);
        let mut ordinal = reserved_max.max(stored_max) + 1;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(dir.join(format!("r{ordinal:04}")))
            {
                Ok(_) => return Ok(run_id_for(ordinal, prov)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => ordinal += 1,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The sidecar directory holding reserved-run-id markers.
    fn runs_dir(&self) -> PathBuf {
        let mut name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_string());
        name.push_str(".runs");
        self.path.with_file_name(name)
    }

    /// Appends one run: reserves its id, builds its records under it, and
    /// appends them. Every producer goes through here, so none can reuse an
    /// id another run reserved. Returns the id and the records.
    pub fn append_run(
        &self,
        prov: &Provenance,
        build: impl FnOnce(&str) -> Vec<ResultRecord>,
    ) -> Result<(String, Vec<ResultRecord>), StoreError> {
        let run_id = self.reserve_run_id(prov)?;
        let records = build(&run_id);
        self.append(&records)?;
        Ok((run_id, records))
    }

    /// Appends records (one JSONL line each), creating the parent
    /// directory and file on first use. Never rewrites existing lines.
    pub fn append(&self, records: &[ResultRecord]) -> Result<(), StoreError> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut buf = String::new();
        for r in records {
            buf.push_str(&record_json(r).render());
            buf.push('\n');
        }
        f.write_all(buf.as_bytes())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Run identity and ref resolution.
// ---------------------------------------------------------------------------

/// Distinct run ids in run-ordinal order (ties and unparseable ids keep
/// first-appearance order). Ordinal order — not raw append order — is what
/// `latest~N` means: concurrent runs (campaign shards, parallel recorders)
/// interleave their appends, so the file position of a run's *first* record
/// says nothing about which run was allocated first.
pub fn run_ids(records: &[ResultRecord]) -> Vec<String> {
    let mut ids: Vec<String> = Vec::new();
    for r in records {
        if ids.last() != Some(&r.run_id) && !ids.contains(&r.run_id) {
            ids.push(r.run_id.clone());
        }
    }
    ids.sort_by_key(|id| run_ordinal(id).unwrap_or(u64::MAX));
    ids
}

/// The ordinal parsed from a `rNNNN-…` run id (or bare `rNNNN` marker name).
fn run_ordinal(id: &str) -> Option<u64> {
    id.strip_prefix('r')?
        .split('-')
        .next()?
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
}

fn max_ordinal(records: &[ResultRecord]) -> u64 {
    records
        .iter()
        .filter_map(|r| run_ordinal(&r.run_id))
        .max()
        .unwrap_or(0)
}

fn run_id_for(ordinal: u64, prov: &Provenance) -> String {
    let dirty = if prov.git_dirty == Some(true) {
        "-dirty"
    } else {
        ""
    };
    format!("r{:04}-{}{}", ordinal, prov.short_commit(8), dirty)
}

/// Resolves a user-facing run ref to a concrete run id. Accepted forms,
/// tried in order: `latest` / `latest~N` (append order), an exact run id,
/// or a commit-hash prefix (the most recent run recorded at a matching
/// commit wins).
pub fn resolve_ref(records: &[ResultRecord], wanted: &str) -> Result<String, String> {
    let ids = run_ids(records);
    if ids.is_empty() {
        return Err("the store holds no runs".to_string());
    }
    if let Some(back) = parse_latest(wanted) {
        return ids
            .len()
            .checked_sub(1 + back)
            .map(|i| ids[i].clone())
            .ok_or_else(|| {
                format!(
                    "ref {wanted:?} reaches past the {} run(s) stored",
                    ids.len()
                )
            });
    }
    if ids.iter().any(|id| id == wanted) {
        return Ok(wanted.to_string());
    }
    // Commit prefix: latest run whose records carry a matching commit.
    let by_commit = records
        .iter()
        .filter(|r| {
            r.provenance
                .git_commit
                .as_deref()
                .is_some_and(|c| c.starts_with(wanted))
        })
        .map(|r| r.run_id.clone())
        .next_back();
    by_commit.ok_or_else(|| {
        format!(
            "ref {wanted:?} matches no run id or commit (runs: {})",
            ids.join(", ")
        )
    })
}

fn parse_latest(wanted: &str) -> Option<usize> {
    if wanted == "latest" {
        return Some(0);
    }
    wanted
        .strip_prefix("latest~")
        .and_then(|n| n.parse::<usize>().ok())
}

/// The records of one run, in append order.
pub fn records_for_run<'a>(records: &'a [ResultRecord], run_id: &str) -> Vec<&'a ResultRecord> {
    records.iter().filter(|r| r.run_id == run_id).collect()
}

// ---------------------------------------------------------------------------
// Producing records.
// ---------------------------------------------------------------------------

/// Converts finished cells (sweep, record or explain) into store records
/// under `eval`, the config the cells actually ran under: one `"cell"` row
/// per cell in grid order, then one `"profile"` row per profiled cell (so
/// cell seq numbers match the unprofiled layout).
pub fn records_from_cells(
    run_id: &str,
    prov: &Provenance,
    eval: &EvalConfig,
    cells: &[SweepCell],
) -> Vec<ResultRecord> {
    let profiled = cells
        .iter()
        .filter_map(|c| Some(("profile", c, RecordPayload::throughput(c.profile.as_ref()?))));
    cells
        .iter()
        .map(|c| ("cell", c, RecordPayload::of_cell(c)))
        .chain(profiled)
        .enumerate()
        .map(|(seq, (kind, c, payload))| {
            let key = (kind, c.workload.as_str(), c.mechanism.label());
            ResultRecord::new(run_id, seq as u64, prov, eval, key, c.wall_ms, payload)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

/// Serializes one record as its [`RESULT_SCHEMA`] JSON line.
pub fn record_json(r: &ResultRecord) -> Json {
    let mut fields = vec![
        field("schema", schema::RESULT),
        field("run_id", r.run_id.as_str()),
        field("seq", r.seq),
        field("provenance", provenance_json(&r.provenance)),
        field("config_hash", r.config_hash.as_str()),
    ];
    if let Some(gen) = &r.gen {
        fields.push(field("gen", gen_json(gen)));
    }
    fields.push(field(
        "key",
        Json::Obj(vec![
            field("kind", r.key.kind.as_str()),
            field("workload", r.key.workload.as_str()),
            field("mechanism", r.key.mechanism.as_str()),
            field("scheduler", r.key.scheduler.as_str()),
            field("mem_model", r.key.mem_model.as_str()),
        ]),
    ));
    fields.push(field("wall_ms", r.wall_ms));
    fields.extend(payload_fields(&r.payload));
    Json::Obj(fields)
}

/// The fields a payload renders as, after `wall_ms`: `status`, then the
/// measurement with its summaries, the throughput object, or the error.
/// Store rows and campaign journal lines both end in these fields.
pub fn payload_fields(payload: &RecordPayload) -> Vec<(String, Json)> {
    match payload {
        RecordPayload::Cell {
            measurement,
            diagnostics,
            telemetry,
        } => {
            let mut fields = vec![
                field("status", "ok"),
                field("measurement", measurement_json(measurement)),
            ];
            if let Some(d) = diagnostics {
                fields.push(field("diagnostics", diag_summary_json(d)));
            }
            if let Some(t) = telemetry {
                fields.push(field("telemetry", telemetry_summary_json(t)));
            }
            fields
        }
        RecordPayload::Throughput {
            simulated_cycles,
            wall_seconds,
        } => vec![
            field("status", "ok"),
            field(
                "throughput",
                Json::Obj(vec![
                    field("simulated_cycles", *simulated_cycles),
                    field("wall_seconds", *wall_seconds),
                ]),
            ),
        ],
        RecordPayload::Error { kind, message } => vec![
            field("status", "error"),
            field(
                "error",
                Json::Obj(vec![
                    field("kind", kind.as_str()),
                    field("message", message.as_str()),
                ]),
            ),
        ],
    }
}

fn diag_summary_json(d: &DiagSummary) -> Json {
    Json::Obj(vec![
        field(
            "load_coverage",
            Json::Obj(vec![
                field("covered", d.load_coverage.covered),
                field("total", d.load_coverage.total),
            ]),
        ),
        field(
            "branch_coverage",
            Json::Obj(vec![
                field("covered", d.branch_coverage.covered),
                field("total", d.branch_coverage.total),
            ]),
        ),
        field("fetched", d.fetched),
        field("consumed", d.consumed),
        field("wasted", d.wasted),
    ])
}

fn telemetry_summary_json(t: &TelemetrySummary) -> Json {
    Json::Obj(
        t.buckets
            .iter()
            .map(|(label, cycles)| field(label, *cycles))
            .collect(),
    )
}

/// Parses one store line back into a record.
pub fn record_from_json(doc: &Json) -> Result<ResultRecord, String> {
    schema::expect_schema(doc, schema::RESULT)?;
    let run_id = req_str(doc, "run_id")?;
    let seq = req_u64(doc, "seq")?;
    let provenance = provenance_from_json(
        doc.get("provenance")
            .ok_or_else(|| "missing provenance".to_string())?,
    )?;
    let config_hash = req_str(doc, "config_hash")?;
    let gen = match doc.get("gen") {
        None => None,
        Some(g) => Some(GenConfig {
            seed: req_u64(g, "seed")?,
            scale: req_f64(g, "scale")?,
            iters: req_u64(g, "iters")?,
        }),
    };
    let key_doc = doc.get("key").ok_or_else(|| "missing key".to_string())?;
    let key = ResultKey {
        kind: req_str(key_doc, "kind")?,
        workload: req_str(key_doc, "workload")?,
        mechanism: req_str(key_doc, "mechanism")?,
        scheduler: req_str(key_doc, "scheduler")?,
        mem_model: req_str(key_doc, "mem_model")?,
    };
    let wall_ms = req_u64(doc, "wall_ms")?;
    let payload = payload_from_json(doc, &key.workload, &key.mechanism)?;
    Ok(ResultRecord {
        run_id,
        seq,
        provenance,
        config_hash,
        gen,
        key,
        wall_ms,
        payload,
    })
}

/// Parses the [`payload_fields`] of a store row or journal line, giving the
/// measurement the workload/mechanism labels its envelope carries.
pub fn payload_from_json(
    doc: &Json,
    workload: &str,
    mechanism: &str,
) -> Result<RecordPayload, String> {
    match req_str(doc, "status")?.as_str() {
        "ok" => match doc.get("throughput") {
            Some(t) => Ok(RecordPayload::Throughput {
                simulated_cycles: req_u64(t, "simulated_cycles")?,
                wall_seconds: req_f64(t, "wall_seconds")?,
            }),
            None => Ok(RecordPayload::Cell {
                measurement: measurement_from_json(
                    doc.get("measurement")
                        .ok_or("ok record carries no measurement")?,
                    workload,
                    mechanism,
                )?,
                diagnostics: doc
                    .get("diagnostics")
                    .map(diag_summary_from_json)
                    .transpose()?,
                telemetry: doc.get("telemetry").map(telemetry_summary_from_json),
            }),
        },
        "error" => {
            let e = doc.get("error").ok_or("error record carries no error")?;
            Ok(RecordPayload::Error {
                kind: req_str(e, "kind")?,
                message: req_str(e, "message")?,
            })
        }
        other => Err(format!("unknown status {other:?}")),
    }
}

/// Parses a serialized measurement, reattaching the workload/mechanism the
/// key carries (the embedded object stores only the metric fields).
pub fn measurement_from_json(
    doc: &Json,
    workload: &str,
    mechanism: &str,
) -> Result<Measurement, String> {
    Ok(Measurement {
        workload: workload.to_string(),
        mechanism: mechanism.to_string(),
        instructions: req_u64(doc, "instructions")?,
        cycles: req_u64(doc, "cycles")?,
        ipc: req_f64(doc, "ipc")?,
        mlp: req_f64(doc, "mlp")?,
        dram_lines: req_u64(doc, "dram_lines")?,
        energy_nj: req_f64(doc, "energy_nj")?,
        cdf_energy_nj: req_f64(doc, "cdf_energy_nj")?,
        branch_mpki: req_f64(doc, "branch_mpki")?,
        llc_mpki: req_f64(doc, "llc_mpki")?,
        rob_critical_fraction: req_f64(doc, "rob_critical_fraction")?,
        full_window_stall_cycles: req_u64(doc, "full_window_stall_cycles")?,
        cdf_mode_cycles: req_u64(doc, "cdf_mode_cycles")?,
        critical_uops: req_u64(doc, "critical_uops")?,
        runahead_uops: req_u64(doc, "runahead_uops")?,
        dependence_violations: req_u64(doc, "dependence_violations")?,
    })
}

fn diag_summary_from_json(doc: &Json) -> Result<DiagSummary, String> {
    fn coverage(doc: &Json, key: &str) -> Result<Coverage, String> {
        let c = doc.get(key).ok_or_else(|| format!("missing {key}"))?;
        Ok(Coverage {
            covered: req_u64(c, "covered")?,
            total: req_u64(c, "total")?,
        })
    }
    Ok(DiagSummary {
        load_coverage: coverage(doc, "load_coverage")?,
        branch_coverage: coverage(doc, "branch_coverage")?,
        fetched: req_u64(doc, "fetched")?,
        consumed: req_u64(doc, "consumed")?,
        wasted: req_u64(doc, "wasted")?,
    })
}

fn telemetry_summary_from_json(doc: &Json) -> TelemetrySummary {
    let buckets = match doc {
        Json::Obj(fields) => fields
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|c| (k.clone(), c)))
            .collect(),
        _ => Vec::new(),
    };
    TelemetrySummary { buckets }
}

fn req_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string {key}"))
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer {key}"))
}

fn req_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric {key}"))
}

/// The `(kind, message)` of an error record, if it is one.
pub fn error_parts(r: &ResultRecord) -> Option<(&str, &str)> {
    match &r.payload {
        RecordPayload::Error { kind, message } => Some((kind, message)),
        _ => None,
    }
}
