//! Append-only per-shard progress journals — the resumable checkpoints of a
//! campaign.
//!
//! Each shard owns one `journal-NN.jsonl` inside the campaign directory.
//! Line 1 is a header stamped with the spec's grid hash and the shard's
//! position; every further line records one *completed* cell (its outcome,
//! never a promise). A resumed shard replays its journal, skips every cell
//! already on disk, and continues — a cell is never run twice.
//!
//! Read rules are deliberately asymmetric about where corruption sits:
//!
//! * A torn **final** line (the shard was killed mid-append) is expected
//!   crash damage — the reader stops at the last complete record and the
//!   writer truncates the tail before resuming.
//! * Anything else — a corrupt interior line, a header whose grid hash does
//!   not match the spec, a cell id outside the shard's assignment, a
//!   duplicate cell id — is evidence the journal does not belong to this
//!   campaign, and is a hard error. A checkpoint must never silently drive
//!   the wrong grid.

use crate::json::{field, Json};
use crate::run::Measurement;
use crate::schema;
use crate::store::{diag_summary_from_json, diag_summary_json, measurement_from_json, DiagSummary};
use crate::sweep::measurement_json;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The journal file name for one shard.
pub fn journal_path(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("journal-{shard:02}.jsonl"))
}

/// The first line of every journal: which campaign, which grid, which
/// shard.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JournalHeader {
    /// Campaign name (matches the spec).
    pub campaign: String,
    /// [`super::CampaignSpec::grid_hash`] of the spec this journal belongs
    /// to.
    pub grid_hash: String,
    /// This shard's index in `0..shards`.
    pub shard: u64,
    /// Total shard count the campaign was initialized with.
    pub shards: u64,
}

impl JournalHeader {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            field("schema", schema::CAMPAIGN_JOURNAL),
            field("header", true),
            field("campaign", self.campaign.as_str()),
            field("grid_hash", self.grid_hash.as_str()),
            field("shard", self.shard),
            field("shards", self.shards),
        ])
    }

    fn from_json(doc: &Json) -> Result<JournalHeader, String> {
        schema::expect_schema(doc, schema::CAMPAIGN_JOURNAL)?;
        if doc.get("header").and_then(Json::as_bool) != Some(true) {
            return Err("first journal line is not a header".to_string());
        }
        let s = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("header missing {k}"))
        };
        let n = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("header missing {k}"))
        };
        Ok(JournalHeader {
            campaign: s("campaign")?,
            grid_hash: s("grid_hash")?,
            shard: n("shard")?,
            shards: n("shards")?,
        })
    }
}

/// How one campaign cell finished.
#[derive(Clone, PartialEq, Debug)]
pub enum CellOutcome {
    /// A sweep/explain cell: a full measurement (plus diagnostics when the
    /// cell ran with them).
    Measured {
        /// The cell's measurement.
        measurement: Measurement,
        /// Diagnostics summary, when diagnostics were on.
        diagnostics: Option<DiagSummary>,
    },
    /// A fuzz/equiv cell: `checked` units compared, `clean` when no
    /// divergence was found.
    Checked {
        /// Units compared (retired uops for fuzz lockstep, checked events
        /// for equivalence).
        checked: u64,
        /// No divergence found.
        clean: bool,
        /// Divergence description (empty when clean).
        detail: String,
    },
    /// The cell failed to run at all (simulation error or panic).
    Failed {
        /// Stable error kind ([`crate::SimError::kind`]).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

impl CellOutcome {
    /// Whether the cell ran to completion (possibly finding a divergence).
    pub fn is_ok(&self) -> bool {
        !matches!(self, CellOutcome::Failed { .. })
    }
}

/// One completed cell as journaled by its shard.
#[derive(Clone, PartialEq, Debug)]
pub struct CellRecord {
    /// Cell id — the cell's index in [`super::CampaignSpec::cells`].
    pub cell: u64,
    /// Wall-clock milliseconds the cell took (machine noise; excluded from
    /// the aggregate digest).
    pub wall_ms: u64,
    /// How the cell finished.
    pub outcome: CellOutcome,
}

impl CellRecord {
    /// Serializes the journal line.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            field("schema", schema::CAMPAIGN_JOURNAL),
            field("cell", self.cell),
            field("wall_ms", self.wall_ms),
        ];
        match &self.outcome {
            CellOutcome::Measured {
                measurement,
                diagnostics,
            } => {
                fields.push(field("status", "ok"));
                fields.push(field("measurement", measurement_json(measurement)));
                if let Some(d) = diagnostics {
                    fields.push(field("diagnostics", diag_summary_json(d)));
                }
            }
            CellOutcome::Checked {
                checked,
                clean,
                detail,
            } => {
                fields.push(field("status", "checked"));
                fields.push(field("checked", *checked));
                fields.push(field("clean", *clean));
                if !detail.is_empty() {
                    fields.push(field("detail", detail.as_str()));
                }
            }
            CellOutcome::Failed { kind, message } => {
                fields.push(field("status", "error"));
                fields.push(field(
                    "error",
                    Json::Obj(vec![
                        field("kind", kind.as_str()),
                        field("message", message.as_str()),
                    ]),
                ));
            }
        }
        Json::Obj(fields)
    }

    /// Parses a journal line, reattaching the workload/mechanism labels the
    /// embedded measurement needs (they come from the spec's cell
    /// enumeration, not the journal).
    pub fn from_json(doc: &Json, workload: &str, mechanism: &str) -> Result<CellRecord, String> {
        schema::expect_schema(doc, schema::CAMPAIGN_JOURNAL)?;
        let cell = doc
            .get("cell")
            .and_then(Json::as_u64)
            .ok_or("journal line missing cell id")?;
        let wall_ms = doc.get("wall_ms").and_then(Json::as_u64).unwrap_or(0);
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or("journal line missing status")?;
        let outcome = match status {
            "ok" => CellOutcome::Measured {
                measurement: measurement_from_json(
                    doc.get("measurement")
                        .ok_or("ok line carries no measurement")?,
                    workload,
                    mechanism,
                )?,
                diagnostics: doc
                    .get("diagnostics")
                    .map(diag_summary_from_json)
                    .transpose()?,
            },
            "checked" => CellOutcome::Checked {
                checked: doc
                    .get("checked")
                    .and_then(Json::as_u64)
                    .ok_or("checked line carries no count")?,
                clean: doc
                    .get("clean")
                    .and_then(Json::as_bool)
                    .ok_or("checked line carries no clean flag")?,
                detail: doc
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            },
            "error" => {
                let e = doc.get("error").ok_or("error line carries no error")?;
                let s = |k: &str| {
                    e.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("error line missing {k}"))
                };
                CellOutcome::Failed {
                    kind: s("kind")?,
                    message: s("message")?,
                }
            }
            other => return Err(format!("unknown journal status {other:?}")),
        };
        Ok(CellRecord {
            cell,
            wall_ms,
            outcome,
        })
    }

    /// The digest-canonical rendering: the journal line with `wall_ms`
    /// zeroed, so aggregates over identical results are bit-identical
    /// regardless of machine timing.
    pub fn canonical(&self) -> String {
        CellRecord {
            wall_ms: 0,
            ..self.clone()
        }
        .to_json()
        .render()
    }
}

/// A journal read failure.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The journal does not belong to this campaign, or is damaged
    /// somewhere other than its final line.
    Corrupt {
        /// The journal file.
        path: PathBuf,
        /// 1-based line number of the damage.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Corrupt {
                path,
                line,
                message,
            } => write!(f, "{}:{line}: corrupt journal: {message}", path.display()),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// The replayed state of one shard's journal.
#[derive(Clone, PartialEq, Debug)]
pub struct ShardJournal {
    /// Completed cells, in append (= assignment) order.
    pub records: Vec<CellRecord>,
    /// Bytes of the file covered by the header and complete records. When
    /// the file ends in a torn line this is less than the file length;
    /// [`truncate_torn_tail`] cuts the file back to it before resuming.
    pub valid_len: u64,
    /// Whether the file ended in a torn (incomplete) final line.
    pub torn_tail: bool,
    /// Unix timestamp of the newest heartbeat line, if the shard has
    /// stamped any. Heartbeats are liveness-only: they carry no results,
    /// never enter the aggregate digest, and a torn heartbeat is repaired
    /// like any other torn tail.
    pub last_heartbeat: Option<u64>,
}

/// Appends one heartbeat line (`{"schema":…,"heartbeat":<unix-secs>}`) to a
/// shard's journal. Shards stamp one before every cell batch so `campaign
/// status` can tell a slow shard from a dead one.
pub fn append_heartbeat(dir: &Path, shard: u64, unix_secs: u64) -> Result<(), JournalError> {
    let line = Json::Obj(vec![
        field("schema", schema::CAMPAIGN_JOURNAL),
        field("heartbeat", unix_secs),
    ]);
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(journal_path(dir, shard))?;
    writeln!(f, "{}", line.render())?;
    f.flush()?;
    Ok(())
}

/// Creates a shard journal containing only its header line. Errors if the
/// file already exists (journals are created exactly once, by
/// [`super::init_campaign`]).
pub fn create_journal(dir: &Path, header: &JournalHeader) -> Result<(), JournalError> {
    let path = journal_path(dir, header.shard);
    let mut f = fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)?;
    writeln!(f, "{}", header.to_json().render())?;
    Ok(())
}

/// Appends completed cells to a shard's journal (one line per cell, a
/// single flushed write).
pub fn append_cells(dir: &Path, shard: u64, records: &[CellRecord]) -> Result<(), JournalError> {
    if records.is_empty() {
        return Ok(());
    }
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json().render());
        buf.push('\n');
    }
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(journal_path(dir, shard))?;
    f.write_all(buf.as_bytes())?;
    f.flush()?;
    Ok(())
}

/// Replays a shard's journal, validating it against the expected header and
/// the shard's cell assignment.
///
/// `expect` carries the campaign name, grid hash, and shard geometry the
/// spec demands. `labels` maps a cell id to its `(workload,
/// mechanism-label)` pair for measurement reattachment, returning `None`
/// for ids this shard does not own — which makes any such journal line a
/// hard error.
pub fn read_journal(
    dir: &Path,
    expect: &JournalHeader,
    labels: &dyn Fn(u64) -> Option<(String, String)>,
) -> Result<ShardJournal, JournalError> {
    let path = journal_path(dir, expect.shard);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ShardJournal {
                records: Vec::new(),
                valid_len: 0,
                torn_tail: false,
                last_heartbeat: None,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let corrupt = |line: usize, message: String| JournalError::Corrupt {
        path: path.clone(),
        line,
        message,
    };
    let mut records = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut valid_len = 0u64;
    let mut torn_tail = false;
    let mut last_heartbeat = None;
    let mut offset = 0usize;
    let mut lineno = 0usize;
    while offset < bytes.len() {
        lineno += 1;
        let rest = &bytes[offset..];
        let (line_bytes, consumed, complete) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (&rest[..nl], nl + 1, true),
            None => (rest, rest.len(), false),
        };
        let is_final = offset + consumed >= bytes.len();
        // A record line is only trustworthy if it was fully written: it
        // must end in a newline AND parse. A final line failing either test
        // is a torn tail; anywhere else it is corruption.
        let parsed = if complete {
            std::str::from_utf8(line_bytes)
                .map_err(|e| e.to_string())
                .and_then(|s| Json::parse(s).map_err(|e| e.to_string()))
        } else {
            Err("no trailing newline (torn write)".to_string())
        };
        let doc = match parsed {
            Ok(doc) => doc,
            Err(e) => {
                if is_final && lineno > 1 {
                    torn_tail = true;
                    break;
                }
                return Err(corrupt(lineno, e));
            }
        };
        if lineno == 1 {
            let header = JournalHeader::from_json(&doc).map_err(|e| corrupt(1, e))?;
            if header != *expect {
                return Err(corrupt(
                    1,
                    format!(
                        "journal belongs to a different campaign: header {:?} vs spec {:?}",
                        (
                            &header.campaign,
                            &header.grid_hash,
                            header.shard,
                            header.shards
                        ),
                        (
                            &expect.campaign,
                            &expect.grid_hash,
                            expect.shard,
                            expect.shards
                        ),
                    ),
                ));
            }
            valid_len = (offset + consumed) as u64;
            offset += consumed;
            continue;
        }
        // Heartbeat lines are liveness stamps, not results: record the
        // newest one and move on before any cell validation.
        if let Some(ts) = doc.get("heartbeat").and_then(Json::as_u64) {
            last_heartbeat = Some(last_heartbeat.map_or(ts, |prev: u64| prev.max(ts)));
            valid_len = (offset + consumed) as u64;
            offset += consumed;
            continue;
        }
        let cell_id = doc.get("cell").and_then(Json::as_u64);
        let (workload, mechanism) = match cell_id.and_then(labels) {
            Some(pair) => pair,
            None => {
                // A parseable record for a cell this shard does not own (or
                // with no id at all) means the journal and spec disagree —
                // even as the final line, this is corruption, not a torn
                // write.
                return Err(corrupt(
                    lineno,
                    format!(
                        "cell {} is not assigned to shard {}/{} of this grid",
                        cell_id.map_or("?".to_string(), |i| i.to_string()),
                        expect.shard,
                        expect.shards
                    ),
                ));
            }
        };
        let rec = match CellRecord::from_json(&doc, &workload, &mechanism) {
            Ok(rec) => rec,
            Err(e) => {
                if is_final {
                    torn_tail = true;
                    break;
                }
                return Err(corrupt(lineno, e));
            }
        };
        if !seen.insert(rec.cell) {
            return Err(corrupt(lineno, format!("duplicate cell {}", rec.cell)));
        }
        records.push(rec);
        valid_len = (offset + consumed) as u64;
        offset += consumed;
    }
    Ok(ShardJournal {
        records,
        valid_len,
        torn_tail,
        last_heartbeat,
    })
}

/// Truncates a journal that ended in a torn final line back to its last
/// complete record, so resuming appends cleanly.
pub fn truncate_torn_tail(dir: &Path, shard: u64, valid_len: u64) -> Result<(), JournalError> {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(journal_path(dir, shard))?;
    f.set_len(valid_len)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            campaign: "t".to_string(),
            grid_hash: "abcd".to_string(),
            shard: 0,
            shards: 2,
        }
    }

    fn labels(id: u64) -> Option<(String, String)> {
        (id.is_multiple_of(2) && id < 8).then(|| ("astar_like".to_string(), "CDF".to_string()))
    }

    fn checked(cell: u64) -> CellRecord {
        CellRecord {
            cell,
            wall_ms: 5,
            outcome: CellOutcome::Checked {
                checked: 100,
                clean: true,
                detail: String::new(),
            },
        }
    }

    #[test]
    fn journal_round_trips_and_resumes_at_valid_len() {
        let dir = std::env::temp_dir().join(format!("cdf-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        create_journal(&dir, &header()).unwrap();
        append_cells(&dir, 0, &[checked(0), checked(2)]).unwrap();
        let j = read_journal(&dir, &header(), &labels).unwrap();
        assert_eq!(j.records.len(), 2);
        assert!(!j.torn_tail);
        assert_eq!(
            j.valid_len,
            fs::metadata(journal_path(&dir, 0)).unwrap().len()
        );

        // Tear the final line mid-record: reader keeps the complete prefix.
        let full = fs::read(journal_path(&dir, 0)).unwrap();
        fs::write(journal_path(&dir, 0), &full[..full.len() - 7]).unwrap();
        let j2 = read_journal(&dir, &header(), &labels).unwrap();
        assert_eq!(j2.records.len(), 1);
        assert!(j2.torn_tail);
        truncate_torn_tail(&dir, 0, j2.valid_len).unwrap();
        append_cells(&dir, 0, &[checked(2)]).unwrap();
        let j3 = read_journal(&dir, &header(), &labels).unwrap();
        assert_eq!(j3.records, j.records, "resume restores the journal exactly");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_grid_foreign_cell_and_duplicates_are_hard_errors() {
        let dir = std::env::temp_dir().join(format!("cdf-journal-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        create_journal(&dir, &header()).unwrap();
        append_cells(&dir, 0, &[checked(0)]).unwrap();

        let mut other = header();
        other.grid_hash = "ffff".to_string();
        let err = read_journal(&dir, &other, &labels).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");

        append_cells(&dir, 0, &[checked(3)]).unwrap(); // odd id: not shard 0's
        let err = read_journal(&dir, &header(), &labels).unwrap_err();
        assert!(err.to_string().contains("not assigned"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corruption_is_a_hard_error_even_with_clean_tail() {
        let dir = std::env::temp_dir().join(format!("cdf-journal-mid-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        create_journal(&dir, &header()).unwrap();
        let mut text = fs::read_to_string(journal_path(&dir, 0)).unwrap();
        text.push_str("{\"schema\":\"cdf-campaign-journal/1\",garbage\n");
        text.push_str(&checked(0).to_json().render());
        text.push('\n');
        fs::write(journal_path(&dir, 0), text).unwrap();
        let err = read_journal(&dir, &header(), &labels).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let dir = std::env::temp_dir().join(format!("cdf-journal-dup-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        create_journal(&dir, &header()).unwrap();
        append_cells(&dir, 0, &[checked(0), checked(0)]).unwrap();
        let err = read_journal(&dir, &header(), &labels).unwrap_err();
        assert!(err.to_string().contains("duplicate cell"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeats_are_liveness_only() {
        let dir = std::env::temp_dir().join(format!("cdf-journal-hb-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        create_journal(&dir, &header()).unwrap();
        append_heartbeat(&dir, 0, 100).unwrap();
        append_cells(&dir, 0, &[checked(0)]).unwrap();
        append_heartbeat(&dir, 0, 250).unwrap();
        let j = read_journal(&dir, &header(), &labels).unwrap();
        assert_eq!(j.records.len(), 1, "heartbeats are not cell records");
        assert_eq!(j.last_heartbeat, Some(250), "newest heartbeat wins");
        assert_eq!(
            j.valid_len,
            fs::metadata(journal_path(&dir, 0)).unwrap().len(),
            "heartbeat lines are part of the valid prefix"
        );

        // A torn heartbeat tail is repaired like any torn record: the
        // complete prefix (including the earlier heartbeat) survives.
        let full = fs::read(journal_path(&dir, 0)).unwrap();
        fs::write(journal_path(&dir, 0), &full[..full.len() - 4]).unwrap();
        let j2 = read_journal(&dir, &header(), &labels).unwrap();
        assert!(j2.torn_tail);
        assert_eq!(j2.records.len(), 1);
        assert_eq!(j2.last_heartbeat, Some(100));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonical_rendering_ignores_wall_clock() {
        let mut a = checked(4);
        let mut b = checked(4);
        a.wall_ms = 1;
        b.wall_ms = 99_999;
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.canonical(), checked(6).canonical());
    }
}
