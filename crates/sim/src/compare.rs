//! The noise-aware diff engine over the results store
//! (`cdf-sim compare <refA> <refB>`).
//!
//! Two runs are joined by [`ResultKey`] — (kind, workload, mechanism,
//! scheduler/mem-model axis) — and every joined cell gets per-metric
//! deltas. The classification rules encode what is and is not noise in
//! this repo:
//!
//! * **Deterministic metrics** (cycles, retired instructions, IPC, MLP,
//!   DRAM lines, energy, coverage/accuracy, the simulated cycles of a
//!   host-throughput row) are machine-independent, so they are compared
//!   with **exact equality** — any drift is a real behavioral change.
//! * **Wall-clock metrics** carry machine noise. For grid cells `wall_ms`
//!   is purely informational (never classifies). For host-throughput
//!   (`"profile"`) rows, `cycles_per_sec` classifies with a
//!   **configurable relative tolerance** (default ±25%).
//! * A metric with no preferred direction (retired instructions should
//!   simply not move at fixed config) classifies any change as a
//!   regression — unexplained deterministic drift is a bug until argued
//!   otherwise.
//!
//! Cells are classified improved / regressed / unchanged / missing; a cell
//! that errors on one side counts as regressed (new failure) or improved
//! (fixed failure). The CLI exits with code 4 — matching the fuzzer's
//! divergence exit — when any cell regresses.
//!
//! The configuration hash is deliberately not part of the join key: a
//! perturbed config shows up as classified regressions on the same keys
//! (flagged `config_changed`), not as a wall of missing cells.

use crate::json::{field, Json};
use crate::provenance::provenance_json;
use crate::report::Table;
use crate::schema;
use crate::store::{RecordPayload, ResultKey, ResultRecord};
use cdf_core::Provenance;

/// The JSON schema tag on emitted compare reports.
pub use crate::schema::COMPARE as COMPARE_SCHEMA;

/// Default relative tolerance for wall-clock-derived metrics.
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.25;

/// Tunables of one comparison.
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Relative tolerance applied to wall-clock-derived metrics
    /// (`cycles_per_sec` on host-throughput rows).
    pub wall_tolerance: f64,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig {
            wall_tolerance: DEFAULT_WALL_TOLERANCE,
        }
    }
}

/// Verdict for one joined cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellClass {
    /// At least one metric improved and none regressed.
    Improved,
    /// At least one metric regressed (or the cell newly fails / vanished
    /// behavior changed without a preferred direction).
    Regressed,
    /// Every classified metric identical (within tolerance for wall
    /// metrics).
    Unchanged,
    /// The key exists on only one side.
    Missing,
}

impl CellClass {
    /// Stable label used in JSON and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            CellClass::Improved => "improved",
            CellClass::Regressed => "regressed",
            CellClass::Unchanged => "unchanged",
            CellClass::Missing => "missing",
        }
    }
}

/// Verdict for one metric of one cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricClass {
    /// Moved in the preferred direction (beyond tolerance, if tolerant).
    Improved,
    /// Moved against the preferred direction, or moved at all for a
    /// direction-less deterministic metric.
    Regressed,
    /// Identical (or within tolerance).
    Unchanged,
    /// Reported for context only; never classifies the cell (`wall_ms`).
    Informational,
}

impl MetricClass {
    /// Stable label used in JSON and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::Improved => "improved",
            MetricClass::Regressed => "regressed",
            MetricClass::Unchanged => "unchanged",
            MetricClass::Informational => "informational",
        }
    }
}

/// Which direction of movement is good for a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    /// Should not move at all at fixed config (e.g. retired instructions).
    Neutral,
}

/// One metric's values on both sides.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MetricDelta {
    /// Metric name (`"cycles"`, `"ipc"`, …).
    pub name: &'static str,
    /// Value on side A.
    pub a: f64,
    /// Value on side B.
    pub b: f64,
    /// Verdict.
    pub class: MetricClass,
}

impl MetricDelta {
    /// Absolute delta `b - a`.
    pub fn delta(&self) -> f64 {
        self.b - self.a
    }

    /// Relative delta `(b - a) / a` (0 when `a` is 0).
    pub fn rel(&self) -> f64 {
        if self.a == 0.0 {
            0.0
        } else {
            (self.b - self.a) / self.a
        }
    }
}

/// One joined cell's comparison.
#[derive(Clone, PartialEq, Debug)]
pub struct CellDiff {
    /// The join key.
    pub key: ResultKey,
    /// Cell verdict.
    pub class: CellClass,
    /// Whether the two sides recorded different config hashes (the deltas
    /// then compare different experiments — still classified, but flagged).
    pub config_changed: bool,
    /// Per-metric deltas (empty for missing cells and error transitions).
    pub metrics: Vec<MetricDelta>,
    /// Human context: which side is missing, which error appeared, …
    pub note: Option<String>,
}

/// What one side of the comparison resolved to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RefInfo {
    /// The ref as the user wrote it (`latest~1`, a commit, a run id).
    pub wanted: String,
    /// The run id it resolved to.
    pub run_id: String,
    /// The commit that run was recorded at, if known.
    pub commit: Option<String>,
    /// Records in the run.
    pub records: usize,
}

/// A completed comparison.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Side A (the baseline).
    pub ref_a: RefInfo,
    /// Side B (the candidate).
    pub ref_b: RefInfo,
    /// Tolerance applied to wall-clock-derived metrics.
    pub wall_tolerance: f64,
    /// Provenance of the comparing process itself.
    pub provenance: Provenance,
    /// Joined cells: side A's key order, then keys only B has.
    pub cells: Vec<CellDiff>,
}

/// Cell-verdict counts of a report.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompareCounts {
    /// Improved cells.
    pub improved: usize,
    /// Regressed cells.
    pub regressed: usize,
    /// Unchanged cells.
    pub unchanged: usize,
    /// Missing cells.
    pub missing: usize,
}

impl CompareReport {
    /// Tallies the cell verdicts.
    pub fn counts(&self) -> CompareCounts {
        let mut c = CompareCounts::default();
        for cell in &self.cells {
            match cell.class {
                CellClass::Improved => c.improved += 1,
                CellClass::Regressed => c.regressed += 1,
                CellClass::Unchanged => c.unchanged += 1,
                CellClass::Missing => c.missing += 1,
            }
        }
        c
    }

    /// Whether any cell regressed (the CLI exits 4 then).
    pub fn has_regressions(&self) -> bool {
        self.cells.iter().any(|c| c.class == CellClass::Regressed)
    }

    /// The full report as a JSON document (schema [`COMPARE_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let counts = self.counts();
        Json::Obj(vec![
            field("schema", schema::COMPARE),
            field("provenance", provenance_json(&self.provenance)),
            field("wall_tolerance", self.wall_tolerance),
            field("ref_a", ref_info_json(&self.ref_a)),
            field("ref_b", ref_info_json(&self.ref_b)),
            field(
                "summary",
                Json::Obj(vec![
                    field("cells", self.cells.len()),
                    field("improved", counts.improved),
                    field("regressed", counts.regressed),
                    field("unchanged", counts.unchanged),
                    field("missing", counts.missing),
                ]),
            ),
            field(
                "cells",
                Json::Arr(self.cells.iter().map(cell_diff_json).collect()),
            ),
        ])
    }

    /// Renders the human summary: headline counts plus a table of every
    /// cell that is not unchanged (changed metrics only).
    pub fn render_summary(&self) -> String {
        let counts = self.counts();
        let mut out = format!(
            "Compare {} ({}) → {} ({}): {} cells — {} improved, {} regressed, {} unchanged, {} missing (wall tolerance ±{:.0}%)\n",
            self.ref_a.run_id,
            self.ref_a.commit.as_deref().unwrap_or("unknown commit"),
            self.ref_b.run_id,
            self.ref_b.commit.as_deref().unwrap_or("unknown commit"),
            self.cells.len(),
            counts.improved,
            counts.regressed,
            counts.unchanged,
            counts.missing,
            self.wall_tolerance * 100.0,
        );
        let changed: Vec<&CellDiff> = self
            .cells
            .iter()
            .filter(|c| c.class != CellClass::Unchanged)
            .collect();
        if changed.is_empty() {
            out.push_str("All cells unchanged.\n");
            return out;
        }
        let mut t = Table::new(&["cell", "verdict", "metric", "a", "b", "delta"]);
        for cell in changed {
            let mut first = true;
            let moved: Vec<&MetricDelta> = cell
                .metrics
                .iter()
                .filter(|m| matches!(m.class, MetricClass::Improved | MetricClass::Regressed))
                .collect();
            if moved.is_empty() {
                t.row(&[
                    &cell.key.label(),
                    cell.class.as_str(),
                    cell.note.as_deref().unwrap_or("-"),
                    "-",
                    "-",
                    "-",
                ]);
                continue;
            }
            for m in moved {
                let label = if first {
                    cell.key.label()
                } else {
                    String::new()
                };
                first = false;
                t.row(&[
                    &label,
                    cell.class.as_str(),
                    m.name,
                    &format!("{:.4}", m.a),
                    &format!("{:.4}", m.b),
                    &format!("{:+.2}%", m.rel() * 100.0),
                ]);
            }
        }
        out.push_str(&t.render());
        out.push('\n');
        out
    }
}

fn ref_info_json(r: &RefInfo) -> Json {
    Json::Obj(vec![
        field("ref", r.wanted.as_str()),
        field("run_id", r.run_id.as_str()),
        field("commit", r.commit.clone()),
        field("records", r.records),
    ])
}

fn cell_diff_json(c: &CellDiff) -> Json {
    let mut fields = vec![
        field(
            "key",
            Json::Obj(vec![
                field("kind", c.key.kind.as_str()),
                field("workload", c.key.workload.as_str()),
                field("mechanism", c.key.mechanism.as_str()),
                field("scheduler", c.key.scheduler.as_str()),
                field("mem_model", c.key.mem_model.as_str()),
            ]),
        ),
        field("class", c.class.as_str()),
        field("config_changed", c.config_changed),
    ];
    if let Some(n) = &c.note {
        fields.push(field("note", n.as_str()));
    }
    fields.push(field(
        "metrics",
        Json::Arr(
            c.metrics
                .iter()
                .map(|m| {
                    Json::Obj(vec![
                        field("name", m.name),
                        field("a", m.a),
                        field("b", m.b),
                        field("delta", m.delta()),
                        field("class", m.class.as_str()),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

// ---------------------------------------------------------------------------
// The join + classification.
// ---------------------------------------------------------------------------

/// Joins two runs' records by key and classifies every cell.
/// `(wanted, records)` per side; records must all belong to one run.
pub fn compare_runs(
    a: (&str, &[&ResultRecord]),
    b: (&str, &[&ResultRecord]),
    cfg: &CompareConfig,
) -> CompareReport {
    let (wanted_a, recs_a) = a;
    let (wanted_b, recs_b) = b;
    let mut cells = Vec::new();
    // Side A's order, joined against B (last record per key wins).
    for ra in recs_a {
        let rb = recs_b.iter().rev().find(|r| r.key == ra.key);
        cells.push(match rb {
            Some(rb) => diff_cell(ra, rb, cfg),
            None => CellDiff {
                key: ra.key.clone(),
                class: CellClass::Missing,
                config_changed: false,
                metrics: Vec::new(),
                note: Some(format!("only in {}", ra.run_id)),
            },
        });
    }
    for rb in recs_b {
        if !recs_a.iter().any(|r| r.key == rb.key) {
            cells.push(CellDiff {
                key: rb.key.clone(),
                class: CellClass::Missing,
                config_changed: false,
                metrics: Vec::new(),
                note: Some(format!("only in {}", rb.run_id)),
            });
        }
    }
    CompareReport {
        ref_a: ref_info(wanted_a, recs_a),
        ref_b: ref_info(wanted_b, recs_b),
        wall_tolerance: cfg.wall_tolerance,
        provenance: Provenance::capture(),
        cells,
    }
}

fn ref_info(wanted: &str, recs: &[&ResultRecord]) -> RefInfo {
    RefInfo {
        wanted: wanted.to_string(),
        run_id: recs
            .first()
            .map(|r| r.run_id.clone())
            .unwrap_or_else(|| "none".to_string()),
        commit: recs.first().and_then(|r| r.provenance.git_commit.clone()),
        records: recs.len(),
    }
}

fn diff_cell(a: &ResultRecord, b: &ResultRecord, cfg: &CompareConfig) -> CellDiff {
    let config_changed = a.config_hash != b.config_hash;
    let (class, metrics, note) = match (&a.payload, &b.payload) {
        (RecordPayload::Error { kind: ka, .. }, RecordPayload::Error { kind: kb, .. }) => (
            CellClass::Unchanged,
            Vec::new(),
            Some(format!("errors on both sides ({ka} → {kb})")),
        ),
        (RecordPayload::Error { kind, .. }, _) => (
            CellClass::Improved,
            Vec::new(),
            Some(format!("fixed: was {kind}")),
        ),
        (_, RecordPayload::Error { kind, .. }) => (
            CellClass::Regressed,
            Vec::new(),
            Some(format!("new failure: {kind}")),
        ),
        (
            RecordPayload::Cell {
                measurement: ma,
                diagnostics: da,
                ..
            },
            RecordPayload::Cell {
                measurement: mb,
                diagnostics: db,
                ..
            },
        ) => {
            let mut metrics = vec![
                exact(
                    "cycles",
                    ma.cycles as f64,
                    mb.cycles as f64,
                    Direction::LowerIsBetter,
                ),
                exact(
                    "instructions",
                    ma.instructions as f64,
                    mb.instructions as f64,
                    Direction::Neutral,
                ),
                exact("ipc", ma.ipc, mb.ipc, Direction::HigherIsBetter),
                exact("mlp", ma.mlp, mb.mlp, Direction::HigherIsBetter),
                exact(
                    "dram_lines",
                    ma.dram_lines as f64,
                    mb.dram_lines as f64,
                    Direction::Neutral,
                ),
                exact("energy_nj", ma.energy_nj, mb.energy_nj, Direction::Neutral),
            ];
            if let (Some(da), Some(db)) = (da, db) {
                metrics.push(exact(
                    "load_coverage",
                    da.load_coverage.fraction(),
                    db.load_coverage.fraction(),
                    Direction::HigherIsBetter,
                ));
                metrics.push(exact(
                    "accuracy",
                    da.accuracy(),
                    db.accuracy(),
                    Direction::HigherIsBetter,
                ));
            }
            metrics.push(MetricDelta {
                name: "wall_ms",
                a: a.wall_ms as f64,
                b: b.wall_ms as f64,
                class: MetricClass::Informational,
            });
            (cell_class(&metrics), metrics, None)
        }
        (
            RecordPayload::Throughput {
                simulated_cycles: ca,
                wall_seconds: wa,
            },
            RecordPayload::Throughput {
                simulated_cycles: cb,
                wall_seconds: wb,
            },
        ) => {
            let metrics = vec![
                exact(
                    "simulated_cycles",
                    *ca as f64,
                    *cb as f64,
                    Direction::Neutral,
                ),
                tolerant(
                    "cycles_per_sec",
                    *ca as f64 / wa.max(1e-9),
                    *cb as f64 / wb.max(1e-9),
                    Direction::HigherIsBetter,
                    cfg.wall_tolerance,
                ),
                MetricDelta {
                    name: "wall_seconds",
                    a: *wa,
                    b: *wb,
                    class: MetricClass::Informational,
                },
            ];
            (cell_class(&metrics), metrics, None)
        }
        _ => (
            CellClass::Regressed,
            Vec::new(),
            Some("record kind changed between runs".to_string()),
        ),
    };
    CellDiff {
        key: a.key.clone(),
        class,
        config_changed,
        metrics,
        note,
    }
}

/// Exact-equality classification for deterministic metrics.
fn exact(name: &'static str, a: f64, b: f64, dir: Direction) -> MetricDelta {
    let class = if a == b {
        MetricClass::Unchanged
    } else {
        match dir {
            Direction::Neutral => MetricClass::Regressed,
            Direction::LowerIsBetter => {
                if b < a {
                    MetricClass::Improved
                } else {
                    MetricClass::Regressed
                }
            }
            Direction::HigherIsBetter => {
                if b > a {
                    MetricClass::Improved
                } else {
                    MetricClass::Regressed
                }
            }
        }
    };
    MetricDelta { name, a, b, class }
}

/// Relative-tolerance classification for wall-clock-derived metrics.
fn tolerant(name: &'static str, a: f64, b: f64, dir: Direction, tol: f64) -> MetricDelta {
    let rel = if a == 0.0 { 0.0 } else { (b - a) / a };
    let class = if rel.abs() <= tol {
        MetricClass::Unchanged
    } else {
        let better = match dir {
            Direction::HigherIsBetter => rel > 0.0,
            Direction::LowerIsBetter => rel < 0.0,
            Direction::Neutral => false,
        };
        if better {
            MetricClass::Improved
        } else {
            MetricClass::Regressed
        }
    };
    MetricDelta { name, a, b, class }
}

fn cell_class(metrics: &[MetricDelta]) -> CellClass {
    if metrics.iter().any(|m| m.class == MetricClass::Regressed) {
        CellClass::Regressed
    } else if metrics.iter().any(|m| m.class == MetricClass::Improved) {
        CellClass::Improved
    } else {
        CellClass::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Measurement;
    use crate::store::ResultKey;

    fn key(workload: &str) -> ResultKey {
        ResultKey {
            kind: "cell".to_string(),
            workload: workload.to_string(),
            mechanism: "cdf".to_string(),
            scheduler: "event".to_string(),
            mem_model: "mem-event".to_string(),
        }
    }

    fn measurement(cycles: u64) -> Measurement {
        Measurement {
            workload: "w".into(),
            mechanism: "cdf".into(),
            instructions: 1000,
            cycles,
            ipc: 1000.0 / cycles as f64,
            mlp: 2.0,
            dram_lines: 10,
            energy_nj: 5.0,
            cdf_energy_nj: 0.5,
            branch_mpki: 1.0,
            llc_mpki: 2.0,
            rob_critical_fraction: 0.5,
            full_window_stall_cycles: 10,
            cdf_mode_cycles: 20,
            critical_uops: 30,
            runahead_uops: 0,
            dependence_violations: 0,
        }
    }

    fn record(workload: &str, cycles: u64, run: &str) -> ResultRecord {
        ResultRecord {
            run_id: run.to_string(),
            seq: 0,
            provenance: Provenance::default(),
            config_hash: "cfg".to_string(),
            gen: None,
            key: key(workload),
            wall_ms: 5,
            payload: RecordPayload::Cell {
                measurement: measurement(cycles),
                diagnostics: None,
                telemetry: None,
            },
        }
    }

    fn run(recs: &[ResultRecord]) -> Vec<&ResultRecord> {
        recs.iter().collect()
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let a = [record("astar", 100, "r1"), record("mcf", 200, "r1")];
        let b = [record("astar", 100, "r2"), record("mcf", 200, "r2")];
        let rep = compare_runs(
            ("latest~1", &run(&a)),
            ("latest", &run(&b)),
            &CompareConfig::default(),
        );
        assert_eq!(rep.counts().unchanged, 2);
        assert!(!rep.has_regressions());
        assert!(rep.render_summary().contains("All cells unchanged"));
    }

    #[test]
    fn cycle_increase_regresses_and_decrease_improves() {
        let a = [record("astar", 100, "r1"), record("mcf", 200, "r1")];
        let b = [record("astar", 110, "r2"), record("mcf", 190, "r2")];
        let rep = compare_runs(
            ("r1", &run(&a)),
            ("r2", &run(&b)),
            &CompareConfig::default(),
        );
        assert_eq!(rep.cells[0].class, CellClass::Regressed);
        // mcf: cycles improved AND ipc improved, nothing regressed.
        assert_eq!(rep.cells[1].class, CellClass::Improved);
        assert!(rep.has_regressions());
    }

    #[test]
    fn wall_clock_noise_never_classifies_cells() {
        let mut a = record("astar", 100, "r1");
        let mut b = record("astar", 100, "r2");
        a.wall_ms = 5;
        b.wall_ms = 5000;
        let rep = compare_runs(
            ("r1", &run(&[a])),
            ("r2", &run(&[b])),
            &CompareConfig::default(),
        );
        assert_eq!(rep.cells[0].class, CellClass::Unchanged);
    }

    #[test]
    fn missing_cells_are_reported_both_ways() {
        let a = [record("astar", 100, "r1"), record("mcf", 200, "r1")];
        let b = [record("astar", 100, "r2"), record("lbm", 300, "r2")];
        let rep = compare_runs(
            ("r1", &run(&a)),
            ("r2", &run(&b)),
            &CompareConfig::default(),
        );
        let missing: Vec<&str> = rep
            .cells
            .iter()
            .filter(|c| c.class == CellClass::Missing)
            .map(|c| c.key.workload.as_str())
            .collect();
        assert_eq!(missing, ["mcf", "lbm"]);
        assert_eq!(rep.counts().missing, 2);
        assert!(!rep.has_regressions(), "missing is not a regression");
    }

    #[test]
    fn error_transitions_classify() {
        let ok = record("astar", 100, "r1");
        let mut failed = record("astar", 100, "r2");
        failed.payload = RecordPayload::Error {
            kind: "watchdog".to_string(),
            message: "cycle budget exhausted".to_string(),
        };
        let cfg = CompareConfig::default();
        let rep = compare_runs(
            ("r1", &run(std::slice::from_ref(&ok))),
            ("r2", &run(&[failed.clone()])),
            &cfg,
        );
        assert_eq!(rep.cells[0].class, CellClass::Regressed);
        assert!(rep.cells[0].note.as_deref().unwrap().contains("watchdog"));
        let rep = compare_runs(("r2", &run(&[failed.clone()])), ("r1", &run(&[ok])), &cfg);
        assert_eq!(rep.cells[0].class, CellClass::Improved);
        let rep = compare_runs(
            ("r2", &run(&[failed.clone()])),
            ("r2", &run(&[failed])),
            &cfg,
        );
        assert_eq!(rep.cells[0].class, CellClass::Unchanged);
    }

    #[test]
    fn throughput_rows_use_tolerance() {
        fn row(cps_seconds: f64, run: &str) -> ResultRecord {
            ResultRecord {
                run_id: run.to_string(),
                seq: 0,
                provenance: Provenance::default(),
                config_hash: "cfg".to_string(),
                gen: None,
                key: ResultKey {
                    kind: "throughput".to_string(),
                    workload: "stall_window".to_string(),
                    mechanism: "event".to_string(),
                    scheduler: String::new(),
                    mem_model: String::new(),
                },
                wall_ms: 0,
                payload: RecordPayload::Throughput {
                    simulated_cycles: 1_000_000,
                    wall_seconds: cps_seconds,
                },
            }
        }
        let cfg = CompareConfig::default(); // ±25%
                                            // 10% slower: inside tolerance.
        let rep = compare_runs(
            ("a", &run(&[row(1.0, "r1")])),
            ("b", &run(&[row(1.1, "r2")])),
            &cfg,
        );
        assert_eq!(rep.cells[0].class, CellClass::Unchanged);
        // 2× slower: a perf regression.
        let rep = compare_runs(
            ("a", &run(&[row(1.0, "r1")])),
            ("b", &run(&[row(2.0, "r2")])),
            &cfg,
        );
        assert_eq!(rep.cells[0].class, CellClass::Regressed);
        // 2× faster: improved.
        let rep = compare_runs(
            ("a", &run(&[row(2.0, "r1")])),
            ("b", &run(&[row(1.0, "r2")])),
            &cfg,
        );
        assert_eq!(rep.cells[0].class, CellClass::Improved);
        // Tolerance edge: exactly at the boundary stays unchanged.
        let rep = compare_runs(
            ("a", &run(&[row(1.0, "r1")])),
            ("b", &run(&[row(0.8, "r2")])),
            &CompareConfig {
                wall_tolerance: 0.25,
            },
        );
        assert_eq!(rep.cells[0].class, CellClass::Unchanged);
    }

    #[test]
    fn config_perturbation_is_flagged_and_classified() {
        let a = record("astar", 100, "r1");
        let mut b = record("astar", 140, "r2");
        b.config_hash = "other".to_string();
        let rep = compare_runs(
            ("r1", &run(&[a])),
            ("r2", &run(&[b])),
            &CompareConfig::default(),
        );
        assert_eq!(rep.cells[0].class, CellClass::Regressed);
        assert!(rep.cells[0].config_changed);
    }
}
