//! Streaming aggregation over campaign journals.
//!
//! Aggregation never waits for the campaign to finish: it reads whatever
//! cell records the per-shard journals hold *right now*, so `cdf-sim
//! campaign status` can answer mid-run from the same code path that builds
//! the final report. The aggregate carries a deterministic digest — FNV-1a
//! over the canonical (wall-clock-free) rendering of every completed cell
//! in cell-id order — which is the bit-identity witness the crash/resume
//! suite compares: a killed-and-resumed campaign must produce the same
//! digest as an uninterrupted one.

use super::checkpoint::{CellOutcome, CellRecord, ShardJournal};
use super::spec::{CampaignSpec, CellMode};
use crate::json::{field, Json};
use crate::schema;
use crate::store::RecordPayload;
use crate::sweep::fnv1a_hex;
use std::collections::HashMap;

/// How long a shard may go without a heartbeat (while still holding
/// pending cells) before `campaign status` flags it stale. Shards stamp a
/// heartbeat before every cell batch, so on a live shard the gap is one
/// batch's wall time.
pub const HEARTBEAT_STALE_SECS: u64 = 120;

/// Per-shard completion counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardProgress {
    /// Shard index.
    pub shard: u64,
    /// Cells assigned to this shard.
    pub assigned: u64,
    /// Cells this shard has journaled.
    pub done: u64,
    /// Unix timestamp of the shard's newest journal heartbeat, if any.
    pub last_heartbeat: Option<u64>,
    /// Set by [`CampaignStatus::mark_staleness`]: the shard still has
    /// pending cells but has not heartbeat within the staleness window —
    /// it was probably killed and needs `campaign resume`.
    pub stale: bool,
}

/// One row of the mean-IPC surface: a (mechanism, config-point) slice of
/// the grid (sweep/explain campaigns only).
#[derive(Clone, PartialEq, Debug)]
pub struct AggregateRow {
    /// Mechanism label.
    pub mechanism: String,
    /// Config-point label ([`cdf_core::ConfigPoint::label`]).
    pub point: String,
    /// Completed, successfully measured cells in the slice.
    pub cells: u64,
    /// Mean IPC over those cells.
    pub mean_ipc: f64,
    /// Median IPC over those cells (nearest rank).
    pub p50_ipc: f64,
    /// 90th-percentile IPC over those cells (nearest rank).
    pub p90_ipc: f64,
}

/// One per-workload row of the aggregate: all measured cells of one
/// workload, across every mechanism and config point.
#[derive(Clone, PartialEq, Debug)]
pub struct WorkloadRow {
    /// Workload name.
    pub workload: String,
    /// Completed, successfully measured cells for this workload.
    pub cells: u64,
    /// Mean IPC over those cells.
    pub mean_ipc: f64,
    /// Median IPC over those cells (nearest rank).
    pub p50_ipc: f64,
    /// 90th-percentile IPC over those cells (nearest rank).
    pub p90_ipc: f64,
}

/// Nearest-rank percentile of an ascending-sorted slice; 0 for empty input.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1).min(sorted.len()) - 1]
}

/// The aggregate state of a campaign: totals, per-shard progress, the
/// mean-IPC surface, and the bit-identity digest.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignStatus {
    /// Campaign name.
    pub name: String,
    /// The spec's hypothesis, carried into every report.
    pub hypothesis: String,
    /// Cell mode.
    pub mode: CellMode,
    /// The spec's grid hash.
    pub grid_hash: String,
    /// Total cells in the grid.
    pub total: u64,
    /// Cells completed so far (across all shards).
    pub done: u64,
    /// Completed cells that measured/checked successfully.
    pub ok: u64,
    /// Completed cells that failed to run.
    pub failed: u64,
    /// Completed fuzz/equiv cells that found a divergence.
    pub divergent: u64,
    /// Units compared by fuzz/equiv cells (uops / events).
    pub checked: u64,
    /// Per-shard progress, in shard order.
    pub shards: Vec<ShardProgress>,
    /// Mean-IPC surface rows (mechanism-major, then grid-point order);
    /// empty for fuzz/equiv campaigns.
    pub rows: Vec<AggregateRow>,
    /// Per-workload rows, in spec workload order; empty for fuzz/equiv
    /// campaigns.
    pub workload_rows: Vec<WorkloadRow>,
    /// FNV-1a digest over the canonical rendering of every completed cell,
    /// in cell-id order. Excludes wall-clock, shard assignment, and
    /// completion order — equal digests mean equal results.
    pub digest: String,
}

impl CampaignStatus {
    /// Whether every cell of the grid has completed.
    pub fn complete(&self) -> bool {
        self.done == self.total
    }

    /// Flags shards that still hold pending cells but have not stamped a
    /// heartbeat within `stale_after` seconds of `now`. Kept out of
    /// [`aggregate`] so aggregation itself stays clock-free (and the final
    /// report deterministic); only the live `campaign status` path calls
    /// this with the real clock.
    pub fn mark_staleness(&mut self, now: u64, stale_after: u64) {
        for s in &mut self.shards {
            s.stale = s.done < s.assigned
                && s.last_heartbeat
                    .is_none_or(|hb| now.saturating_sub(hb) > stale_after);
        }
    }

    /// Serializes the [`schema::CAMPAIGN`] report.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            field("schema", schema::CAMPAIGN),
            field("name", self.name.as_str()),
            field("hypothesis", self.hypothesis.as_str()),
            field("mode", self.mode.as_str()),
            field("grid_hash", self.grid_hash.as_str()),
            field("total", self.total),
            field("done", self.done),
            field("ok", self.ok),
            field("failed", self.failed),
            field("divergent", self.divergent),
            field("checked", self.checked),
            field(
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            let mut fields = vec![
                                field("shard", s.shard),
                                field("assigned", s.assigned),
                                field("done", s.done),
                            ];
                            if let Some(hb) = s.last_heartbeat {
                                fields.push(field("last_heartbeat", hb));
                            }
                            fields.push(field("stale", s.stale));
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
            field(
                "surface",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                field("mechanism", r.mechanism.as_str()),
                                field("point", r.point.as_str()),
                                field("cells", r.cells),
                                field("mean_ipc", r.mean_ipc),
                                field("p50_ipc", r.p50_ipc),
                                field("p90_ipc", r.p90_ipc),
                            ])
                        })
                        .collect(),
                ),
            ),
            field(
                "workloads",
                Json::Arr(
                    self.workload_rows
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                field("workload", r.workload.as_str()),
                                field("cells", r.cells),
                                field("mean_ipc", r.mean_ipc),
                                field("p50_ipc", r.p50_ipc),
                                field("p90_ipc", r.p90_ipc),
                            ])
                        })
                        .collect(),
                ),
            ),
            field("digest", self.digest.as_str()),
        ])
    }

    /// Human-readable status block (`cdf-sim campaign status`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign {} ({}): {}/{} cells done, {} ok, {} failed",
            self.name,
            self.mode.as_str(),
            self.done,
            self.total,
            self.ok,
            self.failed
        ));
        if matches!(self.mode, CellMode::Fuzz | CellMode::Equiv) {
            out.push_str(&format!(
                ", {} divergent, {} units checked",
                self.divergent, self.checked
            ));
        }
        out.push('\n');
        if !self.hypothesis.is_empty() {
            out.push_str(&format!("hypothesis: {}\n", self.hypothesis));
        }
        for s in &self.shards {
            out.push_str(&format!(
                "  shard {:>2}: {:>5}/{:<5}{}\n",
                s.shard,
                s.done,
                s.assigned,
                if s.stale {
                    "  STALE (no recent heartbeat — resume with `campaign resume`)"
                } else {
                    ""
                }
            ));
        }
        if !self.rows.is_empty() {
            let width = self
                .rows
                .iter()
                .map(|r| r.point.len())
                .max()
                .unwrap_or(5)
                .max("point".len());
            out.push_str(&format!(
                "  {:<14} {:<width$} {:>5} {:>9} {:>9} {:>9}\n",
                "mechanism", "point", "cells", "mean-ipc", "p50-ipc", "p90-ipc"
            ));
            for r in &self.rows {
                out.push_str(&format!(
                    "  {:<14} {:<width$} {:>5} {:>9.4} {:>9.4} {:>9.4}\n",
                    r.mechanism, r.point, r.cells, r.mean_ipc, r.p50_ipc, r.p90_ipc
                ));
            }
        }
        if !self.workload_rows.is_empty() {
            out.push_str(&format!(
                "  {:<14} {:>5} {:>9} {:>9} {:>9}\n",
                "workload", "cells", "mean-ipc", "p50-ipc", "p90-ipc"
            ));
            for r in &self.workload_rows {
                out.push_str(&format!(
                    "  {:<14} {:>5} {:>9.4} {:>9.4} {:>9.4}\n",
                    r.workload, r.cells, r.mean_ipc, r.p50_ipc, r.p90_ipc
                ));
            }
        }
        out.push_str(&format!("digest: {}\n", self.digest));
        out
    }
}

/// Aggregates whatever the journals hold so far. `journals` pairs each
/// shard index with its replayed journal; completeness is judged against
/// the spec's full enumeration. Clock-free: staleness flags stay unset
/// until [`CampaignStatus::mark_staleness`].
pub fn aggregate(spec: &CampaignSpec, journals: &[(u64, ShardJournal)]) -> CampaignStatus {
    let cells = spec.cells();
    let total = cells.len() as u64;
    let shard_count = journals.len() as u64;

    let mut shards = Vec::new();
    let mut by_id: Vec<(u64, &CellRecord)> = Vec::new();
    for &(shard, ref journal) in journals {
        let assigned = cells.iter().filter(|c| c.id % shard_count == shard).count() as u64;
        shards.push(ShardProgress {
            shard,
            assigned,
            done: journal.records.len() as u64,
            last_heartbeat: journal.last_heartbeat,
            stale: false,
        });
        for r in &journal.records {
            by_id.push((r.cell, r));
        }
    }
    by_id.sort_by_key(|&(id, _)| id);

    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut divergent = 0u64;
    let mut checked = 0u64;
    // (mechanism, point) → per-cell IPCs; workload → per-cell IPCs.
    let mut surface: HashMap<(String, String), Vec<f64>> = HashMap::new();
    let mut per_workload: HashMap<String, Vec<f64>> = HashMap::new();
    let mut canon = String::new();
    for &(id, r) in &by_id {
        canon.push_str(&r.canonical());
        canon.push('\n');
        match &r.outcome {
            CellOutcome::Stored(RecordPayload::Cell { measurement, .. }) => {
                ok += 1;
                let params = &cells[id as usize];
                let mech = params
                    .mechanism
                    .map(|m| m.label().to_string())
                    .unwrap_or_default();
                surface
                    .entry((mech, params.point.label()))
                    .or_default()
                    .push(measurement.ipc);
                per_workload
                    .entry(params.workload.clone())
                    .or_default()
                    .push(measurement.ipc);
            }
            CellOutcome::Checked {
                checked: n, clean, ..
            } => {
                ok += 1;
                checked += n;
                if !clean {
                    divergent += 1;
                }
            }
            // An error: journals never hold a throughput payload.
            CellOutcome::Stored(_) => failed += 1,
        }
    }

    // Deterministic row order: spec mechanism order, then grid-point order.
    let mut rows = Vec::new();
    let mut workload_rows = Vec::new();
    if spec.mode.measures() {
        for m in &spec.mechanisms {
            for p in spec.grid.points() {
                if let Some(ipcs) = surface.get_mut(&(m.label().to_string(), p.label())) {
                    ipcs.sort_by(f64::total_cmp);
                    rows.push(AggregateRow {
                        mechanism: m.label().to_string(),
                        point: p.label(),
                        cells: ipcs.len() as u64,
                        mean_ipc: ipcs.iter().sum::<f64>() / ipcs.len() as f64,
                        p50_ipc: percentile(ipcs, 0.5),
                        p90_ipc: percentile(ipcs, 0.9),
                    });
                }
            }
        }
        for w in &spec.workloads {
            if let Some(ipcs) = per_workload.get_mut(w) {
                ipcs.sort_by(f64::total_cmp);
                workload_rows.push(WorkloadRow {
                    workload: w.clone(),
                    cells: ipcs.len() as u64,
                    mean_ipc: ipcs.iter().sum::<f64>() / ipcs.len() as f64,
                    p50_ipc: percentile(ipcs, 0.5),
                    p90_ipc: percentile(ipcs, 0.9),
                });
            }
        }
    }

    CampaignStatus {
        name: spec.name.clone(),
        hypothesis: spec.hypothesis.clone(),
        mode: spec.mode,
        grid_hash: spec.grid_hash(),
        total,
        done: by_id.len() as u64,
        ok,
        failed,
        divergent,
        checked,
        shards,
        rows,
        workload_rows,
        digest: fnv1a_hex(&canon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::checkpoint::CellOutcome;
    use crate::run::{EvalConfig, Measurement, Mechanism};
    use cdf_core::ConfigGrid;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "agg".to_string(),
            hypothesis: "CDF wins".to_string(),
            mode: CellMode::Sweep,
            workloads: vec!["astar_like".to_string()],
            mechanisms: vec![Mechanism::Baseline, Mechanism::Cdf],
            seeds: vec![1, 2],
            grid: ConfigGrid::default(),
            eval: EvalConfig::default(),
        }
    }

    fn measured(cell: u64, ipc: f64) -> CellRecord {
        CellRecord {
            cell,
            wall_ms: cell * 3 + 1,
            outcome: CellOutcome::Stored(RecordPayload::Cell {
                measurement: Measurement {
                    ipc,
                    ..Measurement::default()
                },
                diagnostics: None,
                telemetry: None,
            }),
        }
    }

    fn j(records: Vec<CellRecord>) -> ShardJournal {
        ShardJournal {
            records,
            valid_len: 0,
            torn_tail: false,
            last_heartbeat: None,
        }
    }

    #[test]
    fn digest_ignores_sharding_order_and_wall_clock() {
        let s = spec();
        let one = aggregate(&s, &[(0, j(vec![measured(0, 1.0), measured(1, 2.0)]))]);
        let mut a = measured(1, 2.0);
        a.wall_ms = 777;
        let two = aggregate(&s, &[(0, j(vec![measured(0, 1.0)])), (1, j(vec![a]))]);
        assert_eq!(one.digest, two.digest);
        assert_eq!(one.done, 2);
        assert!(!one.complete(), "grid has 4 cells");
        let other = aggregate(&s, &[(0, j(vec![measured(0, 1.5), measured(1, 2.0)]))]);
        assert_ne!(one.digest, other.digest, "different IPC, different digest");
    }

    #[test]
    fn surface_rows_group_by_mechanism_and_point() {
        let s = spec();
        // Cells: (base,seed1)=0 (base,seed2)=1 (cdf,seed1)=2 (cdf,seed2)=3.
        let status = aggregate(
            &s,
            &[(
                0,
                j(vec![
                    measured(0, 1.0),
                    measured(1, 2.0),
                    measured(2, 3.0),
                    measured(3, 5.0),
                ]),
            )],
        );
        assert!(status.complete());
        assert_eq!(status.rows.len(), 2);
        assert_eq!(status.rows[0].mechanism, "base");
        assert_eq!(status.rows[0].cells, 2);
        assert!((status.rows[0].mean_ipc - 1.5).abs() < 1e-12);
        assert!((status.rows[1].mean_ipc - 4.0).abs() < 1e-12);
        // Two cells per slice: p50 is the lower sample, p90 the upper.
        assert!((status.rows[0].p50_ipc - 1.0).abs() < 1e-12);
        assert!((status.rows[0].p90_ipc - 2.0).abs() < 1e-12);
        // One workload row covering all four cells.
        assert_eq!(status.workload_rows.len(), 1);
        let w = &status.workload_rows[0];
        assert_eq!((w.workload.as_str(), w.cells), ("astar_like", 4));
        assert!((w.mean_ipc - 2.75).abs() < 1e-12);
        assert!((w.p50_ipc - 2.0).abs() < 1e-12, "nearest rank of 4 at 0.5");
        assert!((w.p90_ipc - 5.0).abs() < 1e-12);
        let text = status.render_text();
        assert!(text.contains("4/4 cells done"), "{text}");
        assert!(text.contains("digest:"), "{text}");
        assert!(text.contains("p90-ipc"), "{text}");
        assert!(text.contains("astar_like"), "{text}");
    }

    #[test]
    fn staleness_flags_only_incomplete_shards_without_recent_heartbeat() {
        let s = spec();
        let mut fresh = j(vec![measured(0, 1.0)]);
        fresh.last_heartbeat = Some(1_000);
        let mut dead = j(vec![measured(1, 2.0)]);
        dead.last_heartbeat = Some(100);
        let mut status = aggregate(&s, &[(0, fresh), (1, dead)]);
        assert!(
            status.shards.iter().all(|sh| !sh.stale),
            "unset before marking"
        );
        status.mark_staleness(1_010, HEARTBEAT_STALE_SECS);
        assert!(!status.shards[0].stale, "recent heartbeat");
        assert!(status.shards[1].stale, "silent for 910s with pending cells");
        let text = status.render_text();
        assert!(text.contains("STALE"), "{text}");

        // A complete shard is never stale, however old its heartbeat.
        let complete = aggregate(
            &s,
            &[(0, j(vec![measured(0, 1.0), measured(2, 1.0)])), {
                let mut done = j(vec![measured(1, 1.0), measured(3, 1.0)]);
                done.last_heartbeat = Some(5);
                (1, done)
            }],
        );
        let mut complete = complete;
        complete.mark_staleness(1_000_000, HEARTBEAT_STALE_SECS);
        assert!(complete.shards.iter().all(|sh| !sh.stale));
    }

    #[test]
    fn failures_and_divergences_are_counted() {
        let mut s = spec();
        s.mode = CellMode::Fuzz;
        s.workloads.clear();
        let cells = vec![
            CellRecord {
                cell: 0,
                wall_ms: 1,
                outcome: CellOutcome::Checked {
                    checked: 50,
                    clean: true,
                    detail: String::new(),
                },
            },
            CellRecord {
                cell: 1,
                wall_ms: 1,
                outcome: CellOutcome::Checked {
                    checked: 20,
                    clean: false,
                    detail: "digest mismatch".to_string(),
                },
            },
        ];
        let status = aggregate(&s, &[(0, j(cells))]);
        assert_eq!((status.ok, status.divergent, status.checked), (2, 1, 70));
        assert!(status.complete(), "fuzz grid is one cell per seed");
        assert!(status.rows.is_empty());
    }
}
