//! The `cdf-sim explain` report: criticality-provenance diagnostics over a
//! (workload × mechanism) grid, rendered as a versioned `cdf-explain/1` JSON
//! document, a human-readable table, and Perfetto async spans (one per
//! chain).
//!
//! Where the sweep answers *how fast*, explain answers *why*. It is the same
//! grid: `cdf-sim explain` runs [`run_sweep`](crate::run_sweep) with
//! [`EvalConfig::diagnostics`](crate::EvalConfig) on, and the renderers here
//! read the finished [`Sweep`]. They report the three metric families the
//! prefetching literature uses to justify a mechanism —
//!
//! * **coverage** — of the retired LLC-miss loads / mispredicted H2P
//!   branches, how many had a live CUC trace covering that very uop;
//! * **accuracy** — of the fetched critical uops, how many were consumed by
//!   the replayed program-order stream vs. poisoned, squashed, or wasted;
//! * **timeliness** — the log₂ lead-time histogram of critical LLC-miss
//!   initiations and the branch early-resolution distance histogram.
//!
//! Diagnostics are observation-only: the measurements embedded in the
//! report are bit-identical to a plain sweep of the same grid (enforced by
//! `crates/sim/tests/explain.rs`).

use crate::json::{field, Json};
use crate::provenance::provenance_json;
use crate::report::Table;
use crate::sweep::{cell_json, gen_json, Sweep};
use cdf_core::{CdfDiagnostics, ChainRecord, Coverage, Histogram};

/// The JSON schema tag stamped on every emitted explain document.
pub use crate::schema::EXPLAIN as EXPLAIN_SCHEMA;

/// Chain records embedded per cell (the busiest chains by fetched uops);
/// aggregate counters always cover every chain.
pub const DEFAULT_CHAIN_LIMIT: usize = 32;

/// The explain document (schema [`EXPLAIN_SCHEMA`]) of a finished sweep:
/// its provenance, sizing and grid, then one record per cell with the
/// `chain_limit` busiest chains of its diagnostics. Cells carry no wall
/// time, and a cell that ran without diagnostics has no `diagnostics`
/// section.
pub fn to_json(sweep: &Sweep, chain_limit: usize) -> Json {
    let eval = &sweep.config.eval;
    let [workloads, mechanisms] = sweep.config.axes_json();
    Json::Obj(vec![
        field("schema", EXPLAIN_SCHEMA),
        field("provenance", provenance_json(&sweep.provenance)),
        field("gen", gen_json(&eval.gen)),
        field(
            "eval",
            Json::Obj(vec![
                field("warmup_instructions", eval.warmup_instructions),
                field("measure_instructions", eval.measure_instructions),
                field("max_cycles", eval.max_cycles),
            ]),
        ),
        workloads,
        mechanisms,
        field(
            "cells",
            Json::Arr(
                sweep
                    .cells
                    .iter()
                    .map(|c| cell_json(c, None, chain_limit))
                    .collect(),
            ),
        ),
    ])
}

/// Chrome/Perfetto trace-event JSON with one async span per recorded
/// chain (`ph:"b"`/`ph:"e"`, spanning install → last lifecycle event),
/// grouped by grid cell. Load into Perfetto to see chain lifetimes laid
/// out against each other.
pub fn chain_trace_events(sweep: &Sweep) -> Json {
    let mut events = Vec::new();
    for (tid, c) in sweep.cells.iter().enumerate() {
        let Some(d) = &c.diagnostics else { continue };
        let tid = tid as u64 + 1;
        events.push(Json::Obj(vec![
            field("name", "thread_name"),
            field("ph", "M"),
            field("pid", 1u64),
            field("tid", tid),
            field(
                "args",
                Json::Obj(vec![field(
                    "name",
                    format!("{} / {}", c.workload, c.mechanism.label()),
                )]),
            ),
        ]));
        for ch in d.chains() {
            let name = format!("chain {} @pc{}", ch.id, ch.block_start.index());
            let common = |ph: &str, ts: u64| {
                vec![
                    field("name", name.as_str()),
                    field("cat", "chain"),
                    field("ph", ph),
                    field("id", ch.id),
                    field("ts", ts),
                    field("pid", 1u64),
                    field("tid", tid),
                ]
            };
            let mut begin = common("b", ch.installed_at);
            begin.push(field(
                "args",
                Json::Obj(vec![
                    field("crit_uops", ch.crit_uops),
                    field("cuc_hits", ch.cuc_hits),
                    field("fetched", ch.uops_fetched),
                    field("consumed", ch.uops_consumed),
                    field("poisoned", ch.uops_poisoned),
                    field("squashed", ch.uops_squashed),
                    field("wasted", ch.uops_wasted()),
                ]),
            ));
            events.push(Json::Obj(begin));
            events.push(Json::Obj(common("e", ch.last_event.max(ch.installed_at))));
        }
    }
    Json::Arr(events)
}

/// The human-readable per-cell table: coverage, accuracy, and lead-time
/// summaries side by side. A failed cell reads `ERROR(kind)`; a cell with
/// no diagnostics reads `-` throughout.
pub fn render_summary(sweep: &Sweep) -> String {
    let headers = [
        "workload",
        "mechanism",
        "chains",
        "ld-cov",
        "br-cov",
        "accuracy",
        "fetched",
        "wasted",
        "lead-mean",
        "lead-p50",
    ];
    let mut t = Table::new(&headers);
    for c in &sweep.cells {
        let mut row = vec![c.workload.clone(), c.mechanism.label().to_string()];
        match (&c.result, &c.diagnostics) {
            (Ok(_), Some(d)) => row.extend([
                format!("{}", d.chains().len()),
                pct(&d.load_coverage),
                pct(&d.branch_coverage),
                format!("{:.1}%", d.accuracy() * 100.0),
                format!("{}", d.critical_uops_fetched),
                format!("{}", d.critical_uops_wasted()),
                format!("{:.0}", d.lead_time.mean()),
                format!("{}", histogram_p50(&d.lead_time)),
            ]),
            (Err(e), _) => row.push(format!("ERROR({})", e.kind())),
            (Ok(_), None) => {}
        }
        row.resize(headers.len(), "-".into());
        t.row(&row);
    }
    let (ok, failed) = sweep.counts();
    format!(
        "Explain — CUC coverage / accuracy / lead time per (workload × mechanism); \
         {ok} ok, {failed} failed\n{}",
        t.render()
    )
}

fn pct(c: &Coverage) -> String {
    if c.total == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", c.fraction() * 100.0)
    }
}

/// The lower bound of the bucket holding the median sample (0 when empty) —
/// a scale-free "typical lead" figure for the summary table.
fn histogram_p50(h: &Histogram) -> u64 {
    let total = h.samples();
    if total == 0 {
        return 0;
    }
    let mut seen = 0;
    for (i, &count) in h.buckets().iter().enumerate() {
        seen += count;
        if seen * 2 >= total {
            return Histogram::bucket_range(i).0;
        }
    }
    0
}

/// Serializes one [`CdfDiagnostics`] collector: lifecycle counters, the
/// coverage/accuracy/timeliness families, and the `chain_limit` busiest
/// chain records (by fetched uops; `chains_recorded` counts all of them).
pub fn diagnostics_json(d: &CdfDiagnostics, chain_limit: usize) -> Json {
    let mut busiest: Vec<&ChainRecord> = d.chains().iter().collect();
    busiest.sort_by(|a, b| b.uops_fetched.cmp(&a.uops_fetched).then(a.id.cmp(&b.id)));
    busiest.truncate(chain_limit);
    Json::Obj(vec![
        field(
            "lifecycle",
            Json::Obj(vec![
                field("walks", d.walks),
                field("walks_dropped", d.walks_dropped),
                field("installs", d.installs),
                field("installs_rejected", d.installs_rejected),
                field("chains_recorded", d.chains().len()),
                field("chains_dropped", d.chains_dropped),
                field("cuc_fetch_hits", d.cuc_fetch_hits),
                field("cuc_fetch_misses", d.cuc_fetch_misses),
            ]),
        ),
        field(
            "coverage",
            Json::Obj(vec![
                field("loads", coverage_json(&d.load_coverage)),
                field("branches", coverage_json(&d.branch_coverage)),
            ]),
        ),
        field(
            "accuracy",
            Json::Obj(vec![
                field("fetched", d.critical_uops_fetched),
                field("consumed", d.critical_uops_consumed),
                field("poisoned", d.critical_uops_poisoned),
                field("squashed", d.critical_uops_squashed),
                field("wasted", d.critical_uops_wasted()),
                field("fraction", d.accuracy()),
            ]),
        ),
        field(
            "timeliness",
            Json::Obj(vec![
                field("llc_miss_initiations", d.llc_miss_initiations),
                field("lead_time", histogram_json(&d.lead_time)),
                field("branch_resolution", histogram_json(&d.branch_resolution)),
            ]),
        ),
        field(
            "intervals",
            Json::Obj(vec![
                field("interval", d.config().interval),
                field("evicted_samples", d.intervals().evicted_count()),
                field("totals", diag_interval_json(&d.intervals().totals())),
                field(
                    "samples",
                    Json::Arr(d.intervals().samples().map(diag_interval_json).collect()),
                ),
            ]),
        ),
        field(
            "chains",
            Json::Arr(busiest.into_iter().map(chain_json).collect()),
        ),
    ])
}

/// One coverage/accuracy interval sample (or the series totals) — the
/// per-interval time series joining `cdf-core::diag` chain outcomes with
/// the telemetry interval cadence.
fn diag_interval_json(s: &cdf_core::DiagIntervalSample) -> Json {
    Json::Obj(vec![
        field("start_cycle", s.start_cycle),
        field("end_cycle", s.end_cycle),
        field("cycles", s.cycles),
        field("walks", s.walks),
        field("installs", s.installs),
        field("cuc_hits", s.cuc_hits),
        field("cuc_misses", s.cuc_misses),
        field("fetched", s.fetched),
        field("consumed", s.consumed),
        field("poisoned", s.poisoned),
        field("squashed", s.squashed),
        field("accuracy", s.accuracy()),
        field("load_coverage", coverage_json(&s.load_coverage())),
        field("branch_coverage", coverage_json(&s.branch_coverage())),
        field("miss_initiations", s.miss_initiations),
    ])
}

fn coverage_json(c: &Coverage) -> Json {
    Json::Obj(vec![
        field("covered", c.covered),
        field("total", c.total),
        field("fraction", c.fraction()),
    ])
}

fn histogram_json(h: &Histogram) -> Json {
    let buckets: Vec<Json> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, &count)| {
            let (lo, hi) = Histogram::bucket_range(i);
            Json::Obj(vec![
                field("lo", lo),
                field("hi", hi),
                field("count", count),
            ])
        })
        .collect();
    Json::Obj(vec![
        field("samples", h.samples()),
        field("mean", h.mean()),
        field("buckets", Json::Arr(buckets)),
    ])
}

fn chain_json(c: &ChainRecord) -> Json {
    Json::Obj(vec![
        field("id", c.id),
        field("block_start", c.block_start.index()),
        field("block_len", c.block_len),
        field("crit_uops", c.crit_uops),
        field("installed_at", c.installed_at),
        field("cuc_hits", c.cuc_hits),
        field("fetched", c.uops_fetched),
        field("consumed", c.uops_consumed),
        field("poisoned", c.uops_poisoned),
        field("squashed", c.uops_squashed),
        field("wasted", c.uops_wasted()),
        field("last_event", c.last_event),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{EvalConfig, Mechanism};
    use crate::sweep::{run_sweep, SweepConfig};

    fn tiny_eval() -> EvalConfig {
        EvalConfig {
            warmup_instructions: 10_000,
            measure_instructions: 20_000,
            gen: cdf_workloads::GenConfig {
                seed: 7,
                scale: 1.0 / 32.0,
                iters: u64::MAX / 4,
            },
            ..EvalConfig::quick()
        }
    }

    /// The sweep `cdf-sim explain` runs: the grid with diagnostics on
    /// (that the command turns them on is checked on the binary, in
    /// `tests/explain.rs`).
    fn explain_sweep<const N: usize>(workloads: [&str; N], mechanisms: Vec<Mechanism>) -> Sweep {
        let eval = EvalConfig {
            diagnostics: true,
            ..tiny_eval()
        };
        run_sweep(&SweepConfig::new(workloads, mechanisms, eval))
    }

    #[test]
    fn explain_run_collects_cdf_provenance() {
        let sweep = explain_sweep(["astar_like"], vec![Mechanism::Cdf]);
        let c = &sweep.cells[0];
        let m = c.result.as_ref().expect("cell runs");
        let d = c.diagnostics.as_ref().expect("diagnostics attached");
        assert!(m.critical_uops > 0, "CDF must engage");
        assert!(d.walks > 0, "walks observed");
        assert!(d.critical_uops_fetched > 0, "critical fetch observed");
        assert_eq!(
            d.lead_time.samples(),
            d.llc_miss_initiations,
            "lead-time totality"
        );
        assert!(!d.chains().is_empty());
        let doc = to_json(&sweep, DEFAULT_CHAIN_LIMIT).render();
        assert!(!doc.contains("wall_ms"), "explain cells are clock-free");
    }

    #[test]
    fn report_json_is_valid_and_tagged() {
        let sweep = explain_sweep(["astar_like"], vec![Mechanism::Baseline, Mechanism::Cdf]);
        assert_eq!(sweep.counts(), (2, 0));
        let text = to_json(&sweep, DEFAULT_CHAIN_LIMIT).render_pretty();
        let doc = Json::parse(&text).expect("emitted JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(EXPLAIN_SCHEMA)
        );
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        for cell in cells {
            let diag = cell.get("diagnostics").expect("ok cells embed diag");
            for family in ["lifecycle", "coverage", "accuracy", "timeliness", "chains"] {
                assert!(diag.get(family).is_some(), "{family} present");
            }
        }
        assert!(render_summary(&sweep).contains("accuracy"));
    }

    #[test]
    fn failed_cells_are_recorded_not_fatal() {
        let sweep = explain_sweep(["no_such_kernel", "astar_like"], vec![Mechanism::Baseline]);
        assert_eq!(sweep.counts(), (1, 1));
        let bad = sweep.cell("no_such_kernel", Mechanism::Baseline).unwrap();
        assert_eq!(bad.result.as_ref().unwrap_err().kind(), "unknown_workload");
        let doc = to_json(&sweep, DEFAULT_CHAIN_LIMIT).render();
        assert!(doc.contains("\"status\":\"error\""));
        assert!(render_summary(&sweep).contains("ERROR(unknown_workload)"));
    }

    #[test]
    fn renderers_accept_cells_without_diagnostics() {
        let cfg = SweepConfig::new(["astar_like"], vec![Mechanism::Cdf], tiny_eval());
        let sweep = run_sweep(&cfg);
        assert!(sweep.cells[0].diagnostics.is_none());
        let table = render_summary(&sweep);
        let row = table.lines().last().expect("one row");
        assert!(row.starts_with("astar_like"), "{table}");
        assert_eq!(row.split_whitespace().filter(|&f| f == "-").count(), 8);
        let doc = Json::parse(&to_json(&sweep, DEFAULT_CHAIN_LIMIT).render()).unwrap();
        let cell = &doc.get("cells").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(cell.get("status").and_then(Json::as_str), Some("ok"));
        assert!(cell.get("measurement").is_some());
        assert!(cell.get("diagnostics").is_none());
        assert_eq!(chain_trace_events(&sweep).render(), "[]");
    }

    #[test]
    fn chain_spans_balance_begin_end() {
        let sweep = explain_sweep(["astar_like"], vec![Mechanism::Cdf]);
        let doc = Json::parse(&chain_trace_events(&sweep).render()).expect("valid JSON");
        let events = doc.as_arr().unwrap();
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert!(count("b") > 0, "chains emitted");
        assert_eq!(count("b"), count("e"), "async spans balance");
    }

    #[test]
    fn histogram_p50_picks_median_bucket() {
        let mut h = Histogram::default();
        for _ in 0..3 {
            h.record(0);
        }
        for _ in 0..4 {
            h.record(100);
        }
        let (lo, _) = Histogram::bucket_range(Histogram::bucket_of(100));
        assert_eq!(histogram_p50(&h), lo);
        assert_eq!(histogram_p50(&Histogram::default()), 0);
    }
}
