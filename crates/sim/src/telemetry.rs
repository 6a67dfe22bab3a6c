//! Serialization and reporting for the core's telemetry collectors.
//!
//! `cdf-core` gathers telemetry as plain structs with no opinion on output
//! formats; this module owns its JSON encoding, its trace events and its
//! text report:
//!
//! * [`telemetry_json`] — the `cdf-telemetry/1` document: cycle-accounting
//!   breakdown, interval time series (ring + running totals), and
//!   log₂-bucketed occupancy histograms. Embedded per cell in the sweep
//!   document (`cdf-sim run --telemetry N --out`, `sweep --telemetry N`).
//! * the event sink's events in the cell's guest process of the one trace,
//!   [`Sweep::trace_json`](crate::Sweep::trace_json): one core cycle maps to
//!   one trace microsecond; lane 0 carries CDF-mode episodes, lane 1 stall
//!   episodes and flush instants, lanes 2+ per-stage uop slices.
//! * [`accounting_table`] — the top-down breakdown as an aligned percentage
//!   table, the telemetry view of `cdf-sim run --telemetry N`.

use crate::json::{field, Json};
use crate::report::Table;
use cdf_core::series::Sample;
use cdf_core::{CycleAccounting, EventPhase, Histogram, IntervalSample, IntervalSeries, Telemetry};

/// The schema tag stamped on every [`telemetry_json`] document.
pub use crate::schema::TELEMETRY as TELEMETRY_SCHEMA;

/// Encodes one interval sample (or the running totals, which share the
/// shape).
fn sample_json(s: &IntervalSample) -> Json {
    Json::Obj(vec![
        field("start_cycle", s.start_cycle),
        field("end_cycle", s.end_cycle),
        field("cycles", s.cycles),
        field("retired", s.retired),
        field("ipc", s.ipc()),
        field("mlp", s.mlp()),
        field("cdf_residency", s.cdf_residency()),
        field("fetched_regular", s.fetched_regular),
        field("fetched_critical", s.fetched_critical),
        field("mispredicts", s.mispredicts),
        field("memory_violations", s.memory_violations),
        field("dependence_violations", s.dependence_violations),
        field("full_window_stall_cycles", s.full_window_stall_cycles),
        field("cdf_mode_cycles", s.cdf_mode_cycles),
        field("mlp_sum", s.mlp_sum),
        field("mlp_cycles", s.mlp_cycles),
    ])
}

/// `head` (when given), then a log₂ histogram's sample count, mean and
/// non-empty buckets.
pub(crate) fn histogram_json(head: Option<(String, Json)>, h: &Histogram) -> Json {
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
    let mut fields: Vec<_> = head.into_iter().collect();
    fields.extend([
        field("samples", h.samples()),
        field("mean", h.mean()),
        field("buckets", Json::Arr(buckets)),
    ]);
    Json::Obj(fields)
}

/// `head`, then an interval series' evicted-sample count, its totals and
/// its retained samples, each encoded by `sample`.
pub(crate) fn series_json<S: Sample>(
    head: (String, Json),
    series: &IntervalSeries<S>,
    sample: impl Fn(&S) -> Json,
) -> Json {
    Json::Obj(vec![
        head,
        field("evicted_samples", series.evicted_count()),
        field("totals", sample(&series.totals())),
        field(
            "samples",
            Json::Arr(series.samples().map(&sample).collect()),
        ),
    ])
}

/// The full telemetry document (schema [`TELEMETRY_SCHEMA`]): accounting,
/// interval series, occupancy histograms, and event-sink counters. The
/// events themselves go to the one trace,
/// [`Sweep::trace_json`](crate::Sweep::trace_json).
pub fn telemetry_json(t: &Telemetry) -> Json {
    let accounting_rows: Vec<Json> = t
        .accounting
        .breakdown()
        .into_iter()
        .map(|(bucket, cycles, fraction)| {
            Json::Obj(vec![
                field("bucket", bucket.label()),
                field("cycles", cycles),
                field("fraction", fraction),
            ])
        })
        .collect();
    let histograms: Vec<Json> = t
        .occupancy
        .named()
        .iter()
        .map(|(name, h)| histogram_json(Some(field("structure", *name)), h))
        .collect();
    Json::Obj(vec![
        field("schema", TELEMETRY_SCHEMA),
        field("interval", t.config().interval),
        field("observed_cycles", t.observed_cycles()),
        field(
            "accounting",
            Json::Obj(vec![
                field("total_cycles", t.accounting.total()),
                field("buckets", Json::Arr(accounting_rows)),
            ]),
        ),
        field(
            "series",
            series_json(
                field("ring_capacity", t.config().ring_capacity),
                &t.intervals,
                sample_json,
            ),
        ),
        field("histograms", Json::Arr(histograms)),
        field(
            "events",
            Json::Obj(vec![
                field("collected", t.events().len()),
                field("dropped", t.events_dropped()),
            ]),
        ),
    ])
}

/// The event sink as trace events of process `pid` on the cycle axis:
/// core cycles map 1:1 onto trace microseconds (`ts`/`dur`), and each
/// event carries its lane as `tid`.
pub(crate) fn trace_events(t: &Telemetry, pid: u64) -> impl Iterator<Item = Json> + '_ {
    t.events().iter().map(move |e| {
        let mut fields = vec![
            field("name", e.name),
            field("cat", e.cat),
            field("ph", e.ph.code()),
            field("ts", e.ts),
        ];
        if e.ph == EventPhase::Complete {
            fields.push(field("dur", e.dur));
        }
        fields.push(field("pid", pid));
        fields.push(field("tid", e.tid));
        if !e.args.is_empty() {
            fields.push(field(
                "args",
                Json::Obj(e.args.iter().map(|&(k, v)| field(k, v)).collect()),
            ));
        }
        Json::Obj(fields)
    })
}

/// The top-down breakdown as an aligned text table: one row per bucket with
/// cycle count and percentage, plus a total row.
pub fn accounting_table(a: &CycleAccounting) -> String {
    let mut t = Table::new(&["bucket", "cycles", "percent"]);
    for (bucket, cycles, fraction) in a.breakdown() {
        t.row(&[
            bucket.label().to_string(),
            cycles.to_string(),
            format!("{:.1}%", fraction * 100.0),
        ]);
    }
    t.row(&[
        "total".to_string(),
        a.total().to_string(),
        "100.0%".to_string(),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalConfig, Measurement, Mechanism, Sweep, SweepCell, SweepConfig};
    use cdf_core::{CycleBucket, OccupancySample, TelemetryConfig};

    fn sample_telemetry() -> Telemetry {
        let mut t = Telemetry::new(TelemetryConfig {
            interval: 8,
            ring_capacity: 4,
            ..TelemetryConfig::default()
        });
        let occ = OccupancySample {
            rob: 5,
            lq: 2,
            sq: 1,
            rs: 3,
            mshr: 0,
        };
        for _ in 0..8 {
            t.on_cycle(CycleBucket::Retiring, occ);
        }
        t.on_cycle(CycleBucket::BackendBound, occ);
        t.track_episodes(3, true, false);
        t.track_episodes(7, false, false);
        let stats = cdf_core::CoreStats {
            retired: 12,
            ..Default::default()
        };
        t.sample_interval(8, &stats);
        t
    }

    /// A one-cell sweep whose cell carries `telemetry` and nothing else.
    fn observed(telemetry: Telemetry) -> Sweep {
        let m = Mechanism::Cdf;
        Sweep {
            config: SweepConfig::new(["astar_like"], vec![m], EvalConfig::quick()),
            cells: vec![SweepCell {
                workload: "astar_like".to_string(),
                mechanism: m,
                result: Ok(Measurement::default()),
                telemetry: Some(telemetry),
                diagnostics: None,
                profile: None,
                wall_ms: 0,
            }],
            threads_used: 1,
            config_hash: String::new(),
            provenance: cdf_core::Provenance::default().into(),
        }
    }

    #[test]
    fn telemetry_json_roundtrips_and_carries_schema() {
        let t = sample_telemetry();
        let doc = telemetry_json(&t);
        let parsed = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(TELEMETRY_SCHEMA)
        );
        assert_eq!(
            parsed.get("observed_cycles").and_then(Json::as_u64),
            Some(9)
        );
        let buckets = parsed
            .get("accounting")
            .and_then(|a| a.get("buckets"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(buckets.len(), 6, "all six buckets always present");
        let total = parsed
            .get("accounting")
            .and_then(|a| a.get("total_cycles"))
            .and_then(Json::as_u64);
        assert_eq!(total, Some(9));
        let samples = parsed
            .get("series")
            .and_then(|s| s.get("samples"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].get("retired").and_then(Json::as_u64), Some(12));
        let histograms = parsed.get("histograms").and_then(Json::as_arr).unwrap();
        assert_eq!(histograms.len(), 5);
        assert_eq!(
            histograms[0].get("structure").and_then(Json::as_str),
            Some("rob")
        );
    }

    #[test]
    fn trace_events_are_valid_chrome_json() {
        let parsed = Json::parse(&observed(sample_telemetry()).trace_json().render()).unwrap();
        let events = parsed.as_arr().expect("array-of-events form");
        assert_eq!(events.len(), 3, "the process name, then one B/E pair");
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("process_name")
        );
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("cdf_mode")
        );
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("E"));
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("cycles").and_then(Json::as_u64), Some(4));
        for e in events {
            // Cell 0's guest process.
            assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        }
        assert!(events[1..].iter().all(|e| e.get("tid").is_some()));
    }

    #[test]
    fn accounting_table_shows_percentages() {
        let t = sample_telemetry();
        let text = accounting_table(&t.accounting);
        assert!(text.contains("retiring"), "{text}");
        assert!(text.contains("88.9%"), "8/9 retiring: {text}");
        assert!(text.lines().any(|l| l.starts_with("total")), "{text}");
        // Every bucket row appears even when empty.
        for b in CycleBucket::ALL {
            assert!(text.contains(b.label()), "missing {}", b.label());
        }
    }
}
