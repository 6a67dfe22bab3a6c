//! Serialization and reporting for host-side self-profiles.
//!
//! `cdf-core` collects a [`HostProfile`] (stage-level wall-clock
//! attribution plus subsystem timers — see [`cdf_core::prof`]); this module
//! owns its output formats, mirroring the telemetry layer's split:
//!
//! * [`profile_json`] — the `cdf-profile/1` document: host throughput
//!   denominators (guest cycles and retired uops per wall second), the
//!   per-stage attribution rows with the totality invariant materialized
//!   (`Σ stages + untracked = total`), and the subsystem refinement.
//!   Written by `cdf-sim profile --out` and embedded per-cell in sweep
//!   JSON under `--profile`.
//! * [`profile_from_json`] — the inverse, used by the round-trip tests and
//!   by tooling that post-processes recorded profiles.
//! * [`profile_table`] — the human-facing breakdown for `cdf-sim profile`:
//!   one row per stage with %-of-wall, call counts, and heap churn, plus
//!   untracked/total rows and the subsystem table.
//! * [`profile_trace_json`] — the profile as Chrome/Perfetto trace-event
//!   JSON (array-of-events form): stages as consecutive `X` slices on
//!   track 0, subsystems on track 1, so a profile renders as a flame-style
//!   timeline at <https://ui.perfetto.dev>.

use crate::json::{field, Json};
use crate::report::Table;
use cdf_core::{HostProfile, StageSample, SubsystemSample};

/// The schema tag stamped on every [`profile_json`] document.
pub use crate::schema::PROFILE as PROFILE_SCHEMA;

fn stage_json(s: &StageSample, total_wall_ns: u64) -> Json {
    Json::Obj(vec![
        field("stage", s.name.as_str()),
        field("ns", s.ns),
        field("fraction", fraction(s.ns, total_wall_ns)),
        field("calls", s.calls),
        field("allocs", s.allocs),
        field("alloc_bytes", s.alloc_bytes),
    ])
}

fn subsystem_json(s: &SubsystemSample) -> Json {
    Json::Obj(vec![
        field("subsystem", s.name.as_str()),
        field("ns", s.ns),
        field("ops", s.ops),
    ])
}

fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The full profile document (schema [`PROFILE_SCHEMA`]). `workload` and
/// `mechanism` say what was being simulated while the host was profiled.
pub fn profile_json(p: &HostProfile, workload: &str, mechanism: &str) -> Json {
    Json::Obj(vec![
        field("schema", PROFILE_SCHEMA),
        field("workload", workload),
        field("mechanism", mechanism),
        field("cycles", p.cycles),
        field("retired", p.retired),
        field("total_wall_ns", p.total_wall_ns),
        field("tracked_ns", p.tracked_ns()),
        field("untracked_ns", p.untracked_ns),
        field("cycles_per_sec", p.cycles_per_sec()),
        field("uops_per_sec", p.uops_per_sec()),
        field(
            "stages",
            Json::Arr(
                p.stages
                    .iter()
                    .map(|s| stage_json(s, p.total_wall_ns))
                    .collect(),
            ),
        ),
        field(
            "subsystems",
            Json::Arr(p.subsystems.iter().map(subsystem_json).collect()),
        ),
    ])
}

fn need_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("profile field {key:?} missing or not a u64"))
}

fn need_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("profile field {key:?} missing or not a string"))
}

/// Parses a [`profile_json`] document back into a [`HostProfile`] (the
/// `workload`/`mechanism` context fields are validated but not part of the
/// profile struct). Rejects wrong schema tags and malformed rows.
pub fn profile_from_json(doc: &Json) -> Result<HostProfile, String> {
    crate::schema::expect_schema(doc, PROFILE_SCHEMA)?;
    let stages = doc
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or("profile field \"stages\" missing or not an array")?
        .iter()
        .map(|s| {
            Ok(StageSample {
                name: need_str(s, "stage")?,
                ns: need_u64(s, "ns")?,
                calls: need_u64(s, "calls")?,
                allocs: need_u64(s, "allocs")?,
                alloc_bytes: need_u64(s, "alloc_bytes")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let subsystems = doc
        .get("subsystems")
        .and_then(Json::as_arr)
        .ok_or("profile field \"subsystems\" missing or not an array")?
        .iter()
        .map(|s| {
            Ok(SubsystemSample {
                name: need_str(s, "subsystem")?,
                ns: need_u64(s, "ns")?,
                ops: need_u64(s, "ops")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let p = HostProfile {
        cycles: need_u64(doc, "cycles")?,
        retired: need_u64(doc, "retired")?,
        total_wall_ns: need_u64(doc, "total_wall_ns")?,
        untracked_ns: need_u64(doc, "untracked_ns")?,
        stages,
        subsystems,
    };
    if p.tracked_ns() + p.untracked_ns != p.total_wall_ns {
        return Err(format!(
            "profile violates totality: {} tracked + {} untracked != {} total",
            p.tracked_ns(),
            p.untracked_ns,
            p.total_wall_ns
        ));
    }
    Ok(p)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// The profile as two aligned text tables — stages (with the untracked
/// remainder and the wall total, so the rows visibly sum to 100%) and
/// subsystems — headed by the host throughput denominators.
pub fn profile_table(p: &HostProfile) -> String {
    let mut out = format!(
        "host: {:.2} Mcycles/s, {:.2} Muops/s ({} cycles, {} uops, {} ms wall)\n\n",
        p.cycles_per_sec() / 1e6,
        p.uops_per_sec() / 1e6,
        p.cycles,
        p.retired,
        fmt_ms(p.total_wall_ns),
    );
    let mut stages = Table::new(&["stage", "ms", "wall%", "calls", "allocs", "alloc_kb"]);
    for s in &p.stages {
        stages.row(&[
            s.name.clone(),
            fmt_ms(s.ns),
            format!("{:.1}%", fraction(s.ns, p.total_wall_ns) * 100.0),
            s.calls.to_string(),
            s.allocs.to_string(),
            format!("{:.1}", s.alloc_bytes as f64 / 1024.0),
        ]);
    }
    stages.row(&[
        "untracked".to_string(),
        fmt_ms(p.untracked_ns),
        format!("{:.1}%", fraction(p.untracked_ns, p.total_wall_ns) * 100.0),
        String::new(),
        String::new(),
        String::new(),
    ]);
    stages.row(&[
        "total".to_string(),
        fmt_ms(p.total_wall_ns),
        "100.0%".to_string(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    out.push_str(&stages.render());
    out.push('\n');
    let mut subs = Table::new(&["subsystem", "ms", "wall%", "ops"]);
    for s in &p.subsystems {
        subs.row(&[
            s.name.clone(),
            fmt_ms(s.ns),
            format!("{:.1}%", fraction(s.ns, p.total_wall_ns) * 100.0),
            s.ops.to_string(),
        ]);
    }
    out.push_str(&subs.render());
    out
}

/// The profile as Chrome trace-event JSON, array-of-events form. Stages lay
/// out as consecutive `X` (complete) slices on `tid` 0 — their order is the
/// per-cycle execution order, and the untracked remainder closes the track
/// so the timeline spans exactly the measured wall. Subsystems get parallel
/// slices on `tid` 1 starting at 0 (a refinement, not a partition, so their
/// offsets are not meaningful against the stage track). `ts`/`dur` are in
/// microseconds per the trace-event spec.
pub fn profile_trace_json(p: &HostProfile) -> Json {
    let mut events = Vec::new();
    let mut slice = |name: &str, tid: u64, ts_ns: u64, dur_ns: u64, args: Vec<(String, Json)>| {
        let mut fields = vec![
            field("name", name),
            field("cat", "host"),
            field("ph", "X"),
            field("ts", ts_ns as f64 / 1e3),
            field("dur", dur_ns as f64 / 1e3),
            field("pid", 1u64),
            field("tid", tid),
        ];
        if !args.is_empty() {
            fields.push(field("args", Json::Obj(args)));
        }
        events.push(Json::Obj(fields));
    };
    let mut at = 0u64;
    for s in &p.stages {
        slice(
            &s.name,
            0,
            at,
            s.ns,
            vec![field("calls", s.calls), field("allocs", s.allocs)],
        );
        at += s.ns;
    }
    slice("untracked", 0, at, p.untracked_ns, Vec::new());
    for s in &p.subsystems {
        slice(&s.name, 1, 0, s.ns, vec![field("ops", s.ops)]);
    }
    Json::Arr(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdf_core::{HostProf, Stage, Subsystem};

    fn sample_profile() -> HostProfile {
        let mut h = HostProf::new();
        // Cycle 0 is a stage-timed cycle.
        let t = h.begin_cycle(0);
        std::hint::black_box(0u64);
        let t = h.end_stage(Stage::Retire, t);
        h.end_stage(Stage::Fetch, t);
        h.end_sub(Subsystem::MemPort, Some(std::time::Instant::now()));
        h.into_profile(1_000, 500, 10_000_000)
    }

    #[test]
    fn profile_json_roundtrips_through_own_parser() {
        let p = sample_profile();
        let doc = profile_json(&p, "astar_like", "CDF");
        let parsed = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(PROFILE_SCHEMA)
        );
        assert_eq!(
            parsed.get("workload").and_then(Json::as_str),
            Some("astar_like")
        );
        let back = profile_from_json(&parsed).unwrap();
        assert_eq!(back, p, "JSON round-trip preserves every field");
    }

    #[test]
    fn profile_from_json_rejects_wrong_schema_and_broken_totality() {
        let doc = Json::parse(r#"{"schema":"cdf-sweep/1"}"#).unwrap();
        assert!(profile_from_json(&doc).unwrap_err().contains("schema"));
        let p = sample_profile();
        let mut doc = profile_json(&p, "w", "m");
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "untracked_ns" {
                    *v = Json::U64(0);
                }
            }
        }
        assert!(
            profile_from_json(&doc).unwrap_err().contains("totality"),
            "a doc whose rows no longer sum to the wall must be rejected"
        );
    }

    #[test]
    fn table_shows_all_stages_untracked_and_total() {
        let p = sample_profile();
        let text = profile_table(&p);
        for s in Stage::ALL {
            assert!(text.contains(s.label()), "missing stage {}", s.label());
        }
        for s in Subsystem::ALL {
            assert!(text.contains(s.label()), "missing subsystem {}", s.label());
        }
        assert!(text.contains("untracked"), "{text}");
        assert!(text.lines().any(|l| l.starts_with("total")), "{text}");
        assert!(text.contains("Mcycles/s"), "{text}");
    }

    #[test]
    fn trace_events_tile_the_wall_on_track_zero() {
        let p = sample_profile();
        let doc = profile_trace_json(&p);
        let parsed = Json::parse(&doc.render()).unwrap();
        let events = parsed.as_arr().expect("array-of-events form");
        let track0: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("tid").and_then(Json::as_u64) == Some(0))
            .collect();
        // 7 stages + untracked tile the wall exactly.
        assert_eq!(track0.len(), 8);
        let total_us: f64 = track0
            .iter()
            .map(|e| e.get("dur").and_then(Json::as_f64).unwrap())
            .sum();
        let wall_us = p.total_wall_ns as f64 / 1e3;
        assert!((total_us - wall_us).abs() < 1e-6, "{total_us} vs {wall_us}");
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
        }
    }
}
