//! `throughput-gate` — CI guard against simulator-throughput regressions.
//! Its flags are declared once, in [`GATE`]; a usage error prints them.
//!
//! Measures the scheduler + memory-model micro/macro suite (best-of-3,
//! quick sizing by default) and compares cycles/second per case against
//! the checked-in `crates/bench/baseline/throughput.json`. A case that
//! regresses by more than the tolerance (default 20%) fails the gate.
//! Wall-clock baselines are machine-dependent — re-bless when the
//! reference hardware changes.
//!
//! Three machine-independent invariants are checked as well:
//! * the `stall_window` micro case must keep the event-driven scheduler at
//!   least 3x faster than the reference scan,
//! * the `mshr_churn` micro case must keep the event-driven memory model
//!   at least 1.2x faster than the lazy reference, and
//! * the event-driven variant must not be slower than its reference on
//!   any case by more than the tolerance.

use cdf_bench::throughput::{
    measure, profile_once, rows_from_json, rows_json, speedup_ratios, throughput_cases,
};
use cdf_sim::cli::{or_exit, Cli};
use cdf_sim::json::{field, Json};
use std::path::PathBuf;
use std::process::exit;

/// Counting allocator so `--profile-out` attributes allocation counts and
/// bytes to pipeline stages; free when profiling is off.
#[global_allocator]
static ALLOC: cdf_core::CountingAlloc = cdf_core::CountingAlloc;

/// The gate's flags: the one declaration its parser and its usage read.
static GATE: Cli = Cli {
    program: "throughput-gate",
    commands: &[(
        "",
        &["\
options:
  --bless             (re)write the baseline instead of comparing against it
  --full              full sizing (default: quick)
  --tolerance F       allowed cycles/s loss per case (default 0.20)
  --baseline FILE     baseline path (default crates/bench/baseline/throughput.json)
  --record            also append cdf-result/1 rows to the results store
  --store FILE        results store path (default .cdf-results/results.jsonl)
  --profile-out FILE  also write one cdf-profile/1 document per case to FILE"],
    )],
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = GATE.parse(&args);
    let quick = !a.has("--full");
    let tolerance: f64 = a.get("--tolerance").unwrap_or(0.20);
    let baseline_path: PathBuf = a.get("--baseline").unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baseline/throughput.json")
    });

    let rows = measure(&throughput_cases(quick), 3);
    for r in &rows {
        println!(
            "{:32} {:>12.0} cycles/s  ({} cycles in {:.3}s)",
            r.name,
            r.cycles_per_sec(),
            r.simulated_cycles,
            r.wall_seconds
        );
    }
    let ratios = speedup_ratios(&rows);
    for (case, ratio) in &ratios {
        println!("{case:32} event/reference = {ratio:.2}x");
    }

    if a.has("--record") {
        let store =
            cdf_sim::ResultStore::open(a.value("--store").unwrap_or(cdf_sim::DEFAULT_STORE_PATH));
        let prov = cdf_core::Provenance::capture();
        // The sizing is the only configuration axis the gate varies, so it
        // is the whole config hash: quick vs full rows must not compare as
        // same-config cells.
        let config_hash = if quick {
            "throughput-quick"
        } else {
            "throughput-full"
        };
        let build = |run_id: &str| {
            rows.iter()
                .enumerate()
                .map(|(seq, r)| {
                    let (case, variant) = r.name.rsplit_once('/').unwrap_or((r.name.as_str(), ""));
                    cdf_sim::throughput_record(
                        run_id,
                        seq as u64,
                        &prov,
                        config_hash,
                        case,
                        variant,
                        r.simulated_cycles,
                        r.wall_seconds,
                    )
                })
                .collect()
        };
        let (run_id, records) = or_exit(
            store
                .append_run(&prov, build)
                .map_err(|e| format!("recording to {}: {e}", store.path().display())),
        );
        println!(
            "recorded {} throughput row(s) to {} as run {run_id}",
            records.len(),
            store.path().display()
        );
    }

    if let Some(path) = a.value("--profile-out") {
        // One profiled pass per case (event-driven variant) so the gate's
        // own wall time is attributable to pipeline stages and subsystems.
        let cases = throughput_cases(quick);
        let profiles: Vec<Json> = cases
            .iter()
            .map(|case| {
                let p = profile_once(case);
                cdf_sim::profile_json(&p, &case.name, "event")
            })
            .collect();
        let doc = Json::Obj(vec![
            field("schema", cdf_sim::schema::PROFILE_SET),
            field("quick", quick),
            field("profiles", Json::Arr(profiles)),
        ]);
        or_exit(
            std::fs::write(path, doc.render_pretty()).map_err(|e| format!("writing {path}: {e}")),
        );
        println!("wrote {} case profile(s) to {path}", cases.len());
    }

    let mut failures = Vec::new();
    for (micro, floor) in [("stall_window", 3.0), ("mshr_churn", 1.2)] {
        if let Some((_, ratio)) = ratios.iter().find(|(c, _)| c == micro) {
            if *ratio < floor {
                failures.push(format!(
                    "{micro} micro speedup collapsed: {ratio:.2}x < {floor}x"
                ));
            }
        } else {
            failures.push(format!("{micro} case missing from suite"));
        }
    }
    for (case, ratio) in &ratios {
        if *ratio < 1.0 - tolerance {
            failures.push(format!(
                "{case}: event variant slower than its reference by more than {:.0}%: {ratio:.2}x",
                tolerance * 100.0
            ));
        }
    }

    let shown = baseline_path.display();
    if a.has("--bless") {
        let dir = baseline_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all);
        let doc = rows_json(&rows, quick).render_pretty();
        let written = dir.and_then(|()| std::fs::write(&baseline_path, doc));
        or_exit(written.map_err(|e| format!("writing {shown}: {e}")));
        println!("blessed baseline: {shown}");
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Err(e) => failures.push(format!(
                "no baseline at {shown} ({e}); run `throughput-gate --bless`"
            )),
            Ok(text) => {
                let parsed = Json::parse(&text).ok().and_then(|d| rows_from_json(&d));
                let baseline = or_exit(
                    parsed.ok_or_else(|| format!("{shown} is not a cdf-throughput/1 document")),
                );
                for (name, base_cps) in &baseline {
                    let Some(row) = rows.iter().find(|r| &r.name == name) else {
                        failures.push(format!("{name}: in baseline but not measured"));
                        continue;
                    };
                    let cps = row.cycles_per_sec();
                    if cps < base_cps * (1.0 - tolerance) {
                        failures.push(format!(
                            "{name}: {cps:.0} cycles/s is {:.1}% below baseline {base_cps:.0}",
                            (1.0 - cps / base_cps) * 100.0
                        ));
                    }
                }
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("\nthroughput gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        exit(1);
    }
    println!(
        "\nthroughput gate passed (tolerance {:.0}%)",
        tolerance * 100.0
    );
}
