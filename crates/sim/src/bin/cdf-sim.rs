//! `cdf-sim` — command-line front end for the simulator.
//!
//! ```text
//! cdf-sim list
//! cdf-sim table1 [sizing flags]
//! cdf-sim run <workload> [--mech base|cdf|pre|classify|...] [--rob N]
//!             [--warmup N] [--measure N] [--scale F] [--seed N] [--fast]
//! cdf-sim report <workload> [--mech M] [sizing flags]
//! cdf-sim explain [--workloads a,b,c] [--mechs base,cdf,...] [--threads N]
//!                 [--chains N] [--out explain.json] [--trace-out FILE]
//!                 [sizing flags]
//! cdf-sim telemetry <workload> [--mech M] [--interval N] [--out FILE]
//!                   [--trace-out FILE] [sizing flags]
//! cdf-sim profile <workload> [--mech M] [--out FILE] [--trace-out FILE]
//!                 [sizing flags]
//! cdf-sim compare <workload> [sizing flags]
//! cdf-sim compare <refA> <refB> [--store FILE] [--tolerance F] [--out FILE]
//! cdf-sim record [--workloads a,b,c] [--mechs base,cdf,...] [--threads N]
//!                [--filter SUBSTR] [--store FILE] [--telemetry N]
//!                [--explain] [--profile] [sizing flags]
//! cdf-sim sweep [--workloads a,b,c] [--mechs base,cdf,...] [--threads N]
//!               [--max-cycles N] [--telemetry N] [--explain] [--profile]
//!               [--record] [--store FILE]
//!               [--out results.json] [sizing flags]
//! cdf-sim fuzz [--seeds N] [--start N] [--budget M] [--mechs a,b,c]
//!              [--minimize] [--shrink-budget N] [--threads N]
//!              [--out DIR] [--report FILE]
//! cdf-sim equiv [--seeds N] [--start N] [--mechs a,b,c] [--threads N]
//!               [--mem] [--boundary] [--report FILE]
//! cdf-sim mix --workloads a,b[,c,...] [--mechs base,cdf,...] [--fast]
//!             [--telemetry N] [--profile]
//!             [--out FILE] [--record] [--store FILE] [sizing flags]
//! cdf-sim campaign run --spec FILE [--dir DIR] [--shards N] [--threads N]
//!                      [--store FILE] [--no-record]
//! cdf-sim campaign resume --dir DIR [--threads N] [--store FILE] [--no-record]
//! cdf-sim campaign status --dir DIR
//! cdf-sim campaign shard --dir DIR --shard I [--threads N] [--batch N]
//!                        [--abort-after N]
//! ```

use cdf_core::{CoreConfig, TelemetryConfig};
use cdf_sim::{
    accounting_table, profile_json, profile_table, profile_trace_json, run_explain, run_sweep,
    simulate, table1_text, telemetry_json, trace_events_json, try_simulate_workload_profiled,
    try_simulate_workload_telemetry, EvalConfig, ExplainConfig, Mechanism, SweepConfig,
};
use cdf_workloads::registry;
use std::process::exit;

/// Counting allocator so host profiles ([`cdf_sim::prof`]) attribute
/// allocation counts and bytes to pipeline stages. Zero overhead beyond two
/// relaxed atomic increments per allocation; behaves identically to the
/// system allocator it wraps.
#[global_allocator]
static ALLOC: cdf_core::CountingAlloc = cdf_core::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  cdf-sim list\n  cdf-sim table1 [options]\n  cdf-sim run <workload> [options]\n  \
         cdf-sim report <workload> [options]\n  cdf-sim explain [options]\n  \
         cdf-sim telemetry <workload> [options]\n  \
         cdf-sim profile <workload> [options]\n  \
         cdf-sim compare <workload> [options]\n  \
         cdf-sim compare <refA> <refB> [options]\n  \
         cdf-sim record [options]\n  cdf-sim sweep [options]\n  \
         cdf-sim fuzz [options]\n  cdf-sim equiv [options]\n  \
         cdf-sim mix --workloads a,b [options]\n  \
         cdf-sim campaign run|resume|status|shard [options]\n\noptions:\n  \
         --mech base|cdf|pre|classify|cdf-nobr|cdf-static|cdf-nomask\n                 \
         mechanism (run/report/telemetry; default cdf)\n  \
         --rob N        scale the window to N ROB entries\n  \
         --warmup N     warmup instructions\n  --measure N    measured instructions\n  \
         --scale F      workload footprint scale\n  --seed N       workload seed\n  \
         --fast         quick sizing preset\n\nexplain options:\n  \
         --workloads a,b,c  comma-separated workloads (default: full registry)\n  \
         --mechs a,b,c      comma-separated mechanisms (default: all)\n  \
         --threads N        worker threads (default: all hardware threads)\n  \
         --chains N         chain records embedded per cell (default 32)\n  \
         --out FILE         write the cdf-explain/1 JSON document to FILE\n  \
         --trace-out FILE   write per-chain Perfetto async spans to FILE\n\ntelemetry options:\n  \
         --interval N       cycles per interval sample (default 1024)\n  \
         --out FILE         write the cdf-telemetry/1 JSON document to FILE\n  \
         --trace-out FILE   write Chrome/Perfetto trace-event JSON to FILE\n\nprofile options:\n  \
         --mech M           mechanism to profile (default cdf)\n  \
         --out FILE         write the cdf-profile/1 JSON document to FILE\n  \
         --trace-out FILE   write Chrome/Perfetto trace-event JSON to FILE\n\nsweep options:\n  \
         --workloads a,b,c  comma-separated workloads (default: full registry)\n  \
         --mechs a,b,c      comma-separated mechanisms (default: all)\n  \
         --threads N        worker threads (default: all hardware threads)\n  \
         --max-cycles N     per-run watchdog cycle budget (default: off)\n  \
         --telemetry N      collect telemetry with an N-cycle interval and\n                     \
         embed it per cell in the JSON records\n  \
         --explain          collect criticality-provenance diagnostics and\n                     \
         embed them per cell in the JSON records\n  \
         --profile          attach the host self-profiler and embed a\n                     \
         cdf-profile/1 document per cell in the JSON records\n  \
         --record           also append one cdf-result/1 record per cell to the\n                     \
         results store\n  \
         --store FILE       results store path (default .cdf-results/results.jsonl)\n  \
         --out FILE         write the stamped JSON records to FILE\n\nrecord options:\n  \
         --workloads/--mechs/--threads/--telemetry/--explain  as for sweep\n  \
         --profile          also append one host-throughput \"profile\" record per\n                     \
         successful cell (compare classifies them tolerantly)\n  \
         --filter SUBSTR    only cells whose workload/mechanism label contains SUBSTR\n  \
         --store FILE       results store to append to\n\ncompare options (two-ref form):\n  \
         <refA> <refB>      each: `latest`, `latest~N`, a run id, or a commit prefix\n  \
         --store FILE       results store to read\n  \
         --tolerance F      relative tolerance for wall-clock metrics (default 0.25)\n  \
         --out FILE         write the cdf-compare/1 JSON report to FILE\n\nfuzz options:\n  \
         --seeds N          random programs to run (default 100)\n  \
         --start N          first seed (default 0)\n  \
         --budget M         cap on total dynamic uops across seeds (default: off)\n  \
         --mechs a,b,c      mechanisms run in lockstep (default base,cdf,pre)\n  \
         --minimize         delta-debug each failure to a minimal reproducer\n  \
         --shrink-budget N  shrinker predicate evaluations per failure (default 300)\n  \
         --out DIR          write each failure as a cdf-fuzz-case/1 JSON file\n  \
         --report FILE      write the cdf-fuzz/1 JSON report to FILE\n\nequiv options:\n  \
         --seeds N          fuzz programs to run under both variants (default 500)\n  \
         --start N          first seed (default 1)\n  \
         --mechs a,b,c      mechanisms (default: all seven)\n  \
         --threads N        worker threads (default: all hardware threads)\n  \
         --mem              compare the memory-model pair (event-driven vs lazy\n                     \
         reference) instead of the scheduler pair\n  \
         --boundary         compare the core-memory boundary pair (request/\n                     \
         response vs direct-call reference)\n  \
         --report FILE      write the cdf-equiv/1 JSON report to FILE\n\nmix options:\n  \
         --workloads a,b    one workload per core, in core order (2+ cores)\n  \
         --mechs a,b        one mechanism per core, or one for all (default cdf)\n  \
         --telemetry N      per-core telemetry with an N-cycle sample interval,\n                     \
         embedded per core in the JSON document\n  \
         --profile          host self-profile for the whole mix, embedded in the\n                     \
         JSON document and printed as a table\n  \
         --out FILE         write the cdf-mix/1 JSON document to FILE\n  \
         --record           append per-core cdf-result/1 records to the store\n  \
         --store FILE       results store path (default .cdf-results/results.jsonl)\n\ncampaign options:\n  \
         run    --spec FILE   TOML/JSON experiment spec; initializes the campaign\n                       \
         directory and runs it to completion\n  \
         resume --dir DIR     restart a killed campaign exactly where it stopped\n  \
         status --dir DIR     streaming aggregate of the journals, usable mid-run\n  \
         shard  --dir DIR --shard I   run one shard in this process (what `run`\n                       \
         spawns; also the crash-injection point for tests)\n  \
         --dir DIR          campaign directory (default .cdf-campaigns/<name>)\n  \
         --shards N         worker processes (default 1)\n  \
         --threads N        total worker threads, split across shards\n  \
         --store FILE       results store sweep/explain cells are appended to\n  \
         --no-record        skip the results store\n  \
         --batch N          cells per checkpoint append (shard; default auto)\n  \
         --abort-after N    stop the shard after N new cells (crash injection)"
    );
    exit(2)
}

const FUZZ_FLAGS: &[(&str, bool)] = &[
    ("--seeds", true),
    ("--start", true),
    ("--budget", true),
    ("--mechs", true),
    ("--minimize", false),
    ("--shrink-budget", true),
    ("--threads", true),
    ("--out", true),
    ("--report", true),
];

fn run_fuzz_command(args: &[String]) {
    reject_unknown_flags(args, FUZZ_FLAGS);
    let mut cfg = cdf_sim::FuzzConfig::default();
    if let Some(v) = flag_value(args, "--seeds") {
        cfg.seeds = v.parse().unwrap_or_else(|_| usage());
    }
    if let Some(v) = flag_value(args, "--start") {
        cfg.start_seed = v.parse().unwrap_or_else(|_| usage());
    }
    if let Some(v) = flag_value(args, "--budget") {
        cfg.budget_uops = Some(v.parse().unwrap_or_else(|_| usage()));
    }
    if let Some(v) = flag_value(args, "--shrink-budget") {
        cfg.shrink_budget = v.parse().unwrap_or_else(|_| usage());
    }
    if let Some(v) = flag_value(args, "--threads") {
        cfg.threads = v.parse().unwrap_or_else(|_| usage());
    }
    if let Some(list) = flag_value(args, "--mechs") {
        cfg.mechanisms = list
            .split(',')
            .map(|s| {
                Mechanism::parse(s).unwrap_or_else(|| {
                    eprintln!("unknown mechanism `{s}`");
                    usage()
                })
            })
            .collect();
    }
    cfg.minimize = args.iter().any(|a| a == "--minimize");
    let report = cdf_sim::run_fuzz(&cfg);
    print!("{}", report.render_summary());
    if let Some(path) = flag_value(args, "--report") {
        std::fs::write(path, report.to_json().render_pretty()).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            exit(1)
        });
        eprintln!("wrote {path}");
    }
    if let Some(dir) = flag_value(args, "--out") {
        if report.clean() {
            eprintln!("no failures; nothing written to {dir}");
        } else {
            let paths = report
                .write_corpus(std::path::Path::new(dir))
                .unwrap_or_else(|e| {
                    eprintln!("writing corpus to {dir}: {e}");
                    exit(1)
                });
            for p in paths {
                eprintln!("wrote {}", p.display());
            }
        }
    }
    if !report.clean() {
        exit(4);
    }
}

const EQUIV_FLAGS: &[(&str, bool)] = &[
    ("--seeds", true),
    ("--start", true),
    ("--mechs", true),
    ("--threads", true),
    ("--mem", false),
    ("--boundary", false),
    ("--report", true),
];

fn run_equiv_command(args: &[String]) {
    reject_unknown_flags(args, EQUIV_FLAGS);
    let mut cfg = cdf_sim::EquivConfig::default();
    if args.iter().any(|a| a == "--mem") {
        cfg.axis = cdf_sim::EquivAxis::MemModel;
    }
    if args.iter().any(|a| a == "--boundary") {
        cfg.axis = cdf_sim::EquivAxis::Boundary;
    }
    if let Some(v) = flag_value(args, "--seeds") {
        cfg.seeds = v.parse().unwrap_or_else(|_| usage());
    }
    if let Some(v) = flag_value(args, "--start") {
        cfg.start_seed = v.parse().unwrap_or_else(|_| usage());
    }
    if let Some(v) = flag_value(args, "--threads") {
        cfg.threads = v.parse().unwrap_or_else(|_| usage());
    }
    if let Some(list) = flag_value(args, "--mechs") {
        cfg.mechanisms = list
            .split(',')
            .map(|s| {
                Mechanism::parse(s).unwrap_or_else(|| {
                    eprintln!("unknown mechanism `{s}`");
                    usage()
                })
            })
            .collect();
    }
    let report = cdf_sim::run_equivalence(&cfg);
    println!("{}", report.render_summary());
    if let Some(path) = flag_value(args, "--report") {
        std::fs::write(path, report.to_json().render_pretty()).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            exit(1)
        });
        eprintln!("wrote {path}");
    }
    if !report.clean() {
        exit(5);
    }
}

fn parse_eval(args: &[String]) -> EvalConfig {
    let mut cfg = if args.iter().any(|a| a == "--fast") {
        EvalConfig::quick()
    } else {
        EvalConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        match a.as_str() {
            "--rob" => {
                let rob: usize = val("--rob").parse().unwrap_or_else(|_| usage());
                cfg.core = CoreConfig {
                    mode: cfg.core.mode.clone(),
                    ..cfg.core.clone().with_scaled_window(rob)
                };
            }
            "--warmup" => {
                cfg.warmup_instructions = val("--warmup").parse().unwrap_or_else(|_| usage())
            }
            "--measure" => {
                cfg.measure_instructions = val("--measure").parse().unwrap_or_else(|_| usage())
            }
            "--scale" => cfg.gen.scale = val("--scale").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.gen.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--max-cycles" => {
                cfg.max_cycles = Some(val("--max-cycles").parse().unwrap_or_else(|_| usage()))
            }
            _ => {}
        }
    }
    cfg
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Shared sizing flags accepted by every subcommand that calls
/// [`parse_eval`]: `(name, takes_value)`.
const SIZING_FLAGS: &[(&str, bool)] = &[
    ("--rob", true),
    ("--warmup", true),
    ("--measure", true),
    ("--scale", true),
    ("--seed", true),
    ("--max-cycles", true),
    ("--fast", false),
];

/// Rejects any `--flag` not in `allowed` (a `(name, takes_value)` list) with
/// a hard usage error. A mistyped flag must fail loudly — [`parse_eval`]'s
/// permissive scan would otherwise silently run the default configuration
/// and report numbers the user did not ask for.
fn reject_unknown_flags(args: &[String], allowed: &[(&str, bool)]) {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            continue;
        }
        match allowed.iter().find(|(name, _)| name == a) {
            Some((_, true)) => {
                it.next();
            }
            Some((_, false)) => {}
            None => {
                eprintln!("unknown flag `{a}`");
                usage()
            }
        }
    }
}

/// [`reject_unknown_flags`] for a subcommand that takes the
/// [`SIZING_FLAGS`] besides its own `extra` flags.
fn reject_unknown_sizing_flags(args: &[String], extra: &[(&str, bool)]) {
    let allowed: Vec<(&str, bool)> = SIZING_FLAGS.iter().chain(extra).copied().collect();
    reject_unknown_flags(args, &allowed);
}

/// Parses the mechanism flag shared by `run`, `report`, and `telemetry`.
fn parse_mech(args: &[String]) -> Mechanism {
    match flag_value(args, "--mech") {
        None => Mechanism::Cdf,
        Some(s) => Mechanism::parse(s).unwrap_or_else(|| {
            eprintln!("unknown mechanism `{s}`");
            usage()
        }),
    }
}

/// Runs one workload with telemetry attached, exiting on failure.
fn measure_with_telemetry(
    name: &str,
    mech: Mechanism,
    cfg: &EvalConfig,
) -> (cdf_sim::Measurement, cdf_core::Telemetry) {
    let w = registry::lookup(name, &cfg.gen).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    match try_simulate_workload_telemetry(&w, mech, cfg) {
        Ok((m, Some(tel))) => (m, tel),
        Ok((_, None)) => unreachable!("telemetry was enabled in the config"),
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    }
}

fn run_report_command(args: &[String]) {
    let name = args.first().cloned().unwrap_or_else(|| usage());
    reject_unknown_sizing_flags(&args[1..], &[("--mech", true)]);
    let mech = parse_mech(args);
    let mut cfg = parse_eval(&args[1..]);
    cfg.telemetry = Some(TelemetryConfig::default());
    let (m, tel) = measure_with_telemetry(&name, mech, &cfg);
    print_measurement(&m);
    println!("\ncycle accounting (whole run, warmup + measurement):");
    print!("{}", accounting_table(&tel.accounting));
}

fn run_telemetry_command(args: &[String]) {
    let name = args.first().cloned().unwrap_or_else(|| usage());
    reject_unknown_sizing_flags(
        &args[1..],
        &[
            ("--mech", true),
            ("--interval", true),
            ("--out", true),
            ("--trace-out", true),
        ],
    );
    let mech = parse_mech(args);
    let mut cfg = parse_eval(&args[1..]);
    let mut tcfg = TelemetryConfig::default();
    if let Some(i) = flag_value(args, "--interval") {
        tcfg.interval = i.parse().unwrap_or_else(|_| usage());
    }
    cfg.telemetry = Some(tcfg);
    let (m, tel) = measure_with_telemetry(&name, mech, &cfg);
    print_measurement(&m);
    println!("\ncycle accounting (whole run, warmup + measurement):");
    print!("{}", accounting_table(&tel.accounting));
    println!(
        "\nintervals     : {} retained (+{} evicted into totals), {} cycles/sample",
        tel.intervals.len(),
        tel.intervals.evicted_count(),
        tel.config().interval
    );
    let occ: Vec<String> = tel
        .occupancy
        .named()
        .iter()
        .map(|(n, h)| format!("{n} {:.1}", h.mean()))
        .collect();
    println!("mean occupancy: {}", occ.join(", "));
    println!(
        "events        : {} collected, {} dropped",
        tel.events().len(),
        tel.events_dropped()
    );
    let write = |path: &str, contents: String, what: &str| {
        std::fs::write(path, contents).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            exit(1)
        });
        eprintln!("wrote {what} to {path}");
    };
    if let Some(path) = flag_value(args, "--out") {
        write(path, telemetry_json(&tel).render_pretty(), "telemetry JSON");
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        write(path, trace_events_json(&tel).render(), "trace events");
    }
}

/// `cdf-sim profile <workload>` — run one cell with the host self-profiler
/// attached and report where the simulator's own wall-clock time went.
fn run_profile_command(args: &[String]) {
    let name = args.first().cloned().unwrap_or_else(|| usage());
    reject_unknown_sizing_flags(
        &args[1..],
        &[("--mech", true), ("--out", true), ("--trace-out", true)],
    );
    let mech = parse_mech(args);
    let cfg = parse_eval(&args[1..]);
    let w = registry::lookup(&name, &cfg.gen).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    let (m, p) = try_simulate_workload_profiled(&w, mech, &cfg).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    print_measurement(&m);
    println!();
    print!("{}", profile_table(&p));
    let write = |path: &str, contents: String, what: &str| {
        std::fs::write(path, contents).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            exit(1)
        });
        eprintln!("wrote {what} to {path}");
    };
    if let Some(path) = flag_value(args, "--out") {
        write(
            path,
            profile_json(&p, &name, mech.label()).render_pretty(),
            "profile JSON",
        );
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        write(path, profile_trace_json(&p).render(), "trace events");
    }
}

fn run_explain_command(args: &[String]) {
    reject_unknown_sizing_flags(
        args,
        &[
            ("--workloads", true),
            ("--mechs", true),
            ("--threads", true),
            ("--chains", true),
            ("--out", true),
            ("--trace-out", true),
            ("--record", false),
            ("--store", true),
        ],
    );
    let eval = parse_eval(args);
    let mut cfg = ExplainConfig::full_grid(eval);
    if let Some(list) = flag_value(args, "--workloads") {
        cfg.workloads = list.split(',').map(str::to_string).collect();
    }
    if let Some(list) = flag_value(args, "--mechs") {
        cfg.mechanisms = list
            .split(',')
            .map(|s| {
                Mechanism::parse(s).unwrap_or_else(|| {
                    eprintln!("unknown mechanism `{s}`");
                    usage()
                })
            })
            .collect();
    }
    if let Some(t) = flag_value(args, "--threads") {
        cfg.threads = t.parse().unwrap_or_else(|_| usage());
    }
    if let Some(n) = flag_value(args, "--chains") {
        cfg.chain_limit = n.parse().unwrap_or_else(|_| usage());
    }
    let report = run_explain(&cfg);
    print!("{}", report.render_summary());
    if let Some(path) = flag_value(args, "--out") {
        report
            .write_json(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("writing {path}: {e}");
                exit(1)
            });
        eprintln!("wrote {path}");
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        std::fs::write(path, report.chain_trace_events().render()).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            exit(1)
        });
        eprintln!("wrote chain spans to {path}");
    }
    if args.iter().any(|a| a == "--record") {
        let store = cdf_sim::ResultStore::open(store_path(args));
        let prov = cdf_core::Provenance::capture();
        let recorded = store
            .reserve_run_id(&prov)
            .and_then(|run_id| {
                let records =
                    cdf_sim::records_from_explain(&run_id, &prov, &cfg.eval, &report.cells);
                store.append(&records).map(|()| (run_id, records.len()))
            })
            .unwrap_or_else(|e| {
                eprintln!("recording to {}: {e}", store.path().display());
                exit(1)
            });
        eprintln!(
            "recorded {} cell(s) to {} as run {}",
            recorded.1,
            store.path().display(),
            recorded.0
        );
    }
    if report.counts().1 > 0 {
        exit(3);
    }
}

fn run_sweep_command(args: &[String]) {
    reject_unknown_sizing_flags(
        args,
        &[
            ("--workloads", true),
            ("--mechs", true),
            ("--threads", true),
            ("--telemetry", true),
            ("--explain", false),
            ("--profile", false),
            ("--record", false),
            ("--store", true),
            ("--out", true),
        ],
    );
    let mut eval = parse_eval(args);
    if let Some(i) = flag_value(args, "--telemetry") {
        eval.telemetry = Some(TelemetryConfig {
            interval: i.parse().unwrap_or_else(|_| usage()),
            ..TelemetryConfig::default()
        });
    }
    eval.diagnostics = args.iter().any(|a| a == "--explain");
    let mut cfg = SweepConfig::full_grid(eval);
    cfg.profile = args.iter().any(|a| a == "--profile");
    if let Some(list) = flag_value(args, "--workloads") {
        cfg.workloads = list.split(',').map(str::to_string).collect();
    }
    if let Some(list) = flag_value(args, "--mechs") {
        cfg.mechanisms = list
            .split(',')
            .map(|s| {
                Mechanism::parse(s).unwrap_or_else(|| {
                    eprintln!("unknown mechanism `{s}`");
                    usage()
                })
            })
            .collect();
    }
    if let Some(t) = flag_value(args, "--threads") {
        cfg.threads = t.parse().unwrap_or_else(|_| usage());
    }
    let sweep = run_sweep(&cfg);
    print!("{}", sweep.render_summary());
    if let Some(path) = flag_value(args, "--out") {
        sweep
            .write_json(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("writing {path}: {e}");
                exit(1)
            });
        eprintln!("wrote {path}");
    }
    if args.iter().any(|a| a == "--record") {
        let store = store_path(args);
        let run_id = cdf_sim::record_sweep(&store, &sweep).unwrap_or_else(|e| {
            eprintln!("recording to {}: {e}", store.display());
            exit(1)
        });
        eprintln!(
            "recorded {} cell(s) to {} as run {run_id}",
            sweep.cells.len(),
            store.display()
        );
    }
    // Failed cells are recorded, not fatal — but reflect them in the exit
    // status so scripts notice.
    if sweep.counts().1 > 0 {
        exit(3);
    }
}

fn run_mix_command(args: &[String]) {
    reject_unknown_sizing_flags(
        args,
        &[
            ("--workloads", true),
            ("--mechs", true),
            ("--telemetry", true),
            ("--profile", false),
            ("--out", true),
            ("--record", false),
            ("--store", true),
        ],
    );
    let mut eval = parse_eval(args);
    if let Some(i) = flag_value(args, "--telemetry") {
        eval.telemetry = Some(TelemetryConfig {
            interval: i.parse().unwrap_or_else(|_| usage()),
            ..TelemetryConfig::default()
        });
    }
    let workloads: Vec<String> = flag_value(args, "--workloads")
        .unwrap_or_else(|| {
            eprintln!("mix needs --workloads a,b[,c,...] (one per core)");
            usage()
        })
        .split(',')
        .map(str::to_string)
        .collect();
    if workloads.len() < 2 {
        eprintln!("a mix needs at least two cores (got {})", workloads.len());
        usage();
    }
    let mechs: Vec<Mechanism> = match flag_value(args, "--mechs") {
        Some(list) => list
            .split(',')
            .map(|s| {
                Mechanism::parse(s).unwrap_or_else(|| {
                    eprintln!("unknown mechanism `{s}`");
                    usage()
                })
            })
            .collect(),
        None => vec![Mechanism::Cdf],
    };
    if mechs.len() != 1 && mechs.len() != workloads.len() {
        eprintln!(
            "--mechs needs one mechanism (for every core) or one per core ({} cores, {} mechanisms)",
            workloads.len(),
            mechs.len()
        );
        usage();
    }
    let mut cfg = cdf_sim::MixConfig::new(workloads, mechs);
    if let Some(budget) = eval.max_cycles {
        cfg.cycle_budget = budget;
    }
    cfg.eval = eval;
    cfg.profile = args.iter().any(|a| a == "--profile");
    let report = cdf_sim::run_mix(&cfg).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });

    println!(
        "{} cores, {} cycles, {} MSHR steals, channel utilization [{}]",
        report.cores.len(),
        report.shared.cycles,
        report.shared.total_steals,
        report
            .channel_utilization
            .iter()
            .map(|u| format!("{u:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for c in &report.cores {
        println!(
            "  c{} {:12} {:12} ipc {:.4}  dram {:6}  llc-share {:.3}  rejections {:5}  steals -{}/+{}",
            c.core,
            c.workload,
            c.mechanism.label(),
            c.measurement.ipc,
            c.measurement.dram_lines,
            c.llc_occupancy_share,
            c.share.llc_rejections,
            c.share.mshr_steals_suffered,
            c.share.mshr_steals_caused,
        );
    }
    if let Some(p) = &report.profile {
        println!();
        print!("{}", profile_table(p));
    }

    if let Some(path) = flag_value(args, "--out") {
        let mut body = cdf_sim::mix_json(&report).render();
        body.push('\n');
        std::fs::write(path, body).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            exit(1)
        });
        eprintln!("wrote {path}");
    }
    if args.iter().any(|a| a == "--record") {
        let store = cdf_sim::ResultStore::open(store_path(args));
        let run_id = store
            .reserve_run_id(&report.provenance)
            .unwrap_or_else(|e| {
                eprintln!("recording to {}: {e}", store.path().display());
                exit(1)
            });
        let records = cdf_sim::records_from_mix(&run_id, &report.provenance, &report);
        store.append(&records).unwrap_or_else(|e| {
            eprintln!("recording to {}: {e}", store.path().display());
            exit(1)
        });
        eprintln!(
            "recorded {} core(s) to {} as run {run_id}",
            records.len(),
            store.path().display()
        );
    }
}

/// The `--store` flag, defaulting to the standard store location.
fn store_path(args: &[String]) -> std::path::PathBuf {
    flag_value(args, "--store")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(cdf_sim::DEFAULT_STORE_PATH))
}

fn run_record_command(args: &[String]) {
    reject_unknown_sizing_flags(
        args,
        &[
            ("--workloads", true),
            ("--mechs", true),
            ("--threads", true),
            ("--filter", true),
            ("--store", true),
            ("--telemetry", true),
            ("--explain", false),
            ("--profile", false),
        ],
    );
    let mut eval = parse_eval(args);
    if let Some(i) = flag_value(args, "--telemetry") {
        eval.telemetry = Some(TelemetryConfig {
            interval: i.parse().unwrap_or_else(|_| usage()),
            ..TelemetryConfig::default()
        });
    }
    eval.diagnostics = args.iter().any(|a| a == "--explain");
    let mut cfg = cdf_sim::RecordConfig::full_grid(eval);
    cfg.profile = args.iter().any(|a| a == "--profile");
    if let Some(list) = flag_value(args, "--workloads") {
        cfg.workloads = list.split(',').map(str::to_string).collect();
    }
    if let Some(list) = flag_value(args, "--mechs") {
        cfg.mechanisms = list
            .split(',')
            .map(|s| {
                Mechanism::parse(s).unwrap_or_else(|| {
                    eprintln!("unknown mechanism `{s}`");
                    usage()
                })
            })
            .collect();
    }
    if let Some(t) = flag_value(args, "--threads") {
        cfg.threads = t.parse().unwrap_or_else(|_| usage());
    }
    cfg.filter = flag_value(args, "--filter").map(str::to_string);
    cfg.store_path = store_path(args);
    let run = cdf_sim::run_record(&cfg).unwrap_or_else(|e| {
        eprintln!("recording to {}: {e}", cfg.store_path.display());
        exit(1)
    });
    println!(
        "recorded {} cell(s) to {} as run {} ({} failed)",
        run.records.len(),
        cfg.store_path.display(),
        run.run_id,
        run.failed
    );
    if run.records.is_empty() {
        eprintln!("the filter matched no cells");
        exit(2);
    }
    if run.failed > 0 {
        exit(3);
    }
}

/// Positional (non-`--flag`) arguments, given the flag table in effect.
fn positionals(args: &[String], flags: &[(&str, bool)]) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            if let Some((_, true)) = flags.iter().find(|(name, _)| name == a) {
                it.next();
            }
            continue;
        }
        out.push(a.clone());
    }
    out
}

const COMPARE_FLAGS: &[(&str, bool)] = &[("--store", true), ("--tolerance", true), ("--out", true)];

/// `cdf-sim compare` front end. One positional: the legacy per-workload
/// mechanism table. Two positionals: the store-backed cross-run diff.
fn run_compare_command(args: &[String]) {
    let flags: Vec<(&str, bool)> = SIZING_FLAGS
        .iter()
        .copied()
        .chain(COMPARE_FLAGS.iter().copied())
        .collect();
    match positionals(args, &flags).as_slice() {
        [workload] => run_compare_workload(workload, args),
        [ref_a, ref_b] => run_compare_store(ref_a, ref_b, args),
        _ => usage(),
    }
}

/// Legacy form: base/cdf/pre mechanism table for one workload.
fn run_compare_workload(name: &str, args: &[String]) {
    reject_unknown_flags(args, SIZING_FLAGS);
    let cfg = parse_eval(args);
    let base = cdf_sim::try_simulate(name, Mechanism::Baseline, &cfg).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    let cdf = simulate(name, Mechanism::Cdf, &cfg);
    let pre = simulate(name, Mechanism::Pre, &cfg);
    println!(
        "{:10} {:>8} {:>8} {:>8} {:>12} {:>12}",
        "mech", "IPC", "speedup", "MLP", "DRAM lines", "energy (uJ)"
    );
    for m in [&base, &cdf, &pre] {
        println!(
            "{:10} {:>8.3} {:>7.1}% {:>8.2} {:>12} {:>12.1}",
            m.mechanism,
            m.ipc,
            (m.ipc / base.ipc - 1.0) * 100.0,
            m.mlp,
            m.dram_lines,
            m.energy_nj / 1000.0
        );
    }
}

/// Store form: join two recorded runs and classify every cell.
fn run_compare_store(ref_a: &str, ref_b: &str, args: &[String]) {
    reject_unknown_flags(args, COMPARE_FLAGS);
    let store = cdf_sim::ResultStore::open(store_path(args));
    let records = store.load().unwrap_or_else(|e| {
        eprintln!("loading {}: {e}", store.path().display());
        exit(1)
    });
    let resolve = |wanted: &str| {
        cdf_sim::resolve_ref(&records, wanted).unwrap_or_else(|e| {
            eprintln!("resolving {wanted:?} in {}: {e}", store.path().display());
            exit(1)
        })
    };
    let run_a = resolve(ref_a);
    let run_b = resolve(ref_b);
    let mut cfg = cdf_sim::CompareConfig::default();
    if let Some(t) = flag_value(args, "--tolerance") {
        cfg.wall_tolerance = t.parse().unwrap_or_else(|_| usage());
    }
    let report = cdf_sim::compare_runs(
        (ref_a, &cdf_sim::records_for_run(&records, &run_a)),
        (ref_b, &cdf_sim::records_for_run(&records, &run_b)),
        &cfg,
    );
    print!("{}", report.render_summary());
    if let Some(path) = flag_value(args, "--out") {
        std::fs::write(path, report.to_json().render_pretty()).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            exit(1)
        });
        eprintln!("wrote {path}");
    }
    // Exit 4 on regression, matching the fuzzer's divergence exit.
    if report.has_regressions() {
        exit(4);
    }
}

// ---------------------------------------------------------------------------
// campaign subcommands
// ---------------------------------------------------------------------------

/// Exit codes: 2 spec/journal/state errors, 3 failed cells, 4 divergence.
fn run_campaign_command(args: &[String]) {
    match args.first().map(|s| s.as_str()) {
        Some("run") => campaign_run(&args[1..]),
        Some("resume") => campaign_resume(&args[1..]),
        Some("status") => campaign_status_cmd(&args[1..]),
        Some("shard") => campaign_shard(&args[1..]),
        _ => usage(),
    }
}

fn campaign_dir(args: &[String]) -> std::path::PathBuf {
    flag_value(args, "--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| usage())
}

fn campaign_load(args: &[String]) -> cdf_sim::Campaign {
    cdf_sim::load_campaign(&campaign_dir(args)).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

fn campaign_threads(args: &[String]) -> usize {
    flag_value(args, "--threads")
        .map(|t| t.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0)
}

fn campaign_run(args: &[String]) {
    reject_unknown_flags(
        args,
        &[
            ("--spec", true),
            ("--dir", true),
            ("--shards", true),
            ("--threads", true),
            ("--store", true),
            ("--no-record", false),
        ],
    );
    let spec_path = flag_value(args, "--spec").unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(spec_path).unwrap_or_else(|e| {
        eprintln!("reading {spec_path}: {e}");
        exit(2)
    });
    let spec = cdf_sim::CampaignSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("{spec_path}: {e}");
        exit(2)
    });
    let dir = flag_value(args, "--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(".cdf-campaigns").join(&spec.name));
    let shards: u64 = flag_value(args, "--shards")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(1);
    let c = cdf_sim::init_campaign(&dir, spec, shards, cdf_core::Provenance::capture())
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
    eprintln!(
        "campaign {}: {} cells across {} shard(s) in {}",
        c.spec.name,
        c.spec.cell_count(),
        c.shards,
        c.dir.display()
    );
    campaign_execute(&c, args);
}

fn campaign_resume(args: &[String]) {
    reject_unknown_flags(
        args,
        &[
            ("--dir", true),
            ("--threads", true),
            ("--store", true),
            ("--no-record", false),
        ],
    );
    campaign_execute(&campaign_load(args), args);
}

/// Runs every shard to completion (in-process for one shard, one spawned
/// `campaign shard` process each otherwise), then finalizes: report,
/// store append, exit status.
fn campaign_execute(c: &cdf_sim::Campaign, args: &[String]) {
    let threads = campaign_threads(args);
    if c.shards == 1 {
        cdf_sim::run_shard(
            c,
            0,
            &cdf_sim::ShardOptions {
                threads,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
    } else {
        let exe = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("resolving own executable: {e}");
            exit(2)
        });
        let codes = cdf_sim::campaign::spawn_shards(c, &exe, threads).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
        for (shard, code) in codes {
            if code != Some(0) {
                eprintln!(
                    "shard {shard} exited with {} — resume with `cdf-sim campaign resume --dir {}`",
                    code.map_or("signal".to_string(), |c| c.to_string()),
                    c.dir.display()
                );
            }
        }
    }
    let record = !args.iter().any(|a| a == "--no-record");
    let store = store_path(args);
    let (status, recorded) = cdf_sim::finalize_campaign(c, record.then_some(store.as_path()))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
    print!("{}", status.render_text());
    if let Some(run_id) = &recorded {
        eprintln!(
            "recorded {} cell(s) to {} as run {run_id}",
            status.done,
            store.display()
        );
    }
    eprintln!("report: {}", c.report_path().display());
    if status.failed > 0 {
        exit(3);
    }
    if status.divergent > 0 {
        exit(4);
    }
}

fn campaign_status_cmd(args: &[String]) {
    reject_unknown_flags(args, &[("--dir", true)]);
    let c = campaign_load(args);
    let status = cdf_sim::campaign_status(&c).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    });
    print!("{}", status.render_text());
}

fn campaign_shard(args: &[String]) {
    reject_unknown_flags(
        args,
        &[
            ("--dir", true),
            ("--shard", true),
            ("--threads", true),
            ("--batch", true),
            ("--abort-after", true),
        ],
    );
    let c = campaign_load(args);
    let shard: u64 = flag_value(args, "--shard")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or_else(|| usage());
    let opts = cdf_sim::ShardOptions {
        threads: campaign_threads(args),
        batch: flag_value(args, "--batch")
            .map(|b| b.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(0),
        abort_after: flag_value(args, "--abort-after")
            .map(|n| n.parse().unwrap_or_else(|_| usage())),
    };
    let run = cdf_sim::run_shard(&c, shard, &opts).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    });
    eprintln!(
        "shard {shard}: {} cell(s) completed, {} remaining",
        run.completed, run.remaining
    );
}

fn print_measurement(m: &cdf_sim::Measurement) {
    println!("workload      : {}", m.workload);
    println!("mechanism     : {}", m.mechanism);
    println!("instructions  : {}", m.instructions);
    println!("cycles        : {}", m.cycles);
    println!("IPC           : {:.4}", m.ipc);
    println!("MLP           : {:.2}", m.mlp);
    println!("branch MPKI   : {:.2}", m.branch_mpki);
    println!("LLC MPKI      : {:.2}", m.llc_mpki);
    println!("DRAM lines    : {}", m.dram_lines);
    println!("energy (uJ)   : {:.2}", m.energy_nj / 1000.0);
    println!("stall cycles  : {}", m.full_window_stall_cycles);
    if m.critical_uops > 0 {
        println!("critical uops : {}", m.critical_uops);
        println!("CDF cycles    : {}", m.cdf_mode_cycles);
        println!("dep violations: {}", m.dependence_violations);
    }
    if m.runahead_uops > 0 {
        println!("runahead uops : {}", m.runahead_uops);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("list") => {
            for name in registry::NAMES {
                let w = registry::by_name(name, &cdf_workloads::GenConfig::test()).expect("known");
                println!(
                    "{name:14} stands in for {:28} — {}",
                    w.stands_in_for, w.description
                );
            }
        }
        Some("table1") => {
            reject_unknown_flags(&args[1..], SIZING_FLAGS);
            print!("{}", table1_text(&parse_eval(&args[1..]).core));
        }
        Some("run") => {
            let name = args.get(1).cloned().unwrap_or_else(|| usage());
            reject_unknown_sizing_flags(&args[2..], &[("--mech", true)]);
            let mech = parse_mech(&args);
            let cfg = parse_eval(&args[2..]);
            match cdf_sim::try_simulate(&name, mech, &cfg) {
                Ok(m) => print_measurement(&m),
                Err(e) => {
                    eprintln!("{e}");
                    exit(1)
                }
            }
        }
        Some("compare") => run_compare_command(&args[1..]),
        Some("record") => run_record_command(&args[1..]),
        Some("report") => run_report_command(&args[1..]),
        Some("explain") => run_explain_command(&args[1..]),
        Some("telemetry") => run_telemetry_command(&args[1..]),
        Some("profile") => run_profile_command(&args[1..]),
        Some("sweep") => run_sweep_command(&args[1..]),
        Some("mix") => run_mix_command(&args[1..]),
        Some("fuzz") => run_fuzz_command(&args[1..]),
        Some("equiv") => run_equiv_command(&args[1..]),
        Some("campaign") => run_campaign_command(&args[1..]),
        _ => usage(),
    }
}
