//! `cdf-sim` — command-line front end for the simulator.
//!
//! Every subcommand and flag is declared once, in [`CDF_SIM`]; `cdf-sim`
//! with no arguments prints the usage generated from it.

use cdf_core::{CoreConfig, Provenance, Telemetry, TelemetryConfig};
use cdf_sim::cli::{or_exit, Args, Cli};
use cdf_sim::{
    accounting_table, experiments, explain, profile_table, run_sweep, table1_text, EvalConfig,
    Mechanism, ResultRecord, ResultStore, SweepConfig,
};
use cdf_workloads::registry;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::exit;

/// Counting allocator so host profiles ([`cdf_sim::prof`]) attribute
/// allocation counts and bytes to pipeline stages. Zero overhead beyond two
/// relaxed atomic increments per allocation; behaves identically to the
/// system allocator it wraps.
#[global_allocator]
static ALLOC: cdf_core::CountingAlloc = cdf_core::CountingAlloc;

const SIZING: &str = "\
sizing options:
  --rob N            scale the window to N ROB entries
  --warmup N         warmup instructions
  --measure N        measured instructions
  --scale F          workload footprint scale
  --seed N           workload seed
  --max-cycles N     per-run watchdog cycle budget (default: off)
  --fast             quick sizing preset";

const MECH: &str = "\
mechanism option:
  --mech M           base|cdf|pre|classify|cdf-nobr|cdf-static|cdf-nomask
                     (default cdf)";

const GRID: &str = "\
grid options:
  --workloads a,b,c  comma-separated workloads (default: full registry)
  --mechs a,b,c      comma-separated mechanisms (default: all)
  --threads N        worker threads (default: all hardware threads)";

const STORE: &str = "\
store options:
  --record           also append cdf-result/1 records to the results store
  --store FILE       results store path (default .cdf-results/results.jsonl)";

const OBSERVE: &str = "\
observer options (what they collect is embedded in each document, and each
store row keeps a telemetry summary; record --profile also appends one
host-throughput \"profile\" row per cell, which compare classifies tolerantly):
  --telemetry N      collect telemetry with an N-cycle sample interval
  --profile          attach the host self-profiler (cdf-profile/1)";

const DIAGNOSE: &str = "\
diagnostics option:
  --explain          collect criticality-provenance diagnostics";

const RUN: &str = "\
run options (the measurement, then one view per observer):
  --out FILE         write the one-cell cdf-sweep/1 JSON document to FILE
  --trace-out FILE   write the cell's Chrome/Perfetto trace to FILE";

const EXPLAIN: &str = "\
explain options:
  --chains N         chain records embedded per cell (default 32)
  --out FILE         write the cdf-explain/1 JSON document to FILE
  --trace-out FILE   write the Chrome/Perfetto trace (chain spans) to FILE";

const SWEEP: &str = "\
sweep options:
  --out FILE         write the stamped JSON records to FILE";

const RECORD: &str = "\
record options:
  --filter SUBSTR    only cells whose workload/mechanism label contains SUBSTR
  --store FILE       results store to append to";

const COMPARE: &str = "\
compare options (refs: latest, latest~N, a run id, or a commit prefix):
  --store FILE       results store to read
  --tolerance F      relative tolerance for wall-clock metrics (default 0.25)
  --out FILE         write the cdf-compare/1 JSON report to FILE";

const MIX: &str = "\
mix options (--profile profiles the whole mix, embedded and printed):
  --workloads a,b    one workload per core, in core order (2+ cores; required)
  --mechs a,b        one mechanism per core, or one for all (default cdf)
  --out FILE         write the cdf-mix/1 JSON document to FILE";

const FUZZ: &str = "\
fuzz options:
  --seeds N          random programs to run (default 100)
  --start N          first seed (default 0)
  --budget M         cap on total dynamic uops across seeds (default: off)
  --mechs a,b,c      mechanisms run in lockstep (default base,cdf,pre)
  --minimize         delta-debug each failure to a minimal reproducer
  --shrink-budget N  shrinker predicate evaluations per failure (default 300)
  --threads N        worker threads (default: all hardware threads)
  --out DIR          write each failure as a cdf-fuzz-case/1 JSON file
  --report FILE      write the cdf-fuzz/1 JSON report to FILE";

const EQUIV: &str = "\
equiv options:
  --seeds N          fuzz programs to run under both schedulers (default 500)
  --start N          first seed (default 1)
  --mechs a,b,c      mechanisms (default: all seven)
  --threads N        worker threads (default: all hardware threads)
  --report FILE      write the cdf-equiv/1 JSON report to FILE";

const CAMPAIGN_RUN: &str = "\
campaign run options (initialize a campaign and run it to completion):
  --spec FILE        TOML/JSON experiment spec (required)
  --dir DIR          campaign directory (default .cdf-campaigns/<name>)
  --shards N         worker processes (default 1)";

const CAMPAIGN_DIR: &str = "\
campaign directory (resume restarts it where it stopped, status aggregates
its journals mid-run, shard runs one of its shards as `campaign run` does):
  --dir DIR          an initialized campaign directory (required)";

const CAMPAIGN: &str = "\
campaign options:
  --threads N        total worker threads, split across shards
  --store FILE       results store sweep/explain cells are appended to
  --no-record        skip the results store";

const SHARD: &str = "\
campaign shard options:
  --shard I          the shard to run (required)
  --threads N        worker threads";

/// Every `cdf-sim` command: the one declaration its parser and its usage
/// read.
static CDF_SIM: Cli = Cli {
    program: "cdf-sim",
    commands: &[
        ("list", &[]),
        ("table1", &[SIZING]),
        ("figure <name>", &[SIZING]),
        ("run <workload>", &[MECH, OBSERVE, DIAGNOSE, RUN, SIZING]),
        ("explain", &[GRID, EXPLAIN, STORE, SIZING]),
        ("compare <workload>", &[SIZING]),
        ("compare <refA> <refB>", &[COMPARE]),
        ("record", &[GRID, OBSERVE, DIAGNOSE, RECORD, SIZING]),
        ("sweep", &[GRID, OBSERVE, DIAGNOSE, SWEEP, STORE, SIZING]),
        ("mix", &[MIX, OBSERVE, STORE, SIZING]),
        ("fuzz", &[FUZZ]),
        ("equiv", &[EQUIV]),
        ("campaign run", &[CAMPAIGN_RUN, CAMPAIGN]),
        ("campaign resume", &[CAMPAIGN_DIR, CAMPAIGN]),
        ("campaign status", &[CAMPAIGN_DIR]),
        ("campaign shard", &[CAMPAIGN_DIR, SHARD]),
    ],
};

fn run_fuzz_command(a: &Args) {
    let mut cfg = cdf_sim::FuzzConfig::default();
    cfg.seeds = a.get("--seeds").unwrap_or(cfg.seeds);
    cfg.start_seed = a.get("--start").unwrap_or(cfg.start_seed);
    cfg.budget_uops = a.get("--budget").or(cfg.budget_uops);
    cfg.shrink_budget = a.get("--shrink-budget").unwrap_or(cfg.shrink_budget);
    cfg.threads = a.get("--threads").unwrap_or(cfg.threads);
    cfg.mechanisms = mechs(a).unwrap_or(cfg.mechanisms);
    cfg.minimize = a.has("--minimize");
    let report = cdf_sim::run_fuzz(&cfg);
    print!("{}", report.render_summary());
    if let Some(path) = a.value("--report") {
        write_out(path, report.to_json().render_pretty(), "");
    }
    if let Some(dir) = a.value("--out") {
        if report.clean() {
            eprintln!("no failures; nothing written to {dir}");
        } else {
            let paths = or_exit(
                report
                    .write_corpus(std::path::Path::new(dir))
                    .map_err(|e| format!("writing corpus to {dir}: {e}")),
            );
            for p in paths {
                eprintln!("wrote {}", p.display());
            }
        }
    }
    if !report.clean() {
        exit(4);
    }
}

fn run_equiv_command(a: &Args) {
    let mut cfg = cdf_sim::EquivConfig::default();
    cfg.seeds = a.get("--seeds").unwrap_or(cfg.seeds);
    cfg.start_seed = a.get("--start").unwrap_or(cfg.start_seed);
    cfg.threads = a.get("--threads").unwrap_or(cfg.threads);
    cfg.mechanisms = mechs(a).unwrap_or(cfg.mechanisms);
    let report = cdf_sim::run_equivalence(&cfg);
    println!("{}", report.render_summary());
    if let Some(path) = a.value("--report") {
        write_out(path, report.to_json().render_pretty(), "");
    }
    if !report.clean() {
        exit(5);
    }
}

/// The evaluation sizing the [`SIZING`] flags ask for.
fn parse_eval(a: &Args) -> EvalConfig {
    let mut cfg = if a.has("--fast") {
        EvalConfig::quick()
    } else {
        EvalConfig::default()
    };
    if let Some(rob) = a.get("--rob") {
        cfg.core = CoreConfig {
            mode: cfg.core.mode.clone(),
            ..cfg.core.clone().with_scaled_window(rob)
        };
    }
    cfg.warmup_instructions = a.get("--warmup").unwrap_or(cfg.warmup_instructions);
    cfg.measure_instructions = a.get("--measure").unwrap_or(cfg.measure_instructions);
    cfg.gen.scale = a.get("--scale").unwrap_or(cfg.gen.scale);
    cfg.gen.seed = a.get("--seed").unwrap_or(cfg.gen.seed);
    cfg.max_cycles = a.get("--max-cycles").or(cfg.max_cycles);
    cfg
}

fn parse_mechanism(a: &Args, s: &str) -> Mechanism {
    Mechanism::parse(s).unwrap_or_else(|| a.fail(format!("unknown mechanism `{s}`")))
}

/// The `--mechs a,b,c` list, if given.
fn mechs(a: &Args) -> Option<Vec<Mechanism>> {
    a.value("--mechs")
        .map(|list| list.split(',').map(|m| parse_mechanism(a, m)).collect())
}

/// The `--telemetry N` flag: telemetry with an N-cycle sample interval
/// (N ≥ 1).
fn telemetry_flag(a: &Args) -> Option<TelemetryConfig> {
    a.get("--telemetry")
        .map(|interval: NonZeroU64| TelemetryConfig {
            interval: interval.get(),
            ..TelemetryConfig::default()
        })
}

/// Writes an output file and says so on stderr (`wrote [what to ]path`),
/// or exits 1 naming the path.
fn write_out(path: &str, contents: String, what: &str) {
    or_exit(std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}")));
    if what.is_empty() {
        eprintln!("wrote {path}");
    } else {
        eprintln!("wrote {what} to {path}");
    }
}

/// The `--store` flag, defaulting to the standard store location.
fn store_path(a: &Args) -> PathBuf {
    PathBuf::from(a.value("--store").unwrap_or(cdf_sim::DEFAULT_STORE_PATH))
}

/// Appends one run built by `build` under `prov` to the `--store` store,
/// or exits 1 naming it. Returns the run id and the records.
fn append_run(
    a: &Args,
    prov: &Provenance,
    build: impl FnOnce(&str, &Provenance) -> Vec<ResultRecord>,
) -> (String, Vec<ResultRecord>) {
    let path = store_path(a);
    or_exit(
        ResultStore::open(&path)
            .append_run(prov, |id| build(id, prov))
            .map_err(|e| format!("recording to {}: {e}", path.display())),
    )
}

/// With `--record`, [`append_run`]s under the provenance `prov` reads
/// and says on stderr that it recorded `n` `what`.
fn record_run<'p>(
    a: &Args,
    prov: impl FnOnce() -> &'p Provenance,
    (n, what): (usize, &str),
    build: impl FnOnce(&str, &Provenance) -> Vec<ResultRecord>,
) {
    if a.has("--record") {
        let (run_id, _) = append_run(a, prov(), build);
        let path = store_path(a);
        eprintln!("recorded {n} {what} to {} as run {run_id}", path.display());
    }
}

/// The grid the [`GRID`] flags ask for, at sizing `eval`.
fn grid(a: &Args, eval: EvalConfig) -> SweepConfig {
    let mut cfg = SweepConfig::full_grid(eval);
    cfg.workloads = a.list("--workloads").unwrap_or(cfg.workloads);
    cfg.mechanisms = mechs(a).unwrap_or(cfg.mechanisms);
    cfg.threads = a.get("--threads").unwrap_or(cfg.threads);
    cfg
}

/// `run`, `sweep` and `record`: `cfg` with the observers `--telemetry`,
/// `--explain` and `--profile` attach.
fn observed(a: &Args, mut cfg: SweepConfig) -> SweepConfig {
    cfg.eval.telemetry = telemetry_flag(a);
    cfg.eval.diagnostics = a.has("--explain");
    cfg.profile = a.has("--profile");
    cfg
}

/// `run`: one cell of `<workload>` on `--mech`, run as a one-cell sweep
/// with the observers the flags attach. Prints the measurement, then one
/// view per observer; a failed cell exits 1 with its error.
fn run_run_command(a: &Args) {
    let mech = a
        .value("--mech")
        .map_or(Mechanism::Cdf, |m| parse_mechanism(a, m));
    let cell = SweepConfig::new([a.positional(0)], vec![mech], parse_eval(a));
    let sweep = run_sweep(&observed(a, cell));
    let c = &sweep.cells[0];
    print_measurement(or_exit(c.result.as_ref()));
    if let Some(tel) = &c.telemetry {
        print_telemetry(tel);
    }
    if c.diagnostics.is_some() {
        println!();
        print!("{}", explain::render_summary(&sweep));
    }
    if let Some(p) = &c.profile {
        println!();
        print!("{}", profile_table(p));
    }
    if let Some(path) = a.value("--out") {
        write_out(path, sweep.to_json().render_pretty(), "");
    }
    if let Some(path) = a.value("--trace-out") {
        write_out(path, sweep.trace_json().render(), "trace events");
    }
}

/// `figure`: one paper figure, or `all` of them in paper order, each
/// printed as its driver renders it; a failed cell exits 1 with its error.
fn run_figure_command(a: &Args) {
    let name = a.positional(0);
    let figures: Vec<_> = experiments::FIGURES
        .iter()
        .filter(|(n, _)| name == "all" || *n == name)
        .collect();
    if figures.is_empty() {
        let known: Vec<&str> = experiments::FIGURES.iter().map(|(n, _)| *n).collect();
        a.fail(format!(
            "unknown figure `{name}` (known: {}, all)",
            known.join(", ")
        ));
    }
    let eval = parse_eval(a);
    for (name, driver) in figures {
        println!(
            "{}",
            or_exit(driver(&eval).map_err(|e| format!("figure {name}: {e}")))
        );
    }
}

/// The telemetry view of `run`: the cycle accounting, then the interval,
/// occupancy and event-sink lines.
fn print_telemetry(tel: &Telemetry) {
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
}

/// `explain`: the grid with diagnostics attached, rendered as the
/// provenance table, document and trace. Its cells are clock-free
/// (`wall_ms` 0), so a repeat run reproduces its store rows byte for byte.
fn run_explain_command(a: &Args) {
    let mut eval = parse_eval(a);
    eval.diagnostics = true;
    let chains = a.get("--chains").unwrap_or(explain::DEFAULT_CHAIN_LIMIT);
    let mut sweep = run_sweep(&grid(a, eval));
    sweep.cells.iter_mut().for_each(|c| c.wall_ms = 0);
    print!("{}", explain::render_summary(&sweep));
    if let Some(path) = a.value("--out") {
        write_out(path, explain::to_json(&sweep, chains).render_pretty(), "");
    }
    if let Some(path) = a.value("--trace-out") {
        write_out(path, sweep.trace_json().render(), "trace events");
    }
    let n = (sweep.cells.len(), "cell(s)");
    record_run(
        a,
        || sweep.provenance(),
        n,
        |id, prov| cdf_sim::records_from_cells(id, prov, &sweep.config.eval, &sweep.cells),
    );
    if sweep.counts().1 > 0 {
        exit(3);
    }
}

fn run_sweep_command(a: &Args) {
    let sweep = run_sweep(&observed(a, grid(a, parse_eval(a))));
    print!("{}", sweep.render_summary());
    if let Some(path) = a.value("--out") {
        write_out(path, sweep.to_json().render_pretty(), "");
    }
    let n = (sweep.cells.len(), "cell(s)");
    record_run(
        a,
        || sweep.provenance(),
        n,
        |id, prov| cdf_sim::records_from_cells(id, prov, &sweep.config.eval, &sweep.cells),
    );
    // Failed cells are recorded, not fatal — but reflect them in the exit
    // status so scripts notice.
    if sweep.counts().1 > 0 {
        exit(3);
    }
}

fn run_mix_command(a: &Args) {
    let mut eval = parse_eval(a);
    eval.telemetry = telemetry_flag(a);
    let workloads = a
        .list("--workloads")
        .unwrap_or_else(|| a.fail("mix needs --workloads a,b[,c,...] (one per core)"));
    if workloads.len() < 2 {
        a.fail(format!(
            "a mix needs at least two cores (got {})",
            workloads.len()
        ));
    }
    let mechs = mechs(a).unwrap_or_else(|| vec![Mechanism::Cdf]);
    if mechs.len() != 1 && mechs.len() != workloads.len() {
        a.fail(format!(
            "--mechs needs one mechanism (for every core) or one per core ({} cores, {} mechanisms)",
            workloads.len(),
            mechs.len()
        ));
    }
    let mut cfg = cdf_sim::MixConfig::new(workloads, mechs);
    cfg.cycle_budget = eval.max_cycles.unwrap_or(cfg.cycle_budget);
    cfg.eval = eval;
    cfg.profile = a.has("--profile");
    let report = or_exit(cdf_sim::run_mix(&cfg));

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

    if let Some(path) = a.value("--out") {
        write_out(path, cdf_sim::mix_json(&report).render() + "\n", "");
    }
    // One record per core, plus the profile row of a profiled mix.
    let n = report.cores.len() + usize::from(report.profile.is_some());
    record_run(
        a,
        || report.provenance(),
        (n, "core(s)"),
        |id, prov| cdf_sim::records_from_mix(id, prov, &report),
    );
}

/// `record`: the grid, `--filter`ed, appended to the store as one run.
fn run_record_command(a: &Args) {
    let mut cfg = observed(a, grid(a, parse_eval(a)));
    cfg.filter = a.get("--filter");
    let sweep = run_sweep(&cfg);
    if sweep.cells.is_empty() {
        eprintln!("the filter matched no cells");
        exit(2);
    }
    let (run_id, _) = append_run(a, sweep.provenance(), |id, prov| {
        cdf_sim::records_from_cells(id, prov, &sweep.config.eval, &sweep.cells)
    });
    let failed = sweep.counts().1;
    println!(
        "recorded {} cell(s) to {} as run {run_id} ({failed} failed)",
        sweep.cells.len(),
        store_path(a).display(),
    );
    if failed > 0 {
        exit(3);
    }
}

/// Workload form of `compare`: base/cdf/pre mechanism table for one
/// workload, run as a one-workload sweep; a failed cell exits 1 with its
/// error.
fn run_compare_workload(a: &Args) {
    let mechs = vec![Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre];
    let sweep = run_sweep(&SweepConfig::new([a.positional(0)], mechs, parse_eval(a)));
    let ms: Vec<_> = sweep
        .cells
        .iter()
        .map(|c| or_exit(c.result.as_ref()))
        .collect();
    let base = ms[0];
    println!(
        "{:10} {:>8} {:>8} {:>8} {:>12} {:>12}",
        "mech", "IPC", "speedup", "MLP", "DRAM lines", "energy (uJ)"
    );
    for m in ms {
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

/// Store form of `compare`: join two recorded runs and classify every
/// cell.
fn run_compare_store(a: &Args) {
    let (ref_a, ref_b) = (a.positional(0), a.positional(1));
    let store = ResultStore::open(store_path(a));
    let records = or_exit(
        store
            .load()
            .map_err(|e| format!("loading {}: {e}", store.path().display())),
    );
    let resolve = |wanted: &str| {
        or_exit(
            cdf_sim::resolve_ref(&records, wanted)
                .map_err(|e| format!("resolving {wanted:?} in {}: {e}", store.path().display())),
        )
    };
    let run_a = resolve(ref_a);
    let run_b = resolve(ref_b);
    let mut cfg = cdf_sim::CompareConfig::default();
    cfg.wall_tolerance = a.get("--tolerance").unwrap_or(cfg.wall_tolerance);
    let report = cdf_sim::compare_runs(
        (ref_a, &cdf_sim::records_for_run(&records, &run_a)),
        (ref_b, &cdf_sim::records_for_run(&records, &run_b)),
        &cfg,
    );
    print!("{}", report.render_summary());
    if let Some(path) = a.value("--out") {
        write_out(path, report.to_json().render_pretty(), "");
    }
    // Exit 4 on regression, matching the fuzzer's divergence exit.
    if report.has_regressions() {
        exit(4);
    }
}

// ---------------------------------------------------------------------------
// campaign subcommands
// Exit codes: 2 spec/journal/state errors, 3 failed cells, 4 divergence.
// ---------------------------------------------------------------------------

/// A campaign error: exit 2.
fn or_exit2<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

fn campaign_load(a: &Args) -> cdf_sim::Campaign {
    or_exit2(cdf_sim::load_campaign(&a.require::<PathBuf>("--dir")))
}

fn campaign_run(a: &Args) {
    let spec_path: String = a.require("--spec");
    let text = or_exit2(
        std::fs::read_to_string(&spec_path).map_err(|e| format!("reading {spec_path}: {e}")),
    );
    let spec =
        or_exit2(cdf_sim::CampaignSpec::parse(&text).map_err(|e| format!("{spec_path}: {e}")));
    let dir = a
        .get("--dir")
        .unwrap_or_else(|| PathBuf::from(".cdf-campaigns").join(&spec.name));
    let shards = a.get("--shards").unwrap_or(1);
    let prov = Provenance::capture();
    let c = or_exit2(cdf_sim::init_campaign(&dir, spec, shards, prov));
    eprintln!(
        "campaign {}: {} cells across {} shard(s) in {}",
        c.spec.name,
        c.spec.cell_count(),
        c.shards,
        c.dir.display()
    );
    campaign_execute(&c, a);
}

/// Runs every shard to completion (in-process for one shard, one spawned
/// `campaign shard` process each otherwise), then finalizes: report,
/// store append, exit status.
fn campaign_execute(c: &cdf_sim::Campaign, a: &Args) {
    let threads = a.get("--threads").unwrap_or(0);
    if c.shards == 1 {
        let opts = cdf_sim::ShardOptions {
            threads,
            ..Default::default()
        };
        or_exit2(cdf_sim::run_shard(c, 0, &opts));
    } else {
        let exe =
            or_exit2(std::env::current_exe().map_err(|e| format!("resolving own executable: {e}")));
        let codes = or_exit2(cdf_sim::campaign::spawn_shards(c, &exe, threads));
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
    let store = store_path(a);
    let record = (!a.has("--no-record")).then_some(store.as_path());
    let (status, recorded) = or_exit2(cdf_sim::finalize_campaign(c, record));
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

fn campaign_shard(a: &Args) {
    let shard: u64 = a.require("--shard");
    let c = campaign_load(a);
    let opts = cdf_sim::ShardOptions {
        threads: a.get("--threads").unwrap_or(0),
        ..Default::default()
    };
    let run = or_exit2(cdf_sim::run_shard(&c, shard, &opts));
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
    let a = CDF_SIM.parse(&args);
    match a.command {
        "list" => {
            for name in registry::NAMES {
                let w = registry::by_name(name, &cdf_workloads::GenConfig::test()).expect("known");
                println!(
                    "{name:14} stands in for {:28} — {}",
                    w.stands_in_for, w.description
                );
            }
        }
        "table1" => print!("{}", table1_text(&parse_eval(&a).core)),
        "figure <name>" => run_figure_command(&a),
        "run <workload>" => run_run_command(&a),
        "explain" => run_explain_command(&a),
        "compare <workload>" => run_compare_workload(&a),
        "compare <refA> <refB>" => run_compare_store(&a),
        "record" => run_record_command(&a),
        "sweep" => run_sweep_command(&a),
        "mix" => run_mix_command(&a),
        "fuzz" => run_fuzz_command(&a),
        "equiv" => run_equiv_command(&a),
        "campaign run" => campaign_run(&a),
        "campaign resume" => campaign_execute(&campaign_load(&a), &a),
        "campaign status" => {
            let status = or_exit2(cdf_sim::campaign_status(&campaign_load(&a)));
            print!("{}", status.render_text());
        }
        "campaign shard" => campaign_shard(&a),
        other => unreachable!("`{other}` is declared but not dispatched"),
    }
}
