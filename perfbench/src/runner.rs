//! One benchmark run: parse the options, run passes for the allotted time,
//! check every unit, compute the metrics, write the result files and return
//! the final line.

use crate::check::{documents_digest, Expected, Reference};
use crate::metrics::{self, Metric};
use crate::passes::{run_pass, run_setup, Ctx, Pass, Workload};
use crate::spans::{trace_json, untraced_ns, Tracer};
use cdf_core::Provenance;
use cdf_sim::json::{field, Json};
use cdf_sim::{provenance_json, record_json, EvalConfig, ResultStore};
use std::path::{Path, PathBuf};

/// The default workload seed (`EvalConfig::default()`), the one the pinned
/// references are for.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// At least this many set-up samples feed the `setup_s` median.
const SETUP_SAMPLES: usize = 7;

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload solo|mix|observed [--seed N] [--seconds N] \
                         [--trace 0|1] [--bless]";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Rewrite the pinned reference from this run (default seed only).
    pub bless: bool,
}

impl Options {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut args = args.into_iter();
        let mut workload = None;
        let mut opts = Options {
            workload: Workload::Solo,
            seed: DEFAULT_SEED,
            seconds: 30,
            trace: false,
            bless: false,
        };
        while let Some(flag) = args.next() {
            if flag == "--bless" {
                opts.bless = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => opts.seed = number()?,
                "--seconds" => opts.seconds = number()?.max(1),
                "--trace" => {
                    opts.trace = match number()? {
                        0 => false,
                        1 => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        if opts.bless && opts.seed != DEFAULT_SEED {
            return Err(format!("--bless pins the default seed {DEFAULT_SEED} only"));
        }
        Ok(opts)
    }
}

/// Where the benchmark keeps its pinned references.
pub fn reference_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}.json", workload.name()))
}

/// What a run produced.
#[derive(Debug)]
pub struct Report {
    /// The metrics the line carries.
    pub metrics: Vec<Metric>,
    /// The final output line.
    pub line: String,
    /// Human-readable summary.
    pub summary: String,
}

/// Peak resident set of this process, MiB, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
}

/// Provenance of a run: commit and dirty flag, toolchain and host triple
/// (`cdf_core::Provenance`), plus processors, CPU model, seed and sizing.
fn stamp(prov: &Provenance, opts: &Options, eval: &EvalConfig) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::Obj(vec![
        field("provenance", provenance_json(prov)),
        field("nproc", nproc),
        field("cpu", cpu_model()),
        field("workload", opts.workload.name()),
        field("seed", opts.seed),
        field("seconds", opts.seconds),
        field("trace", opts.trace),
        field(
            "sizing",
            Json::Obj(vec![
                field("scale", eval.gen.scale),
                field("iters", eval.gen.iters),
                field("warmup_instructions", eval.warmup_instructions),
                field("measure_instructions", eval.measure_instructions),
            ]),
        ),
    ])
}

/// Checks every unit of `pass` against what it must produce, then drops
/// its documents. Returns `(attempted, failed)` and logs each failure.
fn check_pass(
    workload: Workload,
    pass: &mut Pass,
    learned: &mut Reference,
    mut pinned: Option<&mut Reference>,
    log: &mut String,
) -> (u64, u64) {
    let labels = workload.units();
    let mut failed = vec![false; labels.len()];
    for (i, unit) in pass.units.iter_mut().enumerate() {
        let outcome = unit
            .as_mut()
            .map_err(|e| e.clone())
            .and_then(|(counters, docs)| {
                let documents = match docs.take() {
                    Some(d) => {
                        let records: Vec<Json> = d.records.iter().map(record_json).collect();
                        Some(documents_digest(&d.rendered, &records)?)
                    }
                    None => None,
                };
                let got = Expected {
                    counters: counters.clone(),
                    documents,
                };
                learned
                    .check(&labels[i], &got)
                    .map_err(|e| format!("differs from an earlier pass: {e}"))?;
                match pinned.as_deref_mut() {
                    Some(r) => r
                        .check(&labels[i], &got)
                        .map_err(|e| format!("differs from the pinned reference: {e}")),
                    None => Ok(()),
                }
            });
        if let Err(e) = outcome {
            log.push_str(&format!("FAILED {}: {e}\n", labels[i]));
            failed[i] = true;
        }
    }
    if workload == Workload::Mix {
        // The cores are the attempts; the shared system fails them all.
        let shared_failed = failed.pop().unwrap_or(false);
        if shared_failed {
            failed.iter_mut().for_each(|f| *f = true);
        }
    }
    let n = failed.len() as u64;
    (n, failed.iter().filter(|f| **f).count() as u64)
}

/// Runs the benchmark. `eval` is the sizing (its seed is replaced by the
/// option's); result files go to `out_dir`.
pub fn run(opts: &Options, mut eval: EvalConfig, out_dir: &Path) -> Result<Report, String> {
    eval.gen.seed = opts.seed;
    let mut tr = Tracer::new();
    let budget_ns = opts.seconds * 1_000_000_000;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let tag = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let store_path = out_dir.join(format!("store-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let mut pinned = if opts.seed == DEFAULT_SEED && !opts.bless {
        Some(Reference::load(&reference_path(opts.workload))?)
    } else {
        None
    };
    let ctx = Ctx::new(eval, Provenance::capture(), ResultStore::open(&store_path));

    let mut log = String::new();
    let mut learned = Reference::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut passes = Vec::new();
    let mut longest = 0;
    let mut peak_rss = 0.0;
    // Untraced passes while another fits in the budget; a traced run keeps
    // room for its last pass, which has the host profiler attached.
    let reserve = if opts.trace { 2 } else { 1 };
    let mut profile = false;
    loop {
        let start = tr.now_ns();
        let mut pass = run_pass(&ctx, &mut tr, opts.workload, profile);
        if !profile {
            longest = longest.max(tr.now_ns() - start);
        }
        let (a, f) = check_pass(
            opts.workload,
            &mut pass,
            &mut learned,
            pinned.as_mut(),
            &mut log,
        );
        attempted += a;
        failed += f;
        passes.push(pass);
        if passes.len() == 1 {
            // Later passes only add allocator fragmentation that a user
            // running one sweep never sees.
            peak_rss = peak_rss_mib()?;
        }
        if profile {
            break;
        }
        if tr.now_ns() + reserve * longest > budget_ns {
            if !opts.trace {
                break;
            }
            profile = true;
        }
    }
    let samples = |tr: &Tracer| {
        tr.spans()
            .iter()
            .filter(|s| s.parent.is_none() && (s.name == "pass" || s.name == "setup"))
            .count()
    };
    while !opts.trace && samples(&tr) < SETUP_SAMPLES {
        run_setup(&ctx, &mut tr, opts.workload).map_err(|e| e.to_string())?;
    }
    let wall_ns = tr.now_ns();
    let _ = std::fs::remove_file(&store_path);

    let roots = metrics::roots(tr.spans(), true);
    let host_roots = metrics::roots(tr.spans(), false);
    let speeds: Vec<f64> = roots.iter().map(metrics::Root::speed).collect();
    let first_units: Vec<_> = passes
        .first()
        .map(|p| p.units.iter().flatten().map(|(c, _)| c).collect())
        .unwrap_or_default();
    let compute = |roots: &[metrics::Root]| {
        if opts.trace {
            metrics::per_layer(roots, &passes, &first_units)
        } else {
            metrics::end_to_end(roots, &passes, peak_rss)
        }
    };
    let metrics = compute(&roots);
    let host_metrics = compute(&host_roots);
    let correct = failed == 0;
    let digest = format!("{:016x}", learned.digest());

    if opts.bless {
        let path = reference_path(opts.workload);
        std::fs::create_dir_all(path.parent().expect("the reference path has a directory"))
            .map_err(|e| format!("creating the reference directory: {e}"))?;
        std::fs::write(
            &path,
            learned
                .to_json(opts.workload.name(), opts.seed)
                .render_pretty(),
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
        log.push_str(&format!("wrote {}\n", path.display()));
    }

    let stamp = stamp(&ctx.provenance, opts, &ctx.eval);
    let result = Json::Obj(vec![
        field("schema", "cdf-perfbench-result/1"),
        field("run", stamp.clone()),
        field("digest", digest.as_str()),
        field("pinned_reference", pinned.is_some()),
        field("passes", passes.len()),
        field("samples", metrics::pass_samples(&roots, &passes)),
        field("attempted", attempted),
        field("failed", failed),
        field("wall_ns", wall_ns),
        field("untraced_ns", untraced_ns(tr.spans(), wall_ns) as f64),
        field("metrics", metrics::metrics_json(&metrics)),
        field("host_speed", metrics::median(speeds)),
        field("host_seconds_metrics", metrics::metrics_json(&host_metrics)),
    ]);
    let write = |name: String, text: String| {
        let path = out_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{tag}.json"), result.render_pretty())?;
    let table = metrics::table(&metrics);
    if opts.trace {
        let cells = opts.workload.units();
        write(
            format!("{tag}-spans.json"),
            trace_json(tr.spans(), &cells, stamp).render(),
        )?;
        write(format!("{tag}-layers.txt"), table.clone())?;
    }

    let summary =
        format!(
        "{tag}: {} passes, {attempted} attempted, {failed} failed, digest {digest}{}\n{log}{table}",
        passes.len(),
        if pinned.is_some() { " (pinned reference checked)" } else { "" },
    );
    Ok(Report {
        line: metrics::result_line(correct, attempted, failed, &metrics),
        metrics,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::self_costs;

    /// Small enough that a pass takes well under a second.
    fn tiny(seed: u64) -> EvalConfig {
        let mut eval = EvalConfig::quick();
        eval.gen.seed = seed;
        eval.warmup_instructions = 5_000;
        eval.measure_instructions = 10_000;
        eval
    }

    fn ctx(eval: EvalConfig, test: &str) -> Ctx {
        let store = out_dir(test).join("store.jsonl");
        let _ = std::fs::remove_file(&store);
        Ctx::new(eval, Provenance::default(), ResultStore::open(store))
    }

    fn out_dir(test: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(test)
    }

    #[test]
    fn perturbed_counter_is_counted_failed() {
        for (workload, unit, failed) in [
            (Workload::Solo, 2, 1),
            (Workload::Mix, 1, 1),
            // The shared memory system fails every core of the mix.
            (Workload::Mix, 4, 4),
        ] {
            let ctx = ctx(tiny(3), "perturbed");
            let mut tr = Tracer::new();
            let mut learned = Reference::default();
            let mut log = String::new();
            let mut pass = run_pass(&ctx, &mut tr, workload, false);
            let (attempted, none) = check_pass(workload, &mut pass, &mut learned, None, &mut log);
            assert_eq!(none, 0, "{log}");
            let mut pass = run_pass(&ctx, &mut tr, workload, false);
            let (counters, _) = pass.units[unit].as_mut().expect("the unit ran");
            counters.0[5].1 += 1;
            let got = check_pass(workload, &mut pass, &mut learned, None, &mut log);
            assert_eq!(got, (attempted, failed), "{workload:?} unit {unit}");
            assert!(log.contains("FAILED"), "{log}");
        }
    }

    #[test]
    fn a_real_pass_has_consistent_spans() {
        for workload in Workload::ALL {
            let ctx = ctx(tiny(4), "spans");
            std::fs::create_dir_all(out_dir("spans")).expect("test output directory");
            let mut tr = Tracer::new();
            run_pass(&ctx, &mut tr, workload, false);
            run_setup(&ctx, &mut tr, workload).expect("set-up runs");
            let wall = tr.now_ns();
            let costs = self_costs(tr.spans());
            assert!(costs
                .iter()
                .all(|c| c.ns >= 0 && c.allocs >= 0 && c.bytes >= 0));
            let selves: i64 = costs.iter().map(|c| c.ns).sum();
            assert_eq!(selves + untraced_ns(tr.spans(), wall), wall as i64);
            let _ = std::fs::remove_file(ctx.store.path());
        }
    }

    #[test]
    fn output_round_trips_through_the_json_parser() {
        for trace in [false, true] {
            let opts = Options {
                workload: Workload::Observed,
                seed: 5,
                seconds: 1,
                trace,
                bless: false,
            };
            let report = run(&opts, tiny(5), &out_dir("round-trip")).expect("the run completes");
            let doc = Json::parse(&report.line).expect("the result line is JSON");
            let Json::Obj(fields) = &doc else {
                panic!("not an object: {}", report.line)
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = doc.get("metrics").expect("metrics");
            for m in &report.metrics {
                let got = metrics.get(&m.name).expect("every metric is printed");
                let value = got.get("value").and_then(Json::as_f64).expect("a number");
                assert_eq!(value.to_bits(), m.value.to_bits(), "{}", m.name);
                assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit));
            }
        }
    }

    #[test]
    fn options_reject_bad_input() {
        let parse = |args: &[&str]| Options::parse(args.iter().map(|a| a.to_string()));
        let ok = parse(&[
            "--workload",
            "mix",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid options");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Mix, 9, 3, true)
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "solo", "--trace", "2"],
            &["--workload", "solo", "--seconds", "x"],
            &["--workload", "solo", "--frobnicate", "1"],
            &["--workload", "solo", "--seed", "1", "--bless"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let printed = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            printed(metrics::end_to_end(&[], &[], 1.0))
        );
        assert_eq!(
            listed("per_layer"),
            printed(metrics::per_layer(&[], &[], &[]))
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
