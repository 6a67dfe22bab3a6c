//! From spans and pass outcomes to the benchmark's metrics.
//!
//! Host-time metrics come from the untraced passes (root span `pass`); a
//! pass with the host profiler attached (`pass.profiled`) only feeds the
//! `prof.*` metrics, and its wall time against the untraced median is the
//! profiler's overhead. Medians are taken per cell over passes, so a burst
//! of host noise in one pass moves no figure.
//!
//! Host times are reported in reference seconds: host seconds times the
//! host's speed during the pass relative to a reference host, measured by
//! the calibration kernel the pass runs between its cells. A shared host
//! changes speed by up to 1.75x within minutes; both the simulator and the
//! kernel slow down alike, so the ratio stays put while host seconds do not.

use crate::check::Counters;
use crate::passes::{cell_label, Pass, Work, MECHANISMS, SOLO_KERNELS};
use crate::spans::{self_costs, Span};
use cdf_core::{HostProfile, Stage, Subsystem};
use cdf_sim::json::{field, Json};
use std::collections::{BTreeMap, BTreeSet};

const MIB: f64 = 1024.0 * 1024.0;

/// Duration of one calibration-kernel call on the reference host, in
/// nanoseconds: about what one call takes on the 2-vCPU Xeon 2.1 GHz host
/// the benchmark was defined on. Fixed: changing it rescales every
/// host-time metric.
pub const REFERENCE_CALIBRATION_NS: f64 = 4_000_000.0;

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Median of `xs`; 0 when there are none.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self costs of one layer summed over a root span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sums {
    /// Self nanoseconds.
    pub ns: i64,
    /// Self allocation calls.
    pub allocs: i64,
    /// Self allocated bytes.
    pub bytes: i64,
}

/// One root span (a pass or a set-up repetition) and what happened in it.
#[derive(Clone, Debug, PartialEq)]
pub struct Root {
    /// `pass`, `pass.profiled` or `setup`.
    pub name: &'static str,
    /// Wall time of the root, nanoseconds.
    pub dur_ns: u64,
    /// Durations of the calibration-kernel calls inside the root.
    pub calibration_ns: Vec<u64>,
    /// Reference seconds per host nanosecond during the root.
    pub scale: f64,
    /// Self costs by layer name.
    pub layers: BTreeMap<&'static str, Sums>,
    /// Time inside `core.run` by the cell it ran (`None`: the mix).
    pub run_ns: BTreeMap<Option<usize>, u64>,
    /// Wall time of each `cell` span.
    pub cell_ns: BTreeMap<usize, u64>,
}

impl Root {
    fn layer(&self, name: &str) -> Sums {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// How fast the host ran during the root relative to the reference
    /// host (above 1: faster).
    pub fn speed(&self) -> f64 {
        let cal = median(self.calibration_ns.iter().map(|&ns| ns as f64).collect());
        if cal == 0.0 {
            1.0
        } else {
            REFERENCE_CALIBRATION_NS / cal
        }
    }

    /// Host nanoseconds of this root in reported seconds.
    pub fn seconds(&self, ns: f64) -> f64 {
        ns * self.scale
    }

    /// Wall time without the calibration calls, in reported seconds.
    pub fn wall_s(&self) -> f64 {
        self.seconds((self.dur_ns - self.calibration_ns.iter().sum::<u64>()) as f64)
    }

    /// Set-up time (workload generation plus core construction), in
    /// reported seconds.
    pub fn setup_s(&self) -> f64 {
        self.seconds((self.layer("workloads.lookup").ns + self.layer("core.new").ns) as f64)
    }
}

/// Groups spans by root, in the order the roots ran. With `normalize`,
/// times are reported in reference seconds, otherwise in host seconds.
pub fn roots(spans: &[Span], normalize: bool) -> Vec<Root> {
    let costs = self_costs(spans);
    let mut roots: Vec<Root> = Vec::new();
    let mut index = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            index.insert(i, roots.len());
            roots.push(Root {
                name: s.name,
                dur_ns: s.dur_ns(),
                calibration_ns: Vec::new(),
                scale: 1e-9,
                layers: BTreeMap::new(),
                run_ns: BTreeMap::new(),
                cell_ns: BTreeMap::new(),
            });
        }
        let root = &mut roots[index[&s.root]];
        let sums = root.layers.entry(s.name).or_default();
        sums.ns += costs[i].ns;
        sums.allocs += costs[i].allocs;
        sums.bytes += costs[i].bytes;
        match s.name {
            "core.run" => *root.run_ns.entry(s.cell).or_default() += s.dur_ns(),
            "calibrate" => root.calibration_ns.push(s.dur_ns()),
            "cell" => {
                let cell = s.cell.expect("cell spans name their cell");
                *root.cell_ns.entry(cell).or_default() += s.dur_ns();
            }
            _ => {}
        }
    }
    if normalize {
        for r in &mut roots {
            r.scale = r.speed() * 1e-9;
        }
    }
    roots
}

/// The passes paired with their root spans, untraced ones only.
fn untraced<'a>(roots: &'a [Root], passes: &'a [Pass]) -> Vec<(&'a Root, &'a Pass)> {
    roots
        .iter()
        .filter(|r| r.name.starts_with("pass"))
        .zip(passes)
        .filter(|(r, _)| r.name == "pass")
        .collect()
}

/// Each timed group's simulated work, first seen in any pass (it is the
/// same in every pass).
fn work_by_cell(passes: &[Pass]) -> BTreeMap<Option<usize>, Work> {
    let mut work = BTreeMap::new();
    for w in passes.iter().flat_map(|p| &p.work) {
        work.entry(w.cell).or_insert(*w);
    }
    work
}

/// Median `core.run` seconds of one group over the untraced passes.
fn median_run_s(untraced: &[(&Root, &Pass)], cell: Option<usize>) -> f64 {
    median(
        untraced
            .iter()
            .filter_map(|(r, _)| r.run_ns.get(&cell).map(|&ns| r.seconds(ns as f64)))
            .collect(),
    )
}

/// Median wall seconds of one pass, composed cell by cell like
/// `uops_per_s`: per cell, the median of its span over the untraced passes,
/// plus the median of the rest of the pass (lookups, bookkeeping),
/// calibration left out.
fn median_wall_s(untraced: &[(&Root, &Pass)]) -> f64 {
    let cells: BTreeSet<usize> = untraced
        .iter()
        .flat_map(|(r, _)| r.cell_ns.keys().copied())
        .collect();
    let per_cell: f64 = cells
        .iter()
        .map(|c| {
            median(
                untraced
                    .iter()
                    .filter_map(|(r, _)| r.cell_ns.get(c).map(|&ns| r.seconds(ns as f64)))
                    .collect(),
            )
        })
        .sum();
    let rest = untraced
        .iter()
        .map(|(r, _)| r.wall_s() - r.seconds(r.cell_ns.values().sum::<u64>() as f64));
    per_cell + median(rest.collect())
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(roots: &[Root], passes: &[Pass], peak_rss_mib: f64) -> Vec<Metric> {
    let untraced = untraced(roots, passes);
    let work = work_by_cell(passes);
    let run_s: f64 = work.keys().map(|&c| median_run_s(&untraced, c)).sum();
    let total = |f: fn(&Work) -> u64| work.values().map(f).sum::<u64>() as f64;
    let setups = roots
        .iter()
        .filter(|r| r.name == "pass" || r.name == "setup")
        .map(Root::setup_s)
        .collect();
    vec![
        metric("uops_per_s", "uops/s", ratio(total(|w| w.uops), run_s)),
        metric(
            "cycles_per_s",
            "cycles/s",
            ratio(total(|w| w.cycles), run_s),
        ),
        metric("wall_s", "s", median_wall_s(&untraced)),
        metric("setup_s", "s", median(setups)),
        metric("peak_rss_mb", "MiB", peak_rss_mib),
        metric(
            "sim_ipc",
            "uops/cycle",
            ratio(total(|w| w.measured_uops), total(|w| w.measured_cycles)),
        ),
    ]
}

/// Per pass, the samples the medians are taken over: its kind, host
/// speed, wall time and simulated uops per second.
pub fn pass_samples(roots: &[Root], passes: &[Pass]) -> Json {
    let passes = roots
        .iter()
        .filter(|r| r.name.starts_with("pass"))
        .zip(passes);
    Json::Arr(
        passes
            .map(|(r, p)| {
                let uops = p.work.iter().map(|w| w.uops).sum::<u64>() as f64;
                let run_ns = r.run_ns.values().sum::<u64>() as f64;
                Json::Obj(vec![
                    field("pass", r.name),
                    field("speed", r.speed()),
                    field("wall_s", r.wall_s()),
                    field("uops_per_s", ratio(uops, r.seconds(run_ns))),
                ])
            })
            .collect(),
    )
}

/// Sum of one counter over units.
fn sum(units: &[&Counters], name: &str) -> f64 {
    units.iter().map(|c| c.get(name)).sum::<u64>() as f64
}

/// The per-layer metrics of a traced run. `units` are the counters of one
/// pass (the simulated counts are the same in every pass).
pub fn per_layer(roots: &[Root], passes: &[Pass], units: &[&Counters]) -> Vec<Metric> {
    let untraced = untraced(roots, passes);
    let seconds = |name: &str| {
        median(
            untraced
                .iter()
                .map(|(r, _)| r.seconds(r.layer(name).ns as f64))
                .collect(),
        )
    };
    let count = |name: &str, f: fn(&Sums) -> i64| {
        median(
            untraced
                .iter()
                .map(|(r, _)| f(&r.layer(name)) as f64)
                .collect(),
        )
    };
    let work = work_by_cell(passes);
    let uops = work.values().map(|w| w.uops).sum::<u64>() as f64;
    let mut out = vec![
        metric("workloads.lookup.s", "s", seconds("workloads.lookup")),
        metric(
            "workloads.lookup.allocs",
            "count",
            count("workloads.lookup", |s| s.allocs),
        ),
        metric("core.new.s", "s", seconds("core.new")),
        metric("core.new.allocs", "count", count("core.new", |s| s.allocs)),
        metric("core.new.mb", "MiB", count("core.new", |s| s.bytes) / MIB),
        metric("core.run.s", "s", seconds("core.run")),
        metric(
            "core.run.allocs_per_kuop",
            "1/kuop",
            ratio(count("core.run", |s| s.allocs), uops / 1e3),
        ),
    ];
    let mut cell = 0;
    for kernel in SOLO_KERNELS {
        for mech in MECHANISMS {
            // Zero on `mix`, whose cores share one timed run.
            let rate = work.get(&Some(cell)).map_or(0.0, |w| {
                ratio(w.uops as f64, median_run_s(&untraced, Some(cell)))
            });
            out.push(metric(
                format!("cell.{}.uops_per_s", cell_label(kernel, mech)),
                "uops/s",
                rate,
            ));
            cell += 1;
        }
    }
    let doc_bytes = median(untraced.iter().map(|(_, p)| p.doc_bytes as f64).collect());
    out.extend([
        metric("sim.serialize.s", "s", seconds("sim.serialize")),
        metric("sim.serialize.mb", "MiB", doc_bytes / MIB),
        metric("sim.store.s", "s", seconds("sim.store")),
    ]);
    let traced = roots
        .iter()
        .filter(|r| r.name.starts_with("pass"))
        .zip(passes)
        .find(|(r, _)| r.name == "pass.profiled");
    out.extend(prof_metrics(
        traced.and_then(|(r, p)| Some((r, p.profile.as_ref()?))),
    ));
    let untraced_wall = median_wall_s(&untraced);
    out.push(metric(
        "prof.overhead_pct",
        "%",
        traced.map_or(0.0, |(r, _)| {
            100.0 * ratio(r.wall_s() - untraced_wall, untraced_wall)
        }),
    ));
    out.extend(modelled(units));
    out
}

/// The profiler's own attribution, from `cdf_core::prof`, in the seconds
/// of the root it was taken in.
fn prof_metrics(p: Option<(&Root, &HostProfile)>) -> Vec<Metric> {
    let s = |ns: u64| p.map_or(0.0, |(r, _)| r.seconds(ns as f64));
    let mut out = Vec::new();
    for stage in Stage::ALL {
        let name = stage.label();
        let row = p.and_then(|(_, p)| p.stages.iter().find(|s| s.name == name));
        out.push(metric(
            format!("prof.{name}.s"),
            "s",
            s(row.map_or(0, |r| r.ns)),
        ));
        out.push(metric(
            format!("prof.{name}.allocs"),
            "count",
            row.map_or(0.0, |r| r.allocs as f64),
        ));
    }
    out.push(metric(
        "prof.untracked.s",
        "s",
        s(p.map_or(0, |(_, p)| p.untracked_ns)),
    ));
    for sub in Subsystem::ALL {
        let name = sub.label();
        let row = p.and_then(|(_, p)| p.subsystems.iter().find(|s| s.name == name));
        out.push(metric(
            format!("prof.{name}.s"),
            "s",
            s(row.map_or(0, |r| r.ns)),
        ));
        out.push(metric(
            format!("prof.{name}.ops"),
            "count",
            row.map_or(0.0, |r| r.ops as f64),
        ));
    }
    out
}

/// Modelled counts over the whole runs (warmup included), summed over
/// cells or cores: the bases for host-cost ratios.
fn modelled(units: &[&Counters]) -> Vec<Metric> {
    let s = |name: &str| sum(units, name);
    let uops = s("core.retired");
    let cycles = s("core.cycles");
    let channels = units
        .iter()
        .map(|c| c.sum_prefixed("channel_busy."))
        .sum::<u64>() as f64;
    let n_channels = units
        .iter()
        .flat_map(|c| &c.0)
        .filter(|(k, _)| k.starts_with("channel_busy."))
        .count() as f64;
    vec![
        metric("core.cycles", "cycles", cycles),
        metric("core.uops", "uops", uops),
        metric(
            "core.fetched_per_uop",
            "ratio",
            ratio(s("core.fetched_regular") + s("core.fetched_critical"), uops),
        ),
        metric(
            "core.full_window_stall_frac",
            "ratio",
            ratio(s("core.full_window_stall_cycles"), cycles),
        ),
        metric(
            "bpred.mispredicts_per_kuop",
            "1/kuop",
            ratio(s("core.mispredicts"), uops / 1e3),
        ),
        metric(
            "bpred.accuracy",
            "ratio",
            1.0 - ratio(s("core.mispredicts"), s("core.branches")),
        ),
        metric("mem.l1d_accesses", "count", s("l1d.hits") + s("l1d.misses")),
        metric("mem.llc_misses", "count", s("mem.llc_demand_misses")),
        metric("mem.mshr_rejections", "count", s("mem.rejections")),
        metric(
            "mem.prefetch_useful_frac",
            "ratio",
            ratio(s("prefetch.useful"), s("prefetch.issued")),
        ),
        metric(
            "mem.dram_lines",
            "lines",
            s("dram.reads") + s("dram.writes"),
        ),
        metric("cdf.critical_uops", "uops", s("core.critical_uops_issued")),
        metric(
            "cdf.mode_frac",
            "ratio",
            ratio(s("core.cdf_mode_cycles"), cycles),
        ),
        metric(
            "cdf.cuc_hit_frac",
            "ratio",
            ratio(s("cuc.hits"), s("cuc.hits") + s("cuc.misses")),
        ),
        metric("cdf.traces_installed", "count", s("core.traces_installed")),
        metric(
            "cdf.dependence_violations",
            "count",
            s("core.dependence_violations"),
        ),
        metric("shared.mshr_steals", "count", s("mshr_steals")),
        metric("shared.llc_rejections", "count", s("share.llc_rejections")),
        metric(
            "shared.channel_util",
            "ratio",
            ratio(channels, n_channels * s("shared.cycles")),
        ),
    ]
}

/// The metrics as a JSON object: name to value and unit.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![field("value", m.value), field("unit", m.unit)]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// The line the benchmark ends its standard output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::Obj(vec![
        field("correct", correct),
        field("attempted", attempted),
        field("failed", failed),
        field("metrics", metrics_json(metrics)),
    ])
    .render()
}

/// The metrics as an aligned text table.
pub fn table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    metrics
        .iter()
        .map(|m| format!("{:<width$}  {:>16.6}  {}\n", m.name, m.value, m.unit))
        .collect()
}
