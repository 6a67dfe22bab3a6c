//! The parallel, fault-tolerant experiment sweep runner.
//!
//! A sweep executes a (workload × mechanism) grid across a pool of worker
//! threads. Three properties make it a harness rather than a loop:
//!
//! * **Determinism** — every cell rebuilds its workload from the sweep's
//!   [`GenConfig`] seed and simulates it in a private core, so results are
//!   bit-identical no matter the thread count or scheduling order (asserted
//!   by the crate's tests).
//! * **Fault isolation** — a cell that fails (unknown workload, watchdog
//!   expiry, even a simulator panic) is recorded as a [`SimError`] in its
//!   [`SweepCell`]; the other cells run to completion and the process never
//!   aborts.
//! * **Provenance** — emitted JSON records are stamped with a hash of the
//!   full sweep configuration, the workload generation parameters, and the
//!   shared [`Provenance`] header (commit, dirty flag, toolchain, host,
//!   timestamp), so any result file can be traced back to the exact
//!   experiment that produced it.

use crate::error::SimError;
use crate::explain::{chain_events, diagnostics_json, DEFAULT_CHAIN_LIMIT};
use crate::json::{field, Json};
use crate::prof::{self, profile_json};
use crate::provenance::provenance_json;
use crate::report::Table;
use crate::run::{run, EvalConfig, Measurement, Mechanism};
use crate::telemetry::{self, telemetry_json};
use cdf_core::{CdfDiagnostics, CoreMode, HostProfile, Provenance, Telemetry};
use cdf_workloads::{registry, GenConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The JSON schema tag stamped on every emitted sweep document.
pub use crate::schema::SWEEP as SWEEP_SCHEMA;

/// The grid and sizing of one sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Workload names (rows of the grid).
    pub workloads: Vec<String>,
    /// Mechanisms (columns of the grid).
    pub mechanisms: Vec<Mechanism>,
    /// Shared evaluation sizing (seed, windows, core template, watchdog).
    pub eval: EvalConfig,
    /// Worker threads; `0` means one per available hardware thread.
    pub threads: usize,
    /// Attach the host-side self-profiler to every cell (`cdf-sim sweep
    /// --profile`). Observation-only: measurements are bit-identical either
    /// way, and the flag is deliberately *not* part of [`EvalConfig`] so it
    /// never perturbs [`eval_config_hash`] (which keys the results store and
    /// campaign grids). Like `threads`, it is excluded from the sweep's
    /// config hash.
    pub profile: bool,
    /// Run only the cells whose `workload/mechanism` label contains this
    /// substring (`cdf-sim record --filter`); `None` runs the whole grid.
    /// The cells that run keep their grid order.
    pub filter: Option<String>,
}

impl SweepConfig {
    /// A sweep over the given workloads and mechanisms.
    pub fn new<I, S>(workloads: I, mechanisms: Vec<Mechanism>, eval: EvalConfig) -> SweepConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SweepConfig {
            workloads: workloads.into_iter().map(Into::into).collect(),
            mechanisms,
            eval,
            threads: 0,
            profile: false,
            filter: None,
        }
    }

    /// The full default grid: every registry workload × every mechanism.
    pub fn full_grid(eval: EvalConfig) -> SweepConfig {
        SweepConfig::new(
            registry::NAMES.iter().copied(),
            Mechanism::ALL.to_vec(),
            eval,
        )
    }

    /// The grid's `workloads` and `mechanisms` document fields.
    pub(crate) fn axes_json(&self) -> [(String, Json); 2] {
        [
            field(
                "workloads",
                Json::Arr(self.workloads.iter().map(|w| w.as_str().into()).collect()),
            ),
            field(
                "mechanisms",
                Json::Arr(self.mechanisms.iter().map(|m| m.label().into()).collect()),
            ),
        ]
    }
}

/// One grid point: the workload/mechanism pair, its outcome, and how long
/// it took on the wall clock.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Workload name.
    pub workload: String,
    /// Mechanism simulated.
    pub mechanism: Mechanism,
    /// The measurement, or the typed reason it could not be produced.
    pub result: Result<Measurement, SimError>,
    /// The core's telemetry, when the sweep's
    /// [`EvalConfig::telemetry`](crate::EvalConfig) was enabled and the cell
    /// succeeded. Serialized into the cell's JSON record as a `telemetry`
    /// section.
    pub telemetry: Option<Telemetry>,
    /// The core's criticality-provenance diagnostics, when the sweep's
    /// [`EvalConfig::diagnostics`](crate::EvalConfig) was enabled and the
    /// cell succeeded. Serialized into the cell's JSON record as a
    /// `diagnostics` section (same shape as the `cdf-explain/1` cells).
    pub diagnostics: Option<CdfDiagnostics>,
    /// The host-side self-profile, when the sweep's
    /// [`SweepConfig::profile`] was enabled and the cell succeeded.
    /// Serialized into the cell's JSON record as a `profile` section
    /// (`cdf-profile/1` shape).
    pub profile: Option<HostProfile>,
    /// Wall-clock milliseconds this cell took (the one quantity that is
    /// *not* deterministic, and is excluded from equality checks).
    pub wall_ms: u64,
}

/// A completed sweep: every cell in grid order (workload-major), plus the
/// provenance stamps emitted into JSON.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The configuration that produced this sweep.
    pub config: SweepConfig,
    /// Results in deterministic grid order: for each workload in
    /// `config.workloads`, one cell per mechanism in `config.mechanisms`
    /// that `config.filter` keeps.
    pub cells: Vec<SweepCell>,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// FNV-1a hash (hex) of the full configuration.
    pub config_hash: String,
    /// The uniform provenance header (commit, dirty flag, toolchain, host,
    /// timestamp), captured by [`provenance`](Self::provenance) on first
    /// use.
    pub(crate) provenance: OnceLock<Provenance>,
}

/// Runs the sweep: every grid cell the filter keeps, through [`run_cell`].
/// This is the one grid runner: `cdf-sim sweep`, `record` and `explain`
/// and the figure drivers run their grids here, and the equivalence
/// workload axis runs its two grids through its cell loop. Results are
/// identical — stat for stat — to running every cell serially, regardless
/// of `config.threads`.
pub fn run_sweep(config: &SweepConfig) -> Sweep {
    let cells = sweep_cells(config);
    Sweep {
        config: config.clone(),
        threads_used: effective_threads(config.threads, cells.len()),
        cells,
        config_hash: config_hash(config),
        provenance: OnceLock::new(),
    }
}

/// The cells of [`run_sweep`] in grid order, without the rest of a
/// [`Sweep`]: the equivalence workload axis compares two grids' cells and
/// reads nothing else.
pub(crate) fn sweep_cells(config: &SweepConfig) -> Vec<SweepCell> {
    let jobs: Vec<(&str, Mechanism)> = config
        .workloads
        .iter()
        .flat_map(|w| config.mechanisms.iter().map(move |&m| (w.as_str(), m)))
        .filter(|(w, m)| {
            config
                .filter
                .as_deref()
                .is_none_or(|f| format!("{w}/{}", m.label()).contains(f))
        })
        .collect();
    parallel_map(&jobs, config.threads, |&(w, m)| {
        run_cell(w, m, m.mode(), &config.eval, config.profile)
    })
}

/// Runs one grid cell: looks the workload up, [`run`]s it on `mode` (which
/// is `mechanism.mode()` unless a campaign point patched it; `mechanism`
/// still names the cell), and times it on the wall clock. This is the one
/// fault-isolated cell runner: an unknown workload, a watchdog expiry, or
/// even a simulator panic becomes the cell's [`SimError`], never a process
/// abort. Observers attach as [`run`] attaches them, from `eval` plus
/// `profile`.
pub fn run_cell(
    workload: &str,
    mechanism: Mechanism,
    mode: CoreMode,
    eval: &EvalConfig,
    profile: bool,
) -> SweepCell {
    let t0 = Instant::now();
    let out = registry::lookup(workload, &eval.gen)
        .map_err(SimError::from)
        .and_then(|w| {
            catch_unwind(AssertUnwindSafe(|| {
                run(&w, mode, mechanism.label(), eval, profile)
            }))
            .unwrap_or_else(|payload| Err(SimError::Panicked(panic_message(payload))))
        });
    let (result, telemetry, diagnostics, profile) = match out {
        Ok(o) => (Ok(o.measurement), o.telemetry, o.diagnostics, o.profile),
        Err(e) => (Err(e), None, None, None),
    };
    SweepCell {
        workload: workload.to_string(),
        mechanism,
        result,
        telemetry,
        diagnostics,
        profile,
        wall_ms: t0.elapsed().as_millis() as u64,
    }
}

impl Sweep {
    /// The provenance header, captured (spawning `git` and `rustc`) the
    /// first time a document, store row or header reads it, so a sweep
    /// that writes none of them never captures it.
    pub fn provenance(&self) -> &Provenance {
        self.provenance.get_or_init(Provenance::capture)
    }

    /// The cell for one grid point, if it was in the grid.
    pub fn cell(&self, workload: &str, mechanism: Mechanism) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.mechanism == mechanism)
    }

    /// The measurement for one grid point, if the cell ran and succeeded.
    pub fn get(&self, workload: &str, mechanism: Mechanism) -> Option<&Measurement> {
        self.cell(workload, mechanism)
            .and_then(|c| c.result.as_ref().ok())
    }

    /// Cells that failed.
    pub fn failures(&self) -> impl Iterator<Item = &SweepCell> {
        self.cells.iter().filter(|c| c.result.is_err())
    }

    /// `(succeeded, failed)` cell counts.
    pub fn counts(&self) -> (usize, usize) {
        let failed = self.failures().count();
        (self.cells.len() - failed, failed)
    }

    /// The full sweep as a JSON document (schema [`SWEEP_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let [workloads, mechanisms] = self.config.axes_json();
        Json::Obj(vec![
            field("schema", SWEEP_SCHEMA),
            field("config_hash", self.config_hash.as_str()),
            field("provenance", provenance_json(self.provenance())),
            field("threads", self.threads_used),
            field("gen", gen_json(&self.config.eval.gen)),
            field(
                "eval",
                Json::Obj(vec![
                    field("warmup_instructions", self.config.eval.warmup_instructions),
                    field(
                        "measure_instructions",
                        self.config.eval.measure_instructions,
                    ),
                    field("max_cycles", self.config.eval.max_cycles),
                    field(
                        "telemetry",
                        match &self.config.eval.telemetry {
                            None => Json::Null,
                            Some(t) => Json::Obj(vec![
                                field("interval", t.interval),
                                field("ring_capacity", t.ring_capacity),
                                field("max_events", t.max_events),
                                field("uop_events", t.uop_events),
                            ]),
                        },
                    ),
                    field("diagnostics", self.config.eval.diagnostics),
                    field("profile", self.config.profile),
                ]),
            ),
            workloads,
            mechanisms,
            field(
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| cell_json(c, Some(c.wall_ms), DEFAULT_CHAIN_LIMIT))
                        .collect(),
                ),
            ),
        ])
    }

    /// The sweep as one Chrome/Perfetto trace: trace-event JSON in the
    /// array-of-events form (load it at <https://ui.perfetto.dev>). Cell `i`
    /// is up to two processes, each named by a `process_name` event. With
    /// telemetry or diagnostics it is guest process `2i + 1`, on the cycle
    /// axis (one core cycle per trace microsecond): the telemetry episodes,
    /// flushes and uop slices, then one span per chain. When profiled it is
    /// also host process `2i + 2`, in wall microseconds: the stage and
    /// subsystem slices. So the two clocks never share a process, and a
    /// sweep without observers is `[]`.
    pub fn trace_json(&self) -> Json {
        let mut events = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            let guest = 2 * i as u64 + 1;
            if c.telemetry.is_some() || c.diagnostics.is_some() {
                events.push(process_name(guest, c, "guest, cycles"));
            }
            if let Some(t) = &c.telemetry {
                events.extend(telemetry::trace_events(t, guest));
            }
            if let Some(d) = &c.diagnostics {
                events.extend(chain_events(d, guest));
            }
            if let Some(p) = &c.profile {
                events.push(process_name(guest + 1, c, "host, wall us"));
                events.extend(prof::trace_events(p, guest + 1));
            }
        }
        Json::Arr(events)
    }

    /// A text summary table: IPC per grid point, `ERROR(kind)` for failed
    /// cells.
    pub fn render_summary(&self) -> String {
        let mut headers: Vec<&str> = vec!["workload"];
        headers.extend(self.config.mechanisms.iter().map(|m| m.label()));
        let mut t = Table::new(&headers);
        for w in &self.config.workloads {
            let mut row = vec![w.clone()];
            for &m in &self.config.mechanisms {
                row.push(match self.cell(w, m).map(|c| &c.result) {
                    Some(Ok(meas)) => format!("{:.3}", meas.ipc),
                    Some(Err(e)) => format!("ERROR({})", e.kind()),
                    None => "-".to_string(),
                });
            }
            let row_refs: Vec<&str> = row.iter().map(String::as_str).collect();
            t.row(&row_refs);
        }
        let (ok, failed) = self.counts();
        format!(
            "Sweep {} — IPC per (workload × mechanism); {} ok, {} failed; {} threads\n{}",
            self.config_hash,
            ok,
            failed,
            self.threads_used,
            t.render()
        )
    }
}

/// The `process_name` event naming trace process `pid` after cell `c` and
/// the clock its events run on.
fn process_name(pid: u64, c: &SweepCell, clock: &str) -> Json {
    let name = format!("{} / {} ({clock})", c.workload, c.mechanism.label());
    Json::Obj(vec![
        field("name", "process_name"),
        field("ph", "M"),
        field("pid", pid),
        field("args", Json::Obj(vec![field("name", name)])),
    ])
}

/// The `gen` object of a document or store row: the workload generation
/// parameters.
pub(crate) fn gen_json(gen: &GenConfig) -> Json {
    Json::Obj(vec![
        field("seed", gen.seed),
        field("scale", gen.scale),
        field("iters", gen.iters),
    ])
}

/// One cell's document record: its grid point, status and (when given)
/// wall time, then its measurement and every observer it carries — the
/// diagnostics with their `chain_limit` busiest chains — or its error.
pub(crate) fn cell_json(c: &SweepCell, wall_ms: Option<u64>, chain_limit: usize) -> Json {
    let mut fields = vec![
        field("workload", c.workload.as_str()),
        field("mechanism", c.mechanism.label()),
        field("status", if c.result.is_ok() { "ok" } else { "error" }),
    ];
    fields.extend(wall_ms.map(|ms| field("wall_ms", ms)));
    match &c.result {
        Ok(m) => {
            fields.push(field("measurement", measurement_json(m)));
            if let Some(tel) = &c.telemetry {
                fields.push(field("telemetry", telemetry_json(tel)));
            }
            if let Some(d) = &c.diagnostics {
                fields.push(field("diagnostics", diagnostics_json(d, chain_limit)));
            }
            if let Some(p) = &c.profile {
                fields.push(field(
                    "profile",
                    profile_json(p, &c.workload, c.mechanism.label()),
                ));
            }
        }
        Err(e) => fields.push(field(
            "error",
            Json::Obj(vec![
                field("kind", e.kind()),
                field("message", e.to_string()),
            ]),
        )),
    }
    Json::Obj(fields)
}

pub(crate) fn measurement_json(m: &Measurement) -> Json {
    Json::Obj(vec![
        field("instructions", m.instructions),
        field("cycles", m.cycles),
        field("ipc", m.ipc),
        field("mlp", m.mlp),
        field("dram_lines", m.dram_lines),
        field("energy_nj", m.energy_nj),
        field("cdf_energy_nj", m.cdf_energy_nj),
        field("branch_mpki", m.branch_mpki),
        field("llc_mpki", m.llc_mpki),
        field("rob_critical_fraction", m.rob_critical_fraction),
        field("full_window_stall_cycles", m.full_window_stall_cycles),
        field("cdf_mode_cycles", m.cdf_mode_cycles),
        field("critical_uops", m.critical_uops),
        field("runahead_uops", m.runahead_uops),
        field("dependence_violations", m.dependence_violations),
    ])
}

/// Maps `f` over `jobs` on a bounded worker pool, returning results in job
/// order. With `threads == 0` the pool sizes itself to the machine; with
/// `threads == 1` (or a single job) it degenerates to a serial loop. `f`
/// must be deterministic per job for the output to be order-independent —
/// the sweep's cell runner is.
pub fn parallel_map<J, R, F>(jobs: &[J], threads: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let threads = effective_threads(threads, jobs.len());
    if threads <= 1 {
        return jobs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let r = f(&jobs[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

fn effective_threads(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    t.min(jobs).max(1)
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// FNV-1a (hex) over an arbitrary canonical string.
pub(crate) fn fnv1a_hex(canon: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// FNV-1a over the debug rendering of the full configuration: changing any
/// knob — grid, seed, windows, core template, watchdog — changes the hash.
fn config_hash(config: &SweepConfig) -> String {
    fnv1a_hex(&format!(
        "{:?}|{:?}|{:?}",
        config.workloads, config.mechanisms, config.eval
    ))
}

/// FNV-1a over the debug rendering of one cell's evaluation config (the
/// per-record config hash in the results store): seed, scale, windows, core
/// template — everything but the workload/mechanism key itself.
pub fn eval_config_hash(eval: &EvalConfig) -> String {
    fnv1a_hex(&format!("{eval:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<usize> = (0..37).collect();
        let serial = parallel_map(&jobs, 1, |&j| j * j);
        let parallel = parallel_map(&jobs, 4, |&j| j * j);
        assert_eq!(serial, parallel);
        assert_eq!(serial[36], 36 * 36);
        assert!(parallel_map(&Vec::<usize>::new(), 4, |&j: &usize| j).is_empty());
    }

    #[test]
    fn serial_and_parallel_sweeps_are_identical() {
        // The tentpole determinism guarantee: a 3-workload × 2-mechanism
        // grid produces the same Measurement structs, stat for stat, on one
        // thread and on four.
        let mechs = vec![Mechanism::Baseline, Mechanism::Cdf];
        let workloads = ["libq_like", "astar_like", "mcf_like"];
        let mut serial_cfg = SweepConfig::new(workloads, mechs.clone(), tiny_eval());
        serial_cfg.threads = 1;
        let mut parallel_cfg = serial_cfg.clone();
        parallel_cfg.threads = 4;

        let serial = run_sweep(&serial_cfg);
        let parallel = run_sweep(&parallel_cfg);
        assert_eq!(serial.cells.len(), 6);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.mechanism, b.mechanism);
            // Full struct equality: every counter and derived stat.
            assert_eq!(a.result, b.result, "{}/{}", a.workload, a.mechanism.label());
        }
    }

    #[test]
    fn a_filter_runs_exactly_the_matching_cells_in_grid_order() {
        let mechs = vec![Mechanism::Baseline, Mechanism::Cdf];
        let full = SweepConfig::new(["libq_like", "astar_like"], mechs, tiny_eval());
        let mut cfg = full.clone();
        cfg.filter = Some("CDF".to_string());
        let sweep = run_sweep(&cfg);
        let ran: Vec<(&str, Mechanism)> = sweep
            .cells
            .iter()
            .map(|c| (c.workload.as_str(), c.mechanism))
            .collect();
        assert_eq!(
            ran,
            [
                ("libq_like", Mechanism::Cdf),
                ("astar_like", Mechanism::Cdf)
            ]
        );
        let unfiltered = run_sweep(&full);
        for c in &sweep.cells {
            let same = unfiltered.cell(&c.workload, c.mechanism).unwrap();
            assert_eq!(c.result, same.result, "{}", c.workload);
        }
        let summary = sweep.render_summary();
        for w in ["libq_like", "astar_like"] {
            let row = summary.lines().find(|l| l.starts_with(w)).unwrap();
            let cols: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(cols[1], "-", "{summary}");
            assert!(cols[2].parse::<f64>().is_ok(), "{summary}");
        }
        cfg.filter = Some("nomatch".to_string());
        assert!(run_sweep(&cfg).cells.is_empty());
    }

    #[test]
    fn failing_cell_does_not_poison_the_sweep() {
        let cfg = SweepConfig::new(
            ["libq_like", "no_such_kernel", "astar_like"],
            vec![Mechanism::Baseline],
            tiny_eval(),
        );
        let sweep = run_sweep(&cfg);
        let (ok, failed) = sweep.counts();
        assert_eq!((ok, failed), (2, 1));
        let bad = sweep.cell("no_such_kernel", Mechanism::Baseline).unwrap();
        assert_eq!(bad.result.as_ref().unwrap_err().kind(), "unknown_workload");
        assert!(sweep.get("libq_like", Mechanism::Baseline).is_some());
        assert!(sweep.get("astar_like", Mechanism::Baseline).is_some());
        // The failure is a first-class record in the emitted JSON.
        let json = sweep.to_json().render();
        assert!(json.contains("\"status\":\"error\""));
        assert!(json.contains("unknown_workload"));
        assert!(sweep.render_summary().contains("ERROR(unknown_workload)"));
    }

    #[test]
    fn watchdog_degrades_hung_cell_into_timeout_record() {
        let mut eval = tiny_eval();
        eval.max_cycles = Some(1_500);
        let cfg = SweepConfig::new(["libq_like"], vec![Mechanism::Baseline], eval);
        let sweep = run_sweep(&cfg);
        let cell = sweep.cell("libq_like", Mechanism::Baseline).unwrap();
        assert_eq!(cell.result.as_ref().unwrap_err().kind(), "watchdog");
        assert!(sweep.to_json().render().contains("\"kind\":\"watchdog\""));
    }

    #[test]
    fn stalled_pipeline_degrades_into_a_stalled_cell() {
        let mut eval = tiny_eval();
        eval.core = eval.core.with_scaled_window(0);
        let cfg = SweepConfig::new(["libq_like"], vec![Mechanism::Baseline], eval);
        let sweep = run_sweep(&cfg);
        let err = sweep
            .cell("libq_like", Mechanism::Baseline)
            .unwrap()
            .result
            .as_ref()
            .unwrap_err();
        assert_eq!(err.kind(), "stalled");
        assert!(err.to_string().contains("no retirement"), "{err}");
        assert!(sweep.to_json().render().contains("\"kind\":\"stalled\""));
    }

    #[test]
    fn telemetry_cells_embed_series_without_perturbing_results() {
        let mut eval = tiny_eval();
        let m = Mechanism::Cdf;
        let plain = run_cell("libq_like", m, m.mode(), &eval, false);
        eval.telemetry = Some(cdf_core::TelemetryConfig::default());
        let telem = run_cell("libq_like", m, m.mode(), &eval, false);
        assert_eq!(plain.result, telem.result, "telemetry is observation-only");
        assert!(plain.telemetry.is_none());
        let tel = telem.telemetry.as_ref().expect("collector returned");
        assert_eq!(tel.accounting.total(), tel.observed_cycles());
        let json = cell_json(&telem, Some(telem.wall_ms), DEFAULT_CHAIN_LIMIT).render();
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("cdf-telemetry/1"));
    }

    #[test]
    fn profiled_cells_embed_profile_without_perturbing_results() {
        let eval = tiny_eval();
        let m = Mechanism::Cdf;
        let plain = run_cell("libq_like", m, m.mode(), &eval, false);
        let prof = run_cell("libq_like", m, m.mode(), &eval, true);
        assert_eq!(plain.result, prof.result, "profiling is observation-only");
        assert!(plain.profile.is_none());
        let p = prof.profile.as_ref().expect("profiler returned");
        assert!(p.cycles > 0 && p.total_wall_ns > 0);
        assert_eq!(
            p.tracked_ns() + p.untracked_ns,
            p.total_wall_ns,
            "totality invariant"
        );
        let json = cell_json(&prof, Some(prof.wall_ms), DEFAULT_CHAIN_LIMIT).render();
        assert!(json.contains("\"profile\""));
        assert!(json.contains("cdf-profile/1"));
        let mut cfg = SweepConfig::new(["libq_like"], vec![Mechanism::Cdf], eval);
        cfg.profile = true;
        let sweep = run_sweep(&cfg);
        assert!(sweep.cells[0].profile.is_some());
        assert!(sweep.to_json().render().contains("\"profile\""));
    }

    #[test]
    fn diagnostics_cells_embed_provenance_without_perturbing_results() {
        let mut eval = tiny_eval();
        let m = Mechanism::Cdf;
        let plain = run_cell("astar_like", m, m.mode(), &eval, false);
        eval.diagnostics = true;
        let diag = run_cell("astar_like", m, m.mode(), &eval, false);
        assert_eq!(
            plain.result, diag.result,
            "diagnostics are observation-only"
        );
        assert!(plain.diagnostics.is_none());
        let d = diag.diagnostics.as_ref().expect("collector returned");
        assert!(d.walks > 0, "CDF ran walks in this window");
        let json = cell_json(&diag, Some(diag.wall_ms), DEFAULT_CHAIN_LIMIT).render();
        assert!(json.contains("\"diagnostics\""));
        assert!(json.contains("\"coverage\""));
        assert!(json.contains("\"accuracy\""));
        let cfg = SweepConfig::new(["astar_like"], vec![Mechanism::Cdf], eval);
        assert!(run_sweep(&cfg)
            .to_json()
            .render()
            .contains("\"diagnostics\":true"));
    }

    #[test]
    fn each_observed_cell_is_a_guest_and_a_host_process_of_one_trace() {
        let mut eval = tiny_eval();
        let grid = SweepConfig::new(
            ["libq_like", "astar_like"],
            vec![Mechanism::Cdf],
            eval.clone(),
        );
        assert_eq!(run_sweep(&grid).trace_json().render(), "[]");
        eval.telemetry = Some(cdf_core::TelemetryConfig::default());
        let mut cfg = SweepConfig { eval, ..grid };
        cfg.profile = true;
        let doc = Json::parse(&run_sweep(&cfg).trace_json().render()).expect("trace parses");
        let events = doc.as_arr().expect("array-of-events form");
        let pid = |e: &Json| {
            e.get("pid")
                .and_then(Json::as_u64)
                .expect("every event has a pid")
        };
        let names: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .map(|e| {
                (
                    pid(e),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(
            names,
            [
                (1, "libq_like / CDF (guest, cycles)"),
                (2, "libq_like / CDF (host, wall us)"),
                (3, "astar_like / CDF (guest, cycles)"),
                (4, "astar_like / CDF (host, wall us)"),
            ]
        );
        for e in events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        {
            let host = e.get("cat").and_then(Json::as_str) == Some("host");
            assert_eq!(
                pid(e) % 2 == 0,
                host,
                "wall and cycle events share no process: {e:?}"
            );
        }
    }

    #[test]
    fn json_carries_provenance_stamps() {
        std::env::set_var("CDF_GIT_COMMIT", "deadbeef");
        let cfg = SweepConfig::new(["libq_like"], vec![Mechanism::Baseline], tiny_eval());
        let sweep = run_sweep(&cfg);
        let json = sweep.to_json().render();
        assert!(json.contains("\"schema\":\"cdf-sweep/1\""));
        assert!(json.contains(&format!("\"config_hash\":\"{}\"", sweep.config_hash)));
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"git_commit\":\"deadbeef\""));
        assert!(json.contains("\"host\":"));
        assert!(json.contains("\"seed\":7"));
        assert!(json.contains("\"measurement\""));
        assert!(json.contains("\"ipc\""));
        // Different seed → different hash, both for the sweep and the
        // per-cell eval hash the results store keys on.
        let mut other = cfg.clone();
        other.eval.gen.seed = 8;
        assert_ne!(config_hash(&cfg), config_hash(&other));
        assert_ne!(eval_config_hash(&cfg.eval), eval_config_hash(&other.eval));
    }
}
