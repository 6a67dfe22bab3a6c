//! One pass over a workload's cells, driving the simulator from outside
//! through the public calls `cdf-sim`'s run path makes, with a span around
//! each: `registry::lookup`, `Core::new` and `run_bounded` (or
//! `MultiCore::new` and `run`), then the stats accessors, and on `observed`
//! the document serializers and `ResultStore::append`.

use crate::check::{mix_core_counters, shared_counters, solo_counters, Counters, Snapshot};
use crate::spans::Tracer;
use cdf_core::{Core, CoreConfig, HostProf, HostProfile, MultiCore, Provenance, TelemetryConfig};
use cdf_sim::explain::DEFAULT_CHAIN_LIMIT;
use cdf_sim::{
    diagnostics_json, profile_json, records_from_cells, telemetry_json, EvalConfig, Measurement,
    Mechanism, ResultRecord, ResultStore, SimError, SweepCell,
};
use cdf_workloads::{registry, Workload as Kernel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The `solo` and `observed` kernels: ROADMAP's pinned astar/mcf cells, the
/// heaviest flush/fetch churn (bzip_like) and the in-workload CDF bypass
/// (lbm_like: no mispredicts, no CUC lookups).
pub const SOLO_KERNELS: [&str; 4] = ["astar_like", "mcf_like", "bzip_like", "lbm_like"];
/// Mechanisms of every `solo` and `observed` kernel.
pub const MECHANISMS: [Mechanism; 2] = [Mechanism::Baseline, Mechanism::Cdf];
/// The `mix` cores, in core-id order, all on the baseline mechanism.
pub const MIX_KERNELS: [&str; 4] = ["mcf_like", "astar_like", "lbm_like", "stream_hog"];
/// The mix's global cycle budget, as `cdf-sim mix` sets it.
pub const MIX_CYCLE_BUDGET: u64 = 50_000_000;
/// Telemetry sample interval on `observed` (`--telemetry 1024`).
pub const TELEMETRY_INTERVAL: u64 = 1024;
/// Run id of the rows `observed` appends to its throwaway store.
const RUN_ID: &str = "perfbench";

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The solo cells with observers off.
    Solo,
    /// One 4-core `MultiCore` over the shared memory system.
    Mix,
    /// The solo cells with telemetry, diagnostics and the profiler attached,
    /// rendering their documents and recording to a store.
    Observed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Solo, Workload::Mix, Workload::Observed];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::Mix => "mix",
            Workload::Observed => "observed",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Labels of the units whose counters are checked: the cells, or the
    /// mix's cores followed by its shared memory system.
    pub fn units(self) -> Vec<String> {
        match self {
            Workload::Mix => MIX_KERNELS
                .iter()
                .enumerate()
                .map(|(i, k)| format!("core{i}.{k}"))
                .chain(["shared".to_string()])
                .collect(),
            Workload::Solo | Workload::Observed => SOLO_KERNELS
                .iter()
                .flat_map(|k| MECHANISMS.iter().map(move |m| cell_label(k, *m)))
                .collect(),
        }
    }
}

/// `<kernel>.<mechanism>`, e.g. `astar_like.cdf`.
pub fn cell_label(kernel: &str, mech: Mechanism) -> String {
    format!("{kernel}.{}", mech.label().to_ascii_lowercase())
}

/// What every pass shares.
#[derive(Debug)]
pub struct Ctx {
    /// Sizing; `gen.seed` is the workload seed.
    pub eval: EvalConfig,
    /// Stamped on the rows `observed` records.
    pub provenance: Provenance,
    /// The throwaway store `observed` appends to.
    pub store: ResultStore,
    /// The calibration kernel's table.
    table: Vec<u64>,
}

impl Ctx {
    /// A context for passes at `eval` sizing.
    pub fn new(eval: EvalConfig, provenance: Provenance, store: ResultStore) -> Ctx {
        Ctx {
            eval,
            provenance,
            store,
            table: (0..CALIBRATION_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }
}

/// Words in the calibration table (4 MiB, beyond the private caches).
const CALIBRATION_WORDS: usize = 1 << 19;
/// Dependent steps of one calibration call.
const CALIBRATION_STEPS: u32 = 1 << 20;
/// Calibration calls at each calibration point.
const CALIBRATION_CALLS: usize = 3;

/// Fixed work of the simulator's kind — random reads over a table larger
/// than the private caches, each feeding a data-dependent branch — whose
/// time tracks how fast the host runs at the moment. It is the benchmark's
/// own code, so no change to the simulator moves it.
fn calibration_kernel(table: &[u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut acc = 0u64;
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[x as usize & mask];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(7);
        }
    }
    acc
}

/// One calibration point: a few kernel calls, each in a `calibrate` span.
fn calibrate(ctx: &Ctx, tr: &mut Tracer) {
    for _ in 0..CALIBRATION_CALLS {
        tr.time("calibrate", None, || {
            std::hint::black_box(calibration_kernel(std::hint::black_box(&ctx.table)))
        });
    }
}

/// Simulated work of one timed group: a cell, or the whole mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Work {
    /// The cell, as tagged on its `core.run` spans (`None` for the mix).
    pub cell: Option<usize>,
    /// Uops retired, warmup included.
    pub uops: u64,
    /// Core-cycles simulated, warmup included.
    pub cycles: u64,
    /// Uops retired in the measured window.
    pub measured_uops: u64,
    /// Core-cycles of the measured window.
    pub measured_cycles: u64,
}

/// What `observed` produced for one cell, kept for the digest.
#[derive(Clone, Debug)]
pub struct Documents {
    /// The `cdf-telemetry/1`, `cdf-explain/1` cell and `cdf-profile/1`
    /// documents, rendered.
    pub rendered: Vec<String>,
    /// The `cdf-result/1` rows appended to the store.
    pub records: Vec<ResultRecord>,
}

/// The outcome of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per unit (see [`Workload::units`]): its counters and, on `observed`,
    /// documents, or the error that stopped it.
    pub units: Vec<Result<(Counters, Option<Documents>), String>>,
    /// Simulated work per timed group.
    pub work: Vec<Work>,
    /// The host profile of the pass, folded over its cells, when the
    /// profiler was attached.
    pub profile: Option<HostProfile>,
    /// Bytes of documents rendered (`observed` only).
    pub doc_bytes: u64,
}

/// Runs one pass of `workload`. The whole pass is one root span named
/// `pass`, or `pass.profiled` when `profile` attaches the host profiler
/// (`observed` always attaches it; that is part of the workload). The pass
/// calibrates at its start, before each further cell and at its end.
pub fn run_pass(ctx: &Ctx, tr: &mut Tracer, workload: Workload, profile: bool) -> Pass {
    let root = tr.begin(if profile { "pass.profiled" } else { "pass" }, None);
    calibrate(ctx, tr);
    let pass = match workload {
        Workload::Solo => solo_pass(ctx, tr, false, profile),
        Workload::Observed => solo_pass(ctx, tr, true, true),
        Workload::Mix => mix_pass(ctx, tr, profile),
    };
    calibrate(ctx, tr);
    tr.end(root);
    pass
}

/// Set-up only: the lookups and core constructions of one pass, under a
/// root span named `setup`. Tops up the `setup_s` samples.
pub fn run_setup(ctx: &Ctx, tr: &mut Tracer, workload: Workload) -> Result<(), SimError> {
    let root = tr.begin("setup", None);
    calibrate(ctx, tr);
    let depth = tr.depth();
    let out = (|| {
        if workload == Workload::Mix {
            let kernels = lookup_all(ctx, tr, &MIX_KERNELS)?;
            drop(tr.time("core.new", None, || new_mix(ctx, &kernels)));
            return Ok(());
        }
        for (k, name) in SOLO_KERNELS.into_iter().enumerate() {
            let kernel = lookup(ctx, tr, name)?;
            for (m, mech) in MECHANISMS.into_iter().enumerate() {
                let cell = Some(k * MECHANISMS.len() + m);
                drop(tr.time("core.new", cell, || new_core(ctx, &kernel, mech)));
            }
        }
        Ok(())
    })();
    tr.close_to(depth);
    calibrate(ctx, tr);
    tr.end(root);
    out
}

fn lookup(ctx: &Ctx, tr: &mut Tracer, name: &str) -> Result<Kernel, SimError> {
    Ok(tr.time("workloads.lookup", None, || {
        registry::lookup(name, &ctx.eval.gen)
    })?)
}

fn lookup_all(ctx: &Ctx, tr: &mut Tracer, names: &[&str]) -> Result<Vec<Kernel>, SimError> {
    names.iter().map(|n| lookup(ctx, tr, n)).collect()
}

fn new_core<'p>(ctx: &Ctx, kernel: &'p Kernel, mech: Mechanism) -> Core<'p> {
    let cfg = CoreConfig {
        mode: mech.mode(),
        ..ctx.eval.core.clone()
    };
    Core::new(&kernel.program, kernel.memory.clone(), cfg)
}

fn new_mix<'p>(ctx: &Ctx, kernels: &'p [Kernel]) -> MultiCore<'p> {
    let cfg = CoreConfig {
        mode: Mechanism::Baseline.mode(),
        ..ctx.eval.core.clone()
    };
    MultiCore::new(
        kernels
            .iter()
            .map(|k| (&k.program, k.memory.clone(), cfg.clone()))
            .collect(),
    )
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    SimError::Panicked(msg).to_string()
}

/// Runs `f` with panics caught, closing any span it left open.
fn guarded<T>(
    tr: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    let depth = tr.depth();
    let out = catch_unwind(AssertUnwindSafe(|| f(tr))).unwrap_or_else(|p| Err(panic_message(p)));
    tr.close_to(depth);
    out
}

fn solo_pass(ctx: &Ctx, tr: &mut Tracer, observe: bool, profile: bool) -> Pass {
    let mut pass = Pass::default();
    for kernel in SOLO_KERNELS {
        let looked_up = lookup(ctx, tr, kernel).map_err(|e| e.to_string());
        for mech in MECHANISMS {
            if !pass.units.is_empty() {
                calibrate(ctx, tr);
            }
            let cell = pass.units.len();
            let run = match &looked_up {
                Ok(k) => guarded(tr, |tr| run_cell(ctx, tr, k, mech, cell, observe, profile)),
                Err(e) => Err(e.clone()),
            };
            match run {
                Ok(run) => {
                    pass.work.push(run.work);
                    let rendered = run.documents.iter().flat_map(|d| &d.rendered);
                    pass.doc_bytes += rendered.map(|r| r.len() as u64).sum::<u64>();
                    if let Some(p) = run.profile {
                        fold_profile(&mut pass.profile, p);
                    }
                    pass.units.push(Ok((run.counters, run.documents)));
                }
                Err(e) => pass.units.push(Err(e)),
            }
        }
    }
    pass
}

fn fold_profile(acc: &mut Option<HostProfile>, p: HostProfile) {
    match acc {
        Some(a) => a.fold(&p),
        None => *acc = Some(p),
    }
}

struct CellRun {
    counters: Counters,
    work: Work,
    /// Compared with `cdf_sim::simulate` by the tests.
    #[cfg(test)]
    measurement: Measurement,
    documents: Option<Documents>,
    profile: Option<HostProfile>,
}

fn run_cell(
    ctx: &Ctx,
    tr: &mut Tracer,
    kernel: &Kernel,
    mech: Mechanism,
    cell: usize,
    observe: bool,
    profile: bool,
) -> Result<CellRun, String> {
    let started = Instant::now();
    let span = tr.begin("cell", Some(cell));
    let mut core = tr.time("core.new", Some(cell), || new_core(ctx, kernel, mech));
    if observe {
        core.enable_telemetry(TelemetryConfig {
            interval: TELEMETRY_INTERVAL,
            ..TelemetryConfig::default()
        });
        core.enable_diagnostics();
    }
    if profile {
        core.enable_prof();
    }
    let budget = ctx.eval.max_cycles.unwrap_or(u64::MAX);
    let warmup = ctx.eval.warmup_instructions;
    let target = warmup + ctx.eval.measure_instructions;
    let run_start = Instant::now();
    tr.time("core.run", Some(cell), || core.run_bounded(warmup, budget));
    let warm = Snapshot::take(&core);
    tr.time("core.run", Some(cell), || core.run_bounded(target, budget));
    let run_ns = run_start.elapsed().as_nanos() as u64;
    let end = Snapshot::take(&core);
    if warm.stats.retired < warmup || end.stats.retired < target {
        return Err(format!(
            "stopped after {} of {target} uops ({} at the warmup boundary)",
            end.stats.retired, warm.stats.retired
        ));
    }
    let measurement = measurement(kernel.name, mech, &warm, &end);
    let work = Work {
        cell: Some(cell),
        uops: end.stats.retired,
        cycles: end.stats.cycles,
        measured_uops: end.stats.retired - warm.stats.retired,
        measured_cycles: end.stats.cycles - warm.stats.cycles,
    };
    let (documents, host) = if observe {
        let telemetry = core
            .take_telemetry()
            .expect("telemetry is enabled on observed cells");
        let diagnostics = core
            .take_diagnostics()
            .expect("diagnostics are enabled on observed cells");
        let host = core
            .take_profile(run_ns)
            .expect("the profiler is enabled on observed cells");
        let s = tr.begin("sim.serialize", Some(cell));
        let rendered = vec![
            telemetry_json(&telemetry).render(),
            diagnostics_json(&diagnostics, DEFAULT_CHAIN_LIMIT).render(),
            profile_json(&host, kernel.name, mech.label()).render(),
        ];
        let sweep_cell = SweepCell {
            workload: kernel.name.to_string(),
            mechanism: mech,
            result: Ok(measurement.clone()),
            telemetry: Some(telemetry),
            diagnostics: Some(diagnostics),
            profile: Some(host),
            wall_ms: started.elapsed().as_millis() as u64,
        };
        let records = records_from_cells(
            RUN_ID,
            &ctx.provenance,
            &ctx.eval,
            std::slice::from_ref(&sweep_cell),
        );
        tr.end(s);
        tr.time("sim.store", Some(cell), || ctx.store.append(&records))
            .map_err(|e| format!("appending to the store: {e}"))?;
        (Some(Documents { rendered, records }), sweep_cell.profile)
    } else {
        (None, profile.then(|| core.take_profile(run_ns)).flatten())
    };
    tr.end(span);
    Ok(CellRun {
        counters: solo_counters(&warm, &end),
        work,
        #[cfg(test)]
        measurement,
        documents,
        profile: host,
    })
}

/// The cell's [`Measurement`] over the window between `warm` and `end`,
/// computed as `cdf_sim::simulate` computes it.
pub fn measurement(kernel: &str, mech: Mechanism, warm: &Snapshot, end: &Snapshot) -> Measurement {
    let (s0, s1) = (&warm.stats, &end.stats);
    let ratio = |num: u64, den: u64, scale: f64| {
        if den == 0 {
            0.0
        } else {
            num as f64 * scale / den as f64
        }
    };
    let instructions = s1.retired - s0.retired;
    let cycles = s1.cycles - s0.cycles;
    let rob_c = s1.rob_mix.critical - s0.rob_mix.critical;
    let rob_n = s1.rob_mix.non_critical - s0.rob_mix.non_critical;
    Measurement {
        workload: kernel.to_string(),
        mechanism: mech.label().to_string(),
        instructions,
        cycles,
        ipc: ratio(instructions, cycles, 1.0),
        mlp: ratio(s1.mlp_sum - s0.mlp_sum, s1.mlp_cycles - s0.mlp_cycles, 1.0),
        dram_lines: end.dram.total() - warm.dram.total(),
        energy_nj: end.energy_nj - warm.energy_nj,
        cdf_energy_nj: end.cdf_energy_nj - warm.cdf_energy_nj,
        branch_mpki: ratio(s1.mispredicts - s0.mispredicts, instructions, 1000.0),
        llc_mpki: ratio(s1.llc_miss_loads - s0.llc_miss_loads, instructions, 1000.0),
        rob_critical_fraction: ratio(rob_c, rob_c + rob_n, 1.0),
        full_window_stall_cycles: s1.full_window_stall_cycles - s0.full_window_stall_cycles,
        cdf_mode_cycles: s1.cdf_mode_cycles - s0.cdf_mode_cycles,
        critical_uops: s1.critical_uops_issued - s0.critical_uops_issued,
        runahead_uops: s1.runahead_uops - s0.runahead_uops,
        dependence_violations: s1.dependence_violations - s0.dependence_violations,
    }
}

fn mix_pass(ctx: &Ctx, tr: &mut Tracer, profile: bool) -> Pass {
    let units = Workload::Mix.units().len();
    guarded(tr, |tr| run_mix(ctx, tr, profile)).unwrap_or_else(|e| Pass {
        units: vec![Err(e); units],
        ..Pass::default()
    })
}

fn run_mix(ctx: &Ctx, tr: &mut Tracer, profile: bool) -> Result<Pass, String> {
    let kernels = lookup_all(ctx, tr, &MIX_KERNELS).map_err(|e| e.to_string())?;
    let mut mc = tr.time("core.new", None, || new_mix(ctx, &kernels));
    if profile {
        mc.cores_mut().iter_mut().for_each(Core::enable_prof);
    }
    let target = ctx.eval.warmup_instructions + ctx.eval.measure_instructions;
    let run_start = Instant::now();
    let outcomes = tr.time("core.run", None, || mc.run(target, MIX_CYCLE_BUDGET));
    let run_ns = run_start.elapsed().as_nanos() as u64;
    let shared = mc.shared_report();
    let mut pass = Pass::default();
    let mut work = Work {
        cell: None,
        uops: 0,
        cycles: 0,
        measured_uops: 0,
        measured_cycles: 0,
    };
    for (id, o) in outcomes.iter().enumerate() {
        if o.stats.retired < target {
            return Err(format!(
                "core {id} stopped after {} of {target} uops",
                o.stats.retired
            ));
        }
        let l1d = mc.shared().borrow().l1d_stats(id);
        pass.units.push(Ok((mix_core_counters(o, l1d), None)));
        work.uops += o.stats.retired;
        work.cycles += o.stats.cycles;
    }
    pass.units.push(Ok((shared_counters(&shared), None)));
    // A mix measures from cycle 0, caches empty.
    work.measured_uops = work.uops;
    work.measured_cycles = work.cycles;
    pass.work.push(work);
    if profile {
        // As `cdf_sim::run_mix` does: per-core collectors merge, and the
        // shared system's timers are drained once for the whole mix.
        let mut merged = HostProf::new();
        for core in mc.cores_mut() {
            if let Some(p) = core.take_prof() {
                merged.merge(&p);
            }
        }
        if let Some(m) = mc.shared().borrow_mut().take_prof() {
            merged.fold_mem(&m);
        }
        pass.profile = Some(merged.into_profile(shared.cycles, work.uops, run_ns));
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driven_cell_equals_simulate() {
        // One default-sizing cell, driven the benchmark's way, against the
        // program users run: every field of the measurement must agree.
        let eval = EvalConfig::default();
        let store = ResultStore::open(concat!(env!("CARGO_MANIFEST_DIR"), "/out/driven.jsonl"));
        let ctx = Ctx::new(eval.clone(), Provenance::default(), store);
        let kernel = registry::lookup("astar_like", &eval.gen).expect("registered kernel");
        let run = run_cell(
            &ctx,
            &mut Tracer::new(),
            &kernel,
            Mechanism::Cdf,
            1,
            false,
            false,
        )
        .expect("the cell runs");
        assert_eq!(
            run.measurement,
            cdf_sim::simulate("astar_like", Mechanism::Cdf, &eval)
        );
    }

    #[test]
    fn changing_the_seed_changes_the_generated_inputs() {
        let gen = |seed| cdf_workloads::GenConfig {
            seed,
            ..EvalConfig::quick().gen
        };
        for name in SOLO_KERNELS.iter().chain(&MIX_KERNELS) {
            let a = registry::lookup(name, &gen(1)).expect("registered kernel");
            let again = registry::lookup(name, &gen(1)).expect("registered kernel");
            let b = registry::lookup(name, &gen(2)).expect("registered kernel");
            assert_eq!(a.memory, again.memory, "{name}: same seed, same inputs");
            assert_ne!(a.memory, b.memory, "{name}: another seed, other inputs");
        }
    }

    #[test]
    fn units_name_every_cell_and_core() {
        assert_eq!(Workload::Solo.units().len(), 8);
        assert_eq!(Workload::Solo.units()[1], "astar_like.cdf");
        assert_eq!(
            Workload::Mix.units().last().map(String::as_str),
            Some("shared")
        );
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
