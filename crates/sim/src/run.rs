//! Running one workload on one mechanism with warmup/measure windowing.

use crate::error::{SimError, WatchdogPhase};
use cdf_core::{
    CdfConfig, CdfDiagnostics, Core, CoreConfig, CoreMode, CoreStats, HostProfile, PreConfig,
    Telemetry, TelemetryConfig,
};
use cdf_workloads::{registry, GenConfig, Workload};
use std::time::Instant;

/// Which mechanism to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mechanism {
    /// Baseline OoO with prefetching.
    Baseline,
    /// Baseline with observe-only criticality classification (Fig. 1).
    BaselineClassify,
    /// Criticality Driven Fetch.
    Cdf,
    /// Precise Runahead.
    Pre,
    /// CDF without branch criticality (the §4.2 ablation).
    CdfNoBranches,
    /// CDF with static partitioning (design-choice ablation).
    CdfStaticPartition,
    /// CDF without the Mask Cache (design-choice ablation).
    CdfNoMaskCache,
}

impl Mechanism {
    /// Every mechanism, in report order — the full axis of the default sweep
    /// grid.
    pub const ALL: [Mechanism; 7] = [
        Mechanism::Baseline,
        Mechanism::BaselineClassify,
        Mechanism::Cdf,
        Mechanism::Pre,
        Mechanism::CdfNoBranches,
        Mechanism::CdfStaticPartition,
        Mechanism::CdfNoMaskCache,
    ];

    /// Parses a mechanism from its [`label`](Self::label) or a CLI alias
    /// (case-insensitive): `base`/`baseline`, `classify`, `cdf`, `pre`,
    /// `cdf-nobr`, `cdf-static`, `cdf-nomask`.
    pub fn parse(s: &str) -> Option<Mechanism> {
        match s.to_ascii_lowercase().as_str() {
            "base" | "baseline" => Some(Mechanism::Baseline),
            "classify" | "base+classify" => Some(Mechanism::BaselineClassify),
            "cdf" => Some(Mechanism::Cdf),
            "pre" => Some(Mechanism::Pre),
            "cdf-nobr" | "nobr" => Some(Mechanism::CdfNoBranches),
            "cdf-static" | "static" => Some(Mechanism::CdfStaticPartition),
            "cdf-nomask" | "nomask" => Some(Mechanism::CdfNoMaskCache),
            _ => None,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Baseline => "base",
            Mechanism::BaselineClassify => "base+classify",
            Mechanism::Cdf => "CDF",
            Mechanism::Pre => "PRE",
            Mechanism::CdfNoBranches => "CDF-nobr",
            Mechanism::CdfStaticPartition => "CDF-static",
            Mechanism::CdfNoMaskCache => "CDF-nomask",
        }
    }

    /// The core mode for this mechanism.
    pub fn mode(self) -> CoreMode {
        match self {
            Mechanism::Baseline => CoreMode::Baseline,
            Mechanism::BaselineClassify => CoreMode::BaselineClassify,
            Mechanism::Cdf => CoreMode::Cdf(CdfConfig::default()),
            Mechanism::Pre => CoreMode::Pre(PreConfig::default()),
            Mechanism::CdfNoBranches => CoreMode::Cdf(CdfConfig {
                mark_branches: false,
                ..CdfConfig::default()
            }),
            Mechanism::CdfStaticPartition => CoreMode::Cdf(CdfConfig {
                dynamic_partitioning: false,
                ..CdfConfig::default()
            }),
            Mechanism::CdfNoMaskCache => CoreMode::Cdf(CdfConfig {
                use_mask_cache: false,
                ..CdfConfig::default()
            }),
        }
    }
}

/// Evaluation sizing: workload generation parameters plus the simulation
/// window.
///
/// The paper simulates 200M-instruction SimPoints after 200M of warmup;
/// this harness defaults to a laptop-scale window with the same structure
/// (warmup trains caches, predictor, CCTs and traces; measurement starts
/// after).
#[derive(Clone, PartialEq, Debug)]
pub struct EvalConfig {
    /// Workload generation parameters.
    pub gen: GenConfig,
    /// Instructions retired before measurement starts.
    pub warmup_instructions: u64,
    /// Instructions measured after warmup.
    pub measure_instructions: u64,
    /// Core configuration template (mode is overridden per mechanism).
    pub core: CoreConfig,
    /// Watchdog fuel: total core-cycle budget for one run (warmup plus
    /// measurement). When the budget runs out before the instruction window
    /// retires, the run fails with [`SimError::Watchdog`] instead of
    /// spinning. `None` disables the watchdog, which keeps the run loop
    /// bit-identical to an unbounded run.
    pub max_cycles: Option<u64>,
    /// Telemetry collection (interval series, occupancy histograms, cycle
    /// accounting, event sink). `None` — the default — runs zero telemetry
    /// code and produces bit-identical [`Measurement`]s to builds without
    /// the telemetry layer; `Some` attaches a collector to every simulated
    /// core, returned in [`RunOutput::telemetry`]. Telemetry never perturbs
    /// the measured stats either way (asserted by tests).
    pub telemetry: Option<TelemetryConfig>,
    /// Criticality-provenance diagnostics (chain lifecycles, CUC
    /// coverage/accuracy, lead-time histograms — see [`cdf_core::diag`]).
    /// `false` — the default — runs zero observation code; `true` attaches a
    /// [`CdfDiagnostics`] collector to every simulated core, returned in
    /// [`RunOutput::diagnostics`]. Diagnostics never perturb the measured
    /// stats either way (asserted by tests).
    pub diagnostics: bool,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            gen: GenConfig {
                seed: 0xC0FFEE,
                scale: 0.25,
                iters: u64::MAX / 4,
            },
            warmup_instructions: 100_000,
            measure_instructions: 200_000,
            core: CoreConfig::default(),
            max_cycles: None,
            telemetry: None,
            diagnostics: false,
        }
    }
}

impl EvalConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> EvalConfig {
        EvalConfig {
            gen: GenConfig {
                seed: 0xC0FFEE,
                scale: 1.0 / 16.0,
                iters: u64::MAX / 4,
            },
            warmup_instructions: 30_000,
            measure_instructions: 60_000,
            ..EvalConfig::default()
        }
    }
}

/// The measured quantities of one (workload, mechanism) run over the
/// measurement window.
///
/// Derives `PartialEq` so sweep determinism can be asserted stat-for-stat.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Mechanism label (a custom label for non-standard configurations, see
    /// [`run`]).
    pub mechanism: String,
    /// Instructions retired in the window.
    pub instructions: u64,
    /// Cycles in the window.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Average outstanding demand LLC misses while ≥ 1 outstanding (Fig. 14).
    pub mlp: f64,
    /// 64B lines moved to/from DRAM (reads + writebacks; Fig. 15).
    pub dram_lines: u64,
    /// Total energy in nanojoules (Fig. 16).
    pub energy_nj: f64,
    /// Energy of CDF-only structures in nanojoules (§4.3 overhead claim).
    pub cdf_energy_nj: f64,
    /// Branch MPKI.
    pub branch_mpki: f64,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Fraction of ROB occupancy that was critical during full-window
    /// stalls (Fig. 1).
    pub rob_critical_fraction: f64,
    /// Full-window stall cycles in the window.
    pub full_window_stall_cycles: u64,
    /// CDF-mode cycles in the window.
    pub cdf_mode_cycles: u64,
    /// Critical uops issued via the critical stream.
    pub critical_uops: u64,
    /// Runahead uops interpreted (PRE).
    pub runahead_uops: u64,
    /// CDF dependence-violation flushes.
    pub dependence_violations: u64,
}

/// The cumulative counters of one core at one instant: its statistics
/// plus the DRAM lines and energy charged to it. A [`Measurement`] is the
/// difference of two readings ([`Measurement::between`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Reading {
    pub(crate) stats: CoreStats,
    pub(crate) dram_lines: u64,
    pub(crate) energy_nj: f64,
    pub(crate) cdf_energy_nj: f64,
}

impl Reading {
    /// Reads a core with a private memory hierarchy, whose `stats` the
    /// last run window returned.
    fn take(core: &Core<'_>, stats: CoreStats) -> Reading {
        let e = core.energy_report();
        Reading {
            stats,
            dram_lines: core.hierarchy().dram_stats().total(),
            energy_nj: e.total_nj(),
            cdf_energy_nj: e.cdf_structures_nj(),
        }
    }
}

impl Measurement {
    /// The measurement of the window from `start` to `end`: every count is
    /// the difference of the two readings, and every ratio is taken over
    /// the window. A whole run from cycle 0 starts at
    /// [`Reading::default`].
    pub(crate) fn between(
        workload: &str,
        mechanism: &str,
        start: &Reading,
        end: &Reading,
    ) -> Measurement {
        let (s0, s1) = (&start.stats, &end.stats);
        let instructions = s1.retired - s0.retired;
        let cycles = s1.cycles - s0.cycles;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let per_kilo = |n: u64| {
            if instructions == 0 {
                0.0
            } else {
                n as f64 * 1000.0 / instructions as f64
            }
        };
        let rob_critical = s1.rob_mix.critical - s0.rob_mix.critical;
        let rob_non_critical = s1.rob_mix.non_critical - s0.rob_mix.non_critical;
        Measurement {
            workload: workload.to_string(),
            mechanism: mechanism.to_string(),
            instructions,
            cycles,
            ipc: ratio(instructions, cycles),
            mlp: ratio(s1.mlp_sum - s0.mlp_sum, s1.mlp_cycles - s0.mlp_cycles),
            dram_lines: end.dram_lines - start.dram_lines,
            energy_nj: end.energy_nj - start.energy_nj,
            cdf_energy_nj: end.cdf_energy_nj - start.cdf_energy_nj,
            branch_mpki: per_kilo(s1.mispredicts - s0.mispredicts),
            llc_mpki: per_kilo(s1.llc_miss_loads - s0.llc_miss_loads),
            rob_critical_fraction: ratio(rob_critical, rob_critical + rob_non_critical),
            full_window_stall_cycles: s1.full_window_stall_cycles - s0.full_window_stall_cycles,
            cdf_mode_cycles: s1.cdf_mode_cycles - s0.cdf_mode_cycles,
            critical_uops: s1.critical_uops_issued - s0.critical_uops_issued,
            runahead_uops: s1.runahead_uops - s0.runahead_uops,
            dependence_violations: s1.dependence_violations - s0.dependence_violations,
        }
    }
}

/// Simulates one named workload on one mechanism: the by-name convenience
/// over [`run`].
///
/// # Panics
///
/// Panics on any [`SimError`] — unknown workload name (see
/// [`cdf_workloads::registry::NAMES`]) or watchdog expiry. Use
/// [`crate::run_cell`] to get failures, panics included, as typed errors.
pub fn simulate(name: &str, mechanism: Mechanism, cfg: &EvalConfig) -> Measurement {
    registry::lookup(name, &cfg.gen)
        .map_err(SimError::from)
        .and_then(|w| run(&w, mechanism.mode(), mechanism.label(), cfg, false))
        .map(|out| out.measurement)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Everything one run reports: the measurement plus each observer that was
/// attached for it. An observer that was not attached is `None`.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The measured window.
    pub measurement: Measurement,
    /// The core's telemetry, when [`EvalConfig::telemetry`] is set.
    pub telemetry: Option<Telemetry>,
    /// The criticality-provenance diagnostics, when
    /// [`EvalConfig::diagnostics`] is set.
    pub diagnostics: Option<CdfDiagnostics>,
    /// The host self-profile of the whole run, when `profile` was requested.
    pub profile: Option<HostProfile>,
}

/// Runs an already-built workload on `mode`: builds the core, attaches the
/// observers `cfg` asks for (plus the host profiler when `profile` is set),
/// runs the warmup window and then the measurement window, and detaches the
/// observers into the [`RunOutput`]. `label` names the mechanism in the
/// [`Measurement`]. A stall or a watchdog expiry in either window is a
/// typed [`SimError`].
///
/// Every observer is observation-only: the measurement is bit-identical
/// whichever are attached. `profile` is a parameter rather than an
/// [`EvalConfig`] field because the config's `Debug` text is hashed into
/// every store row, and profiling must not move that hash.
pub fn run(
    w: &Workload,
    mode: CoreMode,
    label: &str,
    cfg: &EvalConfig,
    profile: bool,
) -> Result<RunOutput, SimError> {
    let core_cfg = CoreConfig {
        mode,
        ..cfg.core.clone()
    };
    let mut core = Core::new(&w.program, w.memory.clone(), core_cfg);
    if let Some(tcfg) = &cfg.telemetry {
        core.enable_telemetry(tcfg.clone());
    }
    if cfg.diagnostics {
        core.enable_diagnostics();
    }
    if profile {
        core.enable_prof();
    }
    let wall_start = profile.then(Instant::now);
    let budget = cfg.max_cycles.unwrap_or(u64::MAX);

    // Warmup window.
    let warm = core.run_bounded(cfg.warmup_instructions, budget);
    if !warm.halted && warm.retired < cfg.warmup_instructions && warm.cycles >= budget {
        return Err(SimError::Watchdog {
            phase: WatchdogPhase::Warmup,
            max_cycles: budget,
            retired: warm.retired,
        });
    }
    let start = Reading::take(&core, warm);

    // Measurement window. A stall stops the core for good, so a warmup
    // stall ends this window at once and is reported here.
    let target = cfg.warmup_instructions + cfg.measure_instructions;
    let end_stats = core.run_bounded(target, budget);
    if let Some(diagnostic) = core.stalled() {
        return Err(SimError::Stalled(diagnostic.to_string()));
    }
    if !end_stats.halted && end_stats.retired < target && end_stats.cycles >= budget {
        return Err(SimError::Watchdog {
            phase: WatchdogPhase::Measure,
            max_cycles: budget,
            retired: end_stats.retired,
        });
    }
    let end = Reading::take(&core, end_stats);
    Ok(RunOutput {
        measurement: Measurement::between(w.name, label, &start, &end),
        telemetry: core.take_telemetry(),
        diagnostics: core.take_diagnostics(),
        profile: wall_start.and_then(|t0| core.take_profile(t0.elapsed().as_nanos() as u64)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_baseline_measurement_is_sane() {
        let cfg = EvalConfig::quick();
        let m = simulate("libq_like", Mechanism::Baseline, &cfg);
        assert_eq!(m.mechanism, "base");
        assert!(m.instructions >= cfg.measure_instructions);
        assert!(m.ipc > 0.1 && m.ipc < 6.0, "ipc {}", m.ipc);
        assert!(m.cycles > 0);
    }

    #[test]
    fn cdf_mechanism_reports_cdf_activity() {
        let cfg = EvalConfig::quick();
        let m = simulate("astar_like", Mechanism::Cdf, &cfg);
        assert!(m.critical_uops > 0, "CDF must engage: {m:?}");
        assert!(m.cdf_mode_cycles > 0);
        assert!(m.cdf_energy_nj > 0.0);
    }

    #[test]
    fn pre_mechanism_reports_runahead() {
        let cfg = EvalConfig::quick();
        let m = simulate("astar_like", Mechanism::Pre, &cfg);
        assert!(m.runahead_uops > 0, "PRE must engage: {m:?}");
    }

    #[test]
    fn deterministic_measurements() {
        let cfg = EvalConfig::quick();
        let a = simulate("mcf_like", Mechanism::Cdf, &cfg);
        let b = simulate("mcf_like", Mechanism::Cdf, &cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dram_lines, b.dram_lines);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        simulate("nope", Mechanism::Baseline, &EvalConfig::quick());
    }

    #[test]
    fn unknown_workload_typed_error_lists_registry() {
        let m = Mechanism::Baseline;
        let cell = crate::sweep::run_cell("nope", m, m.mode(), &EvalConfig::quick(), false);
        let err = cell.result.unwrap_err();
        assert_eq!(err.kind(), "unknown_workload");
        assert!(err.to_string().contains("astar_like"), "{err}");
    }

    #[test]
    fn watchdog_fires_on_tiny_fuel() {
        let cfg = EvalConfig {
            max_cycles: Some(2_000),
            ..EvalConfig::quick()
        };
        let w = registry::lookup("libq_like", &cfg.gen).expect("registered");
        let err = run(&w, CoreMode::Baseline, "base", &cfg, false).unwrap_err();
        match err {
            SimError::Watchdog {
                max_cycles,
                retired,
                ..
            } => {
                assert_eq!(max_cycles, 2_000);
                assert!(retired < cfg.warmup_instructions + cfg.measure_instructions);
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_disabled_matches_unbounded_run() {
        let quick = EvalConfig::quick();
        let bounded = EvalConfig {
            max_cycles: Some(u64::MAX / 2),
            ..quick.clone()
        };
        let a = simulate("libq_like", Mechanism::Cdf, &quick);
        let b = simulate("libq_like", Mechanism::Cdf, &bounded);
        assert_eq!(a, b, "an unfired watchdog must not perturb results");
    }

    #[test]
    fn mechanism_parse_roundtrips_labels() {
        for m in Mechanism::ALL {
            assert_eq!(Mechanism::parse(m.label()), Some(m), "{}", m.label());
        }
        assert_eq!(Mechanism::parse("BASELINE"), Some(Mechanism::Baseline));
        assert_eq!(Mechanism::parse("bogus"), None);
    }
}
