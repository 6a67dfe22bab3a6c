//! Metamorphic cross-mechanism properties: relations that must hold
//! *between* runs regardless of absolute timing, so they survive re-blessing
//! of the golden snapshots.
//!
//! * Every mechanism retires exactly the same dynamic uop count on a
//!   deterministic halting program — criticality machinery may reorder and
//!   accelerate, but never add or drop architectural work.
//! * CDF does not lose cycles to the baseline on the LLC-miss-dominated
//!   kernels it targets (the paper's headline direction, Fig. 12).
//! * The telemetry cycle-accounting buckets sum exactly to the observed
//!   cycles under every mechanism — attribution never double-counts or
//!   leaks a cycle, whichever frontend/scheduler path produced it.

use cdf_core::{Core, CoreConfig, TelemetryConfig};
use cdf_sim::{run, simulate, EvalConfig, Mechanism};
use cdf_workloads::fuzz::FuzzSpec;
use cdf_workloads::{registry, GenConfig};

/// All seven mechanisms retire the identical uop count on halting fuzz
/// programs and on a finite-trip registry kernel.
#[test]
fn retired_count_is_mechanism_invariant() {
    for seed in [3u64, 17, 4242] {
        let fp = FuzzSpec::from_seed(seed).build();
        let mut counts = Vec::new();
        for &mech in &Mechanism::ALL {
            let cfg = CoreConfig {
                mode: mech.mode(),
                ..CoreConfig::default()
            };
            let mut core = Core::new(&fp.program, fp.memory.clone(), cfg);
            let stats = core.run(fp.fuel + 8);
            assert!(stats.halted, "seed {seed} hung under {}", mech.label());
            counts.push((mech.label(), stats.retired));
        }
        let first = counts[0].1;
        assert!(
            counts.iter().all(|&(_, c)| c == first),
            "seed {seed}: retired counts diverge across mechanisms: {counts:?}"
        );
    }

    let gen = GenConfig {
        seed: 0xC0FFEE,
        scale: 1.0 / 32.0,
        iters: 300,
    };
    let w = registry::lookup("astar_like", &gen).expect("known workload");
    let mut counts = Vec::new();
    for &mech in &Mechanism::ALL {
        let cfg = CoreConfig {
            mode: mech.mode(),
            ..CoreConfig::default()
        };
        let mut core = Core::new(&w.program, w.memory.clone(), cfg);
        let stats = core.run(5_000_000);
        assert!(stats.halted, "astar_like/300 hung under {}", mech.label());
        counts.push((mech.label(), stats.retired));
    }
    let first = counts[0].1;
    assert!(
        counts.iter().all(|&(_, c)| c == first),
        "astar_like: retired counts diverge across mechanisms: {counts:?}"
    );
}

/// On the LLC-miss-heavy kernels CDF exists for, CDF must not lose
/// throughput to the baseline. (Windows can overshoot the instruction
/// target by up to a retire-width differently per mechanism, so the
/// comparison is per-instruction, not raw cycles.)
#[test]
fn cdf_does_not_regress_llc_miss_heavy_kernels() {
    let cfg = EvalConfig::quick();
    for name in ["astar_like", "mcf_like"] {
        let base = simulate(name, Mechanism::Baseline, &cfg);
        let cdf = simulate(name, Mechanism::Cdf, &cfg);
        let width = u64::try_from(cfg.core.retire_width).unwrap();
        assert!(
            base.instructions.abs_diff(cdf.instructions) < width,
            "{name}: windows comparable: {} vs {}",
            base.instructions,
            cdf.instructions
        );
        assert!(
            cdf.ipc >= base.ipc,
            "{name}: CDF IPC {:.4} fell below baseline {:.4}",
            cdf.ipc,
            base.ipc
        );
    }
}

/// Cycle-accounting buckets are a partition of time under every mechanism.
#[test]
fn accounting_buckets_partition_cycles_under_every_mechanism() {
    let mut cfg = EvalConfig::quick();
    cfg.warmup_instructions = 5_000;
    cfg.measure_instructions = 10_000;
    cfg.telemetry = Some(TelemetryConfig::default());
    let w = registry::lookup("mcf_like", &cfg.gen).expect("known workload");
    for &mech in &Mechanism::ALL {
        let out = run(&w, mech.mode(), mech.label(), &cfg, false)
            .unwrap_or_else(|e| panic!("mcf_like under {}: {e}", mech.label()));
        let tel = out.telemetry.expect("telemetry was enabled");
        assert_eq!(
            tel.accounting.total(),
            tel.observed_cycles(),
            "bucket totals must sum to cycles under {}",
            mech.label()
        );
        for (structure, h) in tel.occupancy.named() {
            assert_eq!(
                h.samples(),
                tel.observed_cycles(),
                "{structure} sampled once per cycle under {}",
                mech.label()
            );
        }
    }
}
