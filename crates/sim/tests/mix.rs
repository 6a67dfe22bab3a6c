//! Multi-core mix test battery: a one-core `MultiCore` against a private
//! `Core`, metamorphic contention properties, shared-MSHR conservation
//! invariants over fuzz programs, scheduler equivalence through the shared
//! memory system, and the telemetry summary each core's store row keeps.
//!
//! The metamorphic properties pin what contention **may** and **may not**
//! change: co-runners may slow a core down (timing), but never alter its
//! architectural execution (retired uops, branch outcomes), and bandwidth
//! pressure must hurt monotonically.

use cdf_core::{Core, CoreConfig, MultiCore, Provenance, SchedulerKind};
use cdf_sim::sweep::parallel_map;
use cdf_sim::{
    records_from_mix, run_mix, GoldenConfig, Measurement, Mechanism, MixConfig, MixReport,
    RecordPayload,
};
use cdf_workloads::fuzz::FuzzSpec;
use cdf_workloads::registry;
use proptest::prelude::*;

fn quick_mix(workloads: &[&str], mech: Mechanism) -> MixConfig {
    MixConfig::new(
        workloads.iter().map(|s| s.to_string()).collect(),
        vec![mech],
    )
    .quick()
}

fn run(workloads: &[&str], mech: Mechanism) -> Vec<Measurement> {
    run_mix(&quick_mix(workloads, mech))
        .unwrap_or_else(|e| panic!("mix {workloads:?} failed: {e}"))
        .cores
        .into_iter()
        .map(|c| c.measurement)
        .collect()
}

/// Like [`run`], but bounds the workload's outer loop so every program
/// **halts** before the instruction budget: retired-uop counts are then
/// architecturally pinned (a budget-stopped run can overshoot its target
/// by up to retire-width, which is timing- and therefore
/// contention-dependent — exactly what these tests must factor out).
fn run_halting(workloads: &[&str], mech: Mechanism, iters: u64) -> Vec<Measurement> {
    let mut cfg = quick_mix(workloads, mech);
    cfg.eval.gen.iters = iters;
    run_mix(&cfg)
        .unwrap_or_else(|e| panic!("mix {workloads:?} failed: {e}"))
        .cores
        .into_iter()
        .map(|c| c.measurement)
        .collect()
}

/// A private hierarchy is the one-core memory system, so a one-core
/// `MultiCore` is a private `Core`: every registry workload × {base, CDF,
/// PRE} at golden-grid sizing agrees on the core's stats, its memory
/// traffic, DRAM, and L1D/LLC hit counts.
#[test]
fn one_core_multicore_equals_private_core() {
    let golden = GoldenConfig::default();
    let jobs: Vec<(&str, Mechanism)> = registry::NAMES
        .iter()
        .flat_map(|&w| FUZZ_MODES.map(|m| (w, m)))
        .collect();
    let diverged = parallel_map(&jobs, golden.threads, |&(name, mech)| {
        let w = registry::lookup(name, &golden.gen).expect("registry workload");
        let cfg = CoreConfig {
            mode: mech.mode(),
            ..CoreConfig::default()
        };
        let mut core = Core::new(&w.program, w.memory.clone(), cfg.clone());
        let stats = core.run_bounded(golden.max_instructions, golden.cycle_budget);
        let h = core.hierarchy();
        let mut mc = MultiCore::new(vec![(&w.program, w.memory.clone(), cfg)]);
        let out = mc.run(golden.max_instructions, golden.cycle_budget);
        let shared = mc.shared_report();
        let l1d = mc.shared().borrow().l1d_stats(0);
        let same = out[0].stats == stats
            && out[0].mem == *h.stats()
            && shared.mem == *h.stats()
            && shared.dram == *h.dram_stats()
            && l1d == h.l1d_stats()
            && shared.llc == h.llc_stats();
        (!same).then(|| format!("{name}/{}", mech.label()))
    });
    let diverged: Vec<String> = diverged.into_iter().flatten().collect();
    assert!(
        diverged.is_empty(),
        "one-core mix != private core: {diverged:?}"
    );
}

/// Metamorphic: duplicating the same workload on two symmetric cores never
/// changes either core's retired-uop count — contention is allowed to cost
/// cycles, never instructions.
#[test]
fn symmetric_duplication_preserves_retired_uops() {
    for mech in [Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre] {
        let solo = run_halting(&["mcf_like"], mech, 2_000);
        let dup = run_halting(&["mcf_like", "mcf_like"], mech, 2_000);
        assert_eq!(
            dup[0].instructions,
            dup[1].instructions,
            "{}: symmetric cores must retire alike",
            mech.label()
        );
        assert_eq!(
            solo[0].instructions,
            dup[0].instructions,
            "{}: a co-runner must not change retirement counts",
            mech.label()
        );
        assert!(
            dup[0].cycles >= solo[0].cycles,
            "{}: contention cannot speed a core up",
            mech.label()
        );
    }
}

/// Metamorphic: a latency-bound core's IPC is monotonically non-increasing
/// in co-runner bandwidth pressure (solo ≥ one hog ≥ three hogs).
#[test]
fn victim_ipc_monotone_under_bandwidth_pressure() {
    let solo = run(&["ptr_chase"], Mechanism::Cdf)[0].ipc;
    let one_hog = run(&["ptr_chase", "stream_hog"], Mechanism::Cdf)[0].ipc;
    let three_hogs = run(
        &["ptr_chase", "stream_hog", "stream_hog", "stream_hog"],
        Mechanism::Cdf,
    )[0]
    .ipc;
    assert!(
        solo >= one_hog,
        "one bandwidth hog must not raise victim IPC: solo {solo} vs {one_hog}"
    );
    assert!(
        one_hog >= three_hogs,
        "more hogs must not raise victim IPC: {one_hog} vs {three_hogs}"
    );
    assert!(
        three_hogs < solo,
        "three hogs on shared channels must actually cost something"
    );
}

/// Metamorphic: an idle co-core (register-only nop loop) leaves the active
/// core's architectural execution unchanged — same retired uops, same
/// branch-misprediction and memory-traffic profile — and the pair runs
/// deterministically. The nop core's handful of cold instruction fetches
/// may perturb shared DRAM open-row timing, so cycles are pinned to a
/// small relative delta rather than exact equality.
#[test]
fn idle_co_core_leaves_active_core_architecture_unchanged() {
    let solo = &run_halting(&["ptr_chase"], Mechanism::Cdf, 10_000)[0];
    let paired_a = run_halting(&["ptr_chase", "nop_loop"], Mechanism::Cdf, 10_000);
    let paired_b = run_halting(&["ptr_chase", "nop_loop"], Mechanism::Cdf, 10_000);
    assert_eq!(paired_a, paired_b, "paired run must be deterministic");

    let active = &paired_a[0];
    assert_eq!(solo.instructions, active.instructions);
    assert_eq!(
        solo.branch_mpki, active.branch_mpki,
        "branch outcomes are architectural; an idle neighbour cannot move them"
    );
    assert_eq!(
        solo.dram_lines, active.dram_lines,
        "a loadless neighbour must not change the victim's DRAM traffic"
    );
    let delta = (active.cycles as f64 - solo.cycles as f64).abs() / solo.cycles as f64;
    assert!(
        delta < 0.02,
        "idle co-core perturbed cycles by {:.3}% (solo {}, paired {})",
        delta * 100.0,
        solo.cycles,
        active.cycles
    );
}

const FUZZ_MODES: [Mechanism; 3] = [Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shared-MSHR conservation over fuzz programs: `run_checked` asserts,
    /// after **every** round-robin sweep, that accepted in-flight misses
    /// never exceed the pool, that fairness counters sum to total steals,
    /// and that per-core ledgers fold to the shared totals; the end-of-run
    /// checks below re-verify the fold from the outside.
    #[test]
    fn shared_pool_conserves_over_fuzz_programs(seed in 0u64..1_000_000, cores in 2usize..5) {
        let progs: Vec<_> = (0..cores)
            .map(|i| FuzzSpec::from_seed(seed.wrapping_add(i as u64)).build())
            .collect();
        let workloads = progs
            .iter()
            .enumerate()
            .map(|(i, fp)| {
                let cfg = CoreConfig {
                    mode: FUZZ_MODES[i % FUZZ_MODES.len()].mode(),
                    ..CoreConfig::default()
                };
                (&fp.program, fp.memory.clone(), cfg)
            })
            .collect();
        let mut mc = MultiCore::new(workloads);
        let out = mc.run_checked(20_000, 2_000_000);
        let shared = mc.shared_report();
        let reads: u64 = out.iter().map(|o| o.share.dram_reads).sum();
        let writes: u64 = out.iter().map(|o| o.share.dram_writes).sum();
        let caused: u64 = out.iter().map(|o| o.share.mshr_steals_caused).sum();
        let suffered: u64 = out.iter().map(|o| o.share.mshr_steals_suffered).sum();
        prop_assert_eq!(reads, shared.dram.reads, "per-core DRAM reads fold to shared");
        prop_assert_eq!(writes, shared.dram.writes, "per-core DRAM writes fold to shared");
        prop_assert_eq!(caused, shared.total_steals, "steals caused sum to total");
        prop_assert_eq!(suffered, shared.total_steals, "steals suffered sum to total");
        prop_assert!(out.iter().all(|o| o.stats.cycles > 0));
    }
}

/// Mixed *mechanisms* on one mix must run and stay deterministic.
#[test]
fn mixed_mechanisms_run_deterministically() {
    let cfg = MixConfig::new(
        vec!["ptr_chase".to_string(), "stream_hog".to_string()],
        vec![Mechanism::Cdf, Mechanism::Baseline],
    )
    .quick();
    let a = run_mix(&cfg).expect("mix runs");
    let b = run_mix(&cfg).expect("mix runs");
    assert_eq!(a.cores, b.cores);
    assert_eq!(a.shared.cycles, b.shared.cycles);
    assert_eq!(a.channel_utilization, b.channel_utilization);
}

/// Asserts that two runs of one mix agree on every per-core and shared
/// counter.
fn assert_same_mix(a: &MixReport, b: &MixReport, axis: &str) {
    for (x, y) in a.cores.iter().zip(&b.cores) {
        let what = format!("{axis}: core {} ({})", x.core, x.workload);
        assert_eq!(x.measurement, y.measurement, "{what}: measurement");
        assert_eq!(x.share, y.share, "{what}: shared-resource attribution");
        assert_eq!(x.llc_occupancy, y.llc_occupancy, "{what}: LLC occupancy");
    }
    assert_eq!(a.shared, b.shared, "{axis}: shared totals");
}

fn run_with(cfg: &MixConfig, set: impl Fn(&mut CoreConfig)) -> MixReport {
    let mut cfg = cfg.clone();
    set(&mut cfg.eval.core);
    run_mix(&cfg).unwrap_or_else(|e| panic!("mix {:?} failed: {e}", cfg.workloads))
}

/// Scheduler equivalence through the shared memory system: each mix runs
/// under the event-driven and the reference scan scheduler, and every
/// per-core and shared counter must agree. The first mix is the
/// benchmark's default-sizing 4-core base mix, where load ports are the
/// class select runs out of most often.
#[test]
fn mixes_bit_identical_across_schedulers() {
    let four = ["mcf_like", "astar_like", "lbm_like", "stream_hog"];
    let mixes = [
        MixConfig::new(
            four.iter().map(|s| s.to_string()).collect(),
            vec![Mechanism::Baseline],
        ),
        quick_mix(&four, Mechanism::Cdf),
        quick_mix(&["mcf_like", "stream_hog"], Mechanism::Pre),
    ];
    for cfg in mixes {
        let event = run_with(&cfg, |c| c.scheduler = SchedulerKind::EventDriven);
        let scan = run_with(&cfg, |c| c.scheduler = SchedulerKind::ReferenceScan);
        assert_same_mix(&event, &scan, "scheduler");
    }
}

#[test]
fn contention_roles_are_registered_extras() {
    for name in ["ptr_chase", "stream_hog", "nop_loop"] {
        assert!(registry::EXTRA_NAMES.contains(&name), "{name} missing");
        assert!(
            !registry::NAMES.contains(&name),
            "{name} must not join the figure suite"
        );
    }
}

/// A `--telemetry` mix keeps each core's cycle accounting in that core's
/// store row: its buckets sum to the cycles the core's collector observed.
#[test]
fn each_core_row_of_a_telemetry_mix_keeps_its_cycle_accounting() {
    let mut cfg = quick_mix(&["mcf_like", "stream_hog"], Mechanism::Cdf);
    cfg.eval.telemetry = Some(cdf_core::TelemetryConfig {
        interval: 512,
        ..Default::default()
    });
    let report = run_mix(&cfg).expect("mix runs");
    let rows = records_from_mix("r0001", &Provenance::default(), &report);
    assert_eq!(rows.len(), report.cores.len());
    for (row, core) in rows.iter().zip(&report.cores) {
        let RecordPayload::Cell {
            telemetry: Some(summary),
            ..
        } = &row.payload
        else {
            panic!("core {} row keeps no telemetry: {row:?}", core.core);
        };
        let observed = core
            .telemetry
            .as_ref()
            .expect("collector")
            .observed_cycles();
        let sum: u64 = summary.buckets.iter().map(|(_, cycles)| cycles).sum();
        assert_eq!(sum, observed, "core {}", core.core);
    }
}
