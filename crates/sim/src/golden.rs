//! Golden statistics snapshots: the full [`CoreStats`] of every
//! (workload × mechanism) cell, pinned bit-exact against a blessed JSON
//! file checked into the repository.
//!
//! Any change to the core — scheduler rewrites included — that alters even
//! one counter of one cell fails the snapshot test with a field-level diff,
//! so refactors that claim cycle-accuracy-preservation have to prove it
//! across the whole grid. Intentional timing changes regenerate the file by
//! running the test with `CDF_BLESS=1`.
//!
//! Serialization is exhaustive by construction: [`stats_to_json`]
//! destructures [`CoreStats`] without `..`, so adding a field to the struct
//! is a compile error here until the snapshot schema learns about it.

use crate::json::{field, Json};
use crate::run::Mechanism;
use crate::sweep::parallel_map;
use cdf_core::{Core, CoreConfig, CoreStats, RobMix};
use cdf_workloads::{registry, GenConfig};

/// Schema tag of the golden snapshot document.
pub use crate::schema::GOLDEN as GOLDEN_SCHEMA;

/// What the golden grid covers and how each cell is simulated.
#[derive(Clone, Debug)]
pub struct GoldenConfig {
    /// Workload names (defaults to the full registry suite).
    pub workloads: Vec<String>,
    /// Mechanisms (defaults to all seven).
    pub mechanisms: Vec<Mechanism>,
    /// Workload generation parameters — fixed so cells are deterministic.
    pub gen: GenConfig,
    /// Instruction budget per cell.
    pub max_instructions: u64,
    /// Cycle watchdog per cell.
    pub cycle_budget: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for GoldenConfig {
    fn default() -> GoldenConfig {
        GoldenConfig {
            workloads: registry::NAMES.iter().map(|s| s.to_string()).collect(),
            mechanisms: Mechanism::ALL.to_vec(),
            gen: GenConfig {
                seed: 0xC0FFEE,
                scale: 1.0 / 16.0,
                iters: u64::MAX / 4,
            },
            max_instructions: 30_000,
            cycle_budget: 2_000_000,
            threads: 0,
        }
    }
}

/// One snapshot cell: the complete stats of one (workload, mechanism) run.
#[derive(Clone, Debug)]
pub struct GoldenCell {
    /// Workload name.
    pub workload: String,
    /// Mechanism label.
    pub mechanism: String,
    /// Full end-of-run statistics.
    pub stats: CoreStats,
}

/// Simulates every cell of the grid and returns the snapshots in
/// deterministic (workload-major) order.
pub fn collect(cfg: &GoldenConfig) -> Vec<GoldenCell> {
    let jobs: Vec<(String, Mechanism)> = cfg
        .workloads
        .iter()
        .flat_map(|w| cfg.mechanisms.iter().map(move |&m| (w.clone(), m)))
        .collect();
    parallel_map(&jobs, cfg.threads, |(w, m)| {
        let workload =
            registry::lookup(w, &cfg.gen).unwrap_or_else(|e| panic!("golden grid workload: {e}"));
        let core_cfg = CoreConfig {
            mode: m.mode(),
            ..CoreConfig::default()
        };
        let mut core = Core::new(&workload.program, workload.memory.clone(), core_cfg);
        let stats = core.run_bounded(cfg.max_instructions, cfg.cycle_budget);
        GoldenCell {
            workload: w.clone(),
            mechanism: m.label().to_string(),
            stats,
        }
    })
}

/// Serializes one [`CoreStats`] exhaustively (no `..` — new fields are a
/// compile error until added here and the snapshot re-blessed).
pub fn stats_to_json(s: &CoreStats) -> Json {
    let CoreStats {
        cycles,
        retired,
        halted,
        fetched_regular,
        fetched_critical,
        branches,
        mispredicts,
        memory_violations,
        dependence_violations,
        full_window_stall_cycles,
        full_window_stalls,
        cdf_mode_cycles,
        cdf_entries,
        critical_uops_issued,
        walks,
        traces_installed,
        walks_dropped_by_density,
        runahead_episodes,
        runahead_uops,
        rob_mix:
            RobMix {
                samples,
                critical,
                non_critical,
            },
        mlp_sum,
        mlp_cycles,
        loads_retired,
        llc_miss_loads,
    } = *s;
    Json::Obj(vec![
        field("cycles", cycles),
        field("retired", retired),
        field("halted", halted),
        field("fetched_regular", fetched_regular),
        field("fetched_critical", fetched_critical),
        field("branches", branches),
        field("mispredicts", mispredicts),
        field("memory_violations", memory_violations),
        field("dependence_violations", dependence_violations),
        field("full_window_stall_cycles", full_window_stall_cycles),
        field("full_window_stalls", full_window_stalls),
        field("cdf_mode_cycles", cdf_mode_cycles),
        field("cdf_entries", cdf_entries),
        field("critical_uops_issued", critical_uops_issued),
        field("walks", walks),
        field("traces_installed", traces_installed),
        field("walks_dropped_by_density", walks_dropped_by_density),
        field("runahead_episodes", runahead_episodes),
        field("runahead_uops", runahead_uops),
        field("rob_mix_samples", samples),
        field("rob_mix_critical", critical),
        field("rob_mix_non_critical", non_critical),
        field("mlp_sum", mlp_sum),
        field("mlp_cycles", mlp_cycles),
        field("loads_retired", loads_retired),
        field("llc_miss_loads", llc_miss_loads),
    ])
}

fn u(j: &Json, key: &str) -> Option<u64> {
    j.get(key).and_then(Json::as_u64)
}

/// Parses a [`stats_to_json`] document back into a [`CoreStats`].
pub fn stats_from_json(j: &Json) -> Option<CoreStats> {
    Some(CoreStats {
        cycles: u(j, "cycles")?,
        retired: u(j, "retired")?,
        halted: matches!(j.get("halted"), Some(Json::Bool(true))),
        fetched_regular: u(j, "fetched_regular")?,
        fetched_critical: u(j, "fetched_critical")?,
        branches: u(j, "branches")?,
        mispredicts: u(j, "mispredicts")?,
        memory_violations: u(j, "memory_violations")?,
        dependence_violations: u(j, "dependence_violations")?,
        full_window_stall_cycles: u(j, "full_window_stall_cycles")?,
        full_window_stalls: u(j, "full_window_stalls")?,
        cdf_mode_cycles: u(j, "cdf_mode_cycles")?,
        cdf_entries: u(j, "cdf_entries")?,
        critical_uops_issued: u(j, "critical_uops_issued")?,
        walks: u(j, "walks")?,
        traces_installed: u(j, "traces_installed")?,
        walks_dropped_by_density: u(j, "walks_dropped_by_density")?,
        runahead_episodes: u(j, "runahead_episodes")?,
        runahead_uops: u(j, "runahead_uops")?,
        rob_mix: RobMix {
            samples: u(j, "rob_mix_samples")?,
            critical: u(j, "rob_mix_critical")?,
            non_critical: u(j, "rob_mix_non_critical")?,
        },
        mlp_sum: u(j, "mlp_sum")?,
        mlp_cycles: u(j, "mlp_cycles")?,
        loads_retired: u(j, "loads_retired")?,
        llc_miss_loads: u(j, "llc_miss_loads")?,
    })
}

/// Serializes a collected grid as a `cdf-golden/1` document.
pub fn golden_to_json(cells: &[GoldenCell]) -> Json {
    Json::Obj(vec![
        field("schema", GOLDEN_SCHEMA),
        field(
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            field("workload", c.workload.as_str()),
                            field("mechanism", c.mechanism.as_str()),
                            field("stats", stats_to_json(&c.stats)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compares freshly collected cells against a blessed document; returns one
/// human-readable line per disagreement (missing cell, extra cell, or any
/// differing stats field).
pub fn diff_golden(current: &[GoldenCell], blessed: &Json) -> Vec<String> {
    let mut diffs = Vec::new();
    if blessed.get("schema").and_then(Json::as_str) != Some(GOLDEN_SCHEMA) {
        diffs.push(format!("blessed file is not a {GOLDEN_SCHEMA} document"));
        return diffs;
    }
    let empty: Vec<Json> = Vec::new();
    let cells = blessed
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let mut blessed_map = std::collections::BTreeMap::new();
    for cell in cells {
        let (Some(w), Some(m)) = (
            cell.get("workload").and_then(Json::as_str),
            cell.get("mechanism").and_then(Json::as_str),
        ) else {
            diffs.push("blessed cell missing workload/mechanism".to_string());
            continue;
        };
        let Some(stats) = cell.get("stats").and_then(stats_from_json) else {
            diffs.push(format!("blessed cell {w}/{m} has unparseable stats"));
            continue;
        };
        blessed_map.insert((w.to_string(), m.to_string()), stats);
    }
    for c in current {
        let key = (c.workload.clone(), c.mechanism.clone());
        match blessed_map.remove(&key) {
            None => diffs.push(format!(
                "{}/{}: not in blessed snapshot (bless with CDF_BLESS=1)",
                c.workload, c.mechanism
            )),
            Some(b) => {
                let sides = ["current", "blessed"];
                if let Some(d) = crate::equivalence::divergence("stats field", sides, &c.stats, &b)
                {
                    diffs.push(format!("{}/{}: {d}", c.workload, c.mechanism));
                }
            }
        }
    }
    for (w, m) in blessed_map.keys() {
        diffs.push(format!("{w}/{m}: blessed but no longer collected"));
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_roundtrip() {
        let s = CoreStats {
            cycles: 123,
            halted: true,
            rob_mix: RobMix {
                critical: 9,
                ..RobMix::default()
            },
            llc_miss_loads: 4,
            ..CoreStats::default()
        };
        let j = stats_to_json(&s);
        let back = stats_from_json(&j).expect("roundtrip");
        assert_eq!(s, back);
    }

    #[test]
    fn diff_flags_changed_cell_and_missing_cell() {
        let cfg = GoldenConfig {
            workloads: vec!["astar_like".to_string()],
            mechanisms: vec![Mechanism::Baseline, Mechanism::Cdf],
            max_instructions: 2_000,
            cycle_budget: 400_000,
            ..GoldenConfig::default()
        };
        let cells = collect(&cfg);
        assert_eq!(cells.len(), 2);
        let blessed = golden_to_json(&cells);
        let reparsed = Json::parse(&blessed.render()).expect("valid json");
        assert!(diff_golden(&cells, &reparsed).is_empty(), "self-diff clean");

        let mut tweaked = cells.clone();
        tweaked[0].stats.cycles += 1;
        let diffs = diff_golden(&tweaked, &reparsed);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        let (now, then) = (tweaked[0].stats.cycles, cells[0].stats.cycles);
        assert_eq!(
            diffs[0],
            format!(
                "astar_like/base: stats field diverged: current `cycles: {now}` vs \
                 blessed `cycles: {then}`"
            )
        );

        let fewer = &cells[..1];
        let diffs = diff_golden(fewer, &reparsed);
        assert!(
            diffs.iter().any(|d| d.contains("no longer collected")),
            "{diffs:?}"
        );
    }
}
