//! Experiment drivers: one function per paper table/figure.
//!
//! Each driver runs the necessary (workload × mechanism) grid through the
//! [`sweep`](crate::sweep) harness — parallel, fault-isolated, deterministic
//! — and returns typed rows plus a `render`ed paper-style text table. The
//! drivers keep an all-or-nothing contract (a failed cell panics with its
//! recorded error); callers that want to tolerate failures use
//! [`run_sweep`] directly. Each driver also exposes its underlying
//! [`Sweep`] so bench targets can emit the stamped JSON records.

use crate::report::{geomean, pct_delta, Table};
use crate::run::{run, EvalConfig, Measurement, Mechanism};
use crate::sweep::{parallel_map, run_sweep, Sweep, SweepConfig};
use cdf_workloads::registry;

/// Baseline, CDF and PRE measurements for one workload.
#[derive(Clone, Debug)]
pub struct WorkloadRuns {
    /// Workload name.
    pub name: String,
    /// Baseline measurement.
    pub base: Measurement,
    /// CDF measurement.
    pub cdf: Measurement,
    /// PRE measurement.
    pub pre: Measurement,
}

/// Runs the (workload × {base, CDF, PRE}) sweep that feeds Figs. 13–16.
pub fn matrix_sweep(cfg: &EvalConfig, names: &[&str]) -> Sweep {
    run_sweep(&SweepConfig::new(
        names.iter().copied(),
        vec![Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre],
        cfg.clone(),
    ))
}

fn runs_from_sweep(sweep: &Sweep, names: &[&str]) -> Vec<WorkloadRuns> {
    names
        .iter()
        .map(|&name| WorkloadRuns {
            name: name.to_string(),
            base: sweep.expect(name, Mechanism::Baseline).clone(),
            cdf: sweep.expect(name, Mechanism::Cdf).clone(),
            pre: sweep.expect(name, Mechanism::Pre).clone(),
        })
        .collect()
}

/// Runs the full (workload × {base, CDF, PRE}) matrix in parallel. This
/// single matrix feeds Figs. 13, 14, 15 and 16.
///
/// # Panics
///
/// Panics with the recorded [`crate::SimError`] if any cell fails.
pub fn run_matrix(cfg: &EvalConfig, names: &[&str]) -> Vec<WorkloadRuns> {
    runs_from_sweep(&matrix_sweep(cfg, names), names)
}

/// Fig. 1: distribution of critical vs non-critical instructions in the ROB
/// during full-window stalls, on the baseline core.
#[derive(Clone, Debug)]
pub struct Fig01 {
    /// `(workload, critical fraction)` rows.
    pub rows: Vec<(String, f64)>,
    /// The underlying sweep (for JSON emission).
    pub sweep: Sweep,
}

impl Fig01 {
    /// Runs the classify-mode sweep.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> Fig01 {
        let sweep = run_sweep(&SweepConfig::new(
            names.iter().copied(),
            vec![Mechanism::BaselineClassify],
            cfg.clone(),
        ));
        let rows = names
            .iter()
            .map(|&name| {
                let m = sweep.expect(name, Mechanism::BaselineClassify);
                (name.to_string(), m.rob_critical_fraction)
            })
            .collect();
        Fig01 { rows, sweep }
    }

    /// Paper-style text.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workload", "critical", "non-critical"]);
        for (name, frac) in &self.rows {
            t.row(&[
                name.as_str(),
                &format!("{:.1}%", frac * 100.0),
                &format!("{:.1}%", (1.0 - frac) * 100.0),
            ]);
        }
        let avg = self.rows.iter().map(|(_, f)| f).sum::<f64>() / self.rows.len().max(1) as f64;
        format!(
            "Fig. 1: ROB contents during full-window stalls (baseline)\n{}\n\
             mean critical fraction: {:.1}%  (paper: 10%-40% of dynamic instructions)\n",
            t.render(),
            avg * 100.0
        )
    }
}

/// Figs. 13–16 rows derived from the run matrix.
#[derive(Clone, Debug)]
pub struct MatrixFigures {
    /// The underlying runs.
    pub runs: Vec<WorkloadRuns>,
    /// The underlying sweep (for JSON emission).
    pub sweep: Sweep,
}

impl MatrixFigures {
    /// Runs the matrix over `names`.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> MatrixFigures {
        let sweep = matrix_sweep(cfg, names);
        MatrixFigures {
            runs: runs_from_sweep(&sweep, names),
            sweep,
        }
    }

    /// Per-workload `(cdf_speedup, pre_speedup)` over baseline IPC.
    pub fn speedups(&self) -> Vec<(String, f64, f64)> {
        self.runs
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.cdf.ipc / r.base.ipc,
                    r.pre.ipc / r.base.ipc,
                )
            })
            .collect()
    }

    /// `(geomean CDF speedup, geomean PRE speedup)`.
    pub fn speedup_geomeans(&self) -> (f64, f64) {
        let s = self.speedups();
        (
            geomean(&s.iter().map(|r| r.1).collect::<Vec<_>>()),
            geomean(&s.iter().map(|r| r.2).collect::<Vec<_>>()),
        )
    }

    /// Fig. 13 text: percentage IPC improvement of CDF and PRE.
    pub fn render_fig13(&self) -> String {
        let mut t = Table::new(&["workload", "CDF", "PRE"]);
        for (name, c, p) in self.speedups() {
            t.row(&[name.as_str(), &pct_delta(c), &pct_delta(p)]);
        }
        let (gc, gp) = self.speedup_geomeans();
        t.row(&["geomean", &pct_delta(gc), &pct_delta(gp)]);
        format!(
            "Fig. 13: IPC improvement over baseline\n{}\n\
             (paper: CDF +6.1% geomean, PRE +2.6%)\n",
            t.render()
        )
    }

    /// Fig. 14 text: MLP relative to baseline.
    pub fn render_fig14(&self) -> String {
        let mut t = Table::new(&["workload", "base MLP", "CDF", "PRE"]);
        let (mut rc, mut rp) = (Vec::new(), Vec::new());
        for r in &self.runs {
            let base = r.base.mlp.max(1e-3);
            let c = r.cdf.mlp.max(1e-3) / base;
            let p = r.pre.mlp.max(1e-3) / base;
            rc.push(c);
            rp.push(p);
            t.row(&[
                r.name.as_str(),
                &format!("{:.2}", r.base.mlp),
                &format!("{c:.2}x"),
                &format!("{p:.2}x"),
            ]);
        }
        t.row(&[
            "geomean",
            "",
            &format!("{:.2}x", geomean(&rc)),
            &format!("{:.2}x", geomean(&rp)),
        ]);
        format!(
            "Fig. 14: MLP relative to baseline\n{}\n\
             (paper: both raise MLP; much of PRE's extra MLP is wrong-path)\n",
            t.render()
        )
    }

    /// Fig. 15 text: memory traffic relative to baseline.
    pub fn render_fig15(&self) -> String {
        let mut t = Table::new(&["workload", "base lines", "CDF", "PRE"]);
        let (mut rc, mut rp) = (Vec::new(), Vec::new());
        for r in &self.runs {
            let base = r.base.dram_lines.max(1) as f64;
            let c = r.cdf.dram_lines as f64 / base;
            let p = r.pre.dram_lines as f64 / base;
            rc.push(c.max(1e-3));
            rp.push(p.max(1e-3));
            t.row(&[
                r.name.as_str(),
                &format!("{}", r.base.dram_lines),
                &pct_delta(c),
                &pct_delta(p),
            ]);
        }
        t.row(&[
            "geomean",
            "",
            &pct_delta(geomean(&rc)),
            &pct_delta(geomean(&rp)),
        ]);
        format!(
            "Fig. 15: memory traffic (64B lines) relative to baseline\n{}\n\
             (paper: PRE adds ~4% more traffic than CDF)\n",
            t.render()
        )
    }

    /// Fig. 16 text: energy relative to baseline.
    pub fn render_fig16(&self) -> String {
        let mut t = Table::new(&["workload", "CDF", "PRE", "CDF structs"]);
        let (mut rc, mut rp) = (Vec::new(), Vec::new());
        for r in &self.runs {
            let base = r.base.energy_nj.max(1e-9);
            let c = r.cdf.energy_nj / base;
            let p = r.pre.energy_nj / base;
            rc.push(c.max(1e-3));
            rp.push(p.max(1e-3));
            t.row(&[
                r.name.as_str(),
                &pct_delta(c),
                &pct_delta(p),
                &format!(
                    "{:.1}%",
                    r.cdf.cdf_energy_nj / r.cdf.energy_nj.max(1e-9) * 100.0
                ),
            ]);
        }
        t.row(&[
            "geomean",
            &pct_delta(geomean(&rc)),
            &pct_delta(geomean(&rp)),
            "",
        ]);
        format!(
            "Fig. 16: energy relative to baseline\n{}\n\
             (paper: CDF -3.5%, PRE +3.7%; CDF structures ≈2% of baseline energy)\n",
            t.render()
        )
    }
}

/// Fig. 17: IPC and energy of baseline vs CDF across scaled window sizes.
#[derive(Clone, Debug)]
pub struct Fig17 {
    /// `(rob_entries, base_ipc_geo, cdf_ipc_geo, base_energy_geo_rel,
    /// cdf_energy_geo_rel)` rows; energies are relative to the 352-entry
    /// baseline.
    pub rows: Vec<(usize, f64, f64, f64, f64)>,
}

impl Fig17 {
    /// Runs the scaling sweep over `robs` window sizes and `names` kernels.
    pub fn run(cfg: &EvalConfig, names: &[&str], robs: &[usize]) -> Fig17 {
        let mut rows = Vec::new();
        let mut ref_energy: Option<Vec<f64>> = None;
        for &rob in robs {
            let scaled = EvalConfig {
                core: cfg.core.clone().with_scaled_window(rob),
                ..cfg.clone()
            };
            let runs = run_matrix(&scaled, names);
            let base_ipc = geomean(&runs.iter().map(|r| r.base.ipc).collect::<Vec<_>>());
            let cdf_ipc = geomean(&runs.iter().map(|r| r.cdf.ipc).collect::<Vec<_>>());
            let base_e: Vec<f64> = runs.iter().map(|r| r.base.energy_nj).collect();
            let cdf_e: Vec<f64> = runs.iter().map(|r| r.cdf.energy_nj).collect();
            let reference = ref_energy.get_or_insert_with(|| base_e.clone());
            let base_rel = geomean(
                &base_e
                    .iter()
                    .zip(reference.iter())
                    .map(|(e, r)| e / r)
                    .collect::<Vec<_>>(),
            );
            let cdf_rel = geomean(
                &cdf_e
                    .iter()
                    .zip(reference.iter())
                    .map(|(e, r)| e / r)
                    .collect::<Vec<_>>(),
            );
            rows.push((rob, base_ipc, cdf_ipc, base_rel, cdf_rel));
        }
        Fig17 { rows }
    }

    /// Paper-style text.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "ROB",
            "base IPC",
            "CDF IPC",
            "CDF gain",
            "base energy",
            "CDF energy",
        ]);
        for &(rob, bi, ci, be, ce) in &self.rows {
            t.row(&[
                &format!("{rob}"),
                &format!("{bi:.3}"),
                &format!("{ci:.3}"),
                &pct_delta(ci / bi),
                &pct_delta(be),
                &pct_delta(ce),
            ]);
        }
        format!(
            "Fig. 17: scaling the OoO window (energies relative to the 352-entry baseline)\n{}\n\
             (paper: an area-equivalent scaled baseline gains only +3.7% IPC and +2.5% energy,\n\
              while CDF keeps its advantage as the window grows)\n",
            t.render()
        )
    }
}

/// The §4.2 branch-criticality ablation: CDF with and without marking
/// hard-to-predict branches critical.
#[derive(Clone, Debug)]
pub struct AblationBranches {
    /// `(workload, full CDF speedup, no-branch CDF speedup)`.
    pub rows: Vec<(String, f64, f64)>,
    /// The underlying sweep (for JSON emission).
    pub sweep: Sweep,
}

impl AblationBranches {
    /// Runs the ablation.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> AblationBranches {
        let sweep = run_sweep(&SweepConfig::new(
            names.iter().copied(),
            vec![
                Mechanism::Baseline,
                Mechanism::Cdf,
                Mechanism::CdfNoBranches,
            ],
            cfg.clone(),
        ));
        let rows = names
            .iter()
            .map(|&name| {
                let base = sweep.expect(name, Mechanism::Baseline);
                let full = sweep.expect(name, Mechanism::Cdf);
                let nobr = sweep.expect(name, Mechanism::CdfNoBranches);
                (name.to_string(), full.ipc / base.ipc, nobr.ipc / base.ipc)
            })
            .collect();
        AblationBranches { rows, sweep }
    }

    /// `(geomean with branches, geomean without)`.
    pub fn geomeans(&self) -> (f64, f64) {
        (
            geomean(&self.rows.iter().map(|r| r.1).collect::<Vec<_>>()),
            geomean(&self.rows.iter().map(|r| r.2).collect::<Vec<_>>()),
        )
    }

    /// Paper-style text.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workload", "CDF", "CDF w/o branch marking"]);
        for (name, full, nobr) in &self.rows {
            t.row(&[name.as_str(), &pct_delta(*full), &pct_delta(*nobr)]);
        }
        let (gf, gn) = self.geomeans();
        t.row(&["geomean", &pct_delta(gf), &pct_delta(gn)]);
        format!(
            "Ablation (§4.2): marking hard-to-predict branches critical\n{}\n\
             (paper: disabling branch criticality drops the geomean from +6.1% to +3.8%)\n",
            t.render()
        )
    }
}

/// Design-choice ablations: dynamic partitioning and the Mask Cache.
#[derive(Clone, Debug)]
pub struct AblationDesign {
    /// `(workload, full, static-partition, no-mask-cache)` IPC speedups over
    /// baseline, plus dependence violations without the mask cache.
    pub rows: Vec<(String, f64, f64, f64, u64, u64)>,
    /// The underlying sweep (for JSON emission).
    pub sweep: Sweep,
}

impl AblationDesign {
    /// Runs both design-choice ablations.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> AblationDesign {
        let sweep = run_sweep(&SweepConfig::new(
            names.iter().copied(),
            vec![
                Mechanism::Baseline,
                Mechanism::Cdf,
                Mechanism::CdfStaticPartition,
                Mechanism::CdfNoMaskCache,
            ],
            cfg.clone(),
        ));
        let rows = names
            .iter()
            .map(|&name| {
                let base = sweep.expect(name, Mechanism::Baseline);
                let full = sweep.expect(name, Mechanism::Cdf);
                let stat = sweep.expect(name, Mechanism::CdfStaticPartition);
                let nomask = sweep.expect(name, Mechanism::CdfNoMaskCache);
                (
                    name.to_string(),
                    full.ipc / base.ipc,
                    stat.ipc / base.ipc,
                    nomask.ipc / base.ipc,
                    full.dependence_violations,
                    nomask.dependence_violations,
                )
            })
            .collect();
        AblationDesign { rows, sweep }
    }

    /// Paper-style text.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "workload",
            "CDF",
            "static part.",
            "no mask cache",
            "dep.viol (full/nomask)",
        ]);
        let (mut gf, mut gs, mut gm) = (Vec::new(), Vec::new(), Vec::new());
        for (name, full, stat, nomask, v1, v2) in &self.rows {
            gf.push(*full);
            gs.push(*stat);
            gm.push(*nomask);
            t.row(&[
                name.as_str(),
                &pct_delta(*full),
                &pct_delta(*stat),
                &pct_delta(*nomask),
                &format!("{v1}/{v2}"),
            ]);
        }
        t.row(&[
            "geomean",
            &pct_delta(geomean(&gf)),
            &pct_delta(geomean(&gs)),
            &pct_delta(geomean(&gm)),
            "",
        ]);
        format!(
            "Ablation (§3.5/§3.2 design choices): dynamic partitioning and the Mask Cache\n{}\n\
             (paper: dynamic partitioning \"significantly improves\" CDF; the mask cache\n\
              \"reduces dependence violations significantly\")\n",
            t.render()
        )
    }
}

/// The subset of kernels the paper's §4.4 scaling argument concerns
/// (MLP-sensitive, window-scaling-sensitive).
pub const SCALING_KERNELS: &[&str] = &["astar_like", "soplex_like", "fotonik_like", "roms_like"];

/// Branch-heavy kernels for the branch-criticality ablation.
pub const BRANCHY_KERNELS: &[&str] = &[
    "astar_like",
    "bzip_like",
    "mcf_like",
    "soplex_like",
    "xalanc_like",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EvalConfig {
        EvalConfig {
            warmup_instructions: 20_000,
            measure_instructions: 30_000,
            gen: cdf_workloads::GenConfig {
                seed: 1,
                scale: 1.0 / 32.0,
                iters: u64::MAX / 4,
            },
            ..EvalConfig::quick()
        }
    }

    #[test]
    fn matrix_produces_all_rows() {
        let m = MatrixFigures::run(&tiny(), &["libq_like", "astar_like"]);
        assert_eq!(m.runs.len(), 2);
        let text = m.render_fig13();
        assert!(text.contains("astar_like"));
        assert!(text.contains("geomean"));
        assert!(!m.render_fig14().is_empty());
        assert!(!m.render_fig15().is_empty());
        assert!(!m.render_fig16().is_empty());
    }

    #[test]
    fn fig01_fractions_in_range() {
        let f = Fig01::run(&tiny(), &["astar_like"]);
        assert_eq!(f.rows.len(), 1);
        let frac = f.rows[0].1;
        assert!((0.0..=1.0).contains(&frac), "{frac}");
        assert!(f.render().contains("Fig. 1"));
    }

    #[test]
    fn fig17_rows_per_rob() {
        let f = Fig17::run(&tiny(), &["astar_like"], &[192, 352]);
        assert_eq!(f.rows.len(), 2);
        assert!(f.render().contains("352"));
    }

    #[test]
    fn ablation_branches_runs() {
        let a = AblationBranches::run(&tiny(), &["astar_like"]);
        let (gf, gn) = a.geomeans();
        assert!(gf > 0.0 && gn > 0.0);
        assert!(a.render().contains("branch"));
    }
}

/// Structure-capacity sensitivity (§4.1: "The Critical Uop Cache can hold
/// more critical instructions compared to PRE's Stalling Slice Table and
/// hence provides better performance"): CDF speedup as the Critical Uop
/// Cache shrinks, plus Fill Buffer and Delayed Branch Queue sweeps.
#[derive(Clone, Debug)]
pub struct SensitivityCdfStructures {
    /// `(label, geomean CDF speedup)` rows, one per configuration point.
    pub rows: Vec<(String, f64)>,
}

impl SensitivityCdfStructures {
    /// Runs the sweeps over `names`.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> SensitivityCdfStructures {
        use cdf_core::{CdfConfig, CoreMode};
        let mut rows = Vec::new();
        let mut point = |label: String, cdf_cfg: CdfConfig| {
            // Each point is a custom CdfConfig, not a named Mechanism, so it
            // goes through `run` with a free-form label on the sweep's worker
            // pool rather than a full run_sweep grid.
            let jobs: Vec<&str> = names.to_vec();
            let speedups: Vec<f64> = parallel_map(&jobs, 0, |&name| {
                let w = registry::lookup(name, &cfg.gen).unwrap_or_else(|e| panic!("{e}"));
                let ipc = |mode, label: &str| {
                    run(&w, mode, label, cfg, false)
                        .map(|out| out.measurement.ipc)
                        .unwrap_or_else(|e| panic!("sensitivity ({name}, {label}): {e}"))
                };
                ipc(CoreMode::Cdf(cdf_cfg.clone()), &label) / ipc(CoreMode::Baseline, "base")
            });
            rows.push((label, geomean(&speedups)));
        };
        for lines in [1usize, 2, 4, 8] {
            point(
                format!(
                    "uop cache {lines} lines/set ({}KB-class)",
                    lines * 64 * 64 / 1024
                ),
                CdfConfig {
                    uop_cache_lines_per_set: lines,
                    ..CdfConfig::default()
                },
            );
        }
        for fill in [256usize, 1024, 4096] {
            point(
                format!("fill buffer {fill} entries"),
                CdfConfig {
                    fill_buffer: fill,
                    ..CdfConfig::default()
                },
            );
        }
        for dbq in [64usize, 256, 1024] {
            point(
                format!("DBQ {dbq} entries"),
                CdfConfig {
                    dbq,
                    ..CdfConfig::default()
                },
            );
        }
        SensitivityCdfStructures { rows }
    }

    /// Paper-style text.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["configuration", "CDF speedup (geomean)"]);
        for (label, s) in &self.rows {
            t.row(&[label.as_str(), &pct_delta(*s)]);
        }
        format!(
            "Sensitivity (§4.1): CDF structure capacities\n{}\n\
             (paper: the Critical Uop Cache's capacity advantage over PRE's SST is part\n\
              of why CDF outperforms; lookahead is bounded by the DBQ)\n",
            t.render()
        )
    }
}
