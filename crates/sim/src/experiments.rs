//! Experiment drivers: one per paper table/figure, run by `cdf-sim figure
//! <name>`.
//!
//! [`FIGURES`] names each figure, the kernels (and for Fig. 17 the ROB
//! sizes) it runs on, and its driver. A driver simulates only the cells its
//! text prints — a grid through [`run_sweep`], a custom CDF configuration
//! through [`run_cell`] — and renders the paper-style table; the first
//! failed cell ends it with that cell's [`SimError`].

use crate::error::SimError;
use crate::report::{geomean, pct_delta, Table};
use crate::run::{EvalConfig, Measurement, Mechanism};
use crate::sweep::{parallel_map, run_cell, run_sweep, SweepConfig};
use cdf_core::{CdfConfig, CoreMode};
use cdf_workloads::registry::NAMES;

/// A figure driver: simulates the figure's cells at the given sizing and
/// returns the text `cdf-sim figure` prints.
pub type Driver = fn(&EvalConfig) -> Result<String, SimError>;

/// Every figure `cdf-sim figure <name>` runs, in paper order. Figs. 13–16
/// render their four tables from one matrix sweep.
pub const FIGURES: &[(&str, Driver)] = &[
    ("fig01", |cfg| Ok(Fig01::run(cfg, NAMES)?.render())),
    ("fig13-16", |cfg| {
        let m = MatrixFigures::run(cfg, NAMES)?;
        let tables = [
            m.render_fig13(),
            m.render_fig14(),
            m.render_fig15(),
            m.render_fig16(),
        ];
        // Each table ends in a newline, so this separates them by a blank
        // line, as printing each on its own line does.
        Ok(tables.join("\n"))
    }),
    ("fig17", |cfg| {
        // The MLP- and window-sensitive kernels of the §4.4 argument.
        let kernels = ["astar_like", "soplex_like", "fotonik_like", "roms_like"];
        Ok(Fig17::run(cfg, &kernels, &[192, 256, 352, 512])?.render())
    }),
    ("ablation-branches", |cfg| {
        let branchy = [
            "astar_like",
            "bzip_like",
            "mcf_like",
            "soplex_like",
            "xalanc_like",
        ];
        Ok(AblationBranches::run(cfg, &branchy)?.render())
    }),
    ("ablation-design", |cfg| {
        let branchy = [
            "astar_like",
            "bzip_like",
            "soplex_like",
            "mcf_like",
            "xalanc_like",
        ];
        Ok(AblationDesign::run(cfg, &branchy)?.render())
    }),
    ("sensitivity", |cfg| {
        let kernels = ["astar_like", "mcf_like", "soplex_like", "nab_like"];
        Ok(SensitivityCdfStructures::run(cfg, &kernels)?.render())
    }),
];

/// Runs the `names` × `mechs` grid as one sweep and maps each workload's
/// measurements, in `mechs` order, to a row; the first failed cell's error
/// otherwise.
fn grid_rows<R>(
    cfg: &EvalConfig,
    names: &[&str],
    mechs: &[Mechanism],
    row: impl Fn(&str, &[Measurement]) -> R,
) -> Result<Vec<R>, SimError> {
    let sweep = run_sweep(&SweepConfig::new(
        names.iter().copied(),
        mechs.to_vec(),
        cfg.clone(),
    ));
    names
        .iter()
        .zip(sweep.cells.chunks(mechs.len()))
        .map(|(name, cells)| {
            let ms = cells
                .iter()
                .map(|c| c.result.clone())
                .collect::<Result<Vec<_>, _>>()?;
            Ok(row(name, &ms))
        })
        .collect()
}

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

/// Fig. 1: distribution of critical vs non-critical instructions in the ROB
/// during full-window stalls, on the baseline core.
#[derive(Clone, Debug)]
pub struct Fig01 {
    /// `(workload, critical fraction)` rows.
    pub rows: Vec<(String, f64)>,
}

impl Fig01 {
    /// Runs the classify-mode sweep.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> Result<Fig01, SimError> {
        let rows = grid_rows(cfg, names, &[Mechanism::BaselineClassify], |name, m| {
            (name.to_string(), m[0].rob_critical_fraction)
        })?;
        Ok(Fig01 { rows })
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

/// Figs. 13–16 rows derived from the (workload × {base, CDF, PRE}) matrix.
#[derive(Clone, Debug)]
pub struct MatrixFigures {
    /// The underlying runs.
    pub runs: Vec<WorkloadRuns>,
}

impl MatrixFigures {
    /// Runs the matrix over `names` as one sweep.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> Result<MatrixFigures, SimError> {
        let mechs = [Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre];
        let runs = grid_rows(cfg, names, &mechs, |name, m| WorkloadRuns {
            name: name.to_string(),
            base: m[0].clone(),
            cdf: m[1].clone(),
            pre: m[2].clone(),
        })?;
        Ok(MatrixFigures { runs })
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
    /// cdf_energy_geo_rel)` rows; energies are relative to the baseline at
    /// the first window size.
    pub rows: Vec<(usize, f64, f64, f64, f64)>,
}

impl Fig17 {
    /// Runs one base and CDF sweep per window size in `robs` over `names`.
    pub fn run(cfg: &EvalConfig, names: &[&str], robs: &[usize]) -> Result<Fig17, SimError> {
        let mut rows = Vec::new();
        let mut ref_energy: Option<Vec<f64>> = None;
        for &rob in robs {
            let scaled = EvalConfig {
                core: cfg.core.clone().with_scaled_window(rob),
                ..cfg.clone()
            };
            let mechs = [Mechanism::Baseline, Mechanism::Cdf];
            // Per workload: base IPC, CDF IPC, base energy, CDF energy.
            let runs = grid_rows(&scaled, names, &mechs, |_, m| {
                [m[0].ipc, m[1].ipc, m[0].energy_nj, m[1].energy_nj]
            })?;
            let reference = ref_energy.get_or_insert_with(|| runs.iter().map(|r| r[2]).collect());
            // The geomean over workloads of `f(row, reference energy)`.
            let column = |f: fn(&[f64; 4], f64) -> f64| {
                let values: Vec<f64> = runs
                    .iter()
                    .zip(reference.iter())
                    .map(|(r, &e)| f(r, e))
                    .collect();
                geomean(&values)
            };
            rows.push((
                rob,
                column(|r, _| r[0]),
                column(|r, _| r[1]),
                column(|r, e| r[2] / e),
                column(|r, e| r[3] / e),
            ));
        }
        Ok(Fig17 { rows })
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
}

impl AblationBranches {
    /// Runs the ablation.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> Result<AblationBranches, SimError> {
        let mechs = [
            Mechanism::Baseline,
            Mechanism::Cdf,
            Mechanism::CdfNoBranches,
        ];
        let rows = grid_rows(cfg, names, &mechs, |name, m| {
            (name.to_string(), m[1].ipc / m[0].ipc, m[2].ipc / m[0].ipc)
        })?;
        Ok(AblationBranches { rows })
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
}

impl AblationDesign {
    /// Runs both design-choice ablations.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> Result<AblationDesign, SimError> {
        let mechs = [
            Mechanism::Baseline,
            Mechanism::Cdf,
            Mechanism::CdfStaticPartition,
            Mechanism::CdfNoMaskCache,
        ];
        let rows = grid_rows(cfg, names, &mechs, |name, m| {
            let [base, full, stat, nomask] = [&m[0], &m[1], &m[2], &m[3]];
            (
                name.to_string(),
                full.ipc / base.ipc,
                stat.ipc / base.ipc,
                nomask.ipc / base.ipc,
                full.dependence_violations,
                nomask.dependence_violations,
            )
        })?;
        Ok(AblationDesign { rows })
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
    /// Runs one baseline cell per kernel in `names`, then per configuration
    /// point one CDF cell per kernel, each through [`run_cell`] on one
    /// worker pool. A point is a custom [`CdfConfig`], not a named
    /// [`Mechanism`], so its cells are `CDF` cells with the point's mode.
    pub fn run(cfg: &EvalConfig, names: &[&str]) -> Result<SensitivityCdfStructures, SimError> {
        let mut points: Vec<(String, CdfConfig)> = Vec::new();
        for lines in [1usize, 2, 4, 8] {
            let kb = lines * 64 * 64 / 1024;
            let cdf = CdfConfig {
                uop_cache_lines_per_set: lines,
                ..CdfConfig::default()
            };
            points.push((format!("uop cache {lines} lines/set ({kb}KB-class)"), cdf));
        }
        for fill in [256usize, 1024, 4096] {
            let cdf = CdfConfig {
                fill_buffer: fill,
                ..CdfConfig::default()
            };
            points.push((format!("fill buffer {fill} entries"), cdf));
        }
        for dbq in [64usize, 256, 1024] {
            let cdf = CdfConfig {
                dbq,
                ..CdfConfig::default()
            };
            points.push((format!("DBQ {dbq} entries"), cdf));
        }
        let modes = std::iter::once((Mechanism::Baseline, CoreMode::Baseline)).chain(
            points
                .iter()
                .map(|(_, c)| (Mechanism::Cdf, CoreMode::Cdf(c.clone()))),
        );
        let jobs: Vec<(&str, Mechanism, CoreMode)> = modes
            .flat_map(|(m, mode)| names.iter().map(move |&w| (w, m, mode.clone())))
            .collect();
        let ipcs = parallel_map(&jobs, 0, |(w, m, mode)| {
            run_cell(w, *m, mode.clone(), cfg, false)
                .result
                .map(|r| r.ipc)
        })
        .into_iter()
        .collect::<Result<Vec<f64>, SimError>>()?;
        let (base, cdf) = ipcs.split_at(names.len());
        let rows = points
            .into_iter()
            .zip(cdf.chunks(names.len()))
            .map(|((label, _), cdf)| {
                let speedups: Vec<f64> = cdf.iter().zip(base).map(|(c, b)| c / b).collect();
                (label, geomean(&speedups))
            })
            .collect();
        Ok(SensitivityCdfStructures { rows })
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
        let m = MatrixFigures::run(&tiny(), &["libq_like", "astar_like"]).unwrap();
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
        let f = Fig01::run(&tiny(), &["astar_like"]).unwrap();
        assert_eq!(f.rows.len(), 1);
        let frac = f.rows[0].1;
        assert!((0.0..=1.0).contains(&frac), "{frac}");
        assert!(f.render().contains("Fig. 1"));
    }

    #[test]
    fn fig17_rows_per_rob() {
        let f = Fig17::run(&tiny(), &["astar_like"], &[192, 352]).unwrap();
        assert_eq!(f.rows.len(), 2);
        assert!(f.render().contains("352"));
    }

    #[test]
    fn ablation_branches_runs() {
        let a = AblationBranches::run(&tiny(), &["astar_like"]).unwrap();
        let (gf, gn) = a.geomeans();
        assert!(gf > 0.0 && gn > 0.0);
        assert!(a.render().contains("branch"));
    }

    #[test]
    fn ablation_design_has_a_row_per_kernel_and_a_geomean() {
        let a = AblationDesign::run(&tiny(), &["astar_like", "mcf_like"]).unwrap();
        let kernels: Vec<&str> = a.rows.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(kernels, ["astar_like", "mcf_like"]);
        for (name, full, stat, nomask, ..) in &a.rows {
            assert!(*full > 0.0 && *stat > 0.0 && *nomask > 0.0, "{name}");
        }
        let text = a.render();
        assert!(text.starts_with("Ablation (§3.5/§3.2"), "{text}");
        assert!(text.contains("geomean"), "{text}");
    }

    /// The default configuration appears three times among the points (the
    /// 4-line uop cache, the 1024-entry fill buffer, the 256-entry DBQ);
    /// each reads the CDF-over-base geomean of a plain sweep of the kernels.
    #[test]
    fn sensitivity_default_points_match_a_plain_sweep() {
        let kernels = ["astar_like", "mcf_like"];
        let s = SensitivityCdfStructures::run(&tiny(), &kernels).unwrap();
        assert_eq!(s.rows.len(), 10);
        let speedup = |label: &str| {
            s.rows
                .iter()
                .find(|(l, _)| l.starts_with(label))
                .unwrap_or_else(|| panic!("no `{label}` row"))
                .1
        };
        let mechs = vec![Mechanism::Baseline, Mechanism::Cdf];
        let plain = run_sweep(&SweepConfig::new(kernels, mechs, tiny()));
        let ipc = |w, m| plain.get(w, m).expect("cell ran").ipc;
        let want = geomean(&kernels.map(|w| ipc(w, Mechanism::Cdf) / ipc(w, Mechanism::Baseline)));
        for label in [
            "uop cache 4 lines/set",
            "fill buffer 1024 entries",
            "DBQ 256 entries",
        ] {
            assert_eq!(speedup(label), want, "{label}");
        }
    }
}
