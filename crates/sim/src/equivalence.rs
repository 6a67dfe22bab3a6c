//! Implementation-equivalence harness: proves the event-driven
//! wakeup/select scheduler produces **bit-identical** results to the
//! reference per-cycle scan it replaced ([`SchedulerKind`]).
//!
//! The core keeps both schedulers compiled and runtime-selectable; this
//! module drives them against each other two ways:
//!
//! 1. **Fuzz-seed lockstep** ([`run_equivalence`]): every seed builds one
//!    random program, which runs to completion under *both* schedulers
//!    for each requested mechanism — each run with the
//!    PR-3 [`OracleLockstep`] observer attached, so every retired uop is
//!    also checked against the functional executor. The two runs must
//!    agree on the FNV retirement digest, the per-uop comparison count,
//!    and the complete final [`CoreStats`] struct, field for field.
//! 2. **Workload windows** ([`workload_equivalence`]): full warmup+measure
//!    windows over the registry kernels, compared [`Measurement`] for
//!    [`Measurement`] (which folds in DRAM traffic and energy, so a
//!    variant that perturbed the memory-system event order would show up
//!    here even if the retirement stream matched).
//!
//! Reports serialize as `cdf-equiv/1` JSON for the `cdf-sim equiv`
//! subcommand and the CI equivalence job. Their `axis` field is the
//! constant `"scheduler"`, which keeps the document's shape.
//!
//! [`OracleLockstep`]: cdf_core::OracleLockstep
//! [`CoreStats`]: cdf_core::CoreStats
//! [`Measurement`]: crate::Measurement

use crate::fuzz::{run_lockstep_full, LockstepOutcome};
use crate::json::{field, Json};
use crate::run::{EvalConfig, Mechanism};
use crate::sweep::{parallel_map, sweep_cells, SweepConfig};
use cdf_core::SchedulerKind;
use cdf_workloads::fuzz::FuzzSpec;
use std::fmt::Debug;

/// Schema tag of the equivalence report document.
pub use crate::schema::EQUIV as EQUIV_SCHEMA;

/// The two schedulers compared, the event-driven default first and the
/// reference scan second; each side is named by its `as_str`.
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::EventDriven, SchedulerKind::ReferenceScan];

/// Configuration of a fuzz-seed equivalence campaign.
#[derive(Clone, Debug)]
pub struct EquivConfig {
    /// Number of fuzz seeds to run.
    pub seeds: u64,
    /// First seed (campaigns shard by seed range).
    pub start_seed: u64,
    /// Mechanisms to run each seed under.
    pub mechanisms: Vec<Mechanism>,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for EquivConfig {
    fn default() -> EquivConfig {
        EquivConfig {
            seeds: 500,
            start_seed: 1,
            mechanisms: Mechanism::ALL.to_vec(),
            threads: 0,
        }
    }
}

/// One disagreement between the two schedulers.
#[derive(Clone, Debug)]
pub struct EquivMismatch {
    /// Fuzz seed (or the workload generator seed for window runs).
    pub seed: u64,
    /// Mechanism label.
    pub mechanism: String,
    /// What differed, rendered for humans.
    pub detail: String,
}

/// Result of an equivalence campaign.
#[derive(Clone, Debug)]
pub struct EquivReport {
    /// Seeds run.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Mechanism labels covered.
    pub mechanisms: Vec<String>,
    /// (seed × mechanism) pairs run under both variants.
    pub cases: u64,
    /// Retired uops oracle-checked across all event-driven runs.
    pub checked_uops: u64,
    /// Every disagreement found.
    pub mismatches: Vec<EquivMismatch>,
}

impl EquivReport {
    /// Whether the campaign found zero disagreements.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Serializes the report as a `cdf-equiv/1` document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            field("schema", EQUIV_SCHEMA),
            field(
                "provenance",
                crate::provenance::provenance_json(&cdf_core::Provenance::capture()),
            ),
            field("axis", "scheduler"),
            field("seeds", self.seeds),
            field("start_seed", self.start_seed),
            field(
                "mechanisms",
                Json::Arr(
                    self.mechanisms
                        .iter()
                        .map(|m| Json::from(m.as_str()))
                        .collect(),
                ),
            ),
            field("cases", self.cases),
            field("checked_uops", self.checked_uops),
            field(
                "mismatches",
                Json::Arr(
                    self.mismatches
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                field("seed", m.seed),
                                field("mechanism", m.mechanism.as_str()),
                                field("detail", m.detail.as_str()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// One-paragraph human summary.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "scheduler equivalence: {} seeds x {} mechanisms = {} dual-run cases, \
             {} retired uops oracle-checked, {} mismatches",
            self.seeds,
            self.mechanisms.len(),
            self.cases,
            self.checked_uops,
            self.mismatches.len()
        );
        for m in self.mismatches.iter().take(10) {
            out.push_str(&format!(
                "\n  seed {} [{}]: {}",
                m.seed, m.mechanism, m.detail
            ));
        }
        out
    }
}

/// Renders the first differing field of two runs' results (`what` names
/// them: a [`CoreStats`](cdf_core::CoreStats) field, a
/// [`Measurement`](crate::Measurement); `sides` names the run of `a` and
/// the run of `b`), or `None` when they are identical. Works off the pretty
/// `Debug` rendering so it stays complete as fields are added.
pub fn divergence<T: PartialEq + Debug>(
    what: &str,
    [side_a, side_b]: [&str; 2],
    a: &T,
    b: &T,
) -> Option<String> {
    if a == b {
        return None;
    }
    let fa = format!("{a:#?}");
    let fb = format!("{b:#?}");
    for (la, lb) in fa.lines().zip(fb.lines()) {
        if la != lb {
            return Some(format!(
                "{what} diverged: {side_a} `{}` vs {side_b} `{}`",
                la.trim().trim_end_matches(','),
                lb.trim().trim_end_matches(',')
            ));
        }
    }
    Some(format!("{what} differs but the Debug renderings agree"))
}

/// Runs one fuzz seed under every mechanism with both schedulers and
/// returns the oracle-checked uop count plus any disagreements.
pub fn check_seed(seed: u64, mechanisms: &[Mechanism]) -> (u64, Vec<EquivMismatch>) {
    let fp = FuzzSpec::from_seed(seed).build();
    let sides @ [la, lb] = SCHEDULERS.map(SchedulerKind::as_str);
    let mut checked_total = 0u64;
    let mut mismatches = Vec::new();
    for &mech in mechanisms {
        let [(ev, ev_stats), (sc, sc_stats)] =
            SCHEDULERS.map(|scheduler| run_lockstep_full(&fp, mech, scheduler));
        let mut fail = |detail: String| {
            mismatches.push(EquivMismatch {
                seed,
                mechanism: mech.label().to_string(),
                detail,
            });
        };
        match (&ev, &sc) {
            (
                LockstepOutcome::Ok {
                    digest: ed,
                    checked: ec,
                },
                LockstepOutcome::Ok {
                    digest: sd,
                    checked: sc_n,
                },
            ) => {
                checked_total += ec;
                if ed != sd {
                    fail(format!(
                        "retirement digest: {la} {ed:#018x} vs {lb} {sd:#018x}"
                    ));
                } else if ec != sc_n {
                    fail(format!("checked-uop count: {la} {ec} vs {lb} {sc_n}"));
                } else if let (Some(a), Some(b)) = (&ev_stats, &sc_stats) {
                    if let Some(d) = divergence("stats field", sides, a, b) {
                        fail(d);
                    }
                }
            }
            (LockstepOutcome::Fail { kind, detail }, _) => {
                fail(format!("{la} variant failed ({}): {detail}", kind.as_str()));
            }
            (_, LockstepOutcome::Fail { kind, detail }) => {
                fail(format!("{lb} variant failed ({}): {detail}", kind.as_str()));
            }
        }
    }
    (checked_total, mismatches)
}

/// Runs a fuzz-seed equivalence campaign in parallel.
pub fn run_equivalence(cfg: &EquivConfig) -> EquivReport {
    let seeds: Vec<u64> = (cfg.start_seed..cfg.start_seed + cfg.seeds).collect();
    let per_seed = parallel_map(&seeds, cfg.threads, |&seed| {
        check_seed(seed, &cfg.mechanisms)
    });
    let mut checked_uops = 0u64;
    let mut mismatches = Vec::new();
    for (checked, mut mm) in per_seed {
        checked_uops += checked;
        mismatches.append(&mut mm);
    }
    mismatches.sort_by(|a, b| (a.seed, &a.mechanism).cmp(&(b.seed, &b.mechanism)));
    EquivReport {
        seeds: cfg.seeds,
        start_seed: cfg.start_seed,
        mechanisms: cfg
            .mechanisms
            .iter()
            .map(|m| m.label().to_string())
            .collect(),
        cases: cfg.seeds * cfg.mechanisms.len() as u64,
        checked_uops,
        mismatches,
    }
}

/// Runs full warmup+measure windows over `workloads × mechanisms` under both
/// schedulers, as one sweep per scheduler, and compares the complete
/// [`Measurement`](crate::Measurement)s cell by cell. Returns every
/// disagreement (empty = bit-identical end to end, including DRAM traffic
/// and energy).
pub fn workload_equivalence(
    workloads: &[&str],
    mechanisms: &[Mechanism],
    cfg: &EvalConfig,
) -> Vec<EquivMismatch> {
    let [a, b] = SCHEDULERS.map(|scheduler| {
        let mut eval = cfg.clone();
        eval.core.scheduler = scheduler;
        sweep_cells(&SweepConfig::new(
            workloads.iter().copied(),
            mechanisms.to_vec(),
            eval,
        ))
    });
    let sides @ [la, lb] = SCHEDULERS.map(SchedulerKind::as_str);
    a.iter()
        .zip(&b)
        .filter_map(|(x, y)| {
            let detail = match (&x.result, &y.result) {
                (Ok(p), Ok(q)) => divergence("measurement", sides, p, q)?,
                (Err(e), _) => format!("{la} variant window failed: {e}"),
                (_, Err(e)) => format!("{lb} variant window failed: {e}"),
            };
            Some(EquivMismatch {
                seed: cfg.gen.seed,
                mechanism: format!("{}/{}", x.workload, x.mechanism.label()),
                detail,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdf_core::CoreStats;

    #[test]
    fn divergence_reports_field() {
        let sides = SCHEDULERS.map(SchedulerKind::as_str);
        let a = CoreStats::default();
        assert!(divergence("stats field", sides, &a, &CoreStats::default()).is_none());
        let b = CoreStats {
            cycles: 7,
            ..CoreStats::default()
        };
        let d = divergence("stats field", sides, &a, &b).expect("differs");
        assert!(d.contains("cycles"), "diff names the field: {d}");
    }

    /// The two sides are named after the schedulers they run, in every
    /// mismatch the harness reports.
    #[test]
    fn every_axis_names_its_own_two_sides() {
        let sides = SCHEDULERS.map(SchedulerKind::as_str);
        let b = CoreStats {
            cycles: 7,
            ..CoreStats::default()
        };
        let d = divergence("stats field", sides, &CoreStats::default(), &b);
        assert_eq!(
            d.as_deref(),
            Some("stats field diverged: event `cycles: 0` vs scan `cycles: 7`")
        );
        // A window that cannot run names the scheduler that failed.
        let mm = workload_equivalence(
            &["no_such_kernel"],
            &[Mechanism::Baseline],
            &EvalConfig::quick(),
        );
        assert_eq!(mm.len(), 1, "{mm:?}");
        assert_eq!(mm[0].mechanism, "no_such_kernel/base");
        let prefix = "event variant window failed: unknown workload";
        assert!(mm[0].detail.starts_with(prefix), "{}", mm[0].detail);
    }

    #[test]
    fn one_seed_both_schedulers_agree() {
        let (checked, mm) = check_seed(42, &[Mechanism::Baseline, Mechanism::Cdf]);
        assert!(checked > 0, "oracle compared retired uops");
        assert!(mm.is_empty(), "schedulers agree on seed 42: {mm:?}");
    }

    #[test]
    fn report_json_shape() {
        let report = run_equivalence(&EquivConfig {
            seeds: 2,
            start_seed: 7,
            mechanisms: vec![Mechanism::Baseline],
            threads: 1,
        });
        assert!(report.clean(), "{}", report.render_summary());
        assert_eq!(report.cases, 2);
        let j = report.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(EQUIV_SCHEMA));
        assert_eq!(j.get("axis").and_then(Json::as_str), Some("scheduler"));
        assert!(j.get("checked_uops").and_then(Json::as_u64).unwrap() > 0);
    }
}
