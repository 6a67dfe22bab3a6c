//! Differential co-simulation fuzzing: random programs, lockstep oracle
//! checking, and counterexample minimization.
//!
//! The driver feeds seeded random programs from [`cdf_workloads::fuzz`] to
//! the timing core under several mechanisms (baseline, CDF, PRE by default),
//! each with an [`OracleLockstep`] observer attached so **every retired
//! uop** is compared against the functional executor — destination value,
//! store address/data, load value, branch direction, next PC. A failure in
//! any form (lockstep divergence, invariant panic, watchdog hang, final
//! architectural state mismatch, or cross-mechanism retirement-digest
//! mismatch) is recorded per seed; with minimization enabled, the failing
//! spec is delta-debugged down to a small reproducer by nop-masking body
//! items and shrinking the loop trip count, which keeps every pc stable.
//!
//! Reports serialize as `cdf-fuzz/1` JSON, and each failure can be written
//! into a corpus directory as a self-contained `cdf-fuzz-case/1` document
//! that [`spec_from_json`] turns back into the exact failing program.

use crate::error::SimError;
use crate::json::{field, Json};
use crate::run::Mechanism;
use crate::sweep::parallel_map;
use cdf_core::{
    BoundaryKind, Core, CoreConfig, CoreStats, MemModelKind, OracleLockstep, SchedulerKind,
};
use cdf_isa::Executor;
use cdf_workloads::fuzz::{FuzzProgram, FuzzSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Schema tag of the fuzz report document.
pub use crate::schema::FUZZ as FUZZ_SCHEMA;
/// Schema tag of a single corpus case document.
pub use crate::schema::FUZZ_CASE as FUZZ_CASE_SCHEMA;

/// How a fuzz case failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The lockstep observer saw a retired uop disagree with the oracle.
    Divergence,
    /// The core panicked (structural invariant or internal assertion).
    Panic,
    /// The core stopped retiring before `Halt`: the instruction budget ran
    /// out, or the pipeline stalled.
    Hang,
    /// Per-uop stream matched but the final architectural state did not.
    FinalState,
    /// Mechanisms retired different architectural streams.
    DigestMismatch,
}

impl FailureKind {
    /// Stable machine-readable tag.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Divergence => "divergence",
            FailureKind::Panic => "panic",
            FailureKind::Hang => "hang",
            FailureKind::FinalState => "final-state",
            FailureKind::DigestMismatch => "digest-mismatch",
        }
    }
}

/// One recorded failure, with its minimized reproducer when available.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Seed of the failing spec.
    pub seed: u64,
    /// Mechanism label that failed.
    pub mechanism: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable root cause (first divergence, panic message, …).
    pub detail: String,
    /// The original failing spec.
    pub spec: FuzzSpec,
    /// The delta-debugged spec, when minimization ran.
    pub minimized: Option<FuzzSpec>,
}

/// Aggregate result of a fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Specs exercised.
    pub cases: u64,
    /// Total retired uops compared against the oracle, across mechanisms.
    pub checked_uops: u64,
    /// Mechanism labels exercised.
    pub mechanisms: Vec<String>,
    /// All failures, in seed order.
    pub failures: Vec<FuzzFailure>,
    /// Seeds skipped because the dynamic-uop budget ran out.
    pub seeds_skipped: u64,
}

/// Fuzz-run parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of seeds to exercise (`start_seed..start_seed + seeds`).
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Mechanisms run in lockstep per seed.
    pub mechanisms: Vec<Mechanism>,
    /// Cap on the summed fuel (dynamic uops) of the exercised specs; seeds
    /// beyond the cap are skipped and counted. `None` runs every seed.
    pub budget_uops: Option<u64>,
    /// Delta-debug each failure down to a minimal reproducer.
    pub minimize: bool,
    /// Predicate evaluations the shrinker may spend per failure.
    pub shrink_budget: u32,
    /// Worker threads (0 = all hardware threads).
    pub threads: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seeds: 100,
            start_seed: 0,
            mechanisms: vec![Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre],
            budget_uops: None,
            minimize: false,
            shrink_budget: 300,
            threads: 0,
        }
    }
}

/// Outcome of one (spec, mechanism) lockstep run.
#[derive(Clone, Debug)]
pub enum LockstepOutcome {
    /// Clean run: retirement-stream digest and per-uop comparison count.
    Ok {
        /// FNV digest of the retired architectural stream.
        digest: u64,
        /// Retired uops compared.
        checked: u64,
    },
    /// The run failed.
    Fail {
        /// Failure class.
        kind: FailureKind,
        /// Root cause.
        detail: String,
    },
}

impl LockstepOutcome {
    /// Whether the run was clean.
    pub fn is_ok(&self) -> bool {
        matches!(self, LockstepOutcome::Ok { .. })
    }
}

/// Runs one generated program on one mechanism with per-retired-uop oracle
/// checking, a final architectural state comparison, and panic isolation.
pub fn run_lockstep(fp: &FuzzProgram, mechanism: Mechanism) -> LockstepOutcome {
    run_lockstep_full(
        fp,
        mechanism,
        SchedulerKind::default(),
        MemModelKind::default(),
        BoundaryKind::default(),
    )
    .0
}

/// The fully explicit lockstep primitive: scheduler, memory-model, and
/// core↔memory boundary implementation are all chosen by the caller. The
/// equivalence harness pins two axes to their defaults while flipping the
/// third, so each campaign isolates a single implementation swap.
pub fn run_lockstep_full(
    fp: &FuzzProgram,
    mechanism: Mechanism,
    scheduler: SchedulerKind,
    mem_model: MemModelKind,
    boundary: BoundaryKind,
) -> (LockstepOutcome, Option<CoreStats>) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let checker = OracleLockstep::new(&fp.program, fp.memory.clone());
        let log = checker.log();
        let cfg = CoreConfig {
            mode: mechanism.mode(),
            scheduler,
            mem_model,
            boundary,
            ..CoreConfig::default()
        };
        let mut core = Core::new(&fp.program, fp.memory.clone(), cfg);
        core.attach_retire_observer(Box::new(checker));
        let stats = core.run(fp.fuel + 8);
        let log = log.borrow();
        if let Some(d) = &log.divergence {
            return (
                LockstepOutcome::Fail {
                    kind: FailureKind::Divergence,
                    detail: d.to_string(),
                },
                Some(stats.clone()),
            );
        }
        if !stats.halted {
            let detail = match core.stalled() {
                Some(diagnostic) => SimError::Stalled(diagnostic.to_string()).to_string(),
                None => format!(
                    "no Halt after {} retired uops in {} cycles",
                    stats.retired, stats.cycles
                ),
            };
            return (
                LockstepOutcome::Fail {
                    kind: FailureKind::Hang,
                    detail,
                },
                Some(stats.clone()),
            );
        }
        let mut oracle = Executor::new(&fp.program, fp.memory.clone());
        oracle
            .run(fp.fuel)
            .expect("generated program halts within fuel");
        if let Some(diff) = state_diff(&core.arch_state(), oracle.state()) {
            return (
                LockstepOutcome::Fail {
                    kind: FailureKind::FinalState,
                    detail: diff,
                },
                Some(stats.clone()),
            );
        }
        (
            LockstepOutcome::Ok {
                digest: log.digest,
                checked: log.checked,
            },
            Some(stats.clone()),
        )
    }));
    result.unwrap_or_else(|payload| {
        (
            LockstepOutcome::Fail {
                kind: FailureKind::Panic,
                detail: SimError::Panicked(crate::sweep::panic_message(payload)).to_string(),
            },
            None,
        )
    })
}

/// Renders the first disagreement between two architectural states, or
/// `None` when they match.
fn state_diff(core: &cdf_isa::ArchState, oracle: &cdf_isa::ArchState) -> Option<String> {
    for r in cdf_isa::ArchReg::all() {
        if core.reg(r) != oracle.reg(r) {
            return Some(format!(
                "final {r:?}: oracle {:#x}, core {:#x}",
                oracle.reg(r),
                core.reg(r)
            ));
        }
    }
    for (addr, value) in oracle.mem().iter() {
        if core.mem().load(addr) != value {
            return Some(format!(
                "final mem[{addr:#x}]: oracle {value:#x}, core {:#x}",
                core.mem().load(addr)
            ));
        }
    }
    for (addr, value) in core.mem().iter() {
        if oracle.mem().load(addr) != value {
            return Some(format!(
                "final mem[{addr:#x}]: oracle {:#x}, core {value:#x}",
                oracle.mem().load(addr)
            ));
        }
    }
    None
}

/// Runs every mechanism over one spec and returns per-mechanism outcomes
/// plus any cross-mechanism digest mismatch.
pub fn check_spec(spec: &FuzzSpec, mechanisms: &[Mechanism]) -> Vec<(Mechanism, LockstepOutcome)> {
    let fp = spec.build();
    let mut outcomes: Vec<(Mechanism, LockstepOutcome)> = mechanisms
        .iter()
        .map(|&m| (m, run_lockstep(&fp, m)))
        .collect();
    // Every clean mechanism already matched the oracle per-uop, so digests
    // can only differ if the digest itself is broken — belt and braces.
    let digests: Vec<(Mechanism, u64)> = outcomes
        .iter()
        .filter_map(|(m, o)| match o {
            LockstepOutcome::Ok { digest, .. } => Some((*m, *digest)),
            _ => None,
        })
        .collect();
    if let Some((m0, d0)) = digests.first().copied() {
        for &(m, d) in &digests[1..] {
            if d != d0 {
                outcomes.push((
                    m,
                    LockstepOutcome::Fail {
                        kind: FailureKind::DigestMismatch,
                        detail: format!(
                            "retirement digest {d:#x} differs from {}'s {d0:#x}",
                            m0.label()
                        ),
                    },
                ));
            }
        }
    }
    outcomes
}

fn spec_fails(spec: &FuzzSpec, mechanisms: &[Mechanism]) -> bool {
    check_spec(spec, mechanisms).iter().any(|(_, o)| !o.is_ok())
}

/// Delta-debugs a failing spec to a smaller one that still fails, spending
/// at most `budget` predicate evaluations. The result regenerates the same
/// instruction layout (masking replaces items with nops, so pcs and branch
/// targets never move) — a minimized spec is a complete reproducer.
pub fn minimize_spec(spec: &FuzzSpec, mechanisms: &[Mechanism], budget: u32) -> FuzzSpec {
    minimize_with(spec, budget, |s| spec_fails(s, mechanisms))
}

/// The delta-debugging loop behind [`minimize_spec`], generic over the
/// failure predicate (`true` = the candidate still fails and may replace
/// the current best).
pub fn minimize_with(
    spec: &FuzzSpec,
    budget: u32,
    mut fails: impl FnMut(&FuzzSpec) -> bool,
) -> FuzzSpec {
    let mut left = budget;
    let mut check = move |s: &FuzzSpec| -> bool {
        if left == 0 {
            return false;
        }
        left -= 1;
        fails(s)
    };
    let mut best = spec.clone();

    // Phase 1: halve the outer trip count while the failure persists.
    while best.outer_iters > 1 {
        let cand = FuzzSpec {
            outer_iters: best.outer_iters / 2,
            ..best.clone()
        };
        if check(&cand) {
            best = cand;
        } else {
            break;
        }
    }

    // Phase 2: ddmin over the unmasked body items, masking chunks of
    // decreasing size.
    let mut chunk = (spec.body_items as usize / 2).max(1);
    loop {
        let unmasked: Vec<u32> = (0..best.body_items)
            .filter(|i| !best.masked.contains(i))
            .collect();
        if unmasked.is_empty() || left == 0 {
            break;
        }
        let mut progress = false;
        let mut start = 0;
        while start < unmasked.len() {
            let end = (start + chunk).min(unmasked.len());
            let mut cand = best.clone();
            cand.masked.extend(&unmasked[start..end]);
            cand.masked.sort_unstable();
            cand.masked.dedup();
            if check(&cand) {
                best = cand;
                progress = true;
            }
            start = end;
        }
        if chunk == 1 {
            if !progress {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }

    // Phase 3: one more trip-count pass now that the body is smaller.
    while best.outer_iters > 1 {
        let cand = FuzzSpec {
            outer_iters: best.outer_iters - 1,
            ..best.clone()
        };
        if check(&cand) {
            best = cand;
        } else {
            break;
        }
    }
    best
}

/// Runs the full fuzz campaign described by `cfg`.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    // Resolve the seed list under the dynamic-uop budget first (spec
    // expansion is cheap next to simulation).
    let mut seeds: Vec<u64> = Vec::new();
    let mut skipped = 0u64;
    let mut spent = 0u64;
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        let fuel = FuzzSpec::from_seed(seed).build().fuel;
        let within = cfg.budget_uops.map(|b| spent + fuel <= b).unwrap_or(true);
        if within {
            spent += fuel;
            seeds.push(seed);
        } else {
            skipped += 1;
        }
    }

    let results = parallel_map(&seeds, cfg.threads, |&seed| {
        let spec = FuzzSpec::from_seed(seed);
        let outcomes = check_spec(&spec, &cfg.mechanisms);
        let checked: u64 = outcomes
            .iter()
            .map(|(_, o)| match o {
                LockstepOutcome::Ok { checked, .. } => *checked,
                _ => 0,
            })
            .sum();
        let failures: Vec<FuzzFailure> = outcomes
            .into_iter()
            .filter_map(|(m, o)| match o {
                LockstepOutcome::Ok { .. } => None,
                LockstepOutcome::Fail { kind, detail } => Some(FuzzFailure {
                    seed,
                    mechanism: m.label().to_string(),
                    kind,
                    detail,
                    spec: spec.clone(),
                    minimized: None,
                }),
            })
            .collect();
        (checked, failures)
    });

    let mut checked_uops = 0;
    let mut failures = Vec::new();
    for (checked, fails) in results {
        checked_uops += checked;
        failures.extend(fails);
    }

    if cfg.minimize {
        for f in &mut failures {
            let mechs: Vec<Mechanism> = cfg.mechanisms.clone();
            f.minimized = Some(minimize_spec(&f.spec, &mechs, cfg.shrink_budget));
        }
    }

    FuzzReport {
        cases: seeds.len() as u64,
        checked_uops,
        mechanisms: cfg
            .mechanisms
            .iter()
            .map(|m| m.label().to_string())
            .collect(),
        failures,
        seeds_skipped: skipped,
    }
}

/// Serializes a spec as JSON (inverse of [`spec_from_json`]).
pub fn spec_json(spec: &FuzzSpec) -> Json {
    Json::Obj(vec![
        field("seed", spec.seed),
        field("body_items", spec.body_items as u64),
        field("outer_iters", spec.outer_iters as u64),
        field(
            "masked",
            Json::Arr(spec.masked.iter().map(|&i| Json::U64(i as u64)).collect()),
        ),
    ])
}

/// Parses a spec from the JSON produced by [`spec_json`] (also accepts a
/// whole `cdf-fuzz-case/1` document, using its minimized spec when present).
pub fn spec_from_json(j: &Json) -> Option<FuzzSpec> {
    if let Some(inner) = j.get("minimized_spec").or_else(|| j.get("spec")) {
        return spec_from_json(inner);
    }
    Some(FuzzSpec {
        seed: j.get("seed")?.as_u64()?,
        body_items: j.get("body_items")?.as_u64()? as u32,
        outer_iters: j.get("outer_iters")?.as_u64()? as u32,
        masked: j
            .get("masked")?
            .as_arr()?
            .iter()
            .map(|v| v.as_u64().map(|x| x as u32))
            .collect::<Option<Vec<u32>>>()?,
    })
}

fn failure_json(f: &FuzzFailure) -> Json {
    let mut fields = vec![
        field("schema", FUZZ_CASE_SCHEMA),
        field("seed", f.seed),
        field("mechanism", f.mechanism.as_str()),
        field("kind", f.kind.as_str()),
        field("detail", f.detail.as_str()),
        field("spec", spec_json(&f.spec)),
    ];
    if let Some(min) = &f.minimized {
        fields.push(field("minimized_spec", spec_json(min)));
        fields.push(field(
            "minimized_program",
            min.build().program.disassemble(),
        ));
    }
    Json::Obj(fields)
}

impl FuzzReport {
    /// Whether every case passed.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The stamped `cdf-fuzz/1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            field("schema", FUZZ_SCHEMA),
            field(
                "provenance",
                crate::provenance::provenance_json(&cdf_core::Provenance::capture()),
            ),
            field("cases", self.cases),
            field("seeds_skipped", self.seeds_skipped),
            field("checked_uops", self.checked_uops),
            field(
                "mechanisms",
                Json::Arr(
                    self.mechanisms
                        .iter()
                        .map(|m| Json::Str(m.clone()))
                        .collect(),
                ),
            ),
            field("failure_count", self.failures.len() as u64),
            field(
                "failures",
                Json::Arr(self.failures.iter().map(failure_json).collect()),
            ),
        ])
    }

    /// A one-screen human summary.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "fuzz: {} cases × {} mechanisms, {} retired uops checked in lockstep, {} skipped by budget\n",
            self.cases,
            self.mechanisms.len(),
            self.checked_uops,
            self.seeds_skipped,
        );
        if self.failures.is_empty() {
            out.push_str("no divergences\n");
        } else {
            for f in &self.failures {
                out.push_str(&format!(
                    "FAIL seed {} [{}] {}: {}\n",
                    f.seed,
                    f.mechanism,
                    f.kind.as_str(),
                    f.detail
                ));
                if let Some(m) = &f.minimized {
                    out.push_str(&format!(
                        "     minimized: iters {} -> {}, {} of {} items masked\n",
                        f.spec.outer_iters,
                        m.outer_iters,
                        m.masked.len(),
                        m.body_items
                    ));
                }
            }
        }
        out
    }

    /// Writes one `cdf-fuzz-case/1` file per failure into `dir`, returning
    /// the paths written.
    pub fn write_corpus(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for f in &self.failures {
            let path = dir.join(format!("fuzz-{}-{}.json", f.seed, f.mechanism));
            std::fs::write(&path, failure_json(f).render_pretty())?;
            paths.push(path);
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_clean_on_small_seeds() {
        for seed in 0..3 {
            let fp = FuzzSpec::from_seed(seed).build();
            for mech in [Mechanism::Baseline, Mechanism::Cdf, Mechanism::Pre] {
                let o = run_lockstep(&fp, mech);
                assert!(o.is_ok(), "seed {seed} on {}: {o:?}", mech.label());
            }
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = FuzzSpec {
            seed: 42,
            body_items: 17,
            outer_iters: 9,
            masked: vec![1, 4, 16],
        };
        let j = spec_json(&spec);
        assert_eq!(spec_from_json(&j), Some(spec.clone()));
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(spec_from_json(&parsed), Some(spec));
    }

    #[test]
    fn report_json_is_well_formed() {
        let cfg = FuzzConfig {
            seeds: 2,
            threads: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert_eq!(report.cases, 2);
        assert!(report.checked_uops > 0);
        let doc = Json::parse(&report.to_json().render_pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(FUZZ_SCHEMA));
    }

    #[test]
    fn budget_skips_seeds() {
        let cfg = FuzzConfig {
            seeds: 10,
            budget_uops: Some(1),
            threads: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert_eq!(report.cases, 0);
        assert_eq!(report.seeds_skipped, 10);
    }

    #[test]
    fn minimizer_isolates_the_failing_item() {
        // Synthetic failure: the "bug" triggers iff item 5 is unmasked and
        // at least two outer iterations run. ddmin should mask everything
        // else and shrink the trip count to exactly 2.
        let spec = FuzzSpec::from_seed(7);
        assert!(spec.body_items > 6, "seed 7 must generate enough items");
        let fails =
            |s: &FuzzSpec| !s.masked.contains(&5) && s.outer_iters >= 2 && s.seed == spec.seed;
        assert!(fails(&spec), "the original spec must fail");
        let min = minimize_with(&spec, 500, fails);
        assert!(fails(&min), "minimization must preserve the failure");
        assert_eq!(min.outer_iters, 2);
        let unmasked: Vec<u32> = (0..min.body_items)
            .filter(|i| !min.masked.contains(i))
            .collect();
        assert_eq!(unmasked, vec![5]);
        // The minimized spec still regenerates a program of the original
        // shape (masking never moves pcs).
        let full = spec.build();
        let shrunk = min.build();
        assert_eq!(full.program.len(), shrunk.program.len());
    }

    #[test]
    fn minimizer_respects_its_budget() {
        let spec = FuzzSpec::from_seed(11);
        let mut evals = 0u32;
        let min = minimize_with(&spec, 10, |_| {
            evals += 1;
            true
        });
        assert!(evals <= 10, "predicate ran {evals} times, budget was 10");
        assert!(fails_subsumes(&spec, &min));
    }

    /// A minimized spec is the same program family: same seed, same item
    /// count, and a superset of the original mask.
    fn fails_subsumes(orig: &FuzzSpec, min: &FuzzSpec) -> bool {
        min.seed == orig.seed
            && min.body_items == orig.body_items
            && orig.masked.iter().all(|m| min.masked.contains(m))
            && min.outer_iters <= orig.outer_iters
    }
}
