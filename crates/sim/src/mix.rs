//! `cdf-sim mix`: co-scheduled multi-core workload mixes.
//!
//! A mix runs N workloads on N cores over one shared memory system
//! ([`cdf_core::MultiCore`]): private L1s, a shared LLC and LLC MSHR pool
//! with per-core fairness accounting, and shared DDR4 channels. The output
//! is one per-core [`Measurement`] (same shape as a solo sweep cell) plus
//! the shared-resource statistics contention experiments need: LLC
//! occupancy share, MSHR fairness steals, and DRAM channel utilization.
//!
//! ## Windowing
//!
//! Unlike solo runs, a mix measures **one whole-run window from cycle 0**
//! rather than splitting warmup from measurement: co-runner interference
//! during cache/predictor warmup is itself part of what a mix measures,
//! and a per-core warmup barrier would force cores to idle (perturbing the
//! very contention under study). Each core retires
//! `warmup_instructions + measure_instructions` uops so mix cells stay
//! comparable in length to solo cells.
//!
//! ## Determinism
//!
//! Mixes inherit the round-robin lockstep determinism argument of
//! [`cdf_core::MultiCore`] (DESIGN.md, "Multi-core boundary"): same
//! workloads + same configs ⇒ bit-identical per-core measurements, shared
//! counters, serialized reports, and (with a pinned `CDF_TIMESTAMP`) store
//! bytes. `wall_ms` is recorded as 0 for the same reason.

use crate::error::{SimError, WatchdogPhase};
use crate::json::{field, Json};
use crate::provenance::provenance_json;
use crate::run::{EvalConfig, Measurement, Mechanism, Reading};
use crate::schema;
use crate::store::{RecordPayload, ResultRecord, TelemetrySummary};
use crate::sweep::{gen_json, measurement_json};
use crate::telemetry::telemetry_json;
use cdf_core::{
    Core, CoreShareStats, HostProf, HostProfile, MultiCore, Provenance, SharedStatsReport,
    Telemetry,
};
use cdf_workloads::registry;
use cdf_workloads::Workload;
use std::sync::OnceLock;

/// Schema tag of serialized mix reports (see [`crate::schema`]).
pub const MIX_SCHEMA: &str = schema::MIX;

/// One co-scheduled mix: which workload and mechanism runs on each core,
/// plus the shared sizing template.
#[derive(Clone, PartialEq, Debug)]
pub struct MixConfig {
    /// One workload name per core, in core-id order.
    pub workloads: Vec<String>,
    /// One mechanism per core (same length as [`workloads`](Self::workloads)).
    pub mechanisms: Vec<Mechanism>,
    /// Sizing template: `gen` parameterizes every core's workload, `core`
    /// is the per-core configuration (mode overridden per mechanism), and
    /// `warmup_instructions + measure_instructions` is the per-core
    /// retirement target (see the module docs on windowing).
    pub eval: EvalConfig,
    /// Global cycle budget: the run fails with [`SimError::Watchdog`] if
    /// any core is still short of its retirement target when the shared
    /// clock reaches it.
    pub cycle_budget: u64,
    /// Attach the host-side self-profiler to every core (`cdf-sim mix
    /// --profile`): per-core collectors merge into one mix-level
    /// [`HostProfile`], with the shared memory system's timer (its
    /// `shared_llc` access path) drained once. Like the sweep flag, it
    /// lives outside [`EvalConfig`] so config hashes are unchanged, and it
    /// never perturbs measured results.
    pub profile: bool,
}

impl MixConfig {
    /// A mix with default sizing. `mechanisms` must be the same length as
    /// `workloads`, or a single mechanism to run on every core.
    pub fn new(workloads: Vec<String>, mechanisms: Vec<Mechanism>) -> MixConfig {
        let mechanisms = if mechanisms.len() == 1 && workloads.len() > 1 {
            vec![mechanisms[0]; workloads.len()]
        } else {
            mechanisms
        };
        MixConfig {
            workloads,
            mechanisms,
            eval: EvalConfig::default(),
            cycle_budget: 50_000_000,
            profile: false,
        }
    }

    /// Shrinks the sizing for smoke runs and tests.
    pub fn quick(mut self) -> MixConfig {
        self.eval = EvalConfig {
            core: self.eval.core.clone(),
            ..EvalConfig::quick()
        };
        self
    }
}

/// What one core of a mix produced.
#[derive(Clone, PartialEq, Debug)]
pub struct MixCoreResult {
    /// Core id (index into the mix).
    pub core: usize,
    /// Workload that ran on this core.
    pub workload: String,
    /// Mechanism that ran on this core.
    pub mechanism: Mechanism,
    /// The whole-run measurement (same shape as a solo sweep cell).
    pub measurement: Measurement,
    /// Shared-resource attribution: DRAM traffic, LLC-pool rejections,
    /// MSHR fairness steals suffered/caused.
    pub share: CoreShareStats,
    /// LLC lines this core's fills owned at end of run.
    pub llc_occupancy: usize,
    /// [`llc_occupancy`](Self::llc_occupancy) as a fraction of total LLC
    /// lines.
    pub llc_occupancy_share: f64,
    /// The core's telemetry (interval samples, cycle accounting), when
    /// [`EvalConfig::telemetry`] was set on the mix's sizing. Observation-
    /// only; serialized into the per-core JSON as a `telemetry` section.
    pub telemetry: Option<Telemetry>,
}

/// A finished mix: per-core results plus shared-resource totals.
#[derive(Clone, Debug)]
pub struct MixReport {
    /// Where and when the mix ran, captured by
    /// [`provenance`](Self::provenance) on first use.
    provenance: OnceLock<Provenance>,
    /// The sizing the mix ran with.
    pub eval: EvalConfig,
    /// Per-core results, index = core id.
    pub cores: Vec<MixCoreResult>,
    /// End-of-run shared-resource totals.
    pub shared: SharedStatsReport,
    /// Per-channel DRAM data-bus utilization (busy cycles / mix cycles).
    pub channel_utilization: Vec<f64>,
    /// The merged host-side self-profile, when [`MixConfig::profile`] was
    /// set. Per-core collectors sum soundly because the round-robin driver
    /// interleaves cores on one host thread (disjoint wall intervals);
    /// shared-system timers are drained once and folded in.
    pub profile: Option<HostProfile>,
}

impl MixReport {
    /// The provenance header, captured (spawning `git` and `rustc`) the
    /// first time a document or store row reads it.
    pub fn provenance(&self) -> &Provenance {
        self.provenance.get_or_init(Provenance::capture)
    }
}

/// Runs one mix. Workload names resolve through the full registry
/// (default suite plus extras, including the `ptr_chase` / `stream_hog` /
/// `nop_loop` contention roles).
///
/// A single-workload "mix" is allowed — it is the solo baseline contention
/// experiments compare against — but the CLI requires two or more cores.
///
/// # Panics
///
/// Panics if `workloads` is empty or `mechanisms` has a different length
/// (configuration construction bugs, not run-time conditions).
pub fn run_mix(cfg: &MixConfig) -> Result<MixReport, SimError> {
    assert!(!cfg.workloads.is_empty(), "a mix needs at least one core");
    assert_eq!(
        cfg.workloads.len(),
        cfg.mechanisms.len(),
        "one mechanism per core"
    );
    let loaded: Vec<Workload> = cfg
        .workloads
        .iter()
        .map(|n| registry::lookup(n, &cfg.eval.gen))
        .collect::<Result<_, _>>()?;
    let cores = loaded
        .iter()
        .zip(&cfg.mechanisms)
        .map(|(w, mech)| {
            let mut cc = cfg.eval.core.clone();
            cc.mode = mech.mode();
            (&w.program, w.memory.clone(), cc)
        })
        .collect();
    let mut mc = MultiCore::new(cores);
    for core in mc.cores_mut() {
        if let Some(tcfg) = &cfg.eval.telemetry {
            core.enable_telemetry(tcfg.clone());
        }
        if cfg.profile {
            core.enable_prof();
        }
    }
    let wall_start = cfg.profile.then(std::time::Instant::now);
    let target = cfg.eval.warmup_instructions + cfg.eval.measure_instructions;
    let outcomes = mc.run(target, cfg.cycle_budget);
    let wall_ns = wall_start.map(|t0| t0.elapsed().as_nanos() as u64);
    if let Some(diagnostic) = mc.cores().iter().find_map(Core::stalled) {
        return Err(SimError::Stalled(diagnostic.to_string()));
    }
    for o in &outcomes {
        if !o.stats.halted && o.stats.retired < target {
            return Err(SimError::Watchdog {
                phase: WatchdogPhase::Measure,
                max_cycles: cfg.cycle_budget,
                retired: o.stats.retired,
            });
        }
    }

    let llc_lines = (cfg.eval.core.mem.llc.capacity_bytes / 64).max(1) as f64;
    let shared = mc.shared_report();
    let telemetries: Vec<Option<Telemetry>> = mc
        .cores_mut()
        .iter_mut()
        .map(|c| c.take_telemetry())
        .collect();
    let profile = wall_ns.map(|wall| {
        let mut merged = HostProf::new();
        for core in mc.cores_mut() {
            if let Some(p) = core.take_prof() {
                merged.merge(&p);
            }
        }
        // The shared system's timer (its shared-LLC access path) belongs
        // to the whole mix, so it is drained exactly once here rather than
        // attributed to whichever core asked first.
        if let Some(m) = mc.shared().borrow_mut().take_prof() {
            merged.fold_mem(&m);
        }
        let retired: u64 = outcomes.iter().map(|o| o.stats.retired).sum();
        merged.into_profile(shared.cycles, retired, wall)
    });
    let cores = outcomes
        .iter()
        .enumerate()
        .zip(telemetries)
        .map(|((id, o), telemetry)| {
            // The whole run from cycle 0, with the core's own slice of the
            // shared DRAM traffic (from the per-core fairness ledger), so
            // mix cells attribute bandwidth to the core that caused it.
            let e = mc.cores()[id].energy_report();
            let end = Reading {
                stats: o.stats.clone(),
                dram_lines: o.share.dram_reads + o.share.dram_writes,
                energy_nj: e.total_nj(),
                cdf_energy_nj: e.cdf_structures_nj(),
            };
            MixCoreResult {
                core: id,
                workload: cfg.workloads[id].clone(),
                mechanism: cfg.mechanisms[id],
                measurement: Measurement::between(
                    &cfg.workloads[id],
                    cfg.mechanisms[id].label(),
                    &Reading::default(),
                    &end,
                ),
                share: o.share,
                llc_occupancy: o.llc_occupancy,
                llc_occupancy_share: o.llc_occupancy as f64 / llc_lines,
                telemetry,
            }
        })
        .collect();
    let channel_utilization = shared
        .channel_busy
        .iter()
        .map(|&b| {
            if shared.cycles == 0 {
                0.0
            } else {
                b as f64 / shared.cycles as f64
            }
        })
        .collect();
    Ok(MixReport {
        provenance: OnceLock::new(),
        eval: cfg.eval.clone(),
        cores,
        shared,
        channel_utilization,
        profile,
    })
}

// ---------------------------------------------------------------------------
// Serialization: the `cdf-mix/1` report.
// ---------------------------------------------------------------------------

/// Serializes a mix report as its [`MIX_SCHEMA`] JSON document.
pub fn mix_json(r: &MixReport) -> Json {
    let cores = r
        .cores
        .iter()
        .map(|c| {
            let mut fields = vec![
                field("core", c.core as u64),
                field("workload", c.workload.as_str()),
                field("mechanism", c.mechanism.label()),
                field("measurement", measurement_json(&c.measurement)),
                field(
                    "share",
                    Json::Obj(vec![
                        field("dram_reads", c.share.dram_reads),
                        field("dram_writes", c.share.dram_writes),
                        field("llc_rejections", c.share.llc_rejections),
                        field("mshr_steals_suffered", c.share.mshr_steals_suffered),
                        field("mshr_steals_caused", c.share.mshr_steals_caused),
                        field("llc_occupancy", c.llc_occupancy as u64),
                        field("llc_occupancy_share", c.llc_occupancy_share),
                    ]),
                ),
            ];
            if let Some(t) = &c.telemetry {
                fields.push(field("telemetry", telemetry_json(t)));
            }
            Json::Obj(fields)
        })
        .collect();
    let mut doc = vec![
        field("schema", schema::MIX),
        field("provenance", provenance_json(r.provenance())),
        field("gen", gen_json(&r.eval.gen)),
        field(
            "window_instructions",
            r.eval.warmup_instructions + r.eval.measure_instructions,
        ),
        field("cores", Json::Arr(cores)),
        field(
            "shared",
            Json::Obj(vec![
                field("cycles", r.shared.cycles),
                field("llc_hits", r.shared.llc.0),
                field("llc_misses", r.shared.llc.1),
                field("dram_reads", r.shared.dram.reads),
                field("dram_writes", r.shared.dram.writes),
                field("dram_row_hits", r.shared.dram.row_hits),
                field("dram_row_empty", r.shared.dram.row_empty),
                field("dram_row_conflicts", r.shared.dram.row_conflicts),
                field("total_steals", r.shared.total_steals),
                field(
                    "channel_busy",
                    Json::Arr(
                        r.shared
                            .channel_busy
                            .iter()
                            .map(|&b| Json::from(b))
                            .collect(),
                    ),
                ),
                field(
                    "channel_utilization",
                    Json::Arr(
                        r.channel_utilization
                            .iter()
                            .map(|&u| Json::from(u))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ];
    if let Some(p) = &r.profile {
        let profile = crate::prof::profile_json(p, &mix_composition(r), "mix");
        doc.push(field("profile", profile));
    }
    Json::Obj(doc)
}

/// The mix's composition label, e.g. `mcf_like:base+stream_hog:base`.
fn mix_composition(r: &MixReport) -> String {
    r.cores
        .iter()
        .map(|c| format!("{}:{}", c.workload, c.mechanism.label()))
        .collect::<Vec<_>>()
        .join("+")
}

// ---------------------------------------------------------------------------
// Store recording.
// ---------------------------------------------------------------------------

/// Converts a finished mix into durable store records, one per core. The
/// kind encodes the full mix composition
/// (`mix[mcf_like:base+stream_hog:base]`) so `cdf-sim compare` only joins
/// a core's row against the *same experiment* at another commit — the same
/// workload co-scheduled against a different mix is a different cell, not
/// a regression. The workload key carries the core id (`mcf_like@c0`) so
/// symmetric mixes — the same workload on several cores — stay distinct
/// rows; `wall_ms` is 0 so recorded stores are byte-reproducible.
pub fn records_from_mix(run_id: &str, prov: &Provenance, r: &MixReport) -> Vec<ResultRecord> {
    let composition = format!("mix[{}]", mix_composition(r));
    let mut records: Vec<ResultRecord> = r
        .cores
        .iter()
        .map(|c| {
            let payload = RecordPayload::Cell {
                measurement: c.measurement.clone(),
                diagnostics: None,
                telemetry: c.telemetry.as_ref().map(TelemetrySummary::from_telemetry),
            };
            let workload = format!("{}@c{}", c.workload, c.core);
            let key = (composition.as_str(), workload.as_str(), c.mechanism.label());
            ResultRecord::new(run_id, c.core as u64, prov, &r.eval, key, 0, payload)
        })
        .collect();
    // A profiled mix rides one host-perf row along, keyed by the full
    // composition so compare only joins it against the same experiment.
    if let Some(p) = &r.profile {
        let key = ("profile", composition.as_str(), "mix");
        let (seq, payload) = (records.len() as u64, RecordPayload::throughput(p));
        let row = ResultRecord::new(run_id, seq, prov, &r.eval, key, 0, payload);
        records.push(row);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{measurement_from_json, record_json};

    fn quick_mix(workloads: &[&str], mechs: &[Mechanism]) -> MixConfig {
        MixConfig::new(
            workloads.iter().map(|s| s.to_string()).collect(),
            mechs.to_vec(),
        )
        .quick()
    }

    /// Strips the provenance (host-dependent) so reports compare across
    /// machines; everything else must be bit-identical.
    fn comparable(r: &MixReport) -> (Vec<MixCoreResult>, String) {
        let mut doc = mix_json(r);
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "provenance");
        }
        (r.cores.clone(), doc.render())
    }

    #[test]
    fn two_core_mix_is_deterministic() {
        let cfg = quick_mix(&["ptr_chase", "stream_hog"], &[Mechanism::Cdf]);
        let a = run_mix(&cfg).expect("mix runs");
        let b = run_mix(&cfg).expect("mix runs");
        assert_eq!(comparable(&a), comparable(&b), "2-core mix bit-identical");
        assert_eq!(a.cores.len(), 2);
        assert!(a.cores.iter().all(|c| c.measurement.instructions > 0));
    }

    #[test]
    fn four_core_mix_is_deterministic() {
        let cfg = quick_mix(
            &["ptr_chase", "stream_hog", "mcf_like", "lbm_like"],
            &[
                Mechanism::Cdf,
                Mechanism::Baseline,
                Mechanism::Pre,
                Mechanism::Baseline,
            ],
        );
        let a = run_mix(&cfg).expect("mix runs");
        let b = run_mix(&cfg).expect("mix runs");
        assert_eq!(comparable(&a), comparable(&b), "4-core mix bit-identical");
        assert_eq!(a.cores.len(), 4);
    }

    #[test]
    fn mix_json_round_trips_through_own_parser() {
        let cfg = quick_mix(&["mcf_like", "stream_hog"], &[Mechanism::Cdf]);
        let r = run_mix(&cfg).expect("mix runs");
        let doc = Json::parse(&mix_json(&r).render()).expect("valid JSON");
        let cores = doc.get("cores").and_then(Json::as_arr).expect("cores");
        assert_eq!(cores.len(), r.cores.len());
        for (c, core) in r.cores.iter().zip(cores) {
            let label = |key: &str| core.get(key).and_then(Json::as_str).expect(key);
            let m = measurement_from_json(
                core.get("measurement").expect("measurement"),
                label("workload"),
                label("mechanism"),
            )
            .expect("parses");
            assert_eq!(c.measurement, m, "measurement survives round-trip");
        }
    }

    #[test]
    fn symmetric_mix_records_get_distinct_keys() {
        let cfg = quick_mix(&["lbm_like", "lbm_like"], &[Mechanism::Baseline]);
        let r = run_mix(&cfg).expect("mix runs");
        let recs = records_from_mix("r1", r.provenance(), &r);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].key.kind, "mix[lbm_like:base+lbm_like:base]");
        assert_eq!(recs[0].key.workload, "lbm_like@c0");
        assert_eq!(recs[1].key.workload, "lbm_like@c1");
        assert_ne!(recs[0].key.label(), recs[1].key.label());
        assert!(
            recs.iter().all(|r| r.wall_ms == 0),
            "stores stay byte-stable"
        );
        for rec in &recs {
            record_json(rec).render(); // serializes as a valid store line
        }
    }

    #[test]
    fn telemetry_and_profile_are_observation_only() {
        let plain_cfg = quick_mix(&["ptr_chase", "stream_hog"], &[Mechanism::Cdf]);
        let mut obs_cfg = plain_cfg.clone();
        obs_cfg.eval.telemetry = Some(cdf_core::TelemetryConfig::default());
        obs_cfg.profile = true;
        let plain = run_mix(&plain_cfg).expect("mix runs");
        let obs = run_mix(&obs_cfg).expect("mix runs");
        for (a, b) in plain.cores.iter().zip(&obs.cores) {
            assert_eq!(
                a.measurement, b.measurement,
                "observers never perturb mix results"
            );
        }
        assert!(plain.cores.iter().all(|c| c.telemetry.is_none()));
        assert!(plain.profile.is_none());
        for c in &obs.cores {
            let t = c.telemetry.as_ref().expect("per-core telemetry collected");
            assert_eq!(t.accounting.total(), t.observed_cycles());
        }
        let p = obs.profile.as_ref().expect("mix profile collected");
        assert!(p.cycles > 0 && p.retired > 0);
        assert_eq!(
            p.tracked_ns() + p.untracked_ns,
            p.total_wall_ns,
            "totality invariant holds for merged mix profiles"
        );
        let json = mix_json(&obs).render();
        assert!(
            json.contains("cdf-telemetry/1"),
            "per-core telemetry embeds"
        );
        assert!(json.contains("cdf-profile/1"), "mix profile embeds");
        let recs = records_from_mix("r1", obs.provenance(), &obs);
        assert_eq!(recs.len(), 3, "two cell rows plus one profile row");
        assert_eq!(recs[2].key.kind, "profile");
        assert_eq!(recs[2].key.workload, "mix[ptr_chase:CDF+stream_hog:CDF]");
        assert!(matches!(
            recs[2].payload,
            RecordPayload::Throughput { simulated_cycles, .. } if simulated_cycles == p.cycles
        ));
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let cfg = quick_mix(&["nope", "lbm_like"], &[Mechanism::Baseline]);
        match run_mix(&cfg) {
            Err(SimError::UnknownWorkload(e)) => assert_eq!(e.name, "nope"),
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
    }
}
