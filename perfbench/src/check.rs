//! Correctness: the simulated counters each checked unit produces, the
//! digest of the documents `observed` renders, and the pinned reference
//! both are compared against.
//!
//! A unit is a solo cell or, on `mix`, one core (plus the shared memory
//! system as a last unit). At the default seed the expectation comes from
//! the pinned reference under `reference/`; at any other seed the first
//! pass's values become the expectation for every later pass, and the
//! digest is printed so two commits can be compared exactly.

use cdf_core::{
    Core, CoreOutcome, CoreShareStats, CoreStats, DramStats, RobMix, SharedStatsReport,
};
use cdf_mem::MemStats;
use cdf_sim::json::{field, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag of a pinned reference file.
pub const REFERENCE_SCHEMA: &str = "cdf-perfbench-reference/1";

/// Named simulated counters of one checked unit, in a fixed order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<(String, u64)>);

impl Counters {
    fn push(&mut self, name: impl Into<String>, value: u64) {
        self.0.push((name.into(), value));
    }

    /// The value of one counter; 0 when the unit has no such counter.
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of the counters whose name starts with `prefix`.
    pub fn sum_prefixed(&self, prefix: &str) -> u64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// FNV-1a digest of every name and value, in order.
    pub fn digest(&self) -> u64 {
        self.0.iter().fold(FNV_OFFSET, |h, (k, v)| {
            fnv1a(format!("{k}={v};").as_bytes(), h)
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Json::U64(*v)))
                .collect(),
        )
    }

    fn from_json(doc: &Json) -> Option<Counters> {
        match doc {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                .collect::<Option<Vec<_>>>()
                .map(Counters),
            _ => None,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash state.
fn fnv1a(bytes: &[u8], state: u64) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn push_core_stats(c: &mut Counters, s: &CoreStats) {
    // Destructured without `..`, so a counter added to `CoreStats` fails to
    // compile here instead of silently escaping the pin.
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
    } = s;
    for (k, v) in [
        ("cycles", cycles),
        ("retired", retired),
        ("halted", &u64::from(*halted)),
        ("fetched_regular", fetched_regular),
        ("fetched_critical", fetched_critical),
        ("branches", branches),
        ("mispredicts", mispredicts),
        ("memory_violations", memory_violations),
        ("dependence_violations", dependence_violations),
        ("full_window_stall_cycles", full_window_stall_cycles),
        ("full_window_stalls", full_window_stalls),
        ("cdf_mode_cycles", cdf_mode_cycles),
        ("cdf_entries", cdf_entries),
        ("critical_uops_issued", critical_uops_issued),
        ("walks", walks),
        ("traces_installed", traces_installed),
        ("walks_dropped_by_density", walks_dropped_by_density),
        ("runahead_episodes", runahead_episodes),
        ("runahead_uops", runahead_uops),
        ("rob_mix.samples", samples),
        ("rob_mix.critical", critical),
        ("rob_mix.non_critical", non_critical),
        ("mlp_sum", mlp_sum),
        ("mlp_cycles", mlp_cycles),
        ("loads_retired", loads_retired),
        ("llc_miss_loads", llc_miss_loads),
    ] {
        c.push(format!("core.{k}"), *v);
    }
}

fn push_mem_stats(c: &mut Counters, prefix: &str, m: &MemStats) {
    let MemStats {
        demand_loads,
        demand_stores,
        inst_fetches,
        llc_demand_misses,
        prefetch_reads,
        runahead_reads,
        wrong_path_reads,
        writebacks,
        rejections,
    } = m;
    for (k, v) in [
        ("demand_loads", demand_loads),
        ("demand_stores", demand_stores),
        ("inst_fetches", inst_fetches),
        ("llc_demand_misses", llc_demand_misses),
        ("prefetch_reads", prefetch_reads),
        ("runahead_reads", runahead_reads),
        ("wrong_path_reads", wrong_path_reads),
        ("writebacks", writebacks),
        ("rejections", rejections),
    ] {
        c.push(format!("{prefix}.{k}"), *v);
    }
}

fn push_dram_stats(c: &mut Counters, d: &DramStats) {
    let DramStats {
        reads,
        writes,
        row_hits,
        row_empty,
        row_conflicts,
    } = d;
    for (k, v) in [
        ("reads", reads),
        ("writes", writes),
        ("row_hits", row_hits),
        ("row_empty", row_empty),
        ("row_conflicts", row_conflicts),
    ] {
        c.push(format!("dram.{k}"), *v);
    }
}

fn push_pair(c: &mut Counters, prefix: &str, names: [&str; 2], (a, b): (u64, u64)) {
    c.push(format!("{prefix}.{}", names[0]), a);
    c.push(format!("{prefix}.{}", names[1]), b);
}

/// What the benchmark reads from a solo core at a window boundary, through
/// `Core::stats`, `Core::hierarchy`, `Core::uop_cache` and
/// `Core::energy_report`.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Pipeline statistics.
    pub stats: CoreStats,
    /// Memory-hierarchy traffic.
    pub mem: MemStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// `(hits, misses)` of the L1D.
    pub l1d: (u64, u64),
    /// `(hits, misses)` of the LLC.
    pub llc: (u64, u64),
    /// `(issued, useful)` prefetches.
    pub prefetch: (u64, u64),
    /// `(hits, misses)` of the Critical Uop Cache, and traces resident;
    /// zero on modes without one.
    pub cuc: (u64, u64, u64),
    /// Total modelled energy in nanojoules.
    pub energy_nj: f64,
    /// Energy of the CDF-only structures in nanojoules.
    pub cdf_energy_nj: f64,
}

impl Snapshot {
    /// Reads the core's counters now.
    pub fn take(core: &Core<'_>) -> Snapshot {
        let h = core.hierarchy();
        let cuc = core
            .uop_cache()
            .map_or((0, 0, 0), |c| (c.stats().0, c.stats().1, c.len() as u64));
        let energy = core.energy_report();
        Snapshot {
            stats: core.stats().clone(),
            mem: *h.stats(),
            dram: *h.dram_stats(),
            l1d: h.l1d_stats(),
            llc: h.llc_stats(),
            prefetch: (h.prefetcher().issued(), h.prefetcher().useful()),
            cuc,
            energy_nj: energy.total_nj(),
            cdf_energy_nj: energy.cdf_structures_nj(),
        }
    }
}

/// The pinned counters of one solo cell: the warmup boundary, then the
/// whole-run `CoreStats`, memory, DRAM, cache, prefetcher and CUC counters.
pub fn solo_counters(warm: &Snapshot, end: &Snapshot) -> Counters {
    let mut c = Counters::default();
    c.push("warm.cycles", warm.stats.cycles);
    c.push("warm.retired", warm.stats.retired);
    push_core_stats(&mut c, &end.stats);
    push_mem_stats(&mut c, "mem", &end.mem);
    push_dram_stats(&mut c, &end.dram);
    push_pair(&mut c, "l1d", ["hits", "misses"], end.l1d);
    push_pair(&mut c, "llc", ["hits", "misses"], end.llc);
    push_pair(&mut c, "prefetch", ["issued", "useful"], end.prefetch);
    push_pair(&mut c, "cuc", ["hits", "misses"], (end.cuc.0, end.cuc.1));
    c.push("cuc.traces", end.cuc.2);
    c
}

/// The pinned counters of one mix core: its `CoreStats`, its slice of the
/// memory traffic, its shared-resource attribution and its L1D.
pub fn mix_core_counters(o: &CoreOutcome, l1d: (u64, u64)) -> Counters {
    let mut c = Counters::default();
    push_core_stats(&mut c, &o.stats);
    push_mem_stats(&mut c, "mem", &o.mem);
    let CoreShareStats {
        dram_reads,
        dram_writes,
        llc_rejections,
        mshr_steals_suffered,
        mshr_steals_caused,
    } = o.share;
    for (k, v) in [
        ("dram_reads", dram_reads),
        ("dram_writes", dram_writes),
        ("llc_rejections", llc_rejections),
        ("mshr_steals_suffered", mshr_steals_suffered),
        ("mshr_steals_caused", mshr_steals_caused),
    ] {
        c.push(format!("share.{k}"), v);
    }
    c.push("llc.occupancy", o.llc_occupancy as u64);
    push_pair(&mut c, "l1d", ["hits", "misses"], l1d);
    c
}

/// The pinned counters of a mix's shared memory system.
pub fn shared_counters(s: &SharedStatsReport) -> Counters {
    let mut c = Counters::default();
    push_mem_stats(&mut c, "shared_mem", &s.mem);
    push_pair(&mut c, "llc", ["hits", "misses"], s.llc);
    push_dram_stats(&mut c, &s.dram);
    for (i, busy) in s.channel_busy.iter().enumerate() {
        c.push(format!("channel_busy.{i}"), *busy);
    }
    c.push("mshr_steals", s.total_steals);
    c.push("shared.cycles", s.cycles);
    c
}

/// Host-side fields of a `cdf-profile/1` document: wall-clock time,
/// allocation counts and the profiler's own call counts. Everything else in
/// the document is simulated and enters the digest.
const PROFILE_HOST_FIELDS: &[&str] = &[
    "total_wall_ns",
    "tracked_ns",
    "untracked_ns",
    "cycles_per_sec",
    "uops_per_sec",
    "ns",
    "fraction",
    "calls",
    "allocs",
    "alloc_bytes",
    "ops",
];

/// Fields of a `cdf-result/1` row that name the run rather than the result.
const RECORD_HOST_FIELDS: &[&str] = &["run_id", "provenance", "wall_ms", "wall_seconds"];

fn strip(doc: &mut Json, keys: &[&str]) {
    match doc {
        Json::Obj(fields) => {
            fields.retain(|(k, _)| !keys.contains(&k.as_str()));
            fields.iter_mut().for_each(|(_, v)| strip(v, keys));
        }
        Json::Arr(items) => items.iter_mut().for_each(|v| strip(v, keys)),
        _ => {}
    }
}

/// Digest of one `observed` cell's documents: the rendered telemetry and
/// explain documents whole, the profile document without its host-side
/// fields, and the store rows without run id, provenance and wall-clock.
/// Every document is parsed back first, so a malformed one is an error.
pub fn documents_digest(rendered: &[String], records: &[Json]) -> Result<u64, String> {
    let mut h = FNV_OFFSET;
    for text in rendered {
        let mut doc = Json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Json::as_str) == Some(cdf_sim::PROFILE_SCHEMA) {
            strip(&mut doc, PROFILE_HOST_FIELDS);
        }
        h = fnv1a(doc.render().as_bytes(), h);
    }
    for record in records {
        let mut doc = record.clone();
        strip(&mut doc, RECORD_HOST_FIELDS);
        h = fnv1a(doc.render().as_bytes(), h);
    }
    Ok(h)
}

/// What one unit must produce.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// Its simulated counters.
    pub counters: Counters,
    /// `observed` only: the digest of its documents.
    pub documents: Option<u64>,
}

/// The expectation per unit: pinned for the default seed, learned from the
/// first pass otherwise.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    /// Expectations by unit label.
    pub units: BTreeMap<String, Expected>,
}

impl Reference {
    /// Reads a pinned reference file written by [`Reference::to_json`].
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(REFERENCE_SCHEMA) {
            return Err(format!("{}: not a {REFERENCE_SCHEMA} file", path.display()));
        }
        let bad = || format!("{}: malformed unit entry", path.display());
        let mut units = BTreeMap::new();
        for u in doc.get("units").and_then(Json::as_arr).ok_or_else(bad)? {
            let label = u.get("unit").and_then(Json::as_str).ok_or_else(bad)?;
            let counters = u
                .get("counters")
                .and_then(Counters::from_json)
                .ok_or_else(bad)?;
            let documents = match u.get("documents").and_then(Json::as_str) {
                Some(hex) => Some(u64::from_str_radix(hex, 16).map_err(|_| bad())?),
                None => None,
            };
            units.insert(
                label.to_string(),
                Expected {
                    counters,
                    documents,
                },
            );
        }
        Ok(Reference { units })
    }

    /// The reference as a pinned file for `workload` at `seed`.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let units = self
            .units
            .iter()
            .map(|(label, e)| {
                let mut fields = vec![
                    field("unit", label.as_str()),
                    field("counters", e.counters.to_json()),
                ];
                if let Some(d) = e.documents {
                    fields.push(field("documents", format!("{d:016x}")));
                }
                Json::Obj(fields)
            })
            .collect::<Vec<_>>();
        Json::Obj(vec![
            field("schema", REFERENCE_SCHEMA),
            field("workload", workload),
            field("seed", seed),
            field("units", Json::Arr(units)),
        ])
    }

    /// Checks one unit's output against its expectation, adopting the
    /// output as the expectation when the unit has none yet. Returns what
    /// differed.
    pub fn check(&mut self, unit: &str, got: &Expected) -> Result<(), String> {
        let Some(want) = self.units.get(unit) else {
            self.units.insert(unit.to_string(), got.clone());
            return Ok(());
        };
        if want.counters != got.counters {
            let diffs: Vec<String> = got
                .counters
                .0
                .iter()
                .zip(&want.counters.0)
                .filter(|(g, w)| g != w)
                .take(4)
                .map(|((k, g), (_, w))| format!("{k} = {g}, expected {w}"))
                .collect();
            return Err(if diffs.is_empty() {
                "counter set differs from the reference".to_string()
            } else {
                diffs.join("; ")
            });
        }
        if want.documents != got.documents {
            return Err(format!(
                "document digest {:016x?}, expected {:016x?}",
                got.documents, want.documents
            ));
        }
        Ok(())
    }

    /// Digest over every unit's counters and documents, in label order.
    pub fn digest(&self) -> u64 {
        self.units.iter().fold(FNV_OFFSET, |h, (label, e)| {
            let h = fnv1a(label.as_bytes(), h);
            let h = fnv1a(&e.counters.digest().to_le_bytes(), h);
            fnv1a(&e.documents.unwrap_or(0).to_le_bytes(), h)
        })
    }
}
