//! Declarative campaign experiment specs and their deterministic cell
//! enumeration.
//!
//! A spec states a *hypothesis* and a *parameter grid* — workloads ×
//! mechanisms × workload seeds × core-configuration points
//! ([`cdf_core::ConfigGrid`]: ROB / CUC geometry / partition step) — plus
//! the evaluation sizing and the cell mode (measurement sweep, explain
//! diagnostics, differential fuzz, or implementation-equivalence checks).
//! [`CampaignSpec::cells`] expands the grid into a fixed row-major cell
//! list; a cell's index in that list is its *cell id*, the identity every
//! checkpoint journal and resume decision is keyed by. [`grid_hash`]
//! fingerprints everything that affects the enumeration, so a journal
//! written against one spec can never silently drive a different one.
//!
//! [`grid_hash`]: CampaignSpec::grid_hash

use crate::json::{field, Json};
use crate::run::{EvalConfig, Mechanism};
use crate::schema;
use crate::sweep::fnv1a_hex;
use cdf_core::{ConfigGrid, ConfigPoint, TelemetryConfig};

/// What one campaign cell executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellMode {
    /// A (workload, mechanism, seed, config-point) measurement — the sweep
    /// path, producing a [`crate::Measurement`].
    Sweep,
    /// A sweep cell with criticality-provenance diagnostics forced on.
    Explain,
    /// One fuzz program seed run in oracle lockstep under every spec
    /// mechanism (the `cdf-sim fuzz` path).
    Fuzz,
    /// One fuzz seed × one mechanism run under both implementation variants
    /// of an equivalence axis (the `cdf-sim equiv` path).
    Equiv,
}

impl CellMode {
    /// Stable spec/report label.
    pub fn as_str(self) -> &'static str {
        match self {
            CellMode::Sweep => "sweep",
            CellMode::Explain => "explain",
            CellMode::Fuzz => "fuzz",
            CellMode::Equiv => "equiv",
        }
    }

    /// Parses a spec label.
    pub fn parse(s: &str) -> Option<CellMode> {
        match s {
            "sweep" => Some(CellMode::Sweep),
            "explain" => Some(CellMode::Explain),
            "fuzz" => Some(CellMode::Fuzz),
            "equiv" => Some(CellMode::Equiv),
            _ => None,
        }
    }

    /// Whether cells of this mode produce [`crate::Measurement`]s (and thus
    /// flow into the results store).
    pub fn measures(self) -> bool {
        matches!(self, CellMode::Sweep | CellMode::Explain)
    }
}

/// A declarative campaign experiment.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignSpec {
    /// Campaign name (also the default campaign-directory name).
    pub name: String,
    /// The question this campaign answers — carried verbatim into every
    /// report so results stay self-describing.
    pub hypothesis: String,
    /// What each cell executes.
    pub mode: CellMode,
    /// Workload axis (sweep/explain modes; ignored by fuzz/equiv).
    pub workloads: Vec<String>,
    /// Mechanism axis.
    pub mechanisms: Vec<Mechanism>,
    /// Seed axis: workload-generation seeds (sweep/explain) or fuzz-program
    /// seeds (fuzz/equiv).
    pub seeds: Vec<u64>,
    /// Core-configuration axis (ROB / CUC sets / partition step).
    pub grid: ConfigGrid,
    /// Shared evaluation sizing; each cell overrides `gen.seed` (and the
    /// core template, per its config point).
    pub eval: EvalConfig,
}

/// One expanded grid point: the parameters of a single campaign cell.
#[derive(Clone, PartialEq, Debug)]
pub struct CellParams {
    /// Position in the deterministic enumeration — the cell's identity in
    /// journals, reports, and store records.
    pub id: u64,
    /// Workload name (empty for fuzz/equiv cells, whose programs come from
    /// the seed).
    pub workload: String,
    /// Mechanism (`None` for fuzz cells, which run every spec mechanism in
    /// one lockstep cell).
    pub mechanism: Option<Mechanism>,
    /// Workload-generation or fuzz-program seed.
    pub seed: u64,
    /// Core-configuration point.
    pub point: ConfigPoint,
}

impl CellParams {
    /// Human-readable `workload/mech@seed:point` label for reports.
    pub fn label(&self) -> String {
        let mech = self.mechanism.map(Mechanism::label).unwrap_or("*");
        if self.workload.is_empty() {
            format!("seed{}/{mech}@{}", self.seed, self.point.label())
        } else {
            format!(
                "{}/{mech}@seed{}:{}",
                self.workload,
                self.seed,
                self.point.label()
            )
        }
    }
}

impl CampaignSpec {
    /// Expands the spec into its deterministic cell list. Row-major over
    /// (workload, mechanism, seed, config point) for sweep/explain — so a
    /// default-axes spec enumerates cells in exactly the order
    /// [`crate::run_sweep`] runs its grid — over seeds for fuzz, and over
    /// (seed, mechanism) for equiv.
    pub fn cells(&self) -> Vec<CellParams> {
        let points = self.grid.points();
        let mut out = Vec::new();
        let mut id = 0u64;
        let mut push = |workload: &str, mechanism: Option<Mechanism>, seed: u64, point| {
            out.push(CellParams {
                id,
                workload: workload.to_string(),
                mechanism,
                seed,
                point,
            });
            id += 1;
        };
        match self.mode {
            CellMode::Sweep | CellMode::Explain => {
                for w in &self.workloads {
                    for &m in &self.mechanisms {
                        for &seed in &self.seeds {
                            for &point in &points {
                                push(w, Some(m), seed, point);
                            }
                        }
                    }
                }
            }
            CellMode::Fuzz => {
                for &seed in &self.seeds {
                    push("", None, seed, ConfigPoint::default());
                }
            }
            CellMode::Equiv => {
                for &seed in &self.seeds {
                    for &m in &self.mechanisms {
                        push("", Some(m), seed, ConfigPoint::default());
                    }
                }
            }
        }
        out
    }

    /// Number of cells the spec expands to, without materializing them.
    pub fn cell_count(&self) -> u64 {
        let (w, m, s) = (
            self.workloads.len() as u64,
            self.mechanisms.len() as u64,
            self.seeds.len() as u64,
        );
        match self.mode {
            CellMode::Sweep | CellMode::Explain => w * m * s * self.grid.points().len() as u64,
            CellMode::Fuzz => s,
            CellMode::Equiv => s * m,
        }
    }

    /// FNV-1a fingerprint of everything that affects the cell enumeration
    /// and per-cell execution: mode, axes, grid, sizing. Stamped into every
    /// journal header; a mismatch on resume is a hard error.
    pub fn grid_hash(&self) -> String {
        fnv1a_hex(&self.to_json().render())
    }

    /// Serializes the normalized spec ([`schema::CAMPAIGN_SPEC`]).
    pub fn to_json(&self) -> Json {
        let t = &self.eval;
        Json::Obj(vec![
            field("schema", schema::CAMPAIGN_SPEC),
            field("name", self.name.as_str()),
            field("hypothesis", self.hypothesis.as_str()),
            field("mode", self.mode.as_str()),
            field(
                "workloads",
                Json::Arr(self.workloads.iter().map(|w| w.as_str().into()).collect()),
            ),
            field(
                "mechanisms",
                Json::Arr(self.mechanisms.iter().map(|m| m.label().into()).collect()),
            ),
            field(
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| s.into()).collect()),
            ),
            field(
                "grid",
                Json::Obj(vec![
                    field(
                        "rob",
                        Json::Arr(self.grid.rob.iter().map(|&v| v.into()).collect()),
                    ),
                    field(
                        "cuc_sets",
                        Json::Arr(self.grid.cuc_sets.iter().map(|&v| v.into()).collect()),
                    ),
                    field(
                        "partition_step",
                        Json::Arr(self.grid.partition_step.iter().map(|&v| v.into()).collect()),
                    ),
                ]),
            ),
            field(
                "eval",
                Json::Obj(vec![
                    field("warmup", t.warmup_instructions),
                    field("measure", t.measure_instructions),
                    field("scale", t.gen.scale),
                    field("iters", t.gen.iters),
                    field("max_cycles", t.max_cycles),
                    field(
                        "telemetry_interval",
                        t.telemetry.as_ref().map(|tc| tc.interval),
                    ),
                    field("diagnostics", t.diagnostics),
                ]),
            ),
        ])
    }

    /// Parses a normalized spec document back (the inverse of
    /// [`to_json`](Self::to_json); also accepts user-authored JSON specs,
    /// where the `schema` field and most sections are optional).
    pub fn from_json(doc: &Json) -> Result<CampaignSpec, String> {
        check_keys(doc, "the spec", TOP_KEYS)?;
        let text = |key| typed(doc, key, "a string", Json::as_str);
        if let Some(tag) = text("schema")? {
            if tag != schema::CAMPAIGN_SPEC {
                return Err(format!(
                    "schema mismatch: expected {:?}, found {tag:?}",
                    schema::CAMPAIGN_SPEC
                ));
            }
        }
        let name = text("name")?
            .ok_or("spec needs a string `name`")?
            .to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "campaign name {name:?} must be non-empty [a-zA-Z0-9_-] (it names the campaign directory)"
            ));
        }
        let hypothesis = text("hypothesis")?.unwrap_or("").to_string();
        let mode = match text("mode")? {
            None => CellMode::Sweep,
            Some(s) => CellMode::parse(s)
                .ok_or_else(|| format!("unknown mode {s:?} (sweep|explain|fuzz|equiv)"))?,
        };
        let workloads = match doc.get("workloads") {
            None => cdf_workloads::registry::NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Some(v) => str_list(v, "workloads")?,
        };
        let mechanisms = match doc.get("mechanisms") {
            None => Mechanism::ALL.to_vec(),
            Some(v) => str_list(v, "mechanisms")?
                .iter()
                .map(|s| Mechanism::parse(s).ok_or_else(|| format!("unknown mechanism {s:?}")))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let mut eval = EvalConfig::default();
        if let Some(e) = doc.get("eval") {
            check_keys(e, "[eval]", EVAL_KEYS)?;
            let int = |key| typed(e, key, "an unsigned integer", Json::as_u64);
            if let Some(v) = int("warmup")? {
                eval.warmup_instructions = v;
            }
            if let Some(v) = int("measure")? {
                eval.measure_instructions = v;
            }
            if let Some(v) = typed(e, "scale", "a number", Json::as_f64)? {
                eval.gen.scale = v;
            }
            if let Some(v) = int("iters")? {
                eval.gen.iters = v;
            }
            if let Some(v) = int("seed")? {
                eval.gen.seed = v;
            }
            eval.max_cycles = int("max_cycles")?;
            if let Some(i) = int("telemetry_interval")? {
                if i == 0 {
                    return Err("`telemetry_interval` must be at least 1 cycle".to_string());
                }
                eval.telemetry = Some(TelemetryConfig {
                    interval: i,
                    ..TelemetryConfig::default()
                });
            }
            if let Some(d) = typed(e, "diagnostics", "a boolean", Json::as_bool)? {
                eval.diagnostics = d;
            }
        }
        if mode == CellMode::Explain {
            eval.diagnostics = true;
        }
        let int = |key| typed(doc, key, "an unsigned integer", Json::as_u64);
        let seeds = match (doc.get("seeds"), int("seed_start")?, int("seed_count")?) {
            (Some(v), None, None) => {
                let arr = v.as_arr().ok_or("`seeds` must be an array")?;
                arr.iter()
                    .map(|s| {
                        s.as_u64()
                            .ok_or("`seeds` entries must be unsigned integers")
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            (None, None, None) => vec![eval.gen.seed],
            (None, s, Some(n)) => {
                let s = s.unwrap_or(0);
                (s..s.checked_add(n).ok_or("seed range overflows")?).collect()
            }
            (None, Some(_), None) => return Err("`seed_start` needs `seed_count`".to_string()),
            _ => {
                return Err("give either `seeds` or `seed_start`/`seed_count`, not both".to_string())
            }
        };
        if let Some(&first) = seeds.first() {
            // Normalize: the template seed is always the first axis seed, so
            // a spec round-tripped through `to_json` (which stores only the
            // seed list) compares equal to the original.
            eval.gen.seed = first;
        }
        let grid = match doc.get("grid") {
            None => ConfigGrid::default(),
            Some(g) => {
                check_keys(g, "[grid]", GRID_KEYS)?;
                ConfigGrid {
                    rob: usize_list(g, "rob")?,
                    cuc_sets: usize_list(g, "cuc_sets")?,
                    partition_step: usize_list(g, "partition_step")?,
                }
            }
        };
        let spec = CampaignSpec {
            name,
            hypothesis,
            mode,
            workloads,
            mechanisms,
            seeds,
            grid,
            eval,
        };
        if spec.cell_count() == 0 {
            return Err("the spec expands to zero cells".to_string());
        }
        Ok(spec)
    }

    /// Parses a spec from user-authored text: JSON when the first
    /// non-whitespace byte is `{`, the TOML subset otherwise.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let doc = if text.trim_start().starts_with('{') {
            Json::parse(text).map_err(|e| format!("spec JSON: {e}"))?
        } else {
            super::toml::toml_to_json(text).map_err(|e| format!("spec TOML: {e}"))?
        };
        CampaignSpec::from_json(&doc)
    }
}

/// The keys a spec may hold at its top level, in `[grid]` and in `[eval]`;
/// [`CampaignSpec::to_json`] writes all but `seed_start`, `seed_count` and
/// `eval.seed`.
const TOP_KEYS: &str = "schema name hypothesis mode workloads mechanisms seeds seed_start \
                        seed_count grid eval";
const GRID_KEYS: &str = "rob cuc_sets partition_step";
const EVAL_KEYS: &str = "warmup measure scale iters seed max_cycles telemetry_interval diagnostics";

/// Fails on the first key of `table` that `known` does not list, naming it:
/// a misspelt key must not quietly leave its setting at the default.
fn check_keys(table: &Json, what: &str, known: &str) -> Result<(), String> {
    let Json::Obj(fields) = table else {
        return Err(format!("{what} must be a table"));
    };
    match fields
        .iter()
        .find(|(k, _)| !known.split(' ').any(|n| n == k))
    {
        Some((k, _)) => Err(format!("unknown key `{k}` in {what}")),
        None => Ok(()),
    }
}

/// The value of `key` in `table` as `read` converts it: `None` when the key
/// is absent or `null`, an error naming the key when its value has another
/// type.
fn typed<'a, T>(
    table: &'a Json,
    key: &str,
    kind: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match table.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be {kind}")),
    }
}

fn str_list(v: &Json, what: &str) -> Result<Vec<String>, String> {
    v.as_arr()
        .ok_or_else(|| format!("`{what}` must be an array of strings"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{what}` entries must be strings"))
        })
        .collect()
}

fn usize_list(doc: &Json, key: &str) -> Result<Vec<usize>, String> {
    match doc.get(key) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| format!("grid `{key}` must be an array of integers"))?
            .iter()
            .map(|n| {
                n.as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("grid `{key}` entries must be unsigned integers"))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec_toml() -> &'static str {
        r#"
name = "tiny"
hypothesis = "CDF beats base on miss-bound kernels at every window size"
mode = "sweep"
workloads = ["astar_like", "mcf_like"]
mechanisms = ["base", "cdf"]
seeds = [7, 8]

[grid]
rob = [256, 352]

[eval]
warmup = 2000
measure = 4000
scale = 0.03
"#
    }

    #[test]
    fn toml_spec_round_trips_through_normalized_json() {
        let spec = CampaignSpec::parse(tiny_spec_toml()).expect("parses");
        assert_eq!(spec.cell_count(), 2 * 2 * 2 * 2);
        assert_eq!(spec.cells().len() as u64, spec.cell_count());
        let re = CampaignSpec::from_json(&spec.to_json()).expect("normalized form parses");
        assert_eq!(spec, re);
        assert_eq!(spec.grid_hash(), re.grid_hash());
    }

    #[test]
    fn enumeration_is_row_major_and_stable() {
        let spec = CampaignSpec::parse(tiny_spec_toml()).expect("parses");
        let cells = spec.cells();
        assert_eq!(cells[0].workload, "astar_like");
        assert_eq!(cells[0].mechanism, Some(Mechanism::Baseline));
        assert_eq!((cells[0].seed, cells[0].point.rob), (7, 256));
        assert_eq!(
            cells[1].point.rob, 352,
            "config point is the innermost axis"
        );
        assert_eq!(cells[2].seed, 8, "seed is the next axis out");
        assert_eq!(cells[4].mechanism, Some(Mechanism::Cdf));
        assert_eq!(cells[8].workload, "mcf_like");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i as u64);
        }
    }

    #[test]
    fn grid_hash_tracks_every_cell_affecting_knob() {
        let base = CampaignSpec::parse(tiny_spec_toml()).expect("parses");
        let mut other = base.clone();
        other.seeds.push(9);
        assert_ne!(base.grid_hash(), other.grid_hash());
        let mut other = base.clone();
        other.eval.measure_instructions += 1;
        assert_ne!(base.grid_hash(), other.grid_hash());
        let mut other = base.clone();
        other.grid.cuc_sets = vec![32];
        assert_ne!(base.grid_hash(), other.grid_hash());
    }

    #[test]
    fn seed_ranges_and_defaults_expand() {
        let spec = CampaignSpec::parse(
            "name = \"seedsweep\"\nworkloads = [\"libq_like\"]\nmechanisms = [\"cdf\"]\nseed_start = 10\nseed_count = 5",
        )
        .expect("parses");
        assert_eq!(spec.seeds, vec![10, 11, 12, 13, 14]);
        assert_eq!(spec.mode, CellMode::Sweep);

        let spec = CampaignSpec::parse(
            "name = \"d\"\nworkloads = [\"libq_like\"]\nmechanisms = [\"cdf\"]",
        )
        .expect("parses");
        assert_eq!(spec.seeds, vec![EvalConfig::default().gen.seed]);
    }

    #[test]
    fn fuzz_and_equiv_modes_enumerate_over_seeds() {
        let spec = CampaignSpec::parse(
            "name = \"f\"\nmode = \"fuzz\"\nmechanisms = [\"base\", \"cdf\", \"pre\"]\nseed_start = 1\nseed_count = 4",
        )
        .expect("parses");
        assert_eq!(spec.cell_count(), 4);
        assert_eq!(spec.cells()[0].mechanism, None);

        let spec = CampaignSpec::parse(
            "name = \"e\"\nmode = \"equiv\"\nmechanisms = [\"base\", \"cdf\"]\nseed_start = 1\nseed_count = 3",
        )
        .expect("parses");
        assert_eq!(spec.cell_count(), 6);
        assert_eq!(spec.cells()[1].mechanism, Some(Mechanism::Cdf));
    }

    #[test]
    fn bad_specs_fail_loudly() {
        for (text, needle) in [
            ("hypothesis = \"x\"", "name"),
            ("name = \"a b\"", "a b"),
            ("name = \"x\"\nmode = \"turbo\"", "unknown mode"),
            ("name = \"x\"\nmechanisms = [\"warp\"]", "unknown mechanism"),
            ("name = \"x\"\nseeds = [1]\nseed_count = 2", "not both"),
            ("name = \"x\"\nseed_start = 1", "seed_count"),
            ("name = \"x\"\nworkloads = []", "zero cells"),
            // A misspelt or retired key at any level, and a value of the
            // wrong type.
            ("name = \"x\"\nequiv_axis = \"both\"", "`equiv_axis`"),
            ("name = \"x\"\nmechanims = [\"cdf\"]", "`mechanims`"),
            ("name = \"x\"\nshards = 4", "`shards`"),
            ("name = \"x\"\n[grid]\nrobb = [192]", "`robb` in [grid]"),
            ("name = \"x\"\n[eval]\nmesure = 3000", "`mesure` in [eval]"),
            ("name = \"x\"\n[eval]\nscale = \"0.03\"", "`scale`"),
            (
                "name = \"x\"\n[eval]\ntelemetry_interval = \"1024\"",
                "`telemetry_interval`",
            ),
            ("name = \"x\"\n[eval]\ndiagnostics = 1", "`diagnostics`"),
            ("name = \"x\"\nmode = 3", "`mode`"),
            (
                "name = \"x\"\nseed_start = \"1\"\nseed_count = 2",
                "`seed_start`",
            ),
            ("name = \"x\"\ngrid = 5", "[grid] must be a table"),
        ] {
            let err = CampaignSpec::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn explain_mode_forces_diagnostics() {
        let spec =
            CampaignSpec::parse("name = \"x\"\nmode = \"explain\"\nworkloads = [\"astar_like\"]\nmechanisms = [\"cdf\"]")
                .expect("parses");
        assert!(spec.eval.diagnostics);
    }
}
