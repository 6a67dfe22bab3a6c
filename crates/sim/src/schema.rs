//! Registry of every JSON schema tag this workspace emits.
//!
//! Each serialized report carries a `"schema"` field naming its format and
//! version (e.g. `"cdf-sweep/1"`). The tags used to live as ad-hoc string
//! constants next to each serializer; this module is the single source of
//! truth — the per-module `*_SCHEMA` constants are re-exports of these —
//! and `crates/sim/tests/store.rs` checks that every serializer/parser pair
//! round-trips its tag through the repo's own [`Json`] parser.
//!
//! Bump a version (`/1` → `/2`) whenever a format changes incompatibly;
//! parsers reject tags they do not recognize rather than guessing.

use crate::json::Json;

/// Sweep reports (`cdf-sim sweep`, and `run --out` for one cell): the
/// (workload × mechanism) grid, each cell embedding its observers' sections.
pub const SWEEP: &str = "cdf-sweep/1";
/// Telemetry sections (`--telemetry N`), embedded per sweep cell and per
/// mix core: cycle accounting, interval series, occupancy histograms,
/// event-sink counters.
pub const TELEMETRY: &str = "cdf-telemetry/1";
/// Fuzz-campaign reports (`cdf-sim fuzz`).
pub const FUZZ: &str = "cdf-fuzz/1";
/// Individual fuzz counterexamples written to the corpus directory.
pub const FUZZ_CASE: &str = "cdf-fuzz-case/1";
/// Scheduler / memory-model lockstep-equivalence reports (`cdf-sim equiv`).
pub const EQUIV: &str = "cdf-equiv/1";
/// Criticality-provenance explain reports (`cdf-sim explain`).
pub const EXPLAIN: &str = "cdf-explain/1";
/// Blessed golden `CoreStats` snapshots (`crates/sim/tests/golden.rs`).
pub const GOLDEN: &str = "cdf-golden/1";
/// One durable result record (one line of the append-only JSONL store).
pub const RESULT: &str = "cdf-result/1";
/// Cross-run comparison reports (`cdf-sim compare`).
pub const COMPARE: &str = "cdf-compare/1";
/// Campaign reports (`cdf-sim campaign run|status|resume`): the aggregate
/// of one sharded, checkpointed experiment campaign.
pub const CAMPAIGN: &str = "cdf-campaign/1";
/// Normalized campaign experiment specs persisted into the campaign
/// directory (the JSON form of the TOML/JSON spec the user wrote).
pub const CAMPAIGN_SPEC: &str = "cdf-campaign-spec/1";
/// Per-shard campaign progress journals: line 1 is a header carrying the
/// spec's grid hash, every further line is one completed cell.
pub const CAMPAIGN_JOURNAL: &str = "cdf-campaign-journal/1";
/// Multi-core co-scheduled mix reports (`cdf-sim mix`): per-core
/// measurements plus shared LLC/MSHR/DRAM contention statistics.
pub const MIX: &str = "cdf-mix/1";
/// Host-side self-profiles (`--profile`), embedded per sweep cell and per
/// mix: stage-level wall-clock attribution, subsystem timers, and host
/// throughput denominators.
pub const PROFILE: &str = "cdf-profile/1";

/// Every schema tag the workspace emits, for exhaustiveness checks.
pub const ALL: &[&str] = &[
    SWEEP,
    TELEMETRY,
    FUZZ,
    FUZZ_CASE,
    EQUIV,
    EXPLAIN,
    GOLDEN,
    RESULT,
    COMPARE,
    CAMPAIGN,
    CAMPAIGN_SPEC,
    CAMPAIGN_JOURNAL,
    MIX,
    PROFILE,
];

/// Checks that `doc` is an object whose `"schema"` field equals `tag`.
/// Returns the actual tag found on mismatch (or a description of what was
/// missing) so callers can build a useful error.
pub fn expect_schema(doc: &Json, tag: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(found) if found == tag => Ok(()),
        Some(found) => Err(format!(
            "schema mismatch: expected {tag:?}, found {found:?}"
        )),
        None => Err(format!(
            "schema mismatch: expected {tag:?}, found no schema field"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_versioned() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(a.starts_with("cdf-"), "{a} lacks the cdf- prefix");
            let (_, version) = a.rsplit_once('/').expect("tag carries a /N version");
            assert!(version.parse::<u32>().is_ok(), "{a} version not numeric");
            assert!(!ALL[i + 1..].contains(a), "duplicate tag {a}");
        }
    }

    #[test]
    fn expect_schema_accepts_and_rejects() {
        let doc = Json::parse(r#"{"schema":"cdf-result/1"}"#).unwrap();
        assert!(expect_schema(&doc, RESULT).is_ok());
        assert!(expect_schema(&doc, COMPARE)
            .unwrap_err()
            .contains("cdf-result/1"));
        let empty = Json::parse("{}").unwrap();
        assert!(expect_schema(&empty, RESULT)
            .unwrap_err()
            .contains("no schema"));
    }
}
