//! # cdf-sim — simulation runner and experiment harness
//!
//! Ties the whole stack together: builds a workload from `cdf-workloads`,
//! runs it on a `cdf-core` configuration with warmup-then-measure windowing,
//! and produces the [`Measurement`]s that the experiment drivers in
//! [`experiments`] turn into the paper's tables and figures (`cdf-sim
//! figure <name>` runs one driver of [`experiments::FIGURES`] and prints
//! its tables).
//!
//! Every cell takes one run path. [`run`] builds the core, attaches the
//! observers [`EvalConfig`] asks for (plus the host profiler on request),
//! runs the warmup and measurement windows, and returns a [`RunOutput`].
//! [`run_cell`] adds the registry lookup, panic isolation and wall time;
//! its callers are the cell loop of [`run_sweep`], the campaign's cell
//! runner and the sensitivity figure, which patch in a custom mode.
//! [`simulate`] is the by-name convenience that panics on failure. A
//! [`Measurement`] is the difference of two [`Reading`]s of a core
//! ([`Measurement::between`]), so a caller stepping a core itself derives
//! the same figures.
//!
//! The [`sweep`] module is the one grid runner: [`run_sweep`] executes a
//! (workload × mechanism) [`SweepConfig`] grid, optionally filtered, across
//! worker threads with per-cell fault isolation (a failed cell is a
//! recorded [`SimError`], never a process abort), a per-run cycle-fuel
//! watchdog, and stamped JSON result emission. Sweep results are
//! bit-identical to running the grid serially. Every `cdf-sim` command that
//! simulates one core runs here: `run <workload>` and `compare <workload>`
//! are one-workload grids, and `sweep`, `record` and `explain` differ only
//! in what they attach and how they render the [`Sweep`]. Its one trace,
//! [`Sweep::trace_json`], puts every cell's guest events on the cycle axis
//! and its host profile in wall time, each in a process of its own.
//!
//! The [`telemetry`] module serializes the core's observation-only telemetry
//! (cycle accounting, interval series, occupancy histograms, event sink —
//! see [`cdf_core::Telemetry`]) into `cdf-telemetry/1` JSON and the cell's
//! trace events; enable collection per run via [`EvalConfig::telemetry`].
//!
//! The [`explain`] module is the criticality-provenance report: it renders
//! a sweep run with [`cdf_core::CdfDiagnostics`] attached as `cdf-explain/1`
//! JSON plus a human table answering *why* a mechanism wins — CUC coverage
//! of the retired miss triggers, accuracy of the fetched critical uops, and
//! the lead-time distribution of critical miss initiations.
//!
//! The [`store`] and [`compare`] modules make results durable: `cdf-sim
//! record` appends provenance-stamped `cdf-result/1` records to an
//! append-only JSONL store, and `cdf-sim compare` joins two recorded runs
//! into a `cdf-compare/1` regression report (deterministic metrics exact,
//! wall-clock metrics tolerance-classified). The [`schema`] module is the
//! registry of every JSON schema tag the workspace emits.
//!
//! The [`campaign`] module scales all of the above to sharded,
//! checkpointed experiment campaigns: a declarative TOML/JSON spec expands
//! to a deterministic cell grid, shards run as separate processes
//! journaling every completed cell, `campaign status` aggregates
//! mid-run, and a killed campaign resumes exactly where it stopped with a
//! final aggregate bit-identical to an uninterrupted run.
//!
//! ```no_run
//! use cdf_sim::{run_sweep, simulate, EvalConfig, Mechanism, SweepConfig};
//!
//! let cfg = EvalConfig::quick();
//! let m = simulate("astar_like", Mechanism::Cdf, &cfg);
//! println!("astar_like CDF IPC = {:.3}", m.ipc);
//!
//! let sweep = run_sweep(&SweepConfig::full_grid(cfg));
//! println!("{}", sweep.render_summary());
//! println!("{}", sweep.to_json().render_pretty());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod campaign;
pub mod cli;
pub mod compare;
pub mod equivalence;
pub mod experiments;
pub mod explain;
pub mod fuzz;
pub mod golden;
pub mod json;
pub mod mix;
pub mod prof;
pub mod provenance;
pub mod report;
pub mod schema;
pub mod store;
pub mod sweep;
pub mod telemetry;

mod error;
mod run;
mod table1;

pub use campaign::{
    finalize as finalize_campaign, init_campaign, load_campaign, run_shard,
    status as campaign_status, Campaign, CampaignError, CampaignSpec, CampaignStatus, CellMode,
    CellOutcome, CellParams, CellRecord, ShardOptions,
};
pub use compare::{
    compare_runs, CellClass, CellDiff, CompareConfig, CompareCounts, CompareReport, MetricClass,
    MetricDelta, COMPARE_SCHEMA, DEFAULT_WALL_TOLERANCE,
};
pub use equivalence::{
    run_equivalence, workload_equivalence, EquivConfig, EquivMismatch, EquivReport, EQUIV_SCHEMA,
};
pub use error::{SimError, WatchdogPhase};
pub use explain::{diagnostics_json, EXPLAIN_SCHEMA};
pub use fuzz::{
    minimize_spec, minimize_with, run_fuzz, run_lockstep, run_lockstep_full, FailureKind,
    FuzzConfig, FuzzFailure, FuzzReport, LockstepOutcome, FUZZ_CASE_SCHEMA, FUZZ_SCHEMA,
};
pub use golden::{
    collect as collect_golden, diff_golden, golden_to_json, GoldenConfig, GOLDEN_SCHEMA,
};
pub use mix::{mix_json, records_from_mix, run_mix, MixConfig, MixCoreResult, MixReport};
pub use prof::{profile_json, profile_table, PROFILE_SCHEMA};
pub use provenance::{provenance_from_json, provenance_json};
pub use run::{run, simulate, EvalConfig, Measurement, Mechanism, Reading, RunOutput};
pub use store::{
    record_from_json, record_json, records_for_run, records_from_cells, resolve_ref, run_ids,
    DiagSummary, RecordPayload, ResultKey, ResultRecord, ResultStore, StoreError, TelemetrySummary,
    DEFAULT_STORE_PATH, RESULT_SCHEMA,
};
pub use sweep::{eval_config_hash, run_cell, run_sweep, Sweep, SweepCell, SweepConfig};
pub use table1::table1_text;
pub use telemetry::{accounting_table, telemetry_json, TELEMETRY_SCHEMA};
