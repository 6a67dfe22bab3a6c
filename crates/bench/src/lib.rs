//! # cdf-bench — the benchmark harness
//!
//! One bench target per paper table/figure (see `benches/`); each is a
//! custom-harness binary that runs the corresponding experiment driver from
//! `cdf_sim::experiments` and prints the paper-style table. Run them all
//! with `cargo bench`, or one with `cargo bench --bench fig13_speedup`.
//!
//! Set `CDF_FAST=1` to use the quick evaluation sizing (smaller windows and
//! footprints) for smoke runs. Set `CDF_SWEEP_JSON=<dir>` to make every
//! figure bench also write its underlying sweep — stamped with config hash,
//! generation parameters and git commit — to `<dir>/<figure>.json`.

#![deny(missing_docs)]

pub mod throughput;

use cdf_sim::{EvalConfig, Sweep};

/// The evaluation sizing used by every figure bench: the default window, or
/// the quick one when `CDF_FAST` is set in the environment.
pub fn eval_config() -> EvalConfig {
    if std::env::var_os("CDF_FAST").is_some() {
        EvalConfig::quick()
    } else {
        EvalConfig::default()
    }
}

/// Writes a figure's underlying sweep to `$CDF_SWEEP_JSON/<tag>.json` when
/// that environment variable is set; no-op (and no failure) otherwise.
pub fn maybe_emit_sweep(tag: &str, sweep: &Sweep) {
    let Some(dir) = std::env::var_os("CDF_SWEEP_JSON") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let write = || -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{tag}.json"));
        std::fs::write(&path, sweep.to_json().render_pretty())?;
        Ok(path)
    };
    match write() {
        Ok(path) => eprintln!("sweep records: {}", path.display()),
        Err(e) => eprintln!("CDF_SWEEP_JSON: cannot write {tag}.json: {e}"),
    }
}
