//! # cdf-bpred — branch prediction for the CDF simulator
//!
//! The paper's baseline core uses a **TAGE-SC-L** predictor (Seznec, CBP
//! 2014). This crate implements:
//!
//! * [`TageScL`] — a TAGE core with geometric history lengths, a loop
//!   predictor (the "L") and a statistical corrector (the "SC");
//! * [`Bimodal`] — a simple 2-bit bimodal predictor used by ablation studies
//!   and tests;
//! * [`Btb`] — a set-associative branch target buffer;
//! * the [`DirectionPredictor`] trait that the fetch unit programs against.
//!
//! ## Speculative history
//!
//! Real fetch units update the global history speculatively at predict time
//! and repair it on a misprediction. The same protocol is used here: every
//! [`DirectionPredictor::predict`] call speculatively shifts the predicted
//! outcome into the history and returns a [`Prediction`] containing a
//! checkpoint; on a misprediction the core calls
//! [`DirectionPredictor::recover`] with the actual outcome, which rewinds the
//! history to the checkpoint and inserts the correct bit. The counter tables
//! themselves are updated in-order at resolve time via
//! [`DirectionPredictor::update`].
//!
//! ```
//! use cdf_bpred::{DirectionPredictor, TageScL};
//!
//! let mut p = TageScL::default();
//! // Train a strongly biased branch.
//! for _ in 0..64 {
//!     let pred = p.predict(0x40);
//!     p.update(0x40, true, &pred);
//! }
//! let pred = p.predict(0x40);
//! assert!(pred.taken);
//! # let _ = pred;
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod bimodal;
mod btb;
mod history;
mod loop_pred;
mod sc;
mod tage;

pub use bimodal::Bimodal;
pub use btb::{Btb, BtbConfig, BtbEntry};
pub use history::HistoryCheckpoint;
pub use tage::{Prediction, Provider, TageConfig, TageScL};

/// A conditional-branch direction predictor with speculative-history repair.
///
/// Implementations must be deterministic: the same sequence of calls always
/// produces the same predictions (allocation "randomness" comes from an
/// internal LFSR).
pub trait DirectionPredictor: std::fmt::Debug {
    /// Predicts the direction of the branch at `pc` and speculatively updates
    /// the global history with the predicted outcome.
    fn predict(&mut self, pc: u64) -> Prediction;

    /// Trains the predictor with the resolved outcome of a branch previously
    /// predicted with [`predict`](Self::predict). Call in program order at
    /// resolve/retire time.
    fn update(&mut self, pc: u64, taken: bool, pred: &Prediction);

    /// Repairs the speculative history after a misprediction: rewinds to the
    /// state captured in `pred` and inserts the actual outcome.
    fn recover(&mut self, pred: &Prediction, actual_taken: bool);

    /// Rewinds the speculative history to the state captured in `pred`
    /// *without* inserting an outcome — used when a non-branch flush (memory
    /// ordering or CDF dependence violation) discards speculated branches
    /// that will be re-fetched and re-predicted.
    fn rewind(&mut self, pred: &Prediction);

    /// A read-only direction estimate for `pc` that does not touch the
    /// speculative history or any counters. Used by runahead execution,
    /// which predicts branches while the main history must stay untouched.
    fn peek(&self, pc: u64) -> bool;
}
