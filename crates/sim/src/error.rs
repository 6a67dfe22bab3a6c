//! Typed failures for single runs and sweeps.
//!
//! A sweep cell never aborts the process: unknown workloads, watchdog
//! expiries and even simulator panics are captured as a [`SimError`] and
//! recorded in the sweep's results.

use cdf_workloads::registry::UnknownWorkload;
use std::fmt;

/// Which windowing phase a run was in when the watchdog fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchdogPhase {
    /// The warmup window (before measurement starts).
    Warmup,
    /// The measurement window.
    Measure,
}

impl fmt::Display for WatchdogPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WatchdogPhase::Warmup => "warmup",
            WatchdogPhase::Measure => "measure",
        })
    }
}

/// Why one (workload × mechanism) simulation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The requested workload name is not in the registry.
    UnknownWorkload(UnknownWorkload),
    /// The per-run fuel watchdog fired: the core spent its whole cycle
    /// budget without retiring the requested instruction window. A hung or
    /// pathologically slow simulation degrades into this report instead of
    /// wedging the sweep.
    Watchdog {
        /// The window that was running when the fuel ran out.
        phase: WatchdogPhase,
        /// The configured cycle budget ([`crate::EvalConfig::max_cycles`]).
        max_cycles: u64,
        /// Instructions retired when the budget expired.
        retired: u64,
    },
    /// The pipeline stopped retiring for 200k cycles — a simulator bug,
    /// never a program property. Carries the core's diagnostic
    /// ([`cdf_core::Core::stalled`]).
    Stalled(String),
    /// The simulation panicked — a simulator bug. The sweep catches the
    /// unwind and records the payload here.
    Panicked(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownWorkload(e) => e.fmt(f),
            SimError::Watchdog {
                phase,
                max_cycles,
                retired,
            } => write!(
                f,
                "watchdog: cycle budget {max_cycles} exhausted during {phase} \
                 ({retired} instructions retired)"
            ),
            SimError::Stalled(diagnostic) => write!(f, "stalled: {diagnostic}"),
            SimError::Panicked(msg) => write!(f, "simulation panicked: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::UnknownWorkload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnknownWorkload> for SimError {
    fn from(e: UnknownWorkload) -> SimError {
        SimError::UnknownWorkload(e)
    }
}

/// A machine-readable tag for each error variant, used in emitted JSON.
impl SimError {
    /// Stable snake_case kind tag (`unknown_workload`, `watchdog`,
    /// `stalled`, `panic`).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::UnknownWorkload(_) => "unknown_workload",
            SimError::Watchdog { .. } => "watchdog",
            SimError::Stalled(_) => "stalled",
            SimError::Panicked(_) => "panic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let e: SimError = UnknownWorkload {
            name: "nope".into(),
        }
        .into();
        assert!(e.to_string().contains("unknown workload `nope`"));
        assert_eq!(e.kind(), "unknown_workload");

        let w = SimError::Watchdog {
            phase: WatchdogPhase::Measure,
            max_cycles: 1000,
            retired: 17,
        };
        assert!(w.to_string().contains("budget 1000"));
        assert!(w.to_string().contains("measure"));
        assert_eq!(w.kind(), "watchdog");

        let s = SimError::Stalled("no retirement for 200k cycles".into());
        assert!(s.to_string().contains("no retirement"));
        assert_eq!(s.kind(), "stalled");

        let p = SimError::Panicked("boom".into());
        assert!(p.to_string().contains("boom"));
        assert_eq!(p.kind(), "panic");
    }
}
