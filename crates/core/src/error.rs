//! Typed, contextual errors for the experiment engine.
//!
//! Every failure the engine can survive is a [`VanguardError`]: the
//! failing pipeline [`Stage`], the benchmark and (when the workload is
//! seed-generated) the seed it belongs to, and a typed [`ErrorKind`]
//! saying *what* went wrong. It is the one error type of the engine and
//! of the [`Experiment`](crate::Experiment) facade. Workers convert guest
//! traps, watchdog timeouts, and worker panics into these values instead
//! of aborting the process; DESIGN.md §7.8 maps each kind to its
//! detection point and recovery action.

use crate::engine::Stage;
use std::fmt;
use vanguard_compiler::ProfileError;
use vanguard_sim::SimError;

/// What failed, independent of where.
#[derive(Clone, Debug)]
pub enum ErrorKind {
    /// TRAIN-input profiling failed (the profiled guest faulted).
    Profile(ProfileError),
    /// A simulated guest trapped on the committed path.
    GuestTrap {
        /// The architectural fault.
        trap: SimError,
        /// Program counter of the fault.
        pc: u64,
        /// Cycle the fault was detected at.
        cycle: u64,
    },
    /// A watchdog cancelled a wedged stage.
    Timeout {
        /// Cycles simulated before cancellation.
        cycles: u64,
        /// Wall-clock milliseconds elapsed before cancellation.
        wall_ms: u64,
    },
    /// A worker thread panicked while running a job.
    WorkerPanic {
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// The benchmark has no REF inputs to evaluate.
    NoRefInputs,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::Profile(e) => write!(f, "profiling failed: {e}"),
            ErrorKind::GuestTrap { trap, pc, cycle } => {
                write!(f, "guest trap at pc {pc:#x}, cycle {cycle}: {trap}")
            }
            ErrorKind::Timeout { cycles, wall_ms } => {
                write!(f, "watchdog timeout after {cycles} cycles / {wall_ms} ms")
            }
            ErrorKind::WorkerPanic { detail } => write!(f, "worker panicked: {detail}"),
            ErrorKind::NoRefInputs => write!(f, "no REF inputs provided"),
        }
    }
}

/// A recoverable engine failure with full attribution context.
#[derive(Clone, Debug)]
pub struct VanguardError {
    /// Pipeline stage the failure surfaced in.
    pub stage: Stage,
    /// Benchmark the failing job belonged to, when known.
    pub benchmark: Option<String>,
    /// Generator seed of the benchmark, when it is seed-generated
    /// (makes the reproducer replay line exact).
    pub seed: Option<u64>,
    /// What failed.
    pub kind: ErrorKind,
}

impl VanguardError {
    /// An error with no benchmark/seed attribution yet.
    pub fn new(stage: Stage, kind: ErrorKind) -> Self {
        VanguardError {
            stage,
            benchmark: None,
            seed: None,
            kind,
        }
    }

    /// Attaches the benchmark name.
    #[must_use]
    pub fn with_benchmark(mut self, name: impl Into<String>) -> Self {
        self.benchmark = Some(name.into());
        self
    }

    /// Attaches the generator seed.
    #[must_use]
    pub fn with_seed(mut self, seed: Option<u64>) -> Self {
        self.seed = seed;
        self
    }

    /// Whether a retry can plausibly succeed: a worker panic is
    /// environmental (poisoned state, an injected fault) and retried once
    /// with backoff; profile errors, guest traps and timeouts are
    /// deterministic properties of the job and never retried. (A corrupt
    /// disk-cache entry never surfaces as an error: it is counted and
    /// recomputed.)
    pub fn is_transient(&self) -> bool {
        matches!(self.kind, ErrorKind::WorkerPanic { .. })
    }
}

impl fmt::Display for VanguardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} stage", self.stage.label())?;
        if let Some(b) = &self.benchmark {
            write!(f, ", benchmark {b}")?;
        }
        if let Some(s) = self.seed {
            write!(f, " (seed {s})")?;
        }
        write!(f, ": {}", self.kind)
    }
}

impl std::error::Error for VanguardError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        let panic = VanguardError::new(
            Stage::Simulate,
            ErrorKind::WorkerPanic {
                detail: "boom".into(),
            },
        );
        assert!(panic.is_transient());
        let trap = VanguardError::new(
            Stage::Simulate,
            ErrorKind::GuestTrap {
                trap: SimError::LoadFault { addr: 0x10, pc: 4 },
                pc: 4,
                cycle: 99,
            },
        );
        assert!(!trap.is_transient());
        let timeout = VanguardError::new(
            Stage::Simulate,
            ErrorKind::Timeout {
                cycles: 1,
                wall_ms: 2,
            },
        );
        assert!(!timeout.is_transient());
    }

    #[test]
    fn display_carries_full_context() {
        let e = VanguardError::new(
            Stage::Simulate,
            ErrorKind::Timeout {
                cycles: 5000,
                wall_ms: 12,
            },
        )
        .with_benchmark("mcf")
        .with_seed(Some(7));
        let s = e.to_string();
        assert!(s.contains("simulate"), "{s}");
        assert!(s.contains("mcf"), "{s}");
        assert!(s.contains("seed 7"), "{s}");
        assert!(s.contains("5000 cycles"), "{s}");
    }
}
