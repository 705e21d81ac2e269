//! Typed, contextual errors for the experiment engine.
//!
//! Every failure the engine can survive is a [`VanguardError`]: the
//! failing pipeline [`Stage`], the benchmark and (when the workload is
//! seed-generated) the seed it belongs to, and a typed [`ErrorKind`]
//! saying *what* went wrong. It is the one error type of the engine and
//! of the [`Experiment`](crate::Experiment) facade. Workers convert guest
//! traps, exhausted cycle budgets, and worker panics into these values
//! instead of aborting the process; DESIGN.md §7.8 maps each kind to its
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
    /// A simulation ran out of its cycle budget before the guest halted.
    Timeout {
        /// Cycles simulated before cancellation (the budget).
        cycles: u64,
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
            ErrorKind::Timeout { cycles } => {
                write!(f, "cycle budget exhausted after {cycles} cycles")
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
    fn display_carries_full_context() {
        let e = VanguardError::new(Stage::Simulate, ErrorKind::Timeout { cycles: 5000 })
            .with_benchmark("mcf")
            .with_seed(Some(7));
        let s = e.to_string();
        assert!(s.contains("simulate"), "{s}");
        assert!(s.contains("mcf"), "{s}");
        assert!(s.contains("seed 7"), "{s}");
        assert!(s.contains("5000 cycles"), "{s}");
    }
}
