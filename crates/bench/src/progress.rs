//! Progress reporting for the harness binaries.
//!
//! Everything goes to **stderr**: figure data on stdout must be
//! byte-identical whatever the worker count, and job-completion order is
//! nondeterministic under parallelism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use vanguard_core::engine::{JobResult, ProgressObserver, SimJob, Stage, Variant};
use vanguard_sim::SimStats;

/// A [`ProgressObserver`] that logs stage and job completions to stderr.
///
/// `verbose` adds a line per simulation job; otherwise only profile and
/// compile stage executions (the cache-missing, expensive events) are
/// logged.
#[derive(Debug, Default)]
pub struct StderrProgress {
    /// Also log every simulation job as it finishes.
    pub verbose: bool,
    jobs_done: AtomicU64,
}

impl StderrProgress {
    /// A quiet reporter (stage completions only).
    pub fn new() -> Self {
        Self::default()
    }

    /// A reporter that also logs every simulation job.
    pub fn verbose() -> Self {
        StderrProgress {
            verbose: true,
            jobs_done: AtomicU64::new(0),
        }
    }
}

impl ProgressObserver for StderrProgress {
    fn stage_completed(&self, stage: Stage, bench_name: &str, elapsed: Duration, cached: bool) {
        if !cached {
            eprintln!(
                "[engine] {:<8} {:<12} {:>8.1} ms",
                stage.label(),
                bench_name,
                elapsed.as_secs_f64() * 1e3
            );
        }
    }

    fn job_finished(
        &self,
        _index: usize,
        job: &SimJob,
        bench_name: &str,
        stats: &SimStats,
        elapsed: Duration,
    ) {
        let done = self.jobs_done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.verbose {
            let variant = match job.variant {
                Variant::Baseline => "base",
                Variant::Transformed => "xform",
            };
            eprintln!(
                "[engine] sim #{done:<4} {:<12} {}-wide {:<5} ref{} {:>10} cyc {:>8.1} ms {:>7.2} MIPS",
                bench_name,
                job.machine.width,
                variant,
                job.ref_input,
                stats.cycles,
                elapsed.as_secs_f64() * 1e3,
                stats.mips(elapsed)
            );
        }
    }

    fn job_failed(&self, _index: usize, job: &SimJob, bench_name: &str, outcome: &JobResult) {
        let done = self.jobs_done.fetch_add(1, Ordering::Relaxed) + 1;
        let what = match outcome {
            JobResult::Faulted { trap, cycle, .. } => {
                format!("FAULTED {trap} (cycle {cycle})")
            }
            JobResult::TimedOut {
                cycles, wall_ms, ..
            } => format!("TIMED OUT after {cycles} cycles / {wall_ms} ms"),
            JobResult::Failed { error, .. } => format!("FAILED {error}"),
            JobResult::Completed(_) => return,
        };
        let retried = if outcome.retried() {
            " (after retry)"
        } else {
            ""
        };
        eprintln!(
            "[engine] sim #{done:<4} {:<12} {}-wide ref{} {what}{retried}",
            bench_name, job.machine.width, job.ref_input,
        );
    }

    fn job_retried(&self, _index: usize, job: &SimJob, bench_name: &str) {
        eprintln!(
            "[engine] retrying {:<12} {}-wide ref{} after transient failure",
            bench_name, job.machine.width, job.ref_input,
        );
    }
}
