//! The experiment engine: staged, artifact-cached, parallel execution
//! of simulation sweeps.
//!
//! [`Experiment::run`](crate::Experiment::run) decomposes into three
//! stages — **profile** (TRAIN input, once per program × predictor),
//! **compile-pair** (baseline + transformed, once per program × profile
//! × machine width × transform options), and **simulate-one-ref** (one
//! program variant on one REF input on one machine). Every figure and
//! table of the paper's evaluation is a sweep over those stages, so the
//! engine:
//!
//! * enumerates a sweep as a flat list of [`SimJob`]s keyed by
//!   `(benchmark, input, machine, predictor, variant)`;
//! * memoizes profiles and compiled pairs so each is produced at most
//!   once per distinct key, shared across widths, predictor rungs, and
//!   REF inputs, and memoizes deterministic job outcomes so each
//!   distinct job is simulated at most once per engine however many
//!   figures read it — three per-key memos of one type behind one
//!   get-or-compute helper (see DESIGN.md §6);
//! * executes jobs on a [`std::thread::scope`] worker pool, collecting
//!   results in job-index order so output is **bit-identical** to
//!   serial execution regardless of worker count (see DESIGN.md §6);
//! * reports per-job and per-stage progress (with wall-clock timings
//!   and cache hit/miss accounting) through [`ProgressObserver`], and
//!   keeps its counters in one [`EngineStats`] block ([`Engine::stats`]).
//!
//! Worker count defaults to the machine's available parallelism and can
//! be overridden with the `VANGUARD_THREADS` environment variable.
//!
//! # Fault tolerance
//!
//! A failing job never aborts the suite. Each worker wraps its job in a
//! containment boundary: guest traps become [`JobResult::Faulted`],
//! watchdog cancellations (see [`FaultPolicy`]) become
//! [`JobResult::TimedOut`], and worker panics become
//! [`JobResult::Failed`] with a [`VanguardError`] carrying stage,
//! benchmark, and seed context. [`VanguardError`] is the engine's one
//! error type: [`Engine::profile`], [`Engine::compile_pair`] and
//! [`Engine::run_cells`] return it too. Worker panics are retried once
//! with backoff; repeat failures are quarantined with a replayable
//! reproducer. The optional cache directory (`VANGUARD_CACHE_DIR`) holds
//! the on-disk profile and pair cache ([`crate::DiskCache`]) and the
//! results journal ([`crate::results`]), both checksummed and
//! crash-safe: corrupt entries and records are counted or dropped and
//! recomputed, never trusted and never an error. See DESIGN.md §7.8 for
//! the fault model and §7.11 for the journal.

use crate::diskcache::{fnv1a, CorruptEntry, DiskCache};
use crate::error::{ErrorKind, VanguardError};
use crate::experiment::{profile_error, Experiment, ExperimentInput, ExperimentOutcome, RefRun};
use crate::passes::TransformKind;
use crate::report::TransformReport;
use crate::results::ResultsJournal;
use crate::transform::TransformOptions;
use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vanguard_ir::Profile;
use vanguard_isa::{DecodedImage, Program, Reg};
use vanguard_sim::{MachineConfig, SimError, SimStats, Simulator, StopCause};

pub use vanguard_bpred::LadderRung as PredictorKind;

/// The paper's default profiling step budget (also used by
/// [`Experiment::new`]).
pub const DEFAULT_MAX_PROFILE_STEPS: u64 = 100_000_000;

/// Which side of a compiled pair a job simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The PGO-laid-out, scheduled original program.
    Baseline,
    /// The decomposed-branch program.
    Transformed,
}

/// One unit of simulation work: a fully keyed
/// `(benchmark, input, machine, predictor, variant)` tuple.
///
/// `bench` indexes the engine's registered benchmarks (see
/// [`Engine::add_benchmark`]); `ref_input` indexes that benchmark's REF
/// inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimJob {
    /// Benchmark id from [`Engine::add_benchmark`].
    pub bench: usize,
    /// REF-input index within the benchmark.
    pub ref_input: usize,
    /// Machine to simulate.
    pub machine: MachineConfig,
    /// Predictor rung (drives both profiling and simulation).
    pub predictor: PredictorKind,
    /// Baseline or transformed program.
    pub variant: Variant,
}

/// A successfully completed [`SimJob`].
#[derive(Clone, Debug)]
pub struct JobSuccess {
    /// The job that produced this result.
    pub job: SimJob,
    /// Simulation statistics.
    pub stats: SimStats,
    /// Wall-clock time of the simulate stage alone (excludes cached or
    /// shared profile/compile work). A result served from the engine's
    /// simulation memo carries the elapsed time of the run that
    /// produced it.
    pub sim_elapsed: Duration,
    /// Whether this result came from a retry after a transient failure.
    pub retried: bool,
}

/// Outcome of one [`SimJob`] — the engine's containment boundary. A
/// trapping guest, a wedged simulation, or a panicking worker produces
/// a non-[`Completed`](JobResult::Completed) variant here; it never
/// aborts the process or the rest of the suite.
#[derive(Clone, Debug)]
pub enum JobResult {
    /// The simulation ran to completion (boxed: the success payload
    /// carries full statistics and dwarfs the failure variants).
    Completed(Box<JobSuccess>),
    /// The guest program trapped on the committed path.
    Faulted {
        /// The job that trapped.
        job: SimJob,
        /// The architectural fault.
        trap: SimError,
        /// Program counter of the fault.
        pc: u64,
        /// Cycle the fault was detected at.
        cycle: u64,
        /// Whether a retry preceded this outcome.
        retried: bool,
    },
    /// A watchdog (cycle budget or wall-clock deadline) cancelled the
    /// simulation cooperatively.
    TimedOut {
        /// The cancelled job.
        job: SimJob,
        /// Cycles simulated before cancellation.
        cycles: u64,
        /// Wall-clock milliseconds before cancellation.
        wall_ms: u64,
        /// Whether a retry preceded this outcome.
        retried: bool,
    },
    /// The job failed outside the guest: profiling error, worker panic,
    /// or another engine-level failure.
    Failed {
        /// The failing job.
        job: SimJob,
        /// Full failure context.
        error: Box<VanguardError>,
        /// Whether a retry preceded this outcome.
        retried: bool,
    },
}

impl JobResult {
    /// The job this outcome belongs to.
    pub fn job(&self) -> &SimJob {
        match self {
            JobResult::Completed(s) => &s.job,
            JobResult::Faulted { job, .. }
            | JobResult::TimedOut { job, .. }
            | JobResult::Failed { job, .. } => job,
        }
    }

    /// The success payload, if the job completed.
    pub fn success(&self) -> Option<&JobSuccess> {
        match self {
            JobResult::Completed(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Whether the job completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobResult::Completed(_))
    }

    /// Whether a transient-failure retry preceded this outcome.
    pub fn retried(&self) -> bool {
        match self {
            JobResult::Completed(s) => s.retried,
            JobResult::Faulted { retried, .. }
            | JobResult::TimedOut { retried, .. }
            | JobResult::Failed { retried, .. } => *retried,
        }
    }

    /// The success payload; panics with the failure context otherwise.
    /// For callers whose workloads are known-clean (the figure sweeps).
    ///
    /// # Panics
    ///
    /// Panics if the job did not complete.
    pub fn expect_completed(&self) -> &JobSuccess {
        match self {
            JobResult::Completed(s) => s.as_ref(),
            other => panic!(
                "job expected to complete: {}",
                other
                    .as_error("<unattributed>", None)
                    .expect("non-completed outcome has an error")
            ),
        }
    }

    /// Converts a failure outcome to a [`VanguardError`] with benchmark
    /// attribution (`None` for completed jobs).
    pub fn as_error(&self, bench_name: &str, seed: Option<u64>) -> Option<VanguardError> {
        let kind = match self {
            JobResult::Completed(_) => return None,
            JobResult::Faulted {
                trap, pc, cycle, ..
            } => ErrorKind::GuestTrap {
                trap: trap.clone(),
                pc: *pc,
                cycle: *cycle,
            },
            JobResult::TimedOut {
                cycles, wall_ms, ..
            } => ErrorKind::Timeout {
                cycles: *cycles,
                wall_ms: *wall_ms,
            },
            JobResult::Failed { error, .. } => return Some((**error).clone()),
        };
        Some(
            VanguardError::new(Stage::Simulate, kind)
                .with_benchmark(bench_name)
                .with_seed(seed),
        )
    }

    fn set_retried(&mut self, value: bool) {
        match self {
            JobResult::Completed(s) => s.retried = value,
            JobResult::Faulted { retried, .. }
            | JobResult::TimedOut { retried, .. }
            | JobResult::Failed { retried, .. } => *retried = value,
        }
    }
}

/// Fault-tolerance policy of an [`Engine`]: watchdog budgets, retry
/// backoff, and quarantine/cache directories.
#[derive(Clone, Debug)]
pub struct FaultPolicy {
    /// Per-job wall-clock budget (`VANGUARD_JOB_TIMEOUT` seconds);
    /// `None` disables the wall-clock watchdog.
    pub job_timeout: Option<Duration>,
    /// Per-job simulated-cycle budget (`--max-cycles`); `None` disables
    /// the cycle watchdog.
    pub max_cycles: Option<u64>,
    /// Backoff before the one retry of a transient failure (worker
    /// panic, cache corruption).
    pub backoff: Duration,
    /// Where to write replayable reproducers for jobs that still fail
    /// after retry (`VANGUARD_QUARANTINE_DIR`); `None` disables.
    pub quarantine_dir: Option<PathBuf>,
    /// Root of the crash-safe on-disk profile and pair cache and of the
    /// results journal (`VANGUARD_CACHE_DIR`); `None` keeps artifacts
    /// and results in memory only.
    pub cache_dir: Option<PathBuf>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            job_timeout: None,
            max_cycles: None,
            backoff: Duration::from_millis(50),
            quarantine_dir: None,
            cache_dir: None,
        }
    }
}

impl FaultPolicy {
    /// The default policy with the environment overrides applied:
    /// `VANGUARD_JOB_TIMEOUT` (seconds, fractional allowed),
    /// `VANGUARD_QUARANTINE_DIR`, and `VANGUARD_CACHE_DIR`.
    pub fn from_env() -> Self {
        let mut policy = FaultPolicy::default();
        if let Ok(v) = std::env::var("VANGUARD_JOB_TIMEOUT") {
            if let Ok(secs) = v.trim().parse::<f64>() {
                if secs > 0.0 {
                    policy.job_timeout = Some(Duration::from_secs_f64(secs));
                }
            }
        }
        if let Ok(v) = std::env::var("VANGUARD_QUARANTINE_DIR") {
            if !v.trim().is_empty() {
                policy.quarantine_dir = Some(PathBuf::from(v));
            }
        }
        if let Ok(v) = std::env::var("VANGUARD_CACHE_DIR") {
            if !v.trim().is_empty() {
                policy.cache_dir = Some(PathBuf::from(v));
            }
        }
        policy
    }
}

/// Cache key of a profiling run: a profile depends on the program and
/// TRAIN input (both identified by the benchmark id), the predictor the
/// profiler consults, and the step budget. It does **not** depend on
/// machine width or transform options, so one profile serves every
/// width and option sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// Benchmark id (program + TRAIN input identity).
    pub bench: usize,
    /// Profiling predictor.
    pub predictor: PredictorKind,
    /// Profiling step budget.
    pub max_steps: u64,
}

/// Exact-valued (bit-pattern) form of [`TransformOptions`] usable as a
/// hash-map key. Constructed with [`TransformKey::from_options`]; two
/// keys are equal iff every *program-affecting* option field is
/// identical, so distinct option sets can never collide in the artifact
/// cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TransformKey {
    /// The transform pass (`kind`) — distinct variants of the same
    /// benchmark/profile/width must never collide.
    pub kind: TransformKind,
    /// `select.threshold` as IEEE-754 bits.
    pub threshold_bits: u64,
    /// `select.min_executions`.
    pub min_executions: u64,
    /// `select.forward_only`.
    pub forward_only: bool,
    /// `max_hoist`.
    pub max_hoist: usize,
    /// `hoist_loads`.
    pub hoist_loads: bool,
    /// `shadow_temps`.
    pub shadow_temps: bool,
    /// `meld_max_side`.
    pub meld_max_side: usize,
}

impl TransformKey {
    /// The key of an option set.
    pub fn from_options(opts: &TransformOptions) -> Self {
        TransformKey {
            kind: opts.kind,
            threshold_bits: opts.select.threshold.to_bits(),
            min_executions: opts.select.min_executions,
            forward_only: opts.select.forward_only,
            max_hoist: opts.max_hoist,
            hoist_loads: opts.hoist_loads,
            shadow_temps: opts.shadow_temps,
            meld_max_side: opts.meld_max_side,
        }
    }

    /// Stable little-endian byte encoding for disk-cache key hashing.
    /// Leads with the transform kind's stable [`TransformKind::cache_id`]
    /// so two variants of the same (benchmark, profile, width) can never
    /// share a disk entry.
    pub fn disk_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * 5 + 3);
        out.extend_from_slice(&self.kind.cache_id().to_le_bytes());
        out.extend_from_slice(&self.threshold_bits.to_le_bytes());
        out.extend_from_slice(&self.min_executions.to_le_bytes());
        out.push(self.forward_only as u8);
        out.extend_from_slice(&(self.max_hoist as u64).to_le_bytes());
        out.push(self.hoist_loads as u8);
        out.push(self.shadow_temps as u8);
        out.extend_from_slice(&(self.meld_max_side as u64).to_le_bytes());
        out
    }
}

/// Cache key of a compiled baseline/transformed pair: the profile it
/// was guided by, the machine *width* (the only machine parameter the
/// compiler consults, so 32 KB- and 24 KB-I$ variants share pairs), and
/// the transform options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompileKey {
    /// The guiding profile's key.
    pub profile: ProfileKey,
    /// Machine width the scheduler targeted.
    pub width: usize,
    /// Transform options.
    pub options: TransformKey,
}

/// A cached compiled pair plus its transformation report.
///
/// Also carries the pre-decoded flat image of each side, built once at
/// compile time and shared by every simulation of the pair (the
/// simulator's fetch walks the image, not the nested program).
#[derive(Clone, Debug)]
pub struct CompiledPair {
    /// Laid-out, scheduled baseline.
    pub baseline: Arc<Program>,
    /// Laid-out, scheduled transformed program.
    pub transformed: Arc<Program>,
    /// Pre-decoded image of the baseline.
    pub baseline_image: Arc<DecodedImage>,
    /// Pre-decoded image of the transformed program.
    pub transformed_image: Arc<DecodedImage>,
    /// The transformation report (PBC, PISCS, hoist counts).
    pub report: TransformReport,
}

/// A pipeline stage, for observer events and timing attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// TRAIN-input profiling.
    Profile,
    /// Baseline + transformed compilation.
    Compile,
    /// One REF-input simulation.
    Simulate,
}

impl Stage {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Profile => "profile",
            Stage::Compile => "compile",
            Stage::Simulate => "simulate",
        }
    }
}

/// Observer of engine progress. All methods have empty defaults; they
/// are called from worker threads, so implementations must be
/// `Send + Sync` (use atomics or locks for mutable state; printing to
/// stderr keeps figure output on stdout byte-identical).
pub trait ProgressObserver: Send + Sync {
    /// A job was picked up by a worker.
    fn job_started(&self, index: usize, job: &SimJob, bench_name: &str) {
        let _ = (index, job, bench_name);
    }

    /// A job finished, with its [`SimStats`] summary and the wall-clock
    /// time of its simulate stage.
    fn job_finished(
        &self,
        index: usize,
        job: &SimJob,
        bench_name: &str,
        stats: &SimStats,
        elapsed: Duration,
    ) {
        let _ = (index, job, bench_name, stats, elapsed);
    }

    /// A job ended in a non-completed outcome (guest trap, watchdog
    /// timeout, or engine failure), after any retry.
    fn job_failed(&self, index: usize, job: &SimJob, bench_name: &str, outcome: &JobResult) {
        let _ = (index, job, bench_name, outcome);
    }

    /// A transient failure on a job is being retried (once, with
    /// backoff) before the final outcome is reported.
    fn job_retried(&self, index: usize, job: &SimJob, bench_name: &str) {
        let _ = (index, job, bench_name);
    }

    /// A profile or compile artifact was produced (`cached == false`),
    /// or a stage's result — a simulation's included — was served from
    /// a memo or the disk cache (`cached == true`). Simulations that run
    /// report through [`ProgressObserver::job_finished`] instead.
    fn stage_completed(&self, stage: Stage, bench_name: &str, elapsed: Duration, cached: bool) {
        let _ = (stage, bench_name, elapsed, cached);
    }
}

/// Cache and timing counters, snapshot via [`Engine::stats`].
///
/// `profile_misses`/`compile_misses` count actual stage executions —
/// in any sweep they equal the number of *distinct* cache keys touched,
/// which is how the at-most-once artifact guarantee is asserted.
/// Likewise `sim_jobs`, `sim_insts` and `sim_nanos` count only
/// simulations that actually ran; a job served from the simulation memo
/// counts in `sim_memo_hits` alone, and one served from the results
/// journal in `sim_disk_hits` alone (either result carries the elapsed
/// time of the run that produced it), so MIPS measures real simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Profile-stage executions (distinct profile keys computed).
    pub profile_misses: u64,
    /// Profile requests served from the cache.
    pub profile_hits: u64,
    /// Compile-stage executions (distinct compile keys computed).
    pub compile_misses: u64,
    /// Compile requests served from the cache.
    pub compile_hits: u64,
    /// Simulate stages executed.
    pub sim_jobs: u64,
    /// Jobs served from the simulation memo without simulating.
    pub sim_memo_hits: u64,
    /// Simulation-memo misses served from the results journal without
    /// simulating (see [`crate::results`]).
    pub sim_disk_hits: u64,
    /// Committed simulated instructions, summed over simulate stages.
    pub sim_insts: u64,
    /// Aggregate wall-clock nanoseconds in the profile stage.
    pub profile_nanos: u64,
    /// Aggregate wall-clock nanoseconds in the compile stage.
    pub compile_nanos: u64,
    /// Aggregate wall-clock nanoseconds in the simulate stage (summed
    /// across workers, so this can exceed elapsed time).
    pub sim_nanos: u64,
    /// Jobs that completed.
    pub jobs_ok: u64,
    /// Jobs whose guest trapped ([`JobResult::Faulted`]).
    pub jobs_faulted: u64,
    /// Jobs cancelled by a watchdog ([`JobResult::TimedOut`]).
    pub jobs_timed_out: u64,
    /// Jobs that failed outside the guest ([`JobResult::Failed`]).
    pub jobs_failed: u64,
    /// Transient-failure retries attempted.
    pub jobs_retried: u64,
    /// Corrupt disk-cache entries quarantined and recomputed.
    pub cache_corrupt: u64,
    /// Profile-stage executions served from the on-disk cache (a subset
    /// of `profile_misses`: the slot was initialized, but from disk).
    pub profile_disk_hits: u64,
    /// Compile-stage executions served from the on-disk cache (a subset
    /// of `compile_misses`).
    pub pair_disk_hits: u64,
    /// Disk-cache stores and results-journal appends that failed (full
    /// disk, unwritable cache dir, a non-journal `results.vgj`): the
    /// artifact or result was computed and used but not persisted — the
    /// degrade-to-compute-without-store path under disk pressure.
    pub cache_store_failures: u64,
}

impl EngineStats {
    /// Host-side simulation throughput: millions of committed simulated
    /// instructions per worker-summed wall-clock second of the simulate
    /// stage (per-worker MIPS).
    ///
    /// The denominator is wall time, so it includes time a worker sits
    /// descheduled: with more workers than host cores (`VANGUARD_THREADS`
    /// above the core count) the figure drops although no simulation got
    /// slower — on a 2-core host, `figures all --quick` reads 9.34 at one
    /// worker and 4.02 at four.
    pub fn sim_mips(&self) -> f64 {
        if self.sim_nanos == 0 {
            return 0.0;
        }
        self.sim_insts as f64 / 1e6 / (self.sim_nanos as f64 / 1e9)
    }

    /// Renders the per-stage timing/cache summary (one line per stage,
    /// plus an outcome line counting ok / faulted / timed-out / failed /
    /// retried jobs and quarantined cache entries). The `simulate:` line
    /// names the results-journal hits after the memo hits when there are
    /// any. Its MIPS/worker is [`EngineStats::sim_mips`]: it divides by
    /// worker-summed wall time, descheduled time included, so it drops
    /// when the pool oversubscribes the host's cores.
    pub fn summary(&self) -> String {
        fn ms(nanos: u64) -> f64 {
            nanos as f64 / 1e6
        }
        let journal_hits = match self.sim_disk_hits {
            0 => String::new(),
            n => format!(" {n:>5} journal hits,"),
        };
        format!(
            "profile : {:>4} runs, {:>4} cache hits, {:>9.1} ms\n\
             compile : {:>4} runs, {:>4} cache hits, {:>9.1} ms\n\
             simulate: {:>4} jobs, {:>5} memo hits,{journal_hits} {:>9.1} ms, \
             {:>7.2} MIPS/worker\n\
             outcomes: {:>4} ok, {} faulted, {} timed out, {} failed, \
             {} retried, {} corrupt cache entries, {} store failures",
            self.profile_misses,
            self.profile_hits,
            ms(self.profile_nanos),
            self.compile_misses,
            self.compile_hits,
            ms(self.compile_nanos),
            self.sim_jobs,
            self.sim_memo_hits,
            ms(self.sim_nanos),
            self.sim_mips(),
            self.jobs_ok,
            self.jobs_faulted,
            self.jobs_timed_out,
            self.jobs_failed,
            self.jobs_retried,
            self.cache_corrupt,
            self.cache_store_failures,
        )
    }

    /// Counts one memo lookup of `stage`. A simulate miss counts nothing
    /// here: `sim_jobs` counts the simulations that actually ran.
    fn count_lookup(&mut self, stage: Stage, hit: bool) {
        match (stage, hit) {
            (Stage::Profile, true) => self.profile_hits += 1,
            (Stage::Profile, false) => self.profile_misses += 1,
            (Stage::Compile, true) => self.compile_hits += 1,
            (Stage::Compile, false) => self.compile_misses += 1,
            (Stage::Simulate, true) => self.sim_memo_hits += 1,
            (Stage::Simulate, false) => {}
        }
    }
}

/// One cell of a sweep matrix: a benchmark evaluated end-to-end (all
/// REF inputs, both variants) on one machine with one predictor.
#[derive(Clone, Copy, Debug)]
pub struct SweepCell {
    /// Benchmark id from [`Engine::add_benchmark`].
    pub bench: usize,
    /// Machine configuration.
    pub machine: MachineConfig,
    /// Predictor rung.
    pub predictor: PredictorKind,
}

/// The per-key memo of one stage: each key's slot holds `None` until a
/// result is kept. A slot stays locked while its result is computed, so
/// concurrent requests for one key wait on that single computation. A
/// panic, or a result the caller chooses not to keep, leaves the slot
/// empty, and the next request computes again. See [`Engine::memoized`].
struct Memo<K, T> {
    stage: Stage,
    slots: Mutex<HashMap<K, Arc<Mutex<Option<T>>>>>,
}

impl<K: Eq + Hash, T> Memo<K, T> {
    fn new(stage: Stage) -> Self {
        Memo {
            stage,
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The slot of `key`, created empty on first use.
    fn slot(&self, key: K) -> Arc<Mutex<Option<T>>> {
        Arc::clone(lock_ignore_poison(&self.slots).entry(key).or_default())
    }
}

/// Memo key of one simulation: everything its outcome depends on. The
/// compile key names the program pair (benchmark, predictor, profile
/// budget, width, transform options); the full machine, REF input and
/// variant pick the run; the policy's cycle budget decides where a
/// cycle-watchdog `TimedOut` lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct SimKey {
    compile: CompileKey,
    machine: MachineConfig,
    ref_input: usize,
    variant: Variant,
    max_cycles: Option<u64>,
}

/// Appends a run input's initial registers to key material.
fn push_regs(bytes: &mut Vec<u8>, regs: &[(Reg, u64)]) {
    bytes.extend_from_slice(&(regs.len() as u64).to_le_bytes());
    for &(reg, value) in regs {
        bytes.push(reg.0);
        bytes.extend_from_slice(&value.to_le_bytes());
    }
}

/// Locks a mutex, recovering from poisoning: the engine's shared state
/// (caches, result vectors, injection plans) stays structurally valid
/// across a worker panic, because panics are contained per job and
/// every critical section is a plain insert/lookup.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Renders a `catch_unwind` payload as a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The parallel, artifact-cached experiment engine. See the
/// [module docs](self) for the execution model.
pub struct Engine {
    workers: usize,
    benchmarks: Vec<ExperimentInput>,
    observers: Vec<Arc<dyn ProgressObserver>>,
    profiles: Memo<ProfileKey, Result<Arc<Profile>, VanguardError>>,
    pairs: Memo<CompileKey, CompiledPair>,
    sims: Memo<SimKey, JobResult>,
    fault_policy: FaultPolicy,
    disk_cache: Option<DiskCache>,
    /// The on-disk form of `sims`, under the policy's cache directory.
    results: Option<ResultsJournal>,
    /// Deterministic fault-injection plan: job index → remaining panics
    /// to raise inside the containment boundary (test/harness hook, see
    /// [`Engine::inject_worker_panic`]).
    panic_plan: Mutex<HashMap<usize, u32>>,
    /// Results-journal appends left before the process aborts
    /// (test/harness hook, see [`Engine::abort_after_appends`]).
    abort_plan: Mutex<Option<usize>>,
    /// Cache and timing counters; they change per stage and per job,
    /// never per simulated cycle, so one lock is cheap.
    stats: Mutex<EngineStats>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("benchmarks", &self.benchmarks.len())
            .field("observers", &self.observers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Worker count: `VANGUARD_THREADS` when set to a positive integer,
/// else the machine's available parallelism.
pub fn default_workers() -> usize {
    std::env::var("VANGUARD_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with [`default_workers`].
    pub fn new() -> Self {
        Self::with_workers(default_workers())
    }

    /// An engine with an explicit worker count (≥ 1). `1` reproduces
    /// strictly serial execution. The fault policy comes from
    /// [`FaultPolicy::from_env`]; override with
    /// [`Engine::set_fault_policy`].
    pub fn with_workers(workers: usize) -> Self {
        let mut engine = Engine {
            workers: workers.max(1),
            benchmarks: Vec::new(),
            observers: Vec::new(),
            profiles: Memo::new(Stage::Profile),
            pairs: Memo::new(Stage::Compile),
            sims: Memo::new(Stage::Simulate),
            fault_policy: FaultPolicy::default(),
            disk_cache: None,
            results: None,
            panic_plan: Mutex::new(HashMap::new()),
            abort_plan: Mutex::new(None),
            stats: Mutex::new(EngineStats::default()),
        };
        engine.set_fault_policy(FaultPolicy::from_env());
        engine
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Replaces the fault policy (and rebuilds the disk cache and
    /// results-journal handles from `policy.cache_dir`).
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.disk_cache = policy.cache_dir.clone().map(DiskCache::new);
        self.results = policy.cache_dir.as_deref().map(ResultsJournal::new);
        self.fault_policy = policy;
    }

    /// The active fault policy.
    pub fn fault_policy(&self) -> &FaultPolicy {
        &self.fault_policy
    }

    /// Schedules `times` deterministic worker panics on the job at
    /// `index` (raised inside the containment boundary, before the job
    /// body runs and before its simulation-memo lookup, so a job whose
    /// result is already memoized still panics). The fault-injection
    /// harness uses this to prove panic containment and retry
    /// behaviour; with the default policy the first panic is retried
    /// and the retry succeeds.
    pub fn inject_worker_panic(&self, index: usize, times: u32) {
        lock_ignore_poison(&self.panic_plan).insert(index, times);
    }

    fn maybe_inject_panic(&self, index: usize) {
        let mut plan = lock_ignore_poison(&self.panic_plan);
        if let Some(n) = plan.get_mut(&index) {
            if *n > 0 {
                *n -= 1;
                drop(plan);
                panic!("injected worker fault (job {index})");
            }
        }
    }

    /// Aborts the process ([`std::process::abort`]: no unwinding, other
    /// workers possibly mid-job or mid-append) right after this engine's
    /// `appends`th results-journal append, leaving a partial journal for
    /// a rerun to resume (`figures --fault-kill-after`). The
    /// kill-and-resume fault classes use it to prove that a crash loses
    /// nothing the journal holds. Without a cache directory nothing is
    /// appended, so nothing aborts.
    pub fn abort_after_appends(&self, appends: usize) {
        *lock_ignore_poison(&self.abort_plan) = Some(appends);
    }

    /// Counts one results-journal append against the abort plan.
    fn appended(&self) {
        let mut plan = lock_ignore_poison(&self.abort_plan);
        if let Some(left) = plan.as_mut() {
            *left = left.saturating_sub(1);
            if *left == 0 {
                std::process::abort();
            }
        }
    }

    /// Subscribes a progress observer.
    pub fn observe(&mut self, observer: Arc<dyn ProgressObserver>) {
        self.observers.push(observer);
    }

    /// Registers a benchmark, returning its id for [`SimJob::bench`] /
    /// [`SweepCell::bench`]. Artifacts are cached per id, so register
    /// each (program, input-set) once and reuse the id across sweeps.
    pub fn add_benchmark(&mut self, input: ExperimentInput) -> usize {
        self.benchmarks.push(input);
        self.benchmarks.len() - 1
    }

    /// The registered benchmark for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Engine::add_benchmark`].
    pub fn benchmark(&self, id: usize) -> &ExperimentInput {
        &self.benchmarks[id]
    }

    /// Snapshot of cache and timing counters.
    pub fn stats(&self) -> EngineStats {
        *lock_ignore_poison(&self.stats)
    }

    /// Applies `update` to the counters under their lock.
    fn count(&self, update: impl FnOnce(&mut EngineStats)) {
        update(&mut lock_ignore_poison(&self.stats));
    }

    // ----------------------------------------------------------------
    // Stages
    // ----------------------------------------------------------------

    /// Content-addressed disk-cache key of a profile: hashes the
    /// benchmark name, generator seed, predictor, step budget, and the
    /// program text itself, so a stale entry from a different program
    /// can never be served (the in-memory [`ProfileKey`] identifies
    /// benchmarks by registration id, which is not stable across
    /// processes). The TRAIN input is assumed to be determined by the
    /// (name, seed) pair.
    fn profile_disk_key(&self, bench: usize, predictor: PredictorKind, max_steps: u64) -> u64 {
        fnv1a(&self.bench_identity_bytes(bench, predictor, max_steps))
    }

    /// The content-addressed identity shared by every disk key derived
    /// from a (benchmark, predictor, step-budget) triple. It includes the
    /// TRAIN input's initial registers, which carry the iteration count,
    /// so one cache directory can serve quick and full scale runs.
    fn bench_identity_bytes(
        &self,
        bench: usize,
        predictor: PredictorKind,
        max_steps: u64,
    ) -> Vec<u8> {
        let input = &self.benchmarks[bench];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(input.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&input.seed.unwrap_or(u64::MAX).to_le_bytes());
        bytes.extend_from_slice(format!("{predictor:?}").as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&max_steps.to_le_bytes());
        push_regs(&mut bytes, &input.train.init_regs);
        bytes.extend_from_slice(input.program.disassemble().as_bytes());
        bytes
    }

    /// Content-addressed disk-cache key of a compiled pair: the profile
    /// identity material plus the machine width and the *full* transform
    /// key — led by the transform kind's stable cache id — so two
    /// transform variants of the same (benchmark, profile, width) can
    /// never share a disk entry.
    fn pair_disk_key(
        &self,
        bench: usize,
        predictor: PredictorKind,
        max_steps: u64,
        width: usize,
        options: &TransformKey,
    ) -> u64 {
        let mut bytes = self.bench_identity_bytes(bench, predictor, max_steps);
        bytes.extend_from_slice(&(width as u64).to_le_bytes());
        bytes.extend_from_slice(&options.disk_bytes());
        fnv1a(&bytes)
    }

    /// Content-addressed key of one simulation job: the pair identity
    /// material plus the full machine configuration, the REF input's
    /// index and initial registers, the variant, and the policy's cycle
    /// budget (it decides where a `TimedOut` lands). Stable across
    /// processes (it hashes names, program text, and option bytes, never
    /// registration ids or pointers), so it keys the results journal: a
    /// rerun in a fresh process recognises journaled jobs by this key
    /// alone.
    pub fn job_key(&self, job: &SimJob, options: &TransformOptions, max_steps: u64) -> u64 {
        let mut bytes = self.bench_identity_bytes(job.bench, job.predictor, max_steps);
        bytes.extend_from_slice(format!("{:?}", job.machine).as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(job.ref_input as u64).to_le_bytes());
        push_regs(
            &mut bytes,
            &self.benchmarks[job.bench].refs[job.ref_input].init_regs,
        );
        bytes.push(match job.variant {
            Variant::Baseline => 0,
            Variant::Transformed => 1,
        });
        bytes.extend_from_slice(&TransformKey::from_options(options).disk_bytes());
        match self.fault_policy.max_cycles {
            None => bytes.push(0),
            Some(cycles) => {
                bytes.push(1);
                bytes.extend_from_slice(&cycles.to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }

    /// The one get-or-compute path of the three per-key memos. A hit
    /// counts in the stage's hit counter, tells the observers the stage
    /// was served cached, and returns the stored result. A miss computes
    /// while holding the key's slot, counts in the stage's miss counter
    /// (none for simulate: `sim_jobs` counts real simulations), and
    /// stores the result when `keep` accepts it. Profiles and pairs are
    /// always kept; a simulation only when its outcome is deterministic.
    fn memoized<K: Eq + Hash, T: Clone>(
        &self,
        memo: &Memo<K, T>,
        key: K,
        bench: usize,
        keep: impl FnOnce(&T) -> bool,
        compute: impl FnOnce() -> T,
    ) -> T {
        let slot = memo.slot(key);
        let mut stored = lock_ignore_poison(&slot);
        if let Some(hit) = stored.as_ref() {
            self.count(|s| s.count_lookup(memo.stage, true));
            let name = &self.benchmarks[bench].name;
            for o in &self.observers {
                o.stage_completed(memo.stage, name, Duration::ZERO, true);
            }
            return hit.clone();
        }
        let out = compute();
        self.count(|s| s.count_lookup(memo.stage, false));
        if keep(&out) {
            *stored = Some(out.clone());
        }
        out
    }

    /// The one load → compute → store path of the profile and compile
    /// stages. With a disk cache, a valid entry is served as a disk hit;
    /// a corrupt one (already quarantined by the cache) is counted and
    /// recomputed; a computed artifact is stored. Concurrent producers
    /// of one entry — other threads or processes — may all compute it,
    /// and their stores race benignly: each publishes the same
    /// checksummed bytes with [`atomic_publish`](crate::atomic_publish).
    /// A failed store (full disk) is counted, never an error: the
    /// artifact is used, just not persisted. `counters` picks the
    /// stage's disk-hit and compute-time counters.
    #[allow(clippy::too_many_arguments)]
    fn load_or_compute<T>(
        &self,
        stage: Stage,
        bench: usize,
        counters: fn(&mut EngineStats) -> (&mut u64, &mut u64),
        disk_key: impl FnOnce() -> u64,
        load: impl FnOnce(&DiskCache, u64) -> Result<Option<T>, CorruptEntry>,
        compute: impl FnOnce() -> T,
        store: impl FnOnce(&DiskCache, u64, &T) -> io::Result<()>,
    ) -> T {
        let name = &self.benchmarks[bench].name;
        let disk = self.disk_cache.as_ref().map(|cache| (cache, disk_key()));
        if let Some((cache, dk)) = disk {
            match load(cache, dk) {
                Ok(Some(hit)) => {
                    self.count(|s| *counters(s).0 += 1);
                    for o in &self.observers {
                        o.stage_completed(stage, name, Duration::ZERO, true);
                    }
                    return hit;
                }
                Ok(None) => {}
                Err(_quarantined) => self.count(|s| s.cache_corrupt += 1),
            }
        }
        let started = Instant::now();
        let out = compute();
        let elapsed = started.elapsed();
        self.count(|s| *counters(s).1 += elapsed.as_nanos() as u64);
        for o in &self.observers {
            o.stage_completed(stage, name, elapsed, false);
        }
        if let Some((cache, dk)) = disk {
            if store(cache, dk, &out).is_err() {
                self.count(|s| s.cache_store_failures += 1);
            }
        }
        out
    }

    /// Stage 1 — profile: the TRAIN-input profile for a benchmark under
    /// a predictor, computed at most once per [`ProfileKey`].
    ///
    /// # Errors
    ///
    /// Returns the profiling error, with benchmark and seed (cached:
    /// re-requests see the same error without re-running).
    pub fn profile(
        &self,
        bench: usize,
        predictor: PredictorKind,
        max_steps: u64,
    ) -> Result<Arc<Profile>, VanguardError> {
        let key = ProfileKey {
            bench,
            predictor,
            max_steps,
        };
        self.memoized(
            &self.profiles,
            key,
            bench,
            |_| true,
            || {
                let input = &self.benchmarks[bench];
                self.load_or_compute(
                    Stage::Profile,
                    bench,
                    |s| (&mut s.profile_disk_hits, &mut s.profile_nanos),
                    || self.profile_disk_key(bench, predictor, max_steps),
                    |cache, dk| cache.load(dk).map(|hit| hit.map(|p| Ok(Arc::new(p)))),
                    || {
                        vanguard_compiler::profile_program(
                            &input.program,
                            input.train.memory.clone(),
                            &input.train.init_regs,
                            predictor.build(),
                            max_steps,
                        )
                        .map(Arc::new)
                        .map_err(|e| profile_error(input, e))
                    },
                    |cache, dk, out| match out {
                        Ok(profile) => cache.store(dk, profile),
                        Err(_) => Ok(()), // errors are cached in memory only
                    },
                )
            },
        )
    }

    /// Stage 2 — compile-pair: the baseline and transformed programs
    /// for a benchmark under a profile, machine width, and option set,
    /// compiled at most once per [`CompileKey`].
    ///
    /// # Errors
    ///
    /// Returns the profiling error if the guiding profile fails.
    pub fn compile_pair(
        &self,
        bench: usize,
        predictor: PredictorKind,
        machine: MachineConfig,
        options: &TransformOptions,
        max_steps: u64,
    ) -> Result<CompiledPair, VanguardError> {
        let profile = self.profile(bench, predictor, max_steps)?;
        let key = CompileKey {
            profile: ProfileKey {
                bench,
                predictor,
                max_steps,
            },
            width: machine.width,
            options: TransformKey::from_options(options),
        };
        Ok(self.memoized(
            &self.pairs,
            key,
            bench,
            |_| true,
            || {
                self.load_or_compute(
                    Stage::Compile,
                    bench,
                    |s| (&mut s.pair_disk_hits, &mut s.compile_nanos),
                    || self.pair_disk_key(bench, predictor, max_steps, machine.width, &key.options),
                    DiskCache::load_pair,
                    || {
                        let exp = Experiment {
                            machine,
                            predictor,
                            transform: *options,
                            max_profile_steps: max_steps,
                        };
                        let program = &self.benchmarks[bench].program;
                        let (baseline, transformed, report) = exp.compile_pair(program, &profile);
                        CompiledPair {
                            baseline_image: Arc::new(DecodedImage::build(&baseline)),
                            transformed_image: Arc::new(DecodedImage::build(&transformed)),
                            baseline: Arc::new(baseline),
                            transformed: Arc::new(transformed),
                            report,
                        }
                    },
                    DiskCache::store_pair,
                )
            },
        ))
    }

    /// Stage 3 — simulate-one-ref: runs one job through the cached
    /// stages and one simulation. Deterministic for a given job. Never
    /// returns an error or panics on a guest fault: traps, watchdog
    /// cancellations, and stage failures become the corresponding
    /// [`JobResult`] variant.
    ///
    /// Each distinct job simulates at most once per engine: the first
    /// request computes under a per-key lock while concurrent requests
    /// for the same job wait, and later requests get the stored result
    /// unchanged. Only deterministic outcomes are stored — `Completed`,
    /// `Faulted`, and a `TimedOut` with no wall-clock deadline armed
    /// (so the cycle budget, part of the key, stopped it). A wall-clock
    /// `TimedOut` or a `Failed` is returned but never stored.
    ///
    /// With a cache directory, a memo miss first looks the job up in the
    /// results journal (see [`crate::results`]) and appends what it
    /// simulates and stores; without one, nothing touches the disk and
    /// no [`Engine::job_key`] is computed.
    pub fn run_job(&self, job: &SimJob, options: &TransformOptions, max_steps: u64) -> JobResult {
        let key = SimKey {
            compile: CompileKey {
                profile: ProfileKey {
                    bench: job.bench,
                    predictor: job.predictor,
                    max_steps,
                },
                width: job.machine.width,
                options: TransformKey::from_options(options),
            },
            machine: job.machine,
            ref_input: job.ref_input,
            variant: job.variant,
            max_cycles: self.fault_policy.max_cycles,
        };
        let deterministic = |outcome: &JobResult| match outcome {
            JobResult::Completed(_) | JobResult::Faulted { .. } => true,
            JobResult::TimedOut { .. } => self.fault_policy.job_timeout.is_none(),
            JobResult::Failed { .. } => false,
        };
        self.memoized(&self.sims, key, job.bench, deterministic, || {
            let Some(results) = &self.results else {
                return self.simulate(job, options, max_steps);
            };
            let key = self.job_key(job, options, max_steps);
            if let Some(hit) = results.get(key).and_then(|p| JobResult::decode(*job, p)) {
                self.count(|s| s.sim_disk_hits += 1);
                let name = &self.benchmarks[job.bench].name;
                for o in &self.observers {
                    o.stage_completed(Stage::Simulate, name, Duration::ZERO, true);
                }
                return hit;
            }
            let out = self.simulate(job, options, max_steps);
            if let Some(payload) = out.encode().filter(|_| deterministic(&out)) {
                match results.append(key, &payload) {
                    Ok(true) => self.appended(),
                    Ok(false) => {}
                    Err(_) => self.count(|s| s.cache_store_failures += 1),
                }
            }
            out
        })
    }

    /// The body of [`Engine::run_job`] behind the memo: compile (cached)
    /// and one simulation.
    fn simulate(&self, job: &SimJob, options: &TransformOptions, max_steps: u64) -> JobResult {
        let input = &self.benchmarks[job.bench];
        let pair =
            match self.compile_pair(job.bench, job.predictor, job.machine, options, max_steps) {
                Ok(pair) => pair,
                Err(error) => {
                    return JobResult::Failed {
                        job: *job,
                        error: Box::new(error),
                        retried: false,
                    }
                }
            };
        let image = match job.variant {
            Variant::Baseline => &pair.baseline_image,
            Variant::Transformed => &pair.transformed_image,
        };
        let ref_input = &input.refs[job.ref_input];
        let mut sim = Simulator::with_image(
            Arc::clone(image),
            ref_input.memory.clone(),
            job.machine,
            job.predictor.build(),
        );
        for &(r, v) in &ref_input.init_regs {
            sim.set_reg(r, v);
        }
        let policy = &self.fault_policy;
        let deadline = policy.job_timeout.map(|t| Instant::now() + t);
        if policy.max_cycles.is_some() || deadline.is_some() {
            sim.set_watchdog(policy.max_cycles, deadline);
        }
        let started = Instant::now();
        let outcome = sim.run_checked();
        let sim_elapsed = started.elapsed();
        let result = match outcome {
            Ok(res) if res.stop == StopCause::TimedOut => JobResult::TimedOut {
                job: *job,
                cycles: res.stats.cycles,
                wall_ms: sim_elapsed.as_millis() as u64,
                retried: false,
            },
            Ok(res) => JobResult::Completed(Box::new(JobSuccess {
                job: *job,
                stats: res.stats,
                sim_elapsed,
                retried: false,
            })),
            Err(fault) => JobResult::Faulted {
                job: *job,
                pc: fault.error.pc(),
                cycle: fault.cycle,
                trap: fault.error,
                retried: false,
            },
        };
        self.count(|s| {
            s.sim_jobs += 1;
            s.sim_nanos += sim_elapsed.as_nanos() as u64;
            if let JobResult::Completed(done) = &result {
                s.sim_insts += done.stats.committed();
            }
        });
        result
    }

    /// [`Engine::run_job`] inside the full containment boundary: worker
    /// panics (including injected ones) are caught and become
    /// [`JobResult::Failed`]; transient failures are retried once after
    /// the policy's backoff. Outcome counters are updated
    /// exactly once, for the final outcome.
    fn run_job_guarded(
        &self,
        index: usize,
        job: &SimJob,
        options: &TransformOptions,
        max_steps: u64,
    ) -> JobResult {
        let mut retried = false;
        let mut outcome = loop {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.maybe_inject_panic(index);
                self.run_job(job, options, max_steps)
            }));
            let outcome = match attempt {
                Ok(outcome) => outcome,
                Err(payload) => {
                    let input = &self.benchmarks[job.bench];
                    JobResult::Failed {
                        job: *job,
                        error: Box::new(
                            VanguardError::new(
                                Stage::Simulate,
                                ErrorKind::WorkerPanic {
                                    detail: panic_message(payload.as_ref()),
                                },
                            )
                            .with_benchmark(&input.name)
                            .with_seed(input.seed),
                        ),
                        retried: false,
                    }
                }
            };
            let transient =
                matches!(&outcome, JobResult::Failed { error, .. } if error.is_transient());
            if transient && !retried {
                retried = true;
                self.count(|s| s.jobs_retried += 1);
                let name = &self.benchmarks[job.bench].name;
                for o in &self.observers {
                    o.job_retried(index, job, name);
                }
                std::thread::sleep(self.fault_policy.backoff);
                continue;
            }
            break outcome;
        };
        outcome.set_retried(retried);
        self.count(|s| match &outcome {
            JobResult::Completed(_) => s.jobs_ok += 1,
            JobResult::Faulted { .. } => s.jobs_faulted += 1,
            JobResult::TimedOut { .. } => s.jobs_timed_out += 1,
            JobResult::Failed { .. } => s.jobs_failed += 1,
        });
        outcome
    }

    /// Writes a replayable reproducer for a non-completed job into the
    /// policy's quarantine directory (same spirit as the fuzzer's
    /// `seed-<N>/` reproducers): the failure context, the replay seed
    /// when the benchmark is seed-generated, and the program text.
    /// Best-effort — reproducer I/O failures never affect the run.
    fn quarantine_job(&self, index: usize, job: &SimJob, outcome: &JobResult) {
        let Some(qdir) = &self.fault_policy.quarantine_dir else {
            return;
        };
        let input = &self.benchmarks[job.bench];
        let dir = qdir.join(format!("job-{index:04}-{}", input.name));
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let mut repro = String::from("# Quarantined-job reproducer\n");
        repro.push_str(&format!("job index : {index}\n"));
        repro.push_str(&format!("benchmark : {}\n", input.name));
        if let Some(seed) = input.seed {
            repro.push_str(&format!("seed      : {seed}\n"));
            // `vanguard-fuzz --one N` regenerates exactly the fuzz
            // kernels; other seeded benchmarks replay via their suite.
            if input.name.starts_with("fuzz-") {
                repro.push_str(&format!("replay    : vanguard-fuzz --one {seed}\n"));
            }
        }
        repro.push_str(&format!("job       : {job:?}\n"));
        if let Some(e) = outcome.as_error(&input.name, input.seed) {
            repro.push_str(&format!("failure   : {e}\n"));
        }
        let _ = std::fs::write(dir.join("repro.txt"), repro);
        let _ = std::fs::write(dir.join("program.asm"), input.program.disassemble());
    }

    // ----------------------------------------------------------------
    // Sweep execution
    // ----------------------------------------------------------------

    /// Executes a flat job list on the worker pool. Results come back
    /// in **job-index order** regardless of worker count or completion
    /// order. Infallible: every job produces a [`JobResult`], and a
    /// failing job never prevents the rest of the list from running
    /// (nor perturbs their results — see `tests/fault_recovery.rs`).
    /// Non-completed jobs are quarantined with a reproducer when the
    /// policy names a quarantine directory.
    pub fn run_jobs(
        &self,
        jobs: &[SimJob],
        options: &TransformOptions,
        max_steps: u64,
    ) -> Vec<JobResult> {
        let n = jobs.len();
        let mut results: Vec<Option<JobResult>> = Vec::new();
        results.resize_with(n, || None);
        let results = Mutex::new(results);
        let next = AtomicUsize::new(0);
        let workers = self.workers.min(n.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = &jobs[i];
                    let name = &self.benchmarks[job.bench].name;
                    for o in &self.observers {
                        o.job_started(i, job, name);
                    }
                    let outcome = self.run_job_guarded(i, job, options, max_steps);
                    match &outcome {
                        JobResult::Completed(s) => {
                            for o in &self.observers {
                                o.job_finished(i, job, name, &s.stats, s.sim_elapsed);
                            }
                        }
                        other => {
                            for o in &self.observers {
                                o.job_failed(i, job, name, other);
                            }
                            self.quarantine_job(i, job, other);
                        }
                    }
                    lock_ignore_poison(&results)[i] = Some(outcome);
                });
            }
        });
        results
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .map(|slot| slot.expect("every job index was executed"))
            .collect()
    }

    /// The canonical job expansion of sweep cells: for each cell, every
    /// REF input × {baseline, transformed}, in the nesting order the
    /// serial loops used (refs outer, variants inner).
    pub fn jobs_for_cells(&self, cells: &[SweepCell]) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for cell in cells {
            for ref_input in 0..self.benchmarks[cell.bench].refs.len() {
                for variant in [Variant::Baseline, Variant::Transformed] {
                    jobs.push(SimJob {
                        bench: cell.bench,
                        ref_input,
                        machine: cell.machine,
                        predictor: cell.predictor,
                        variant,
                    });
                }
            }
        }
        jobs
    }

    /// Runs a sweep matrix end-to-end: each cell becomes one
    /// [`ExperimentOutcome`] (the Table 2 row shape), computed from
    /// jobs executed on the pool with artifacts shared across cells.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::NoRefInputs`] before any job runs if a cell's
    /// benchmark has no REF inputs; otherwise the error of the
    /// lowest-indexed job that did not complete, with benchmark and
    /// seed. Every job still runs: callers who want the surviving jobs
    /// use [`Engine::run_jobs`].
    pub fn run_cells(
        &self,
        cells: &[SweepCell],
        options: &TransformOptions,
        max_steps: u64,
    ) -> Result<Vec<ExperimentOutcome>, VanguardError> {
        for cell in cells {
            let input = &self.benchmarks[cell.bench];
            if input.refs.is_empty() {
                return Err(VanguardError::new(Stage::Simulate, ErrorKind::NoRefInputs)
                    .with_benchmark(&input.name)
                    .with_seed(input.seed));
            }
        }
        let jobs = self.jobs_for_cells(cells);
        let results = self.run_jobs(&jobs, options, max_steps);
        let mut at = 0;
        cells
            .iter()
            .map(|cell| {
                let input = &self.benchmarks[cell.bench];
                let slice = &results[at..at + 2 * input.refs.len()];
                at += slice.len();
                if let Some(err) = slice
                    .iter()
                    .find_map(|r| r.as_error(&input.name, input.seed))
                {
                    return Err(err);
                }
                let runs = slice
                    .chunks_exact(2)
                    .map(|pair| RefRun {
                        base: pair[0].expect_completed().stats,
                        exp: pair[1].expect_completed().stats,
                    })
                    .collect();
                // Cached: these re-fetches never recompile or re-profile.
                let pair = self.compile_pair(
                    cell.bench,
                    cell.predictor,
                    cell.machine,
                    options,
                    max_steps,
                )?;
                let profile = self.profile(cell.bench, cell.predictor, max_steps)?;
                Ok(ExperimentOutcome {
                    name: input.name.clone(),
                    report: pair.report,
                    runs,
                    profile_dynamic_insts: profile.dynamic_insts,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::tests::experiment_input;
    use crate::experiment::RunInput;
    use std::sync::atomic::AtomicU64;
    use vanguard_isa::{AluOp, CmpKind, CondKind, Inst, Memory, Operand, ProgramBuilder, Reg};

    fn engine_with(n: usize, workers: usize) -> (Engine, Vec<usize>) {
        let mut engine = Engine::with_workers(workers);
        let ids = (0..n)
            .map(|i| {
                let mut input = experiment_input(400 + 100 * i);
                input.name = format!("bench{i}");
                engine.add_benchmark(input)
            })
            .collect();
        (engine, ids)
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let opts = TransformOptions::default();
        let cells = |ids: &[usize]| -> Vec<SweepCell> {
            ids.iter()
                .flat_map(|&bench| {
                    [MachineConfig::two_wide(), MachineConfig::four_wide()]
                        .into_iter()
                        .map(move |machine| SweepCell {
                            bench,
                            machine,
                            predictor: PredictorKind::Combined24KB,
                        })
                })
                .collect()
        };
        let (serial, ids_s) = engine_with(2, 1);
        let serial_out = serial.run_cells(&cells(&ids_s), &opts, 1_000_000).unwrap();
        let (parallel, ids_p) = engine_with(2, 4);
        let parallel_out = parallel
            .run_cells(&cells(&ids_p), &opts, 1_000_000)
            .unwrap();
        assert_eq!(serial_out.len(), parallel_out.len());
        for (s, p) in serial_out.iter().zip(&parallel_out) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.profile_dynamic_insts, p.profile_dynamic_insts);
            assert_eq!(s.runs.len(), p.runs.len());
            for (sr, pr) in s.runs.iter().zip(&p.runs) {
                assert_eq!(sr.base, pr.base);
                assert_eq!(sr.exp, pr.exp);
            }
        }
    }

    #[test]
    fn artifacts_are_computed_once_per_key() {
        let opts = TransformOptions::default();
        let (mut engine, _) = engine_with(0, 4);
        let b0 = engine.add_benchmark(experiment_input(500));
        // 3 widths × 1 predictor: 1 profile, 3 compiles, regardless of
        // how many REF sims reference them.
        let cells: Vec<SweepCell> = MachineConfig::all_widths()
            .into_iter()
            .map(|machine| SweepCell {
                bench: b0,
                machine,
                predictor: PredictorKind::Combined24KB,
            })
            .collect();
        engine.run_cells(&cells, &opts, 1_000_000).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.profile_misses, 1, "{stats:?}");
        assert_eq!(stats.compile_misses, 3, "{stats:?}");
        assert_eq!(stats.sim_jobs, 6, "{stats:?}");
        // Re-running the same cells is all hits, simulations included.
        engine.run_cells(&cells, &opts, 1_000_000).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.profile_misses, 1, "{stats:?}");
        assert_eq!(stats.compile_misses, 3, "{stats:?}");
        assert_eq!(stats.sim_jobs, 6, "{stats:?}");
        assert_eq!(stats.sim_memo_hits, 6, "{stats:?}");
    }

    #[test]
    fn observer_sees_every_job() {
        #[derive(Default)]
        struct Counter {
            started: AtomicU64,
            finished: AtomicU64,
            stages: AtomicU64,
        }
        impl ProgressObserver for Counter {
            fn job_started(&self, _: usize, _: &SimJob, _: &str) {
                self.started.fetch_add(1, Ordering::Relaxed);
            }
            fn job_finished(&self, _: usize, _: &SimJob, _: &str, _: &SimStats, _: Duration) {
                self.finished.fetch_add(1, Ordering::Relaxed);
            }
            fn stage_completed(&self, _: Stage, _: &str, _: Duration, _: bool) {
                self.stages.fetch_add(1, Ordering::Relaxed);
            }
        }
        let counter = Arc::new(Counter::default());
        let mut engine = Engine::with_workers(2);
        let bench = engine.add_benchmark(experiment_input(300));
        engine.observe(counter.clone());
        let cells = [SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        }];
        engine
            .run_cells(&cells, &TransformOptions::default(), 1_000_000)
            .unwrap();
        assert_eq!(counter.started.load(Ordering::Relaxed), 2);
        assert_eq!(counter.finished.load(Ordering::Relaxed), 2);
        assert!(counter.stages.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn injected_panic_is_retried_and_recovers() {
        let opts = TransformOptions::default();
        let (engine, ids) = engine_with(1, 2);
        let jobs = engine.jobs_for_cells(&[SweepCell {
            bench: ids[0],
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        }]);
        engine.inject_worker_panic(0, 1);
        let results = engine.run_jobs(&jobs, &opts, 1_000_000);
        assert!(results.iter().all(JobResult::is_completed));
        assert!(results[0].retried());
        assert!(!results[1].retried());
        let stats = engine.stats();
        assert_eq!(stats.jobs_retried, 1, "{stats:?}");
        assert_eq!(stats.jobs_ok as usize, jobs.len(), "{stats:?}");
        assert_eq!(stats.jobs_failed, 0, "{stats:?}");
    }

    #[test]
    fn repeated_panic_becomes_a_failed_outcome() {
        let opts = TransformOptions::default();
        let (engine, ids) = engine_with(1, 1);
        let jobs = engine.jobs_for_cells(&[SweepCell {
            bench: ids[0],
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        }]);
        engine.inject_worker_panic(1, 2); // survives the one retry
        let results = engine.run_jobs(&jobs, &opts, 1_000_000);
        assert!(results[0].is_completed());
        match &results[1] {
            JobResult::Failed { error, retried, .. } => {
                assert!(*retried);
                assert!(matches!(error.kind, ErrorKind::WorkerPanic { .. }));
                assert_eq!(error.benchmark.as_deref(), Some("bench0"));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.jobs_failed, 1, "{stats:?}");
        assert_eq!(stats.jobs_retried, 1, "{stats:?}");
    }

    /// A one-REF benchmark that profiles cleanly on TRAIN but commits a
    /// load from an unmapped address on REF.
    fn trap_victim() -> ExperimentInput {
        let mut pb = ProgramBuilder::new();
        let main = pb.block("main");
        pb.push(main, Inst::load(Reg(21), Reg(20), 0));
        pb.push(main, Inst::Halt);
        pb.set_entry(main);
        let mut mapped = Memory::new();
        mapped.map_region(0x1000, 4096);
        ExperimentInput {
            name: "trap".into(),
            program: pb.finish().unwrap(),
            train: RunInput {
                memory: mapped,
                init_regs: vec![(Reg(20), 0x1000)],
            },
            refs: vec![RunInput {
                memory: Memory::new(),
                init_regs: vec![(Reg(20), 0xdead_0000)],
            }],
            seed: None,
        }
    }

    /// [`trap_victim`] with its inputs swapped: the TRAIN run faults, so
    /// the benchmark never profiles.
    fn profile_victim() -> ExperimentInput {
        let mut input = trap_victim();
        std::mem::swap(&mut input.train, &mut input.refs[0]);
        input.name = "train-trap".into();
        input.seed = Some(7);
        input
    }

    /// A serial engine with `input` registered under `policy`, and the
    /// baseline 4-wide job on its one REF input.
    fn single_job(input: ExperimentInput, policy: FaultPolicy) -> (Engine, SimJob) {
        let mut engine = Engine::with_workers(1);
        engine.set_fault_policy(policy);
        let bench = engine.add_benchmark(input);
        let job = SimJob {
            bench,
            ref_input: 0,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
            variant: Variant::Baseline,
        };
        (engine, job)
    }

    #[test]
    fn repeated_job_is_served_from_the_memo_unchanged() {
        let opts = TransformOptions::default();
        let (engine, job) = single_job(experiment_input(400), FaultPolicy::default());
        let first = engine.run_job(&job, &opts, 1_000_000);
        let after_first = engine.stats();
        let second = engine.run_job(&job, &opts, 1_000_000);
        assert!(first.is_completed(), "{first:?}");
        // Debug covers every field, `sim_elapsed` included.
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        let stats = engine.stats();
        assert_eq!(stats.sim_jobs, 1, "{stats:?}");
        assert_eq!(stats.sim_memo_hits, 1, "{stats:?}");
        assert_eq!(stats.sim_insts, after_first.sim_insts, "{stats:?}");
        assert_eq!(stats.sim_nanos, after_first.sim_nanos, "{stats:?}");
        assert!(
            stats.summary().contains("    1 memo hits"),
            "{}",
            stats.summary()
        );
    }

    #[test]
    fn guest_trap_is_served_from_the_memo() {
        let opts = TransformOptions::default();
        let (engine, job) = single_job(trap_victim(), FaultPolicy::default());
        let first = engine.run_job(&job, &opts, 1_000_000);
        let second = engine.run_job(&job, &opts, 1_000_000);
        assert!(matches!(first, JobResult::Faulted { .. }), "{first:?}");
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        let stats = engine.stats();
        assert_eq!((stats.sim_jobs, stats.sim_memo_hits), (1, 1), "{stats:?}");
    }

    #[test]
    fn cycle_budget_timeout_is_memoized_per_budget() {
        let opts = TransformOptions::default();
        let budget = |cycles| FaultPolicy {
            max_cycles: Some(cycles),
            ..FaultPolicy::default()
        };
        let (mut engine, job) = single_job(experiment_input(400), budget(1_000));
        let cycles = |r: &JobResult| match r {
            JobResult::TimedOut { cycles, .. } => *cycles,
            other => panic!("expected a timeout, got {other:?}"),
        };
        let first = engine.run_job(&job, &opts, 1_000_000);
        let again = engine.run_job(&job, &opts, 1_000_000);
        assert_eq!(format!("{first:?}"), format!("{again:?}"));
        let stats = engine.stats();
        assert_eq!((stats.sim_jobs, stats.sim_memo_hits), (1, 1), "{stats:?}");

        // A different budget is a different job: it simulates again.
        engine.set_fault_policy(budget(2_000));
        let longer = engine.run_job(&job, &opts, 1_000_000);
        assert!(cycles(&longer) > cycles(&first), "{longer:?} vs {first:?}");
        engine.run_job(&job, &opts, 1_000_000);
        let stats = engine.stats();
        assert_eq!((stats.sim_jobs, stats.sim_memo_hits), (2, 2), "{stats:?}");
    }

    #[test]
    fn wall_clock_timeout_is_never_memoized() {
        let opts = TransformOptions::default();
        // A deadline that has passed when the simulation starts trips at
        // its first deadline check, cycle 0.
        let policy = FaultPolicy {
            job_timeout: Some(Duration::ZERO),
            ..FaultPolicy::default()
        };
        let (engine, job) = single_job(experiment_input(400), policy);
        for _ in 0..2 {
            let outcome = engine.run_job(&job, &opts, 1_000_000);
            assert!(matches!(outcome, JobResult::TimedOut { .. }), "{outcome:?}");
        }
        let stats = engine.stats();
        assert_eq!((stats.sim_jobs, stats.sim_memo_hits), (2, 0), "{stats:?}");
    }

    #[test]
    fn train_fault_fails_each_job_with_the_cached_profile_error() {
        let opts = TransformOptions::default();
        let (engine, job) = single_job(profile_victim(), FaultPolicy::default());
        let jobs = [
            job,
            SimJob {
                variant: Variant::Transformed,
                ..job
            },
        ];
        let mut errors = Vec::new();
        for _ in 0..2 {
            for outcome in engine.run_jobs(&jobs, &opts, 1_000_000) {
                let JobResult::Failed { error, retried, .. } = outcome else {
                    panic!("expected Failed, got {outcome:?}");
                };
                assert!(!retried, "a profile error is not transient");
                assert_eq!(error.stage, Stage::Profile, "{error}");
                assert!(matches!(error.kind, ErrorKind::Profile(_)), "{error}");
                assert_eq!(error.benchmark.as_deref(), Some("train-trap"));
                assert_eq!(error.seed, Some(7));
                errors.push(error.to_string());
            }
        }
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        let stats = engine.stats();
        // One profiling run; the other three requests hit its error.
        assert_eq!(
            (stats.profile_misses, stats.profile_hits),
            (1, 3),
            "{stats:?}"
        );
        assert_eq!((stats.jobs_failed, stats.jobs_retried), (4, 0), "{stats:?}");
        assert_eq!((stats.sim_jobs, stats.sim_memo_hits), (0, 0), "{stats:?}");

        let cells = [SweepCell {
            bench: job.bench,
            machine: job.machine,
            predictor: job.predictor,
        }];
        let err = engine.run_cells(&cells, &opts, 1_000_000).unwrap_err();
        assert_eq!(err.to_string(), errors[0]);
        assert_eq!(engine.stats().profile_misses, 1);
    }

    #[test]
    fn injected_panic_fires_before_the_memo_lookup() {
        let opts = TransformOptions::default();
        let (engine, ids) = engine_with(1, 1);
        let jobs = engine.jobs_for_cells(&[SweepCell {
            bench: ids[0],
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        }]);
        let first = engine.run_jobs(&jobs, &opts, 1_000_000);
        // Job 0 is memoized now; its injected panic must still fire.
        engine.inject_worker_panic(0, 1);
        let second = engine.run_jobs(&jobs, &opts, 1_000_000);
        assert!(second[0].retried());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.expect_completed().stats, b.expect_completed().stats);
        }
        let stats = engine.stats();
        assert_eq!(stats.jobs_retried, 1, "{stats:?}");
        assert_eq!(stats.jobs_failed, 0, "{stats:?}");
        assert_eq!(stats.sim_jobs as usize, jobs.len(), "{stats:?}");
        assert_eq!(stats.sim_memo_hits as usize, jobs.len(), "{stats:?}");
    }

    #[test]
    fn distinct_option_sets_get_distinct_compile_keys() {
        let a = TransformOptions::default();
        let mut b = TransformOptions::default();
        b.max_hoist += 1;
        let mut c = TransformOptions::default();
        c.select.threshold += 0.01;
        let pk = ProfileKey {
            bench: 0,
            predictor: PredictorKind::Combined24KB,
            max_steps: 1,
        };
        let keys: Vec<CompileKey> = [&a, &b, &c]
            .iter()
            .map(|o| CompileKey {
                profile: pk,
                width: 4,
                options: TransformKey::from_options(o),
            })
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn transform_variants_get_distinct_cache_keys() {
        let pk = ProfileKey {
            bench: 0,
            predictor: PredictorKind::Combined24KB,
            max_steps: 1,
        };
        let (engine, ids) = engine_with(1, 1);
        let mut compile_keys = Vec::new();
        let mut disk_keys = Vec::new();
        for kind in TransformKind::ALL {
            let opts = TransformOptions {
                kind,
                ..TransformOptions::default()
            };
            let tkey = TransformKey::from_options(&opts);
            compile_keys.push(CompileKey {
                profile: pk,
                width: 4,
                options: tkey,
            });
            disk_keys.push(engine.pair_disk_key(
                ids[0],
                PredictorKind::Combined24KB,
                1_000_000,
                4,
                &tkey,
            ));
        }
        // Every variant of the same (benchmark, profile, width) gets a
        // distinct in-memory artifact key AND a distinct disk entry.
        for i in 0..compile_keys.len() {
            for j in i + 1..compile_keys.len() {
                assert_ne!(compile_keys[i], compile_keys[j]);
                assert_ne!(disk_keys[i], disk_keys[j]);
            }
        }
    }

    #[test]
    fn pair_disk_cache_roundtrips_per_variant() {
        let dir =
            std::env::temp_dir().join(format!("vanguard-paircache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = FaultPolicy {
            cache_dir: Some(dir.clone()),
            ..FaultPolicy::default()
        };
        let kinds = [TransformKind::Vanguard, TransformKind::Meld];

        let (mut first, ids) = engine_with(1, 1);
        first.set_fault_policy(policy.clone());
        let mut originals = Vec::new();
        for kind in kinds {
            let opts = TransformOptions {
                kind,
                ..TransformOptions::default()
            };
            originals.push(
                first
                    .compile_pair(
                        ids[0],
                        PredictorKind::Combined24KB,
                        MachineConfig::four_wide(),
                        &opts,
                        1_000_000,
                    )
                    .unwrap(),
            );
        }
        assert_eq!(first.stats().pair_disk_hits, 0);
        // The two variants occupy two distinct disk entries, and each
        // pair is one self-contained file: no separate program images.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.iter().filter(|n| n.starts_with("pair-")).count(), 2);
        assert!(!names.iter().any(|n| n.starts_with("image-")), "{names:?}");

        // A fresh engine (empty in-memory caches) is served from disk,
        // bit-identically per variant.
        let (mut second, ids2) = engine_with(1, 1);
        second.set_fault_policy(policy);
        for (kind, original) in kinds.into_iter().zip(&originals) {
            let opts = TransformOptions {
                kind,
                ..TransformOptions::default()
            };
            let pair = second
                .compile_pair(
                    ids2[0],
                    PredictorKind::Combined24KB,
                    MachineConfig::four_wide(),
                    &opts,
                    1_000_000,
                )
                .unwrap();
            assert_eq!(*pair.baseline, *original.baseline);
            assert_eq!(*pair.transformed, *original.transformed);
            assert_eq!(pair.report.converted, original.report.converted);
            assert_eq!(pair.report.skipped, original.report.skipped);
            assert_eq!(pair.report.melded, original.report.melded);
            assert_eq!(
                pair.report.forward_branches,
                original.report.forward_branches
            );
        }
        assert_eq!(second.stats().pair_disk_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh cache directory for one test.
    fn temp_cache(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vanguard-results-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Three benchmarks at two widths on a two-worker engine with
    /// `cache_dir`: twelve distinct jobs.
    fn journal_engine(cache_dir: Option<PathBuf>) -> (Engine, Vec<SimJob>) {
        let (mut engine, ids) = engine_with(3, 2);
        engine.set_fault_policy(FaultPolicy {
            cache_dir,
            ..FaultPolicy::default()
        });
        let cells: Vec<SweepCell> = ids
            .iter()
            .flat_map(|&bench| {
                [MachineConfig::two_wide(), MachineConfig::four_wide()]
                    .into_iter()
                    .map(move |machine| SweepCell {
                        bench,
                        machine,
                        predictor: PredictorKind::Combined24KB,
                    })
            })
            .collect();
        let jobs = engine.jobs_for_cells(&cells);
        (engine, jobs)
    }

    fn run_stats(engine: &Engine, jobs: &[SimJob]) -> Vec<SimStats> {
        engine
            .run_jobs(jobs, &TransformOptions::default(), 1_000_000)
            .iter()
            .map(|r| r.expect_completed().stats)
            .collect()
    }

    /// The journal job list's statistics from an engine without a cache.
    fn uncached_stats() -> Vec<SimStats> {
        let (engine, jobs) = journal_engine(None);
        run_stats(&engine, &jobs)
    }

    fn results_journal(dir: &std::path::Path) -> crate::Journal {
        crate::Journal::new(dir.join(crate::results::RESULTS_FILE))
    }

    #[test]
    fn half_journaled_job_list_simulates_the_other_half() {
        let dir = temp_cache("half");
        let (first, jobs) = journal_engine(Some(dir.clone()));
        let half = jobs.len() / 2;
        run_stats(&first, &jobs[..half]);
        assert_eq!(results_journal(&dir).read().unwrap().records.len(), half);

        let (second, jobs) = journal_engine(Some(dir.clone()));
        assert_eq!(run_stats(&second, &jobs), uncached_stats());
        let stats = second.stats();
        assert_eq!(stats.sim_jobs as usize, jobs.len() - half, "{stats:?}");
        assert_eq!(stats.sim_disk_hits as usize, half, "{stats:?}");
        assert!(
            stats
                .summary()
                .contains(&format!("{half:>5} journal hits,")),
            "{}",
            stats.summary()
        );
        let journal = results_journal(&dir).read().unwrap();
        assert_eq!(journal.records.len(), jobs.len());
        assert!(journal.duplicate_keys().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_journal_records_are_resimulated_never_served() {
        let reference = uncached_stats();
        for damage in ["truncated", "bitflipped"] {
            let dir = temp_cache(damage);
            let (first, jobs) = journal_engine(Some(dir.clone()));
            run_stats(&first, &jobs);
            let journal = results_journal(&dir);
            let mut bytes = std::fs::read(journal.path()).unwrap();
            let len = bytes.len();
            match damage {
                "truncated" => bytes.truncate(len - 5),
                _ => bytes[len / 2] ^= 0x10,
            }
            std::fs::write(journal.path(), &bytes).unwrap();
            let kept = journal.read().unwrap().records.len();
            assert!(kept < jobs.len(), "{damage}: {kept} records survive");

            let (second, jobs) = journal_engine(Some(dir.clone()));
            assert_eq!(run_stats(&second, &jobs), reference, "{damage}");
            let stats = second.stats();
            assert_eq!(stats.sim_jobs as usize, jobs.len() - kept, "{damage}");
            assert_eq!(stats.sim_disk_hits as usize, kept, "{damage}");
            // The re-simulated jobs were journaled again after the cut.
            let healed = journal.read().unwrap();
            assert_eq!(healed.records.len(), jobs.len(), "{damage}");
            assert_eq!(healed.dropped_bytes, 0, "{damage}");
            assert!(healed.duplicate_keys().is_empty(), "{damage}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unwritable_cache_dir_counts_failed_appends_and_fails_no_job() {
        let dir = temp_cache("unwritable");
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let (engine, jobs) = journal_engine(Some(blocker.join("cache")));
        assert_eq!(run_stats(&engine, &jobs), uncached_stats());
        let stats = engine.stats();
        assert_eq!(stats.jobs_failed, 0, "{stats:?}");
        assert_eq!(stats.sim_jobs as usize, jobs.len(), "{stats:?}");
        // Every profile store, pair store and journal append failed.
        assert_eq!(
            stats.cache_store_failures,
            stats.profile_misses + stats.compile_misses + stats.sim_jobs,
            "{stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_journal_results_file_degrades_to_simulating() {
        let dir = temp_cache("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(crate::results::RESULTS_FILE);
        std::fs::write(&path, b"not a journal at all").unwrap();
        let (engine, jobs) = journal_engine(Some(dir.clone()));
        assert_eq!(run_stats(&engine, &jobs), uncached_stats());
        let stats = engine.stats();
        assert_eq!(stats.jobs_failed, 0, "{stats:?}");
        assert_eq!(stats.sim_jobs as usize, jobs.len(), "{stats:?}");
        assert_eq!(stats.sim_disk_hits, 0, "{stats:?}");
        assert_eq!(stats.cache_store_failures, stats.sim_jobs, "{stats:?}");
        // The foreign file is left as it was.
        assert_eq!(std::fs::read(&path).unwrap(), b"not a journal at all");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A countdown loop whose trip count is `r1` on entry, with `trips`
    /// in `r1` for TRAIN and REF alike.
    fn countdown(trips: u64) -> ExperimentInput {
        let mut pb = ProgramBuilder::new();
        let spin = pb.block("spin");
        let done = pb.block("done");
        pb.push(
            spin,
            Inst::alu(AluOp::Sub, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)),
        );
        pb.push(
            spin,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(2),
                a: Reg(1),
                b: Operand::Imm(0),
            },
        );
        pb.push(
            spin,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(2),
                target: spin,
            },
        );
        pb.fallthrough(spin, done);
        pb.push(done, Inst::Halt);
        pb.set_entry(spin);
        let input = RunInput {
            memory: Memory::new(),
            init_regs: vec![(Reg(1), trips)],
        };
        ExperimentInput {
            name: "countdown".into(),
            program: pb.finish().unwrap(),
            train: input.clone(),
            refs: vec![input],
            seed: None,
        }
    }

    /// Quick and full scale differ only in the iteration count each
    /// input's registers carry, so one cache directory must keep their
    /// profiles and results apart.
    #[test]
    fn inputs_differing_only_in_registers_share_no_cache_entry() {
        let dir = temp_cache("regs");
        let cached = FaultPolicy {
            cache_dir: Some(dir.clone()),
            ..FaultPolicy::default()
        };
        let opts = TransformOptions::default();
        let run = |trips, policy: &FaultPolicy| {
            let (engine, job) = single_job(countdown(trips), policy.clone());
            let stats = engine
                .run_job(&job, &opts, 1_000_000)
                .expect_completed()
                .stats;
            (stats, engine.stats())
        };
        let (short, _) = run(100, &cached);
        let (long, counters) = run(300, &cached);
        assert!(long.cycles > short.cycles, "{long:?} vs {short:?}");
        assert_eq!(long, run(300, &FaultPolicy::default()).0);
        assert_eq!(
            (counters.profile_disk_hits, counters.sim_disk_hits),
            (0, 0),
            "{counters:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_disk_producers_store_valid_entries() {
        let dir = std::env::temp_dir().join(format!("vanguard-race-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = FaultPolicy {
            cache_dir: Some(dir.clone()),
            ..FaultPolicy::default()
        };
        let benches = 2;
        let matrix: Vec<(usize, MachineConfig, TransformKind)> = (0..benches)
            .flat_map(|bench| {
                MachineConfig::all_widths()
                    .into_iter()
                    .flat_map(move |machine| TransformKind::ALL.map(|kind| (bench, machine, kind)))
            })
            .collect();
        let compile_all = |engine: &Engine| -> Vec<String> {
            matrix
                .iter()
                .map(|&(bench, machine, kind)| {
                    let opts = TransformOptions {
                        kind,
                        ..TransformOptions::default()
                    };
                    let pair = engine
                        .compile_pair(
                            bench,
                            PredictorKind::Combined24KB,
                            machine,
                            &opts,
                            1_000_000,
                        )
                        .unwrap();
                    format!(
                        "{}{}{:?}",
                        pair.baseline.disassemble(),
                        pair.transformed.disassemble(),
                        pair.report.converted
                    )
                })
                .collect()
        };
        let disk_engine = || {
            let (mut engine, _) = engine_with(benches, 1);
            engine.set_fault_policy(policy.clone());
            engine
        };
        let (memory, _) = engine_with(benches, 1);
        let reference = compile_all(&memory);

        // Two engines on one cache directory miss every entry at once,
        // both compute, and both store: the stores race.
        let racers = [disk_engine(), disk_engine()];
        let start = std::sync::Barrier::new(racers.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = racers
                .iter()
                .map(|engine| {
                    scope.spawn(|| {
                        start.wait();
                        compile_all(engine)
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap(), reference);
            }
        });
        for engine in &racers {
            let stats = engine.stats();
            assert_eq!(stats.cache_corrupt, 0, "{stats:?}");
            assert_eq!(stats.cache_store_failures, 0, "{stats:?}");
        }

        // A fresh engine is served every profile and pair from disk.
        let warm = disk_engine();
        assert_eq!(compile_all(&warm), reference);
        let stats = warm.stats();
        assert_eq!(stats.pair_disk_hits as usize, matrix.len(), "{stats:?}");
        assert_eq!(stats.compile_misses as usize, matrix.len(), "{stats:?}");
        assert_eq!(stats.profile_disk_hits as usize, benches, "{stats:?}");
        assert_eq!(stats.profile_misses as usize, benches, "{stats:?}");
        assert_eq!(stats.cache_corrupt, 0, "{stats:?}");
        let claims = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("claim-"))
            .count();
        assert_eq!(claims, 0, "no claim file is left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
