//! Sharded, resumable sweep service (DESIGN.md §7.11).
//!
//! A *sweep* is the paper's fig8-shaped grid — suite × widths ×
//! predictors × transform kinds — flattened to a deterministic list of
//! [`PlannedJob`]s, each keyed by the engine's content-addressed
//! [`job_key`](vanguard_core::engine::Engine::job_key). The service
//! runs that list across `VANGUARD_SHARDS` worker *processes* that
//! steal work off a shared [`Journal`]:
//!
//! * every completed job appends one checksummed record (key →
//!   encoded outcome) to the journal, under an exclusive file lock;
//! * workers claim jobs with non-blocking OS file locks on
//!   `claim-job-<key>.lock` files in the shared `VANGUARD_CACHE_DIR`
//!   directory (`try_claim_leased`), so two workers never run the
//!   same job and a `SIGKILL`ed worker's claim evaporates with it: its
//!   leftover file is unlocked, and the next attempt simply wins it;
//! * claims carry a *lease* (`VANGUARD_CLAIM_LEASE_MS`): the holder's
//!   heartbeat thread refreshes the claim file's mtime, and a live
//!   worker treats a claim whose lease expired as dead and **steals**
//!   the job — [`Journal::append_new`] dedups under the append lock,
//!   so even a wedged-then-revived holder can't journal a duplicate;
//! * profiles and compiled pairs are cached in the same store, one
//!   checksummed entry each, so concurrent workers share artifacts
//!   instead of recompiling them;
//! * when a whole worker fleet dies mid-sweep, the parent respawns it
//!   (up to [`ShardOptions::max_respawns`]) — the new fleet wins the
//!   dead workers' claims and finishes with no manual `resume`.
//!
//! The invariant the whole design serves: the merged result of a
//! sharded run — at any shard count, across any kill/resume split — is
//! **byte-identical** to a serial single-process run of the same
//! request. The `kill-and-resume` fault class and the CI `sweep-resume`
//! job enforce it.
//!
//! The module is the library behind the `vanguard-sweep` binary (one-
//! shot runs and `resume`) and the kill-and-resume scenario of
//! [`crate::faultinject`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};
use vanguard_core::engine::{
    Engine, FaultPolicy, JobResult, PredictorKind, SimJob, SweepCell, Variant,
    DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::journal::COMPACT_BYTES_ENV;
use vanguard_core::{Journal, JournalSnapshot, TransformKind, TransformOptions};
use vanguard_sim::{MachineConfig, SimStats};
use vanguard_workloads::suite;

use crate::{quick_spec, to_experiment_input, BenchScale};

/// First line of a sweep request file.
pub const REQUEST_MAGIC: &str = "VGS1";

/// Env var marking a process as a sweep worker (set by the parent on
/// the re-exec'd children; checked by [`maybe_run_worker`]).
pub const WORKER_ENV: &str = "VANGUARD_SWEEP_WORKER";
/// Env var carrying the rendered request text to a worker.
pub const REQUEST_ENV: &str = "VANGUARD_SWEEP_REQUEST";
/// Env var carrying the journal path to a worker.
pub const JOURNAL_ENV: &str = "VANGUARD_SWEEP_JOURNAL";
/// Env var carrying [`ShardOptions::throttle_ms`] (`--throttle-ms`) to a
/// worker: a per-job sleep in milliseconds before running, so a fault
/// injector can reliably observe (and kill) a sweep mid-flight.
pub const THROTTLE_ENV: &str = "VANGUARD_SWEEP_THROTTLE_MS";
/// Env var: default worker-process count for the `vanguard-sweep`
/// binary.
pub const SHARDS_ENV: &str = "VANGUARD_SHARDS";
/// Env var: worker executable override for harnesses whose own binary
/// has no [`maybe_run_worker`] hook (libtest binaries must never
/// re-exec themselves — that would recursively run the test suite).
pub const WORKER_EXE_ENV: &str = "VANGUARD_SWEEP_WORKER_EXE";
/// Env var: claim-lease duration in milliseconds. A claim whose
/// heartbeat is older than this is treated as dead and its job stolen.
pub const LEASE_ENV: &str = "VANGUARD_CLAIM_LEASE_MS";
/// Default claim lease: long enough that a healthy worker's heartbeat
/// (lease/4) never lapses under load, short enough that a dead shard's
/// jobs are stolen within a minute.
pub const DEFAULT_LEASE_MS: u64 = 30_000;
/// Env var (fault injection): once the journal holds this many records,
/// workers stop taking jobs and wait for the parent's SIGKILL (released
/// by the marker file from [`kill_marker`]). Without the hold the fleet
/// races the parent's poll loop and can finish the sweep before the
/// kill lands, turning every kill-based gate flaky under load.
pub const KILL_HOLD_ENV: &str = "VANGUARD_SWEEP_KILL_HOLD";

/// The marker the parent drops next to the journal right before firing
/// its `kill_after` SIGKILL: held workers (see [`KILL_HOLD_ENV`])
/// resume when it appears, so wound-mode survivors finish the sweep.
pub fn kill_marker(journal: &Path) -> PathBuf {
    PathBuf::from(format!("{}.kill-fired", journal.display()))
}

/// The claim lease from `VANGUARD_CLAIM_LEASE_MS` (default
/// [`DEFAULT_LEASE_MS`]; zero and garbage fall back to the default).
fn claim_lease_from_env() -> Duration {
    let ms = std::env::var(LEASE_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(DEFAULT_LEASE_MS);
    Duration::from_millis(ms)
}

/// The outcome of a lease-aware claim attempt ([`try_claim_leased`]).
#[derive(Debug)]
pub(crate) enum ClaimAttempt {
    /// This caller won the claim (and stamped its heartbeat).
    Won(ClaimGuard),
    /// Another process holds the claim and its heartbeat is fresh —
    /// let it work.
    Held,
    /// Another process holds the claim but has not refreshed its
    /// heartbeat within the lease: treat the holder as dead and steal
    /// the work (the caller must make its side effects idempotent —
    /// e.g. journal with [`Journal::append_new`]).
    Expired,
}

/// An exclusive cross-process claim on one job, released (and its claim
/// file removed, best-effort) on drop. See [`try_claim_leased`].
#[derive(Debug)]
pub(crate) struct ClaimGuard {
    file: File,
    path: PathBuf,
}

impl ClaimGuard {
    /// The claim file path, for refreshing the lease with
    /// [`heartbeat_claim`] (from a dedicated thread, say).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        let _ = File::unlock(&self.file);
        let _ = fs::remove_file(&self.path);
    }
}

/// Claims job `key` without blocking. The claim is an OS file lock on
/// `claim-job-<key:016x>.lock` in `dir`, so a `SIGKILL`ed holder
/// releases it with its process and its leftover file is won by the
/// next attempt, however old. The file's modification time is its
/// holder's *heartbeat* (stamped on win, refreshed via
/// [`heartbeat_claim`]). A contended claim with a fresh heartbeat is
/// [`ClaimAttempt::Held`], so a worker moves on to the next job rather
/// than convoying. A contended claim whose heartbeat is older than
/// `lease` is [`ClaimAttempt::Expired`] — the holder is alive but
/// wedged — so the caller should steal the work and rely on an
/// idempotent completion path for correctness.
///
/// # Errors
///
/// Returns the I/O error from creating or locking the claim file.
pub(crate) fn try_claim_leased(dir: &Path, key: u64, lease: Duration) -> io::Result<ClaimAttempt> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("claim-job-{key:016x}.lock"));
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)?;
    match file.try_lock() {
        Ok(()) => {
            heartbeat_claim(&path); // a stale file must read as freshly held
            Ok(ClaimAttempt::Won(ClaimGuard { file, path }))
        }
        Err(_) => match claim_age(&path) {
            Some(age) if age > lease => Ok(ClaimAttempt::Expired),
            _ => Ok(ClaimAttempt::Held),
        },
    }
}

/// Refreshes a claim's lease heartbeat: appends two bytes to the claim
/// file at `path`, bumping its modification time. Callable by path, so a
/// worker's heartbeat thread needs only the path of the claim it holds
/// (the lock is advisory, so the holder's own lock never blocks the
/// write). A holder that stops heartbeating for longer than the lease is
/// treated as dead by [`try_claim_leased`]. Best-effort — a failed
/// heartbeat only risks a benign steal.
fn heartbeat_claim(path: &Path) {
    if let Ok(mut f) = OpenOptions::new().append(true).open(path) {
        let _ = f.write_all(b"hb");
    }
}

/// The heartbeat age of a claim file (its modification time), or `None`
/// when the file vanished or the clock is skewed into the future.
fn claim_age(path: &Path) -> Option<Duration> {
    let mtime = fs::metadata(path).ok()?.modified().ok()?;
    SystemTime::now().duration_since(mtime).ok()
}

/// Stable CLI name of a predictor rung.
pub fn predictor_name(p: PredictorKind) -> &'static str {
    match p {
        PredictorKind::Bimodal8K => "bimodal8k",
        PredictorKind::Combined6KB => "combined6kb",
        PredictorKind::Combined24KB => "combined24kb",
        PredictorKind::TwoLevelLocal => "twolevel-local",
        PredictorKind::Tage32KB => "tage32kb",
        PredictorKind::IslTage64KB => "isltage64kb",
    }
}

/// Parses a [`predictor_name`] back to the rung.
pub fn parse_predictor(s: &str) -> Option<PredictorKind> {
    [
        PredictorKind::Bimodal8K,
        PredictorKind::Combined6KB,
        PredictorKind::Combined24KB,
        PredictorKind::TwoLevelLocal,
        PredictorKind::Tage32KB,
        PredictorKind::IslTage64KB,
    ]
    .into_iter()
    .find(|&p| predictor_name(p) == s)
}

fn machine_for_width(width: usize) -> Option<MachineConfig> {
    match width {
        2 => Some(MachineConfig::two_wide()),
        4 => Some(MachineConfig::four_wide()),
        8 => Some(MachineConfig::eight_wide()),
        _ => None,
    }
}

/// One sweep request: the grid to run, in canonical `VGS1` text form.
///
/// ```text
/// VGS1
/// suite spec2006-int 2
/// widths 4
/// predictors combined24kb
/// transforms vanguard meld
/// scale quick
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepRequest {
    /// Benchmark suite name (`spec2006-int`, `spec2006-fp`,
    /// `spec2000-int`, `spec2000-fp`).
    pub suite: String,
    /// Number of suite benchmarks to take (0 = the whole suite).
    pub count: usize,
    /// Machine widths (2, 4, 8).
    pub widths: Vec<usize>,
    /// Predictor rungs.
    pub predictors: Vec<PredictorKind>,
    /// Transform kinds.
    pub kinds: Vec<TransformKind>,
    /// Iteration scale.
    pub scale: BenchScale,
}

impl SweepRequest {
    /// A CI-sized request: two benchmarks, one width, baseline
    /// predictor, vanguard + meld — 8 jobs, seconds of work.
    pub fn ci_quick() -> SweepRequest {
        SweepRequest {
            suite: "spec2006-int".into(),
            count: 2,
            widths: vec![4],
            predictors: vec![PredictorKind::Combined24KB],
            kinds: vec![TransformKind::Vanguard, TransformKind::Meld],
            scale: BenchScale::Quick,
        }
    }

    /// Parses the `VGS1` text form. Unknown or duplicate lines are
    /// errors; `widths`/`predictors`/`transforms`/`scale` default to
    /// `4` / `combined24kb` / `vanguard` / `quick` when absent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<SweepRequest, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some(REQUEST_MAGIC) {
            return Err(format!("request must start with `{REQUEST_MAGIC}`"));
        }
        let mut suite: Option<(String, usize)> = None;
        let mut widths: Option<Vec<usize>> = None;
        let mut predictors: Option<Vec<PredictorKind>> = None;
        let mut kinds: Option<Vec<TransformKind>> = None;
        let mut scale: Option<BenchScale> = None;
        for line in lines {
            let (tag, rest) = line
                .split_once(' ')
                .ok_or(format!("malformed line `{line}`"))?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let dup = |n: &str| format!("duplicate `{n}` line");
            match tag {
                "suite" => {
                    if suite.is_some() {
                        return Err(dup("suite"));
                    }
                    let name = fields.first().ok_or("suite line needs a name")?.to_string();
                    let count = match fields.get(1) {
                        Some(c) => c.parse().map_err(|e| format!("suite count: {e}"))?,
                        None => 0,
                    };
                    suite = Some((name, count));
                }
                "widths" => {
                    if widths.is_some() {
                        return Err(dup("widths"));
                    }
                    let parsed: Result<Vec<usize>, String> = fields
                        .iter()
                        .map(|f| {
                            let w: usize = f.parse().map_err(|e| format!("width: {e}"))?;
                            machine_for_width(w).ok_or(format!("unsupported width {w}"))?;
                            Ok(w)
                        })
                        .collect();
                    widths = Some(parsed?);
                }
                "predictors" => {
                    if predictors.is_some() {
                        return Err(dup("predictors"));
                    }
                    let parsed: Result<Vec<PredictorKind>, String> = fields
                        .iter()
                        .map(|f| parse_predictor(f).ok_or(format!("unknown predictor `{f}`")))
                        .collect();
                    predictors = Some(parsed?);
                }
                "transforms" => {
                    if kinds.is_some() {
                        return Err(dup("transforms"));
                    }
                    let parsed: Result<Vec<TransformKind>, String> = fields
                        .iter()
                        .map(|f| TransformKind::parse(f).ok_or(format!("unknown transform `{f}`")))
                        .collect();
                    kinds = Some(parsed?);
                }
                "scale" => {
                    if scale.is_some() {
                        return Err(dup("scale"));
                    }
                    scale = Some(match fields.first() {
                        Some(&"quick") => BenchScale::Quick,
                        Some(&"full") => BenchScale::Full,
                        other => return Err(format!("unknown scale {other:?}")),
                    });
                }
                other => return Err(format!("unknown request line `{other}`")),
            }
        }
        let (suite, count) = suite.ok_or("request has no `suite` line")?;
        let request = SweepRequest {
            suite,
            count,
            widths: widths.unwrap_or_else(|| vec![4]),
            predictors: predictors.unwrap_or_else(|| vec![PredictorKind::Combined24KB]),
            kinds: kinds.unwrap_or_else(|| vec![TransformKind::Vanguard]),
            scale: scale.unwrap_or(BenchScale::Quick),
        };
        if request.widths.is_empty() || request.predictors.is_empty() || request.kinds.is_empty() {
            return Err("request has an empty axis".into());
        }
        Ok(request)
    }

    /// Renders the canonical `VGS1` text form ([`SweepRequest::parse`]
    /// round-trips it).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{REQUEST_MAGIC}");
        let _ = writeln!(out, "suite {} {}", self.suite, self.count);
        let widths: Vec<String> = self.widths.iter().map(|w| w.to_string()).collect();
        let _ = writeln!(out, "widths {}", widths.join(" "));
        let preds: Vec<&str> = self.predictors.iter().map(|&p| predictor_name(p)).collect();
        let _ = writeln!(out, "predictors {}", preds.join(" "));
        let kinds: Vec<&str> = self.kinds.iter().map(|k| k.name()).collect();
        let _ = writeln!(out, "transforms {}", kinds.join(" "));
        let _ = writeln!(
            out,
            "scale {}",
            match self.scale {
                BenchScale::Quick => "quick",
                BenchScale::Full => "full",
            }
        );
        out
    }
}

/// One planned simulation of a sweep: the engine job plus the transform
/// kind that parameterizes it, keyed for the journal.
#[derive(Clone, Debug)]
pub struct PlannedJob {
    /// Deterministic content-addressed key (journal + claim key).
    pub key: u64,
    /// The transform kind this job runs under.
    pub kind: TransformKind,
    /// The engine job.
    pub job: SimJob,
}

fn kind_options(kind: TransformKind) -> TransformOptions {
    TransformOptions {
        kind,
        ..TransformOptions::default()
    }
}

/// A built sweep: the request resolved against real workloads, with the
/// full deterministic job plan. Construction registers the benchmarks
/// (cheap); no simulation happens until jobs run.
#[derive(Debug)]
pub struct Sweep {
    request: SweepRequest,
    engine: Engine,
    bench_names: Vec<String>,
    plan: Vec<PlannedJob>,
}

impl Sweep {
    /// Builds the sweep under a fault policy (the policy's `cache_dir`
    /// is what workers share artifacts and job claims through).
    ///
    /// # Errors
    ///
    /// Returns a description of an unknown suite or an internal key
    /// collision (two planned jobs hashing identically — a bug, never
    /// an input condition).
    pub fn build(request: SweepRequest, policy: FaultPolicy) -> Result<Sweep, String> {
        let specs = match request.suite.as_str() {
            "spec2006-int" => suite::spec2006_int(),
            "spec2006-fp" => suite::spec2006_fp(),
            "spec2000-int" => suite::spec2000_int(),
            "spec2000-fp" => suite::spec2000_fp(),
            other => return Err(format!("unknown suite `{other}`")),
        };
        let take = if request.count == 0 {
            specs.len()
        } else {
            request.count.min(specs.len())
        };
        let mut engine = Engine::new();
        engine.set_fault_policy(policy);
        let mut bench_ids = Vec::new();
        let mut bench_names = Vec::new();
        for spec in specs.into_iter().take(take) {
            bench_names.push(spec.name.clone());
            let input = to_experiment_input(quick_spec(spec, request.scale).build());
            bench_ids.push(engine.add_benchmark(input));
        }
        // The plan order IS the merged-output order: kind, then
        // predictor, then width, then (bench, ref, variant) exactly as
        // `jobs_for_cells` flattens them. Deterministic by construction.
        let mut plan = Vec::new();
        for &kind in &request.kinds {
            let options = kind_options(kind);
            for &predictor in &request.predictors {
                for &width in &request.widths {
                    let machine = machine_for_width(width).expect("widths validated at parse");
                    let cells: Vec<SweepCell> = bench_ids
                        .iter()
                        .map(|&bench| SweepCell {
                            bench,
                            machine,
                            predictor,
                        })
                        .collect();
                    for job in engine.jobs_for_cells(&cells) {
                        plan.push(PlannedJob {
                            key: engine.job_key(&job, &options, DEFAULT_MAX_PROFILE_STEPS),
                            kind,
                            job,
                        });
                    }
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for pj in &plan {
            if !seen.insert(pj.key) {
                return Err(format!("job key collision on {:016x}", pj.key));
            }
        }
        Ok(Sweep {
            request,
            engine,
            bench_names,
            plan,
        })
    }

    /// The resolved request.
    pub fn request(&self) -> &SweepRequest {
        &self.request
    }

    /// The deterministic job plan (merged-output order).
    pub fn plan(&self) -> &[PlannedJob] {
        &self.plan
    }

    /// Runs one planned job and encodes its outcome as a journal
    /// payload (deterministic: wall-clock and retry metadata excluded).
    pub fn run_job(&self, pj: &PlannedJob) -> String {
        let result =
            self.engine
                .run_job(&pj.job, &kind_options(pj.kind), DEFAULT_MAX_PROFILE_STEPS);
        encode_outcome(&result)
    }

    /// Renders one merged-output line from a planned job and its
    /// recorded payload.
    pub fn line(&self, pj: &PlannedJob, payload: &str) -> String {
        format!(
            "{:016x} {} {} w{} {} ref{} {} | {}",
            pj.key,
            pj.kind.name(),
            predictor_name(pj.job.predictor),
            pj.job.machine.width,
            self.bench_names
                .get(pj.job.bench)
                .map(String::as_str)
                .unwrap_or("?"),
            pj.job.ref_input,
            match pj.job.variant {
                Variant::Baseline => "base",
                Variant::Transformed => "xform",
            },
            payload
        )
    }

    /// Runs every planned job serially in-process, in plan order — the
    /// bit-identity reference for any sharded run.
    pub fn run_serial(&self) -> String {
        let mut out = String::new();
        for pj in &self.plan {
            let payload = self.run_job(pj);
            out.push_str(&self.line(pj, &payload));
            out.push('\n');
        }
        out
    }

    /// Reconstructs the merged output from a journal snapshot, in plan
    /// order. Returns the keys still missing when the sweep is
    /// incomplete.
    ///
    /// # Errors
    ///
    /// The `Err` payload lists every planned key absent from the
    /// snapshot.
    pub fn merged(&self, snapshot: &JournalSnapshot) -> Result<String, Vec<u64>> {
        let by_key: HashMap<u64, &[u8]> = snapshot
            .records
            .iter()
            .map(|r| (r.key, r.payload.as_slice()))
            .collect();
        let missing: Vec<u64> = self
            .plan
            .iter()
            .filter(|pj| !by_key.contains_key(&pj.key))
            .map(|pj| pj.key)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        let mut out = String::new();
        for pj in &self.plan {
            let payload = String::from_utf8_lossy(by_key[&pj.key]);
            out.push_str(&self.line(pj, &payload));
            out.push('\n');
        }
        Ok(out)
    }
}

/// The deterministic scalar projection of a [`SimStats`] (every counter
/// including the memory hierarchy; excludes nothing that distinguishes
/// two runs).
fn stats_words(s: &SimStats) -> [u64; 26] {
    [
        s.cycles,
        s.issued,
        s.issued_wrong_path,
        s.fetched,
        s.predicts,
        s.branches,
        s.branch_mispredicts,
        s.resolves,
        s.resolve_mispredicts,
        s.branch_stall_cycles,
        s.resolve_stall_cycles,
        s.frontend_stall_cycles,
        s.operand_stall_cycles,
        s.fu_stall_cycles,
        s.redirects,
        s.icache_miss_under_mispredict,
        s.icache_stall_cycles,
        s.mem.l1i.hits,
        s.mem.l1i.misses,
        s.mem.l1d.hits,
        s.mem.l1d.misses,
        s.mem.l2.hits,
        s.mem.l2.misses,
        s.mem.l3.hits,
        s.mem.l3.misses,
        s.mem.memory_accesses,
    ]
}

fn single_line(s: String) -> String {
    s.replace('\n', " ")
}

/// Encodes a job outcome as a deterministic journal payload. Wall-clock
/// fields and the retry flag are deliberately excluded: a resumed run
/// must merge byte-identically to an uninterrupted one.
pub fn encode_outcome(result: &JobResult) -> String {
    match result {
        JobResult::Completed(s) => {
            let words: Vec<String> = stats_words(&s.stats).iter().map(u64::to_string).collect();
            format!("ok {}", words.join(" "))
        }
        JobResult::Faulted {
            trap, pc, cycle, ..
        } => single_line(format!("fault pc={pc:#x} cycle={cycle} trap={trap:?}")),
        JobResult::TimedOut { cycles, .. } => format!("timeout cycles={cycles}"),
        JobResult::Failed { error, .. } => single_line(format!("failed {error}")),
    }
}

/// The worker executable for harness-driven sharded runs:
/// `VANGUARD_SWEEP_WORKER_EXE` when set (test binaries point it at the
/// real `vanguard-sweep` binary), the current executable otherwise
/// (binaries with a [`maybe_run_worker`] hook re-exec themselves).
///
/// # Errors
///
/// Returns the error from resolving the current executable path.
pub fn harness_worker_exe() -> io::Result<PathBuf> {
    match std::env::var_os(WORKER_EXE_ENV) {
        Some(path) => Ok(PathBuf::from(path)),
        None => std::env::current_exe(),
    }
}

/// Re-enters the process as a sweep worker when [`WORKER_ENV`] is set.
/// Call this at the very top of `main` in every binary that a sweep
/// parent may spawn (the `vanguard-sweep` and `faultinject` binaries).
/// Never call it from a libtest binary: a test harness re-exec'd as a
/// worker would run the whole test suite instead.
pub fn maybe_run_worker() {
    if std::env::var(WORKER_ENV).as_deref() != Ok("1") {
        return;
    }
    std::process::exit(worker_main());
}

/// The worker loop: parse the request from the environment, then steal
/// unjournaled jobs via non-blocking leased claims until the journal
/// covers the whole plan. A heartbeat thread keeps the worker's
/// currently-held claim fresh; claims whose holder stopped heartbeating
/// for a full lease are stolen, with [`Journal::append_new`]
/// guaranteeing at most one record per job.
fn worker_main() -> i32 {
    let fail = |msg: String| -> i32 {
        eprintln!("[sweep-worker] {msg}");
        1
    };
    let Ok(request_text) = std::env::var(REQUEST_ENV) else {
        return fail(format!("{REQUEST_ENV} not set"));
    };
    let Ok(journal_path) = std::env::var(JOURNAL_ENV) else {
        return fail(format!("{JOURNAL_ENV} not set"));
    };
    let request = match SweepRequest::parse(&request_text) {
        Ok(r) => r,
        Err(e) => return fail(format!("bad request: {e}")),
    };
    let journal = Journal::new(&journal_path);
    let policy = FaultPolicy::from_env();
    let Some(cache_dir) = policy.cache_dir.clone() else {
        return fail("VANGUARD_CACHE_DIR not set".into());
    };
    let sweep = match Sweep::build(request, policy) {
        Ok(s) => s,
        Err(e) => return fail(format!("bad sweep: {e}")),
    };
    let throttle = std::env::var(THROTTLE_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let lease = claim_lease_from_env();
    // Fault injection: once the journal holds this many records, stop
    // taking jobs and wait to be SIGKILLed (or for the parent's marker
    // saying the kill already fired). This is what makes kill-based
    // gates deterministic — the fleet cannot finish before the kill.
    let hold_limit = std::env::var(KILL_HOLD_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    let marker = kill_marker(journal.path());

    // Heartbeat thread: refreshes the claim this worker currently
    // holds, every quarter-lease. If this process is SIGKILLed the
    // heartbeats stop, the lease runs out, and a peer steals the job —
    // that is the self-healing path. The thread ends with the process:
    // `maybe_run_worker` exits as soon as this function returns.
    let current_claim: Arc<Mutex<Option<PathBuf>>> = Arc::new(Mutex::new(None));
    {
        let current = Arc::clone(&current_claim);
        let period = Duration::from_millis((lease.as_millis() as u64 / 4).max(25));
        std::thread::spawn(move || loop {
            if let Ok(slot) = current.lock() {
                if let Some(path) = slot.as_deref() {
                    heartbeat_claim(path);
                }
            }
            std::thread::sleep(period);
        });
    }

    loop {
        let snapshot = match journal.read() {
            Ok(s) => s,
            Err(e) => return fail(format!("journal read: {e}")),
        };
        if let Some(limit) = hold_limit {
            if snapshot.records.len() >= limit && !marker.exists() {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        }
        let mut remaining = false;
        let mut ran = false;
        for pj in sweep.plan() {
            if snapshot.contains(pj.key) {
                continue;
            }
            remaining = true;
            let guard = match try_claim_leased(&cache_dir, pj.key, lease) {
                Ok(ClaimAttempt::Won(guard)) => Some(guard),
                // Lease expired: the holder stopped heartbeating (dead
                // or wedged). Steal the job — append_new dedups if the
                // holder somehow revives and finishes too.
                Ok(ClaimAttempt::Expired) => None,
                // A live worker owns it; steal the next one instead.
                Ok(ClaimAttempt::Held) => continue,
                Err(e) => return fail(format!("claim: {e}")),
            };
            // Re-check under the claim: a previous holder may have
            // journaled this job after our snapshot.
            match journal.read() {
                Ok(fresh) if fresh.contains(pj.key) => continue,
                Ok(_) => {}
                Err(e) => return fail(format!("journal read: {e}")),
            }
            if let (Some(g), Ok(mut slot)) = (&guard, current_claim.lock()) {
                *slot = Some(g.path().to_path_buf());
            }
            if throttle > 0 {
                std::thread::sleep(Duration::from_millis(throttle));
            }
            let payload = sweep.run_job(pj);
            let appended = journal.append_new(pj.key, payload.as_bytes());
            if let Ok(mut slot) = current_claim.lock() {
                *slot = None;
            }
            drop(guard);
            match appended {
                // false = the original holder raced us to the journal;
                // either way the job is recorded exactly once.
                Ok(_) => ran = true,
                Err(e) => return fail(format!("journal append: {e}")),
            }
        }
        if !remaining {
            return 0;
        }
        if !ran {
            // Everything left is claimed by other workers; let them run.
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// The outcome of a sharded parent run.
#[derive(Clone, Copy, Debug)]
pub struct ShardedRun {
    /// Planned jobs with a journal record when the run ended.
    pub completed: usize,
    /// Total planned jobs.
    pub total: usize,
    /// Whether the run was cut short by `kill_after` (the fault
    /// injector's `SIGKILL`).
    pub killed: bool,
}

impl ShardedRun {
    /// Whether every planned job is journaled.
    pub fn complete(&self) -> bool {
        self.completed == self.total
    }
}

/// Options for [`run_sharded`]. Construct with [`ShardOptions::new`]
/// and override the fault-injection and tuning fields as needed.
#[derive(Debug)]
pub struct ShardOptions {
    /// Worker executable to spawn ([`harness_worker_exe`] resolves it).
    pub worker_exe: PathBuf,
    /// Worker-process count (≥ 1).
    pub shards: usize,
    /// Shared artifact store + claim directory for the workers.
    pub cache_dir: PathBuf,
    /// `SIGKILL` workers once this many jobs are journaled (fault
    /// injection); `None` runs to completion.
    pub kill_after: Option<usize>,
    /// How many workers the `kill_after` SIGKILL hits. `None` kills the
    /// whole fleet and aborts the run (the classic kill-and-resume
    /// scenario); `Some(k)` kills `k` workers and lets the run
    /// self-heal — the survivors (or a respawned fleet) win the dead
    /// workers' claims at once, since a killed holder's lock dies with it.
    pub kill_count: Option<usize>,
    /// Per-job worker throttle in milliseconds (fault injection needs
    /// the sweep to be observable mid-flight).
    pub throttle_ms: Option<u64>,
    /// Claim lease override passed to workers (`VANGUARD_CLAIM_LEASE_MS`);
    /// `None` inherits the environment.
    pub lease_ms: Option<u64>,
    /// Journal compaction threshold override passed to workers
    /// (`VANGUARD_JOURNAL_COMPACT_BYTES`); `None` inherits.
    pub compact_bytes: Option<u64>,
    /// Fleet respawns when every worker exits with the plan incomplete
    /// and the run was not deliberately aborted — the self-healing
    /// backstop for a fully-dead fleet.
    pub max_respawns: usize,
}

impl ShardOptions {
    /// Options with the production defaults: no fault injection, no
    /// throttle, environment-inherited lease/compaction, and two fleet
    /// respawns.
    pub fn new(
        worker_exe: impl Into<PathBuf>,
        shards: usize,
        cache_dir: impl Into<PathBuf>,
    ) -> ShardOptions {
        ShardOptions {
            worker_exe: worker_exe.into(),
            shards,
            cache_dir: cache_dir.into(),
            kill_after: None,
            kill_count: None,
            throttle_ms: None,
            lease_ms: None,
            compact_bytes: None,
            max_respawns: 2,
        }
    }
}

/// Runs a sweep across worker processes sharing `journal`, streaming
/// one merged-output line per completed job (completion order) to
/// `stream`. Already-journaled jobs are never re-run — pointing this at
/// a partial journal *is* the resume path.
///
/// # Errors
///
/// Returns the I/O error from spawning workers or reading the journal;
/// worker job failures are journaled outcomes, not errors.
pub fn run_sharded(
    sweep: &Sweep,
    journal: &Journal,
    opts: &ShardOptions,
    stream: &mut dyn Write,
) -> io::Result<ShardedRun> {
    let total = sweep.plan().len();
    let by_key: HashMap<u64, &PlannedJob> = sweep.plan().iter().map(|pj| (pj.key, pj)).collect();
    let spawn_fleet = || -> io::Result<Vec<Child>> {
        (0..opts.shards.max(1))
            .map(|_| {
                let mut cmd = Command::new(&opts.worker_exe);
                cmd.env(WORKER_ENV, "1")
                    .env(REQUEST_ENV, sweep.request().render())
                    .env(JOURNAL_ENV, journal.path())
                    .env("VANGUARD_CACHE_DIR", &opts.cache_dir)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null());
                match opts.throttle_ms {
                    Some(ms) => cmd.env(THROTTLE_ENV, ms.to_string()),
                    None => cmd.env_remove(THROTTLE_ENV),
                };
                if let Some(ms) = opts.lease_ms {
                    cmd.env(LEASE_ENV, ms.to_string());
                }
                if let Some(bytes) = opts.compact_bytes {
                    cmd.env(COMPACT_BYTES_ENV, bytes.to_string());
                }
                match opts.kill_after {
                    Some(limit) => cmd.env(KILL_HOLD_ENV, limit.to_string()),
                    None => cmd.env_remove(KILL_HOLD_ENV),
                };
                cmd.spawn()
            })
            .collect()
    };
    let completed_of = |snapshot: &JournalSnapshot| -> usize {
        sweep
            .plan()
            .iter()
            .filter(|pj| snapshot.contains(pj.key))
            .count()
    };
    let marker = kill_marker(journal.path());
    if opts.kill_after.is_some() {
        let _ = fs::remove_file(&marker); // stale marker from a prior run
    }
    let mut children = spawn_fleet()?;
    let mut streamed = 0usize;
    let mut killed = false;
    let mut kill_fired = false;
    let mut respawns_left = opts.max_respawns;
    loop {
        let snapshot = journal.read()?;
        for record in snapshot.records.iter().skip(streamed) {
            if let Some(pj) = by_key.get(&record.key) {
                let payload = String::from_utf8_lossy(&record.payload);
                writeln!(stream, "{}", sweep.line(pj, &payload))?;
            }
        }
        streamed = snapshot.records.len();
        if let Some(limit) = opts.kill_after {
            if !kill_fired && snapshot.records.len() >= limit {
                // SIGKILL, not a graceful shutdown: the point is to
                // prove the claims + journal survive the worst
                // interruption. kill_count=None aborts the whole run;
                // Some(k) wounds the fleet and expects it to self-heal.
                // The marker releases held survivors (KILL_HOLD_ENV)
                // so wound mode completes after the kill.
                let _ = fs::write(&marker, b"kill");
                let victims = opts
                    .kill_count
                    .unwrap_or(children.len())
                    .min(children.len());
                for child in children.iter_mut().take(victims) {
                    let _ = child.kill();
                }
                kill_fired = true;
                killed = opts.kill_count.is_none();
            }
        }
        let all_exited = children
            .iter_mut()
            .all(|c| matches!(c.try_wait(), Ok(Some(_))));
        if all_exited {
            if killed || completed_of(&snapshot) == total || respawns_left == 0 {
                break;
            }
            // The whole fleet died with work left and nobody asked for
            // an abort: respawn. The fresh workers win the dead
            // workers' claims at once (their locks died with them).
            respawns_left -= 1;
            children = spawn_fleet()?;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for child in &mut children {
        let _ = child.wait();
    }
    let snapshot = journal.read()?;
    Ok(ShardedRun {
        completed: completed_of(&snapshot),
        total,
        killed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vanguard-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_request() -> SweepRequest {
        SweepRequest {
            count: 1,
            kinds: vec![TransformKind::Vanguard],
            ..SweepRequest::ci_quick()
        }
    }

    #[test]
    fn leased_claims_report_held_then_expired() {
        let dir = scratch("lease");
        let long = Duration::from_secs(3600);
        let short = Duration::from_millis(30);
        let won = try_claim_leased(&dir, 5, long).unwrap();
        let ClaimAttempt::Won(guard) = won else {
            panic!("uncontended claim is won: {won:?}");
        };
        assert_eq!(
            guard.path(),
            dir.join(format!("claim-job-{:016x}.lock", 5u64))
        );
        // Contended + fresh heartbeat: held.
        assert!(matches!(
            try_claim_leased(&dir, 5, long).unwrap(),
            ClaimAttempt::Held
        ));
        // Contended + stale heartbeat: expired (steal).
        std::thread::sleep(Duration::from_millis(60));
        assert!(matches!(
            try_claim_leased(&dir, 5, short).unwrap(),
            ClaimAttempt::Expired
        ));
        // A heartbeat refresh makes it held again.
        heartbeat_claim(guard.path());
        assert!(matches!(
            try_claim_leased(&dir, 5, short).unwrap(),
            ClaimAttempt::Held
        ));
        // Released: the file goes, and the next attempt wins.
        drop(guard);
        assert!(matches!(
            try_claim_leased(&dir, 5, short).unwrap(),
            ClaimAttempt::Won(_)
        ));

        // A SIGKILLed holder leaves its claim file behind, unlocked and
        // with a heartbeat far older than the lease. The next attempt
        // wins it outright and re-stamps the heartbeat, so such debris
        // never needs a sweep of its own.
        let leftover = dir.join(format!("claim-job-{:016x}.lock", 9u64));
        File::create(&leftover)
            .unwrap()
            .set_modified(SystemTime::now() - 2 * long)
            .unwrap();
        assert!(claim_age(&leftover).unwrap() > long);
        let won = try_claim_leased(&dir, 9, long).unwrap();
        let ClaimAttempt::Won(revived) = won else {
            panic!("an unlocked leftover claim is won: {won:?}");
        };
        assert_eq!(revived.path(), leftover);
        assert!(
            claim_age(&leftover).unwrap() < long,
            "winning refreshes the heartbeat"
        );
        assert!(matches!(
            try_claim_leased(&dir, 9, long).unwrap(),
            ClaimAttempt::Held
        ));
        drop(revived);
        assert!(!leftover.exists(), "release removes the claim file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_roundtrips_through_text() {
        let request = SweepRequest {
            suite: "spec2006-int".into(),
            count: 3,
            widths: vec![2, 4],
            predictors: vec![PredictorKind::Combined24KB, PredictorKind::Bimodal8K],
            kinds: vec![TransformKind::Vanguard, TransformKind::Stacked],
            scale: BenchScale::Quick,
        };
        assert_eq!(SweepRequest::parse(&request.render()), Ok(request));
    }

    #[test]
    fn request_defaults_and_errors() {
        let parsed = SweepRequest::parse("VGS1\n# comment\nsuite spec2006-int 2\n").unwrap();
        assert_eq!(parsed.widths, vec![4]);
        assert_eq!(parsed.predictors, vec![PredictorKind::Combined24KB]);
        assert_eq!(parsed.kinds, vec![TransformKind::Vanguard]);
        assert_eq!(parsed.scale, BenchScale::Quick);
        assert!(SweepRequest::parse("nope\n").is_err());
        assert!(SweepRequest::parse("VGS1\nwidths 4\n").is_err());
        assert!(SweepRequest::parse("VGS1\nsuite spec2006-int\nwidths 3\n").is_err());
        assert!(SweepRequest::parse("VGS1\nsuite a 1\nsuite a 1\n").is_err());
        // Suite names resolve at build time, not parse time.
        let mystery = SweepRequest::parse("VGS1\nsuite mystery-suite\n").unwrap();
        assert!(Sweep::build(mystery, FaultPolicy::default()).is_err());
    }

    #[test]
    fn plan_is_deterministic_with_unique_keys() {
        let a = Sweep::build(SweepRequest::ci_quick(), FaultPolicy::default()).unwrap();
        let b = Sweep::build(SweepRequest::ci_quick(), FaultPolicy::default()).unwrap();
        assert_eq!(a.plan().len(), 8); // 2 kinds x 2 benches x 2 variants
        let keys_a: Vec<u64> = a.plan().iter().map(|pj| pj.key).collect();
        let keys_b: Vec<u64> = b.plan().iter().map(|pj| pj.key).collect();
        assert_eq!(keys_a, keys_b, "job keys are process-independent");
        let mut sorted = keys_a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys_a.len(), "keys are unique");
    }

    #[test]
    fn merged_journal_matches_serial_run() {
        let dir = scratch("merge");
        let policy = FaultPolicy {
            cache_dir: Some(dir.join("cache")),
            ..FaultPolicy::default()
        };
        let sweep = Sweep::build(tiny_request(), policy).unwrap();
        let serial = sweep.run_serial();

        // Journal the jobs out of order, as racing workers would.
        let journal = Journal::new(dir.join("journal.vgj"));
        let mut order: Vec<&PlannedJob> = sweep.plan().iter().collect();
        order.reverse();
        for pj in order {
            journal
                .append(pj.key, sweep.run_job(pj).as_bytes())
                .unwrap();
        }
        let merged = sweep.merged(&journal.read().unwrap()).unwrap();
        assert_eq!(merged, serial, "merged output is order-independent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_reports_missing_jobs() {
        let sweep = Sweep::build(tiny_request(), FaultPolicy::default()).unwrap();
        let missing = sweep.merged(&JournalSnapshot::default()).unwrap_err();
        assert_eq!(missing.len(), sweep.plan().len());
    }

    #[test]
    fn outcome_payloads_are_deterministic_text() {
        let sweep = Sweep::build(tiny_request(), FaultPolicy::default()).unwrap();
        let pj = &sweep.plan()[0];
        let a = sweep.run_job(pj);
        let b = sweep.run_job(pj);
        assert_eq!(a, b);
        assert!(a.starts_with("ok "), "{a}");
        assert_eq!(a.split(' ').count(), 27, "tag + 26 counters");
    }

    #[test]
    fn predictor_names_roundtrip() {
        for p in [
            PredictorKind::Bimodal8K,
            PredictorKind::Combined6KB,
            PredictorKind::Combined24KB,
            PredictorKind::TwoLevelLocal,
            PredictorKind::Tage32KB,
            PredictorKind::IslTage64KB,
        ] {
            assert_eq!(parse_predictor(predictor_name(p)), Some(p));
        }
        assert_eq!(parse_predictor("perceptron"), None);
    }
}
