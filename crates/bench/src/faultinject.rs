//! Deterministic fault-injection harness: the robustness gate.
//!
//! Each [`FaultClass`] stages one failure mode against a small quick-scale
//! benchmark suite running on the experiment engine, then asserts the
//! engine's containment contract (DESIGN.md §7.8):
//!
//! * the suite **completes** — no process abort, every job yields a
//!   [`JobResult`];
//! * the injected failure surfaces as the *typed* outcome for its class
//!   (`Faulted`, `TimedOut`, a retried/`Recovered` job, a quarantined
//!   corrupt cache entry, or a rerun that resumes off the results
//!   journal), visible in `EngineStats::summary`;
//! * every **unaffected** job's statistics are bit-identical to a clean
//!   run — fault handling never perturbs healthy results.
//!
//! Everything is deterministic in the harness seed: the seed picks the
//! panicked job index, the corrupted cache entry, and the flipped bit,
//! so a failing CI run is replayable with `--seed N`.
//!
//! The module is the library behind the `faultinject` binary and the
//! `tests/fault_recovery.rs` integration tests.

use std::fmt::Write as _;
use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Duration;
use vanguard_core::engine::{
    Engine, FaultPolicy, JobResult, PredictorKind, SimJob, SweepCell, DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::journal::COMPACT_BYTES_ENV;
use vanguard_core::results::RESULTS_FILE;
use vanguard_core::{ExperimentInput, Journal, RunInput, TransformOptions};
use vanguard_isa::{AluOp, CmpKind, CondKind, Inst, Memory, Operand, ProgramBuilder, Reg};
use vanguard_sim::{MachineConfig, SimError, SimStats};
use vanguard_workloads::suite;

use crate::{quick_spec, to_experiment_input, BenchScale};

/// Benchmarks of the fault suite (a prefix of SPEC2006 INT at quick
/// scale — large enough to prove non-perturbation, small enough for CI).
const FAULT_SUITE_SPECS: usize = 4;

/// Declares [`FaultClass`] from one variant list: the enum, the
/// [`FaultClass::ALL`] run order, and the CLI name mapping all derive
/// from the same declaration, so a class added here is automatically in
/// the `--all-classes` suite, the binary's class list, and the
/// `BENCH_robustness.json` refresh — there is no hand-maintained array
/// to forget.
macro_rules! declare_fault_classes {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// A fault class the harness can stage.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum FaultClass {
            $($(#[$doc])* $variant,)+
        }

        impl FaultClass {
            /// Every class, in the order the harness runs them.
            pub const ALL: [FaultClass; [$(FaultClass::$variant),+].len()] =
                [$(FaultClass::$variant),+];

            /// The CLI name of the class.
            pub fn name(self) -> &'static str {
                match self {
                    $(FaultClass::$variant => $name,)+
                }
            }

            /// Parses a `--class` flag value.
            pub fn parse(s: &str) -> Option<FaultClass> {
                FaultClass::ALL.into_iter().find(|c| c.name() == s)
            }
        }
    };
}

declare_fault_classes! {
    /// A guest program traps (committed load fault) on one REF input.
    GuestTrap => "guest-trap",
    /// A guest program wedges in an effectively-infinite loop; the
    /// cycle-budget watchdog must cancel it.
    Hang => "hang",
    /// A worker thread panics mid-job; the retry must recover it.
    WorkerPanic => "worker-panic",
    /// An on-disk profile cache entry is truncated.
    CacheTruncation => "cache-truncation",
    /// A single bit of an on-disk profile cache entry is flipped.
    CacheBitflip => "cache-bitflip",
    /// A `figures fig8 --quick` process aborts (`SIGABRT`) mid-run; a
    /// rerun on the same cache directory must simulate only the jobs its
    /// results journal misses, with no job's side effects run twice and
    /// output byte-identical to an uninterrupted run, at pool sizes 1,
    /// 2, and 4.
    KillAndResume => "kill-and-resume",
    /// A `figures fig8 --quick` process aborts while its results journal
    /// compacts under a tiny threshold; the snapshot + tail must survive
    /// the crash and the rerun must complete with no duplicate or
    /// resurrected records and byte-identical output.
    CompactionUnderKill => "compaction-under-kill",
    /// The artifact cache hits disk pressure: stores fail outright
    /// (simulated `ENOSPC` via a poisoned cache path). The suite
    /// degrades to compute-without-store — counted in `EngineStats`,
    /// never a job failure, bit-identical results.
    CacheEnospc => "cache-enospc",
}

/// One named assertion of a class scenario.
#[derive(Clone, Debug)]
pub struct Check {
    /// What the assertion claims.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Evidence (counts, first mismatch, paths).
    pub detail: String,
}

/// The outcome of staging one fault class.
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// The staged class.
    pub class: FaultClass,
    /// Every assertion the scenario made.
    pub checks: Vec<Check>,
    /// The fault run's `EngineStats::summary` rendering.
    pub summary: String,
}

impl ClassReport {
    /// Whether every check of the scenario held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Watchdog overhead on a clean run (the < 2 % gate of
/// `BENCH_robustness.json`).
#[derive(Clone, Copy, Debug)]
pub struct OverheadReport {
    /// Measurement rounds (min-of-N on each side).
    pub rounds: usize,
    /// Best worker-summed simulate-stage time with watchdogs disabled.
    pub clean_sim_ms: f64,
    /// Best worker-summed simulate-stage time with both watchdogs armed
    /// at non-tripping budgets.
    pub armed_sim_ms: f64,
}

impl OverheadReport {
    /// Relative cost of arming the watchdogs, in percent (clamped at 0:
    /// a faster armed run is measurement noise, not a negative cost).
    pub fn overhead_pct(&self) -> f64 {
        if self.clean_sim_ms <= 0.0 {
            return 0.0;
        }
        ((self.armed_sim_ms - self.clean_sim_ms) / self.clean_sim_ms * 100.0).max(0.0)
    }
}

/// A policy independent of the caller's environment (the harness never
/// wants `VANGUARD_*` variables steering a determinism gate), with a
/// short retry backoff to keep scenario runs fast.
fn isolated_policy() -> FaultPolicy {
    FaultPolicy {
        backoff: Duration::from_millis(1),
        ..FaultPolicy::default()
    }
}

fn suite_inputs() -> Vec<ExperimentInput> {
    suite::spec2006_int()
        .into_iter()
        .take(FAULT_SUITE_SPECS)
        .map(|s| to_experiment_input(quick_spec(s, BenchScale::Quick).build()))
        .collect()
}

/// Builds an engine holding the fault suite (plus an optional victim
/// benchmark appended *after* the suite, so suite job indices match the
/// clean run), returning the flat job list and the suite-only job count.
fn engine_with_suite(
    victim: Option<ExperimentInput>,
    policy: FaultPolicy,
) -> (Engine, Vec<SimJob>, usize) {
    let mut engine = Engine::new();
    engine.set_fault_policy(policy);
    let mut cells = Vec::new();
    for input in suite_inputs() {
        let bench = engine.add_benchmark(input);
        cells.push(SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        });
    }
    let suite_jobs = engine.jobs_for_cells(&cells).len();
    if let Some(v) = victim {
        let bench = engine.add_benchmark(v);
        cells.push(SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        });
    }
    let jobs = engine.jobs_for_cells(&cells);
    (engine, jobs, suite_jobs)
}

fn run_all(engine: &Engine, jobs: &[SimJob]) -> Vec<JobResult> {
    engine.run_jobs(
        jobs,
        &TransformOptions::default(),
        DEFAULT_MAX_PROFILE_STEPS,
    )
}

/// The clean-run reference: per-job [`SimStats`] of the fault suite with
/// no victim and no watchdogs. Every scenario's non-perturbation check
/// compares against this, bitwise.
pub fn clean_suite_stats() -> Vec<SimStats> {
    let (engine, jobs, _) = engine_with_suite(None, isolated_policy());
    run_all(&engine, &jobs)
        .iter()
        .map(|r| r.expect_completed().stats)
        .collect()
}

/// A benchmark that profiles cleanly on TRAIN but commits a load from an
/// unmapped address on REF: the canonical guest-trap victim. The load
/// address comes from `r20`, mapped for TRAIN and wild for REF.
pub fn trap_victim() -> ExperimentInput {
    let mut pb = ProgramBuilder::new();
    let main = pb.block("main");
    pb.push(main, Inst::load(Reg(21), Reg(20), 0));
    pb.push(main, Inst::Halt);
    pb.set_entry(main);
    let program = pb.finish().expect("trap victim is structurally valid");
    let mut train_mem = Memory::new();
    train_mem.map_region(0x1000, 4096);
    ExperimentInput {
        name: "victim-trap".into(),
        program,
        train: RunInput {
            memory: train_mem,
            init_regs: vec![(Reg(20), 0x1000)],
        },
        refs: vec![RunInput {
            memory: Memory::new(),
            init_regs: vec![(Reg(20), 0xdead_0000)],
        }],
        seed: None,
    }
}

/// A benchmark that halts after 64 iterations on TRAIN but spins for
/// 2^64 iterations on REF (`r1` starts at 0 and wraps): the hang victim
/// only a watchdog can stop.
pub fn hang_victim() -> ExperimentInput {
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
    let program = pb.finish().expect("hang victim is structurally valid");
    ExperimentInput {
        name: "victim-hang".into(),
        program,
        train: RunInput {
            memory: Memory::new(),
            init_regs: vec![(Reg(1), 64)],
        },
        refs: vec![RunInput {
            memory: Memory::new(),
            init_regs: vec![(Reg(1), 0)],
        }],
        seed: None,
    }
}

fn push_check(checks: &mut Vec<Check>, name: &'static str, passed: bool, detail: String) {
    checks.push(Check {
        name,
        passed,
        detail,
    });
}

/// Bitwise comparison of suite-job statistics against the clean run,
/// reporting the first divergent job.
fn suite_identical(results: &[JobResult], clean: &[SimStats]) -> (bool, String) {
    if results.len() != clean.len() {
        return (
            false,
            format!("{} results vs {} clean jobs", results.len(), clean.len()),
        );
    }
    for (i, (r, c)) in results.iter().zip(clean).enumerate() {
        match r.success() {
            Some(s) if s.stats == *c => {}
            Some(_) => return (false, format!("job {i} stats diverged from the clean run")),
            None => return (false, format!("job {i} did not complete: {r:?}")),
        }
    }
    (true, format!("{} jobs bit-identical", clean.len()))
}

fn guest_trap_class(scratch: &Path, clean: &[SimStats]) -> ClassReport {
    let qdir = scratch.join("quarantine-guest-trap");
    let _ = fs::remove_dir_all(&qdir);
    let mut policy = isolated_policy();
    policy.quarantine_dir = Some(qdir.clone());
    let (engine, jobs, nsuite) = engine_with_suite(Some(trap_victim()), policy);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let mut checks = Vec::new();

    push_check(
        &mut checks,
        "suite completes without aborting",
        results.len() == jobs.len(),
        format!("{} of {} jobs reported", results.len(), jobs.len()),
    );
    let victim = &results[nsuite..];
    let all_faulted = victim.iter().all(|r| {
        matches!(
            r,
            JobResult::Faulted {
                trap: SimError::LoadFault { .. },
                ..
            }
        )
    });
    push_check(
        &mut checks,
        "victim jobs fault with a typed load trap",
        all_faulted,
        format!("{victim:?}"),
    );
    let (same, detail) = suite_identical(&results[..nsuite], clean);
    push_check(
        &mut checks,
        "unaffected suite is bit-identical",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "summary counts the faulted jobs",
        stats.jobs_faulted == victim.len() as u64 && stats.summary().contains("faulted"),
        format!("jobs_faulted = {}", stats.jobs_faulted),
    );
    let repro_ok = fs::read_dir(&qdir)
        .map(|entries| {
            entries.flatten().any(|e| {
                e.path().join("repro.txt").is_file() && e.path().join("program.asm").is_file()
            })
        })
        .unwrap_or(false);
    push_check(
        &mut checks,
        "quarantine reproducer written",
        repro_ok,
        qdir.display().to_string(),
    );
    // Replayability: a fresh engine reproduces the identical trap.
    let (replay_engine, replay_jobs, _) = {
        let mut engine = Engine::new();
        engine.set_fault_policy(isolated_policy());
        let bench = engine.add_benchmark(trap_victim());
        let jobs = engine.jobs_for_cells(&[SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        }]);
        (engine, jobs, 0usize)
    };
    let replay = run_all(&replay_engine, &replay_jobs);
    let replays = victim.iter().zip(&replay).all(|(a, b)| match (a, b) {
        (
            JobResult::Faulted {
                trap: t1,
                pc: p1,
                cycle: c1,
                ..
            },
            JobResult::Faulted {
                trap: t2,
                pc: p2,
                cycle: c2,
                ..
            },
        ) => t1 == t2 && p1 == p2 && c1 == c2,
        _ => false,
    });
    push_check(
        &mut checks,
        "fault replays deterministically",
        replays,
        format!("{replay:?}"),
    );
    ClassReport {
        class: FaultClass::GuestTrap,
        checks,
        summary: stats.summary(),
    }
}

fn hang_class(clean: &[SimStats]) -> ClassReport {
    // Budget: far above anything a healthy suite job needs, far below
    // the victim's 2^64-iteration spin.
    let budget = clean.iter().map(|s| s.cycles).max().unwrap_or(0) * 4 + 100_000;
    let mut policy = isolated_policy();
    policy.max_cycles = Some(budget);
    let (engine, jobs, nsuite) = engine_with_suite(Some(hang_victim()), policy);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let mut checks = Vec::new();

    let victim = &results[nsuite..];
    let timed_out = victim
        .iter()
        .all(|r| matches!(r, JobResult::TimedOut { cycles, .. } if *cycles >= budget));
    push_check(
        &mut checks,
        "watchdog cancels the wedged jobs",
        timed_out,
        format!("budget {budget} cycles; victim outcomes {victim:?}"),
    );
    let (same, detail) = suite_identical(&results[..nsuite], clean);
    push_check(
        &mut checks,
        "armed watchdog does not perturb the suite",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "summary counts the timed-out jobs",
        stats.jobs_timed_out == victim.len() as u64 && stats.summary().contains("timed out"),
        format!("jobs_timed_out = {}", stats.jobs_timed_out),
    );
    ClassReport {
        class: FaultClass::Hang,
        checks,
        summary: stats.summary(),
    }
}

fn worker_panic_class(seed: u64, clean: &[SimStats]) -> ClassReport {
    let (engine, jobs, _) = engine_with_suite(None, isolated_policy());
    let target = (seed as usize) % jobs.len();
    engine.inject_worker_panic(target, 1);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let mut checks = Vec::new();

    push_check(
        &mut checks,
        "panicked job recovers via retry",
        results[target].is_completed() && results[target].retried(),
        format!("job {target}: {:?}", results[target]),
    );
    let (same, detail) = suite_identical(&results, clean);
    push_check(
        &mut checks,
        "recovered run is bit-identical to clean",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "summary counts the retry, no failures",
        stats.jobs_retried == 1 && stats.jobs_failed == 0 && stats.summary().contains("retried"),
        format!(
            "jobs_retried = {}, jobs_failed = {}",
            stats.jobs_retried, stats.jobs_failed
        ),
    );
    ClassReport {
        class: FaultClass::WorkerPanic,
        checks,
        summary: stats.summary(),
    }
}

/// Truncates a cache entry to half its length.
fn truncate_entry(path: &Path) -> std::io::Result<()> {
    let data = fs::read(path)?;
    fs::write(path, &data[..data.len() / 2])
}

/// Flips one seed-chosen bit of a cache entry.
fn bitflip_entry(path: &Path, seed: u64) -> std::io::Result<()> {
    let mut data = fs::read(path)?;
    let i = if data.len() > 21 {
        20 + (seed as usize % (data.len() - 20))
    } else {
        data.len().saturating_sub(1)
    };
    data[i] ^= 1 << (seed % 8) as u8;
    fs::write(path, &data)
}

/// Removes the results journal (and its compaction snapshot) from a
/// cache directory, keeping the artifact entries.
fn forget_results(cache_dir: &Path) {
    let journal = Journal::new(cache_dir.join(RESULTS_FILE));
    let _ = fs::remove_file(journal.snapshot_path());
    let _ = fs::remove_file(journal.path());
}

fn cache_class(class: FaultClass, seed: u64, scratch: &Path, clean: &[SimStats]) -> ClassReport {
    let cdir = scratch.join(format!("cache-{}", class.name()));
    let _ = fs::remove_dir_all(&cdir);
    let mut policy = isolated_policy();
    policy.cache_dir = Some(cdir.clone());
    let mut checks = Vec::new();

    // Populate the disk cache with a throwaway engine.
    {
        let (engine, jobs, _) = engine_with_suite(None, policy.clone());
        run_all(&engine, &jobs);
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(&cdir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "bin"))
                .collect()
        })
        .unwrap_or_default();
    entries.sort();
    push_check(
        &mut checks,
        "disk cache populated",
        !entries.is_empty(),
        format!("{} entries in {}", entries.len(), cdir.display()),
    );
    if entries.is_empty() {
        return ClassReport {
            class,
            checks,
            summary: String::new(),
        };
    }
    let target = &entries[seed as usize % entries.len()];
    let corrupted = match class {
        FaultClass::CacheTruncation => truncate_entry(target),
        _ => bitflip_entry(target, seed),
    };
    push_check(
        &mut checks,
        "entry corrupted on disk",
        corrupted.is_ok(),
        target.display().to_string(),
    );

    // Recovery: a fresh engine over the damaged cache. The populating
    // run journaled every result beside the artifacts, and a journaled
    // job never loads its artifacts, so the journal goes first.
    forget_results(&cdir);
    let (engine, jobs, _) = engine_with_suite(None, policy.clone());
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let (same, detail) = suite_identical(&results, clean);
    push_check(
        &mut checks,
        "corrupt entry evicted and recomputed bit-identically",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "corruption detected and counted",
        stats.cache_corrupt >= 1,
        format!("cache_corrupt = {}", stats.cache_corrupt),
    );
    let quarantined = fs::read_dir(cdir.join("quarantine"))
        .map(|rd| rd.count() >= 1)
        .unwrap_or(false);
    push_check(
        &mut checks,
        "corrupt entry quarantined, not deleted silently",
        quarantined,
        cdir.join("quarantine").display().to_string(),
    );
    // Self-healing: the recomputed entry was re-stored, so a third
    // engine, again without the journal, sees a fully healthy cache.
    forget_results(&cdir);
    let (healed, jobs2, _) = engine_with_suite(None, policy);
    run_all(&healed, &jobs2);
    push_check(
        &mut checks,
        "cache self-heals after recompute",
        healed.stats().cache_corrupt == 0,
        format!("cache_corrupt = {}", healed.stats().cache_corrupt),
    );
    ClassReport {
        class,
        checks,
        summary: stats.summary(),
    }
}

/// Pool sizes (`VANGUARD_THREADS`) the kill-and-resume scenario must
/// hold at.
const KILL_RESUME_THREADS: [usize; 3] = [1, 2, 4];

/// The run the kill-and-resume classes interrupt: Figure 8 at quick
/// scale, 72 distinct jobs.
const RESUMED_RUN: [&str; 2] = ["fig8", "--quick"];

/// Runs the `figures` binary beside this executable with `args`. The
/// child sees none of the caller's `VANGUARD_*` variables, only `env`,
/// so the caller's environment cannot steer the gate.
fn run_figures(args: &[&str], env: &[(&str, String)]) -> std::io::Result<Output> {
    let exe =
        std::env::current_exe()?.with_file_name(format!("figures{}", std::env::consts::EXE_SUFFIX));
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("VANGUARD_") {
            cmd.env_remove(key);
        }
    }
    cmd.args(args).envs(env.iter().cloned()).output()
}

/// The job count on a `figures` run's `simulate:` summary line: the
/// simulations it actually ran.
fn simulated_jobs(stderr: &[u8]) -> Option<usize> {
    String::from_utf8_lossy(stderr).lines().find_map(|line| {
        line.strip_prefix("simulate:")?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

/// An uninterrupted run of [`RESUMED_RUN`] without a cache directory:
/// its stdout, and how many distinct jobs it simulated.
struct Reference {
    stdout: Vec<u8>,
    jobs: usize,
}

fn reference_run() -> Result<Reference, String> {
    let out = run_figures(&RESUMED_RUN, &[]).map_err(|e| e.to_string())?;
    match simulated_jobs(&out.stderr) {
        Some(jobs) if out.status.success() => Ok(Reference {
            stdout: out.stdout,
            jobs,
        }),
        _ => Err(format!(
            "{}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// One crash-and-resume round through the real CLI, shared by the two
/// kill classes: `figures` runs [`RESUMED_RUN`] with
/// `--fault-kill-after kill_after` on the cache directory `dir`, then
/// again without it. Pushes the four checks every round makes, each
/// detail prefixed with `tag`, and returns the results journal's record
/// counts after the crash and after the rerun (`None` when the binary
/// could not run at all).
fn crash_and_resume(
    checks: &mut Vec<Check>,
    tag: &str,
    dir: &Path,
    kill_after: usize,
    env: &[(&str, String)],
    reference: &Reference,
) -> Option<(usize, usize)> {
    let journal = Journal::new(dir.join(RESULTS_FILE));
    let total = reference.jobs;
    let mut env = env.to_vec();
    env.push(("VANGUARD_CACHE_DIR", dir.display().to_string()));
    let kill = kill_after.to_string();
    let killed_run = [RESUMED_RUN[0], RESUMED_RUN[1], "--fault-kill-after", &kill];
    let first = match run_figures(&killed_run, &env) {
        Ok(out) => out,
        Err(e) => {
            push_check(
                checks,
                "figures binary runs beside this one",
                false,
                format!("{tag}{e}"),
            );
            return None;
        }
    };
    let killed_at = journal.read().map(|s| s.records.len()).unwrap_or(0);
    push_check(
        checks,
        "SIGABRT mid-run leaves a partial journal",
        first.status.signal() == Some(6) && (kill_after..total).contains(&killed_at),
        format!(
            "{tag}abort after {kill_after}: {} with {killed_at} of {total} jobs",
            first.status
        ),
    );
    let second = run_figures(&RESUMED_RUN, &env);
    let rerun_jobs = second
        .as_ref()
        .ok()
        .and_then(|out| simulated_jobs(&out.stderr));
    push_check(
        checks,
        "rerun simulates only the jobs the journal misses",
        matches!(&second, Ok(out) if out.status.success())
            && rerun_jobs == Some(total.saturating_sub(killed_at)),
        format!(
            "{tag}{:?}, simulated {rerun_jobs:?} of {total}",
            second.as_ref().map(|out| out.status)
        ),
    );
    let snapshot = journal.read().unwrap_or_default();
    let duplicates = snapshot.duplicate_keys();
    push_check(
        checks,
        "no job ran its side effects twice",
        duplicates.is_empty() && snapshot.records.len() == total,
        format!(
            "{tag}{} records of {total}, duplicates {duplicates:?}",
            snapshot.records.len()
        ),
    );
    let identical = matches!(&second, Ok(out) if out.stdout == reference.stdout);
    push_check(
        checks,
        "output byte-identical to an uninterrupted run",
        identical,
        format!("{tag}{} bytes expected", reference.stdout.len()),
    );
    Some((killed_at, snapshot.records.len()))
}

/// Stages the kill-and-resume class: at each pool size, the `figures`
/// binary runs Figure 8 at quick scale on a fresh cache directory and
/// aborts after a seed-chosen number of results-journal appends, and a
/// second process reruns it on the same directory. At every pool size
/// the contract is the same: the crash is real (partial journal), the
/// rerun simulates only what the journal misses, no job's side effects
/// ran twice (zero duplicate journal records), and the output is
/// byte-identical to an uninterrupted run without a cache directory.
fn kill_and_resume_class(seed: u64, scratch: &Path) -> ClassReport {
    let mut checks = Vec::new();
    let mut summary = String::new();
    match reference_run() {
        Ok(reference) => {
            let kill_after = 1 + (seed as usize % 2);
            for threads in KILL_RESUME_THREADS {
                let dir = scratch.join(format!("kill-resume-{threads}"));
                let _ = fs::remove_dir_all(&dir);
                let env = [("VANGUARD_THREADS", threads.to_string())];
                let tag = format!("threads={threads}: ");
                match crash_and_resume(&mut checks, &tag, &dir, kill_after, &env, &reference) {
                    Some((killed, resumed)) => {
                        let _ = writeln!(summary, "{tag}aborted at {killed}, resumed to {resumed}");
                    }
                    None => break,
                }
                let _ = fs::remove_dir_all(&dir);
            }
        }
        Err(e) => push_check(&mut checks, "uninterrupted reference run", false, e),
    }
    ClassReport {
        class: FaultClass::KillAndResume,
        checks,
        summary,
    }
}

/// Stages the compaction-under-kill class: the crash-and-resume round of
/// [`kill_and_resume_class`] under a deliberately tiny journal-compaction
/// threshold, so snapshots are cut mid-run and the crash can land during
/// one. The rerun (still compacting) must complete off the snapshot +
/// tail with no duplicate or resurrected records and output
/// byte-identical to an uninterrupted run.
fn compaction_under_kill_class(seed: u64, scratch: &Path) -> ClassReport {
    const COMPACT_BYTES: u64 = 256;
    let mut checks = Vec::new();
    let mut summary = String::new();
    let dir = scratch.join("compact-kill");
    let _ = fs::remove_dir_all(&dir);
    match reference_run() {
        Ok(reference) => {
            let env = [
                ("VANGUARD_THREADS", "2".to_string()),
                (COMPACT_BYTES_ENV, COMPACT_BYTES.to_string()),
            ];
            // The 2nd append crosses the threshold and compacts, so the
            // abort lands right after a compaction, or during the next.
            let kill_after = 2 + (seed as usize % 2);
            if let Some((killed, resumed)) =
                crash_and_resume(&mut checks, "", &dir, kill_after, &env, &reference)
            {
                let snapshot = Journal::new(dir.join(RESULTS_FILE)).snapshot_path();
                push_check(
                    &mut checks,
                    "compaction actually fired (snapshot on disk)",
                    snapshot.is_file(),
                    snapshot.display().to_string(),
                );
                let _ = writeln!(
                    summary,
                    "aborted at {killed} (threshold {COMPACT_BYTES} B), resumed to {resumed}"
                );
            }
        }
        Err(e) => push_check(&mut checks, "uninterrupted reference run", false, e),
    }
    let _ = fs::remove_dir_all(&dir);
    ClassReport {
        class: FaultClass::CompactionUnderKill,
        checks,
        summary,
    }
}

/// Stages the cache-ENOSPC class: the cache directory path runs
/// *through a regular file*, so every create fails (`ENOTDIR` stands in
/// for `ENOSPC`; permission bits are useless under root). The suite must
/// complete bit-identically, degrading to compute-without-store and
/// counting the failures.
fn cache_enospc_class(scratch: &Path, clean: &[SimStats]) -> ClassReport {
    let mut checks = Vec::new();
    let dir = scratch.join("cache-enospc");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::create_dir_all(&dir);

    // A poisoned cache path — every store (and load) errors.
    let blocker = dir.join("blocker");
    let _ = fs::write(&blocker, b"not a directory");
    let mut policy = isolated_policy();
    policy.cache_dir = Some(blocker.join("cache"));
    let (engine, jobs, _) = engine_with_suite(None, policy);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let (same, detail) = suite_identical(&results, clean);
    push_check(
        &mut checks,
        "full-disk cache degrades to compute-without-store",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "failed stores counted, zero job failures",
        stats.cache_store_failures >= 1 && stats.jobs_failed == 0,
        format!(
            "cache_store_failures = {}, jobs_failed = {}",
            stats.cache_store_failures, stats.jobs_failed
        ),
    );
    push_check(
        &mut checks,
        "summary surfaces the store failures",
        stats.summary().contains("store failures"),
        stats.summary(),
    );
    let _ = fs::remove_dir_all(&dir);
    ClassReport {
        class: FaultClass::CacheEnospc,
        checks,
        summary: stats.summary(),
    }
}

/// Stages one fault class against the suite and checks the containment
/// contract. `scratch` hosts quarantine/cache directories (created as
/// needed); `clean` is the [`clean_suite_stats`] reference.
pub fn run_class(class: FaultClass, seed: u64, scratch: &Path, clean: &[SimStats]) -> ClassReport {
    match class {
        FaultClass::GuestTrap => guest_trap_class(scratch, clean),
        FaultClass::Hang => hang_class(clean),
        FaultClass::WorkerPanic => worker_panic_class(seed, clean),
        FaultClass::CacheTruncation | FaultClass::CacheBitflip => {
            cache_class(class, seed, scratch, clean)
        }
        FaultClass::KillAndResume => kill_and_resume_class(seed, scratch),
        FaultClass::CompactionUnderKill => compaction_under_kill_class(seed, scratch),
        FaultClass::CacheEnospc => cache_enospc_class(scratch, clean),
    }
}

/// Measures the simulate-stage cost of arming both watchdogs at
/// non-tripping budgets, min-of-`rounds` per side (the
/// `BENCH_robustness.json` overhead figure). Clean and armed runs
/// alternate, so a burst of load from other processes on the host
/// lands on both sides instead of skewing one block of rounds.
pub fn measure_overhead(rounds: usize) -> OverheadReport {
    let run_once = |armed: bool| -> f64 {
        let mut policy = isolated_policy();
        if armed {
            policy.max_cycles = Some(u64::MAX / 2);
            policy.job_timeout = Some(Duration::from_secs(3600));
        }
        let (engine, jobs, _) = engine_with_suite(None, policy);
        run_all(&engine, &jobs);
        engine.stats().sim_nanos as f64 / 1e6
    };
    let rounds = rounds.max(1);
    let (mut clean_sim_ms, mut armed_sim_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        clean_sim_ms = clean_sim_ms.min(run_once(false));
        armed_sim_ms = armed_sim_ms.min(run_once(true));
    }
    OverheadReport {
        rounds,
        clean_sim_ms,
        armed_sim_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_roundtrip() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::parse(class.name()), Some(class));
        }
        assert_eq!(FaultClass::parse("no-such-class"), None);
    }

    #[test]
    fn victims_are_valid_programs() {
        for victim in [trap_victim(), hang_victim()] {
            assert!(victim.program.validate().is_ok(), "{}", victim.name);
            assert_eq!(victim.refs.len(), 1);
        }
    }

    #[test]
    fn trap_victim_profiles_cleanly_but_faults_on_ref() {
        let mut engine = Engine::new();
        engine.set_fault_policy(isolated_policy());
        let bench = engine.add_benchmark(trap_victim());
        let jobs = engine.jobs_for_cells(&[SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        }]);
        let results = run_all(&engine, &jobs);
        assert!(results.iter().all(|r| matches!(
            r,
            JobResult::Faulted {
                trap: SimError::LoadFault { .. },
                ..
            }
        )));
        // The profile stage itself succeeded (the failure is REF-only).
        assert_eq!(engine.stats().profile_misses, 1);
    }
}
