//! Deterministic fault-injection harness: the robustness gate.
//!
//! Each [`FaultClass`] stages one failure mode against a small quick-scale
//! benchmark suite running on the experiment engine, then asserts the
//! engine's containment contract (DESIGN.md §7.8):
//!
//! * the suite **completes** — no process abort, every job yields a
//!   [`JobResult`];
//! * the injected failure surfaces as the *typed* outcome for its class
//!   (`Faulted`, `TimedOut`, a retried/`Recovered` job, or a quarantined
//!   corrupt cache entry), visible in `EngineStats::summary`;
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
use std::path::{Path, PathBuf};
use std::time::Duration;
use vanguard_core::engine::{
    Engine, FaultPolicy, JobResult, PredictorKind, SimJob, SweepCell, DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::{ExperimentInput, RunInput, TransformOptions};
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
    /// A sweep worker *process* is `SIGKILL`ed mid-sweep; the resumed
    /// sweep must complete off the journal with no job's side effects
    /// run twice and a merged output byte-identical to an uninterrupted
    /// serial run, at shard counts 1, 2, and 4.
    KillAndResume => "kill-and-resume",
    /// A claim holder dies (`SIGKILL`) or wedges (live but silent)
    /// mid-job; a peer must steal the claim once its lease runs out and
    /// the sweep must finish in the *same* run — no manual resume, no
    /// duplicate journal records, byte-identical merged output. Orphaned
    /// claim files are swept to quarantine on startup.
    DeadClaimHolder => "dead-claim-holder",
    /// Workers are `SIGKILL`ed while the journal is compacting under a
    /// tiny threshold; the snapshot + tail must survive the crash and
    /// the resumed sweep must complete with no duplicate or resurrected
    /// records and byte-identical merged output.
    CompactionUnderKill => "compaction-under-kill",
    /// The artifact cache hits disk pressure: stores fail outright
    /// (simulated `ENOSPC` via a poisoned cache path) or a byte budget
    /// evicts entries under the suite's feet. Both degrade to
    /// compute-without-store — counted in `EngineStats`, never a job
    /// failure, bit-identical results.
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

    // Recovery: a fresh engine over the damaged cache.
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
    // engine sees a fully healthy cache.
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

/// Shard counts the kill-and-resume scenario must hold at.
const KILL_RESUME_SHARDS: [usize; 3] = [1, 2, 4];

/// Stages the kill-and-resume class: a quick sweep is run sharded, its
/// worker processes are `SIGKILL`ed after a seed-chosen number of jobs
/// journal, and the sweep is resumed off the journal. At every shard
/// count the contract is the same: the interruption is real (partial
/// journal), the resume completes, no job's side effects ran twice
/// (zero duplicate journal records), and the merged output is
/// byte-identical to an uninterrupted serial single-process run.
///
/// Worker processes are spawned from [`sweep::harness_worker_exe`]:
/// the `faultinject` and `vanguard-sweep` binaries re-exec themselves
/// (both hook [`sweep::maybe_run_worker`]); test harnesses must point
/// `VANGUARD_SWEEP_WORKER_EXE` at the `vanguard-sweep` binary instead
/// (a re-exec'd libtest binary would run the whole test suite).
fn kill_and_resume_class(seed: u64, scratch: &Path) -> ClassReport {
    use crate::sweep::{self, ShardOptions, Sweep, SweepRequest};
    use vanguard_core::Journal;

    let mut checks = Vec::new();
    let mut summary = String::new();
    let report = |checks, summary| ClassReport {
        class: FaultClass::KillAndResume,
        checks,
        summary,
    };
    let worker_exe = match sweep::harness_worker_exe() {
        Ok(exe) => exe,
        Err(e) => {
            push_check(
                &mut checks,
                "worker executable resolves",
                false,
                e.to_string(),
            );
            return report(checks, summary);
        }
    };
    let request = SweepRequest::ci_quick();
    // The serial reference runs in its own cache directory: the
    // byte-identity claim must not depend on artifacts the sharded
    // runs produced.
    let serial_dir = scratch.join("kill-resume-serial");
    let _ = fs::remove_dir_all(&serial_dir);
    let serial_policy = FaultPolicy {
        cache_dir: Some(serial_dir.join("cache")),
        ..isolated_policy()
    };
    let serial = match Sweep::build(request.clone(), serial_policy) {
        Ok(sweep) => sweep.run_serial(),
        Err(e) => {
            push_check(&mut checks, "serial reference sweep builds", false, e);
            return report(checks, summary);
        }
    };

    for shards in KILL_RESUME_SHARDS {
        let dir = scratch.join(format!("kill-resume-{shards}"));
        let _ = fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");
        let policy = FaultPolicy {
            cache_dir: Some(cache_dir.clone()),
            ..isolated_policy()
        };
        let sweep_run = match Sweep::build(request.clone(), policy) {
            Ok(s) => s,
            Err(e) => {
                push_check(&mut checks, "sharded sweep builds", false, e);
                continue;
            }
        };
        let total = sweep_run.plan().len();
        let journal = Journal::new(dir.join("journal.vgj"));
        // Seed-chosen kill point, early enough that in-flight jobs
        // (one per shard, each throttled 40 ms) cannot finish the
        // sweep before the SIGKILL lands.
        let kill_after = 1 + (seed as usize % 2);
        let mut sink = std::io::sink();
        let mut kill_opts = ShardOptions::new(worker_exe.clone(), shards, cache_dir.clone());
        kill_opts.kill_after = Some(kill_after);
        kill_opts.throttle_ms = Some(40);
        let first = sweep::run_sharded(&sweep_run, &journal, &kill_opts, &mut sink);
        let partial = match &first {
            Ok(run) => run.killed && run.completed < total,
            Err(_) => false,
        };
        push_check(
            &mut checks,
            "SIGKILL mid-sweep leaves a partial journal",
            partial,
            format!("shards={shards}: kill after {kill_after} -> {first:?} of {total} jobs"),
        );
        let second = sweep::run_sharded(
            &sweep_run,
            &journal,
            &ShardOptions::new(worker_exe.clone(), shards, cache_dir.clone()),
            &mut sink,
        );
        let resumed = matches!(&second, Ok(run) if run.complete());
        push_check(
            &mut checks,
            "resume completes the sweep off the journal",
            resumed,
            format!("shards={shards}: {second:?}"),
        );
        let snapshot = match journal.read() {
            Ok(s) => s,
            Err(e) => {
                push_check(
                    &mut checks,
                    "journal readable after resume",
                    false,
                    format!("shards={shards}: {e}"),
                );
                continue;
            }
        };
        let duplicates = snapshot.duplicate_keys();
        push_check(
            &mut checks,
            "no job ran its side effects twice",
            duplicates.is_empty(),
            format!(
                "shards={shards}: {} records, duplicates {duplicates:?}",
                snapshot.records.len()
            ),
        );
        let merged = sweep_run.merged(&snapshot);
        let identical = merged.as_deref() == Ok(serial.as_str());
        push_check(
            &mut checks,
            "merged output byte-identical to serial run",
            identical,
            match &merged {
                Ok(m) if identical => format!("shards={shards}: {} bytes", m.len()),
                Ok(_) => format!("shards={shards}: merged text diverged from serial"),
                Err(missing) => format!("shards={shards}: merge missing {} jobs", missing.len()),
            },
        );
        let first_completed = first.map(|r| r.completed).unwrap_or(0);
        let _ = writeln!(
            summary,
            "shards={shards}: killed at {first_completed}/{total}, resumed to {}/{total}",
            snapshot.records.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&serial_dir);
    report(checks, summary)
}

/// Builds a serial-reference merged output for the sweep classes, in
/// its own cache directory so the byte-identity claims never depend on
/// artifacts a sharded run produced. Returns `Err(check)` with a failed
/// check when the build fails.
fn serial_reference(scratch: &Path, tag: &str) -> Result<String, Check> {
    use crate::sweep::{Sweep, SweepRequest};
    let serial_dir = scratch.join(format!("{tag}-serial"));
    let _ = fs::remove_dir_all(&serial_dir);
    let policy = FaultPolicy {
        cache_dir: Some(serial_dir.join("cache")),
        ..isolated_policy()
    };
    let out = match Sweep::build(SweepRequest::ci_quick(), policy) {
        Ok(sweep) => Ok(sweep.run_serial()),
        Err(e) => Err(Check {
            name: "serial reference sweep builds",
            passed: false,
            detail: e,
        }),
    };
    let _ = fs::remove_dir_all(&serial_dir);
    out
}

/// Stages the dead-claim-holder class in three acts:
///
/// 1. **Wedged holder** — the harness itself claims a seed-chosen job
///    and holds the (live) lock without heartbeating for the whole run.
///    Workers under a 150 ms lease must report the claim `Expired`,
///    steal the job, and finish the sweep with exactly one record.
/// 2. **Dead holder** — one of two workers is `SIGKILL`ed mid-sweep.
///    The OS releases its claim locks outright, the survivor (or a
///    respawned fleet) takes over, and the *same* `run_sharded` call
///    completes: no manual resume, no duplicates, byte-identical
///    output. This is the acceptance scenario of DESIGN.md §7.12.
/// 3. **Orphan sweep** — a stale unlocked claim file is swept to the
///    cache quarantine by `sweep_stale_claims` once its lease expires.
fn dead_claim_holder_class(seed: u64, scratch: &Path) -> ClassReport {
    use crate::sweep::{self, ShardOptions, Sweep, SweepRequest, JOB_CLAIM_TAG};
    use vanguard_core::{DiskCache, Journal};

    let mut checks = Vec::new();
    let mut summary = String::new();
    let report = |checks, summary| ClassReport {
        class: FaultClass::DeadClaimHolder,
        checks,
        summary,
    };
    let worker_exe = match sweep::harness_worker_exe() {
        Ok(exe) => exe,
        Err(e) => {
            push_check(
                &mut checks,
                "worker executable resolves",
                false,
                e.to_string(),
            );
            return report(checks, summary);
        }
    };
    let serial = match serial_reference(scratch, "dead-claim") {
        Ok(s) => s,
        Err(check) => {
            checks.push(check);
            return report(checks, summary);
        }
    };

    // Act 1: a live-but-wedged holder. The harness claim never
    // heartbeats, so its mtime ages past the 150 ms worker lease.
    {
        let dir = scratch.join("dead-claim-wedged");
        let _ = fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");
        let policy = FaultPolicy {
            cache_dir: Some(cache_dir.clone()),
            ..isolated_policy()
        };
        match Sweep::build(SweepRequest::ci_quick(), policy) {
            Ok(sweep_run) => {
                let victim = sweep_run.plan()[seed as usize % sweep_run.plan().len()].key;
                let claims = DiskCache::new(&cache_dir);
                let wedged = claims.try_claim(JOB_CLAIM_TAG, victim);
                push_check(
                    &mut checks,
                    "harness wedges a live claim holder",
                    matches!(wedged, Ok(Some(_))),
                    format!("victim job {victim:016x}"),
                );
                let journal = Journal::new(dir.join("journal.vgj"));
                let mut opts = ShardOptions::new(worker_exe.clone(), 2, cache_dir.clone());
                opts.lease_ms = Some(150);
                opts.throttle_ms = Some(10);
                let mut sink = std::io::sink();
                let run = sweep::run_sharded(&sweep_run, &journal, &opts, &mut sink);
                let healed = matches!(&run, Ok(r) if r.complete() && !r.killed);
                push_check(
                    &mut checks,
                    "lease expiry steals the wedged job in-run",
                    healed,
                    format!("{run:?}"),
                );
                let snapshot = journal.read().unwrap_or_default();
                push_check(
                    &mut checks,
                    "steal produced no duplicate records",
                    snapshot.duplicate_keys().is_empty()
                        && snapshot.records.len() == sweep_run.plan().len(),
                    format!(
                        "{} records, duplicates {:?}",
                        snapshot.records.len(),
                        snapshot.duplicate_keys()
                    ),
                );
                let merged = sweep_run.merged(&snapshot);
                push_check(
                    &mut checks,
                    "wedged-holder output byte-identical to serial",
                    merged.as_deref() == Ok(serial.as_str()),
                    format!("{} bytes expected", serial.len()),
                );
                let _ = writeln!(
                    summary,
                    "wedged: {}/{} jobs after steal",
                    snapshot.records.len(),
                    sweep_run.plan().len()
                );
                drop(wedged);
            }
            Err(e) => push_check(&mut checks, "wedged-holder sweep builds", false, e),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    // Act 2: a SIGKILLed holder. kill_count = 1 wounds the fleet
    // without aborting the parent — the run must self-heal in place.
    {
        let dir = scratch.join("dead-claim-killed");
        let _ = fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");
        let policy = FaultPolicy {
            cache_dir: Some(cache_dir.clone()),
            ..isolated_policy()
        };
        match Sweep::build(SweepRequest::ci_quick(), policy) {
            Ok(sweep_run) => {
                let journal = Journal::new(dir.join("journal.vgj"));
                let mut opts = ShardOptions::new(worker_exe.clone(), 2, cache_dir.clone());
                opts.kill_after = Some(1);
                opts.kill_count = Some(1);
                opts.throttle_ms = Some(40);
                opts.lease_ms = Some(150);
                let mut sink = std::io::sink();
                let run = sweep::run_sharded(&sweep_run, &journal, &opts, &mut sink);
                let healed = matches!(&run, Ok(r) if r.complete() && !r.killed);
                push_check(
                    &mut checks,
                    "SIGKILLed shard self-heals with no resume",
                    healed,
                    format!("{run:?}"),
                );
                let snapshot = journal.read().unwrap_or_default();
                push_check(
                    &mut checks,
                    "self-heal produced no duplicate records",
                    snapshot.duplicate_keys().is_empty(),
                    format!(
                        "{} records, duplicates {:?}",
                        snapshot.records.len(),
                        snapshot.duplicate_keys()
                    ),
                );
                let merged = sweep_run.merged(&snapshot);
                push_check(
                    &mut checks,
                    "self-healed output byte-identical to serial",
                    merged.as_deref() == Ok(serial.as_str()),
                    format!("{} bytes expected", serial.len()),
                );
                let _ = writeln!(
                    summary,
                    "killed: {}/{} jobs after self-heal",
                    snapshot.records.len(),
                    sweep_run.plan().len()
                );
            }
            Err(e) => push_check(&mut checks, "killed-holder sweep builds", false, e),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    // Act 3: orphaned claim debris is swept to quarantine on startup.
    {
        let cache_dir = scratch.join("dead-claim-orphan");
        let _ = fs::remove_dir_all(&cache_dir);
        let _ = fs::create_dir_all(&cache_dir);
        let orphan = cache_dir.join(format!("claim-{JOB_CLAIM_TAG}-{:016x}.lock", 0xdead_u64));
        let _ = fs::write(&orphan, b"orphan");
        std::thread::sleep(Duration::from_millis(120));
        let cache = DiskCache::new(&cache_dir);
        let swept = cache.sweep_stale_claims(Duration::from_millis(100));
        let quarantined = cache_dir
            .join("quarantine")
            .join(orphan.file_name().unwrap_or_default())
            .is_file();
        push_check(
            &mut checks,
            "stale orphan claim swept to quarantine",
            matches!(swept, Ok(1)) && !orphan.exists() && quarantined,
            format!("swept = {swept:?}"),
        );
        let _ = fs::remove_dir_all(&cache_dir);
    }
    report(checks, summary)
}

/// Stages the compaction-under-kill class: a sharded sweep runs with a
/// deliberately tiny journal-compaction threshold so snapshots are cut
/// mid-run, the whole fleet is `SIGKILL`ed, and the resumed sweep (still
/// compacting) must complete off the snapshot + tail with no duplicate
/// or resurrected records and a merged output byte-identical to serial.
fn compaction_under_kill_class(seed: u64, scratch: &Path) -> ClassReport {
    use crate::sweep::{self, ShardOptions, Sweep, SweepRequest};
    use vanguard_core::Journal;

    const COMPACT_BYTES: u64 = 256;
    let mut checks = Vec::new();
    let mut summary = String::new();
    let report = |checks, summary| ClassReport {
        class: FaultClass::CompactionUnderKill,
        checks,
        summary,
    };
    let worker_exe = match sweep::harness_worker_exe() {
        Ok(exe) => exe,
        Err(e) => {
            push_check(
                &mut checks,
                "worker executable resolves",
                false,
                e.to_string(),
            );
            return report(checks, summary);
        }
    };
    let serial = match serial_reference(scratch, "compact-kill") {
        Ok(s) => s,
        Err(check) => {
            checks.push(check);
            return report(checks, summary);
        }
    };

    let dir = scratch.join("compact-kill");
    let _ = fs::remove_dir_all(&dir);
    let cache_dir = dir.join("cache");
    let policy = FaultPolicy {
        cache_dir: Some(cache_dir.clone()),
        ..isolated_policy()
    };
    let sweep_run = match Sweep::build(SweepRequest::ci_quick(), policy) {
        Ok(s) => s,
        Err(e) => {
            push_check(&mut checks, "sharded sweep builds", false, e);
            return report(checks, summary);
        }
    };
    let total = sweep_run.plan().len();
    let journal = Journal::new(dir.join("journal.vgj"));
    let kill_after = 1 + (seed as usize % 2);
    let mut sink = std::io::sink();
    let mut kill_opts = ShardOptions::new(worker_exe.clone(), 2, cache_dir.clone());
    kill_opts.kill_after = Some(kill_after);
    kill_opts.throttle_ms = Some(40);
    kill_opts.compact_bytes = Some(COMPACT_BYTES);
    let first = sweep::run_sharded(&sweep_run, &journal, &kill_opts, &mut sink);
    let partial = matches!(&first, Ok(run) if run.killed && run.completed < total);
    push_check(
        &mut checks,
        "SIGKILL mid-compaction leaves a partial journal",
        partial,
        format!("kill after {kill_after} -> {first:?} of {total} jobs"),
    );
    let mut resume_opts = ShardOptions::new(worker_exe, 2, cache_dir);
    resume_opts.compact_bytes = Some(COMPACT_BYTES);
    let second = sweep::run_sharded(&sweep_run, &journal, &resume_opts, &mut sink);
    push_check(
        &mut checks,
        "resume completes over the compacted journal",
        matches!(&second, Ok(run) if run.complete()),
        format!("{second:?}"),
    );
    push_check(
        &mut checks,
        "compaction actually fired (snapshot on disk)",
        journal.snapshot_path().is_file(),
        journal.snapshot_path().display().to_string(),
    );
    match journal.read() {
        Ok(snapshot) => {
            let duplicates = snapshot.duplicate_keys();
            push_check(
                &mut checks,
                "no duplicate or resurrected records",
                duplicates.is_empty() && snapshot.records.len() == total,
                format!(
                    "{} records of {total}, duplicates {duplicates:?}",
                    snapshot.records.len()
                ),
            );
            let merged = sweep_run.merged(&snapshot);
            push_check(
                &mut checks,
                "merged output byte-identical to serial run",
                merged.as_deref() == Ok(serial.as_str()),
                format!("{} bytes expected", serial.len()),
            );
            let first_completed = first.map(|r| r.completed).unwrap_or(0);
            let _ = writeln!(
                summary,
                "killed at {first_completed}/{total} (threshold {COMPACT_BYTES} B), \
                 resumed to {}/{total}",
                snapshot.records.len()
            );
        }
        Err(e) => push_check(
            &mut checks,
            "journal readable after resume",
            false,
            e.to_string(),
        ),
    }
    let _ = fs::remove_dir_all(&dir);
    report(checks, summary)
}

/// Stages the cache-ENOSPC class in two acts:
///
/// 1. **Failed stores** — the cache directory path runs *through a
///    regular file*, so every create fails (`ENOTDIR` stands in for
///    `ENOSPC`; permission bits are useless under root). The suite must
///    complete bit-identically, degrading to compute-without-store and
///    counting the failures.
/// 2. **Budget eviction** — a 1-byte `VANGUARD_CACHE_BUDGET`-style
///    budget evicts every unclaimed entry as it lands. The suite must
///    still complete bit-identically, with evictions counted.
fn cache_enospc_class(scratch: &Path, clean: &[SimStats]) -> ClassReport {
    let mut checks = Vec::new();
    let dir = scratch.join("cache-enospc");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::create_dir_all(&dir);

    // Act 1: a poisoned cache path — every store (and load) errors.
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

    // Act 2: a 1-byte budget — every store lands, then is evicted.
    let mut budget_policy = isolated_policy();
    budget_policy.cache_dir = Some(dir.join("budget-cache"));
    budget_policy.cache_budget = Some(1);
    let (budget_engine, budget_jobs, _) = engine_with_suite(None, budget_policy);
    let budget_results = run_all(&budget_engine, &budget_jobs);
    let budget_stats = budget_engine.stats();
    let (same, detail) = suite_identical(&budget_results, clean);
    push_check(
        &mut checks,
        "budget eviction does not perturb results",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "evictions counted, zero job failures",
        budget_stats.cache_evictions >= 1 && budget_stats.jobs_failed == 0,
        format!(
            "cache_evictions = {}, jobs_failed = {}",
            budget_stats.cache_evictions, budget_stats.jobs_failed
        ),
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
        FaultClass::DeadClaimHolder => dead_claim_holder_class(seed, scratch),
        FaultClass::CompactionUnderKill => compaction_under_kill_class(seed, scratch),
        FaultClass::CacheEnospc => cache_enospc_class(scratch, clean),
    }
}

/// Measures the simulate-stage cost of arming both watchdogs at
/// non-tripping budgets, min-of-`rounds` per side (the
/// `BENCH_robustness.json` overhead figure).
pub fn measure_overhead(rounds: usize) -> OverheadReport {
    let run_side = |armed: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..rounds.max(1) {
            let mut policy = isolated_policy();
            if armed {
                policy.max_cycles = Some(u64::MAX / 2);
                policy.job_timeout = Some(Duration::from_secs(3600));
                // A non-evicting cache budget arms the disk-pressure
                // accounting path too, keeping the gate honest for the
                // full robustness configuration.
                policy.cache_budget = Some(u64::MAX / 2);
            }
            let (engine, jobs, _) = engine_with_suite(None, policy);
            run_all(&engine, &jobs);
            best = best.min(engine.stats().sim_nanos as f64 / 1e6);
        }
        best
    };
    OverheadReport {
        rounds: rounds.max(1),
        clean_sim_ms: run_side(false),
        armed_sim_ms: run_side(true),
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
