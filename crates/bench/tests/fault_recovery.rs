//! Fault-recovery suite: one test per fault class of the engine's fault
//! model (DESIGN.md §7.8, §7.11).
//!
//! The in-process classes stage their failure mode against a small
//! quick-scale suite and assert the containment contract: the suite
//! completes, the fault surfaces as its typed outcome, and every
//! unaffected job is bit-identical to a clean run. The kill classes run
//! the `figures` binary cargo builds for this test as a child, abort it
//! mid-run and rerun it on the same cache directory. Every assertion
//! message opens with the contract it checks.
//!
//! Everything is deterministic in the seed: it picks the panicked job,
//! the corrupted cache entry and the flipped bit. The clean suite and
//! the uninterrupted `fig8 --quick` reference run once per test binary.

use std::fs;
use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;
use vanguard_bench::{quick_spec, to_experiment_input, BenchScale};
use vanguard_core::engine::{
    Engine, FaultPolicy, JobResult, PredictorKind, SimJob, SweepCell, DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::journal::COMPACT_BYTES_ENV;
use vanguard_core::results::RESULTS_FILE;
use vanguard_core::{ErrorKind, ExperimentInput, Journal, RunInput, TransformOptions};
use vanguard_isa::{
    parse_program, AluOp, CmpKind, CondKind, Inst, Memory, Operand, ProgramBuilder, Reg,
};
use vanguard_sim::{MachineConfig, SimError, SimStats};
use vanguard_workloads::suite;

/// Benchmarks of the fault suite (a prefix of SPEC2006 INT at quick
/// scale — large enough to prove non-perturbation, small enough for a
/// debug-profile test).
const FAULT_SUITE_SPECS: usize = 4;

/// Pool sizes (`VANGUARD_THREADS`) both kill classes must hold at.
const KILL_THREADS: [usize; 3] = [1, 2, 4];

/// The run the kill classes interrupt: Figure 8 at quick scale, 72
/// distinct jobs.
const RESUMED_RUN: [&str; 2] = ["fig8", "--quick"];

/// A per-test scratch directory under the system temp dir, removed on
/// drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "vanguard-fault-recovery-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn four_wide(bench: usize) -> SweepCell {
    SweepCell {
        bench,
        machine: MachineConfig::four_wide(),
        predictor: PredictorKind::Combined24KB,
    }
}

/// Builds an engine holding the fault suite (plus an optional victim
/// benchmark appended *after* the suite, so suite job indices match the
/// clean run), returning the flat job list and the suite-only job count.
/// `policy` replaces the environment's, so no `VANGUARD_*` variable
/// but the pool size steers a test.
fn engine_with_suite(
    victim: Option<ExperimentInput>,
    policy: FaultPolicy,
) -> (Engine, Vec<SimJob>, usize) {
    let mut engine = Engine::new();
    engine.set_fault_policy(policy);
    let mut cells: Vec<SweepCell> = suite::spec2006_int()
        .into_iter()
        .take(FAULT_SUITE_SPECS)
        .map(|s| {
            four_wide(engine.add_benchmark(to_experiment_input(
                quick_spec(s, BenchScale::Quick).build(),
            )))
        })
        .collect();
    let suite_jobs = engine.jobs_for_cells(&cells).len();
    if let Some(v) = victim {
        cells.push(four_wide(engine.add_benchmark(v)));
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
/// no victim and the default policy. Every non-perturbation assertion
/// compares against it, bitwise.
fn clean() -> &'static [SimStats] {
    static CLEAN: OnceLock<Vec<SimStats>> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let (engine, jobs, _) = engine_with_suite(None, FaultPolicy::default());
        run_all(&engine, &jobs)
            .iter()
            .map(|r| r.expect_completed().stats)
            .collect()
    })
}

/// Asserts that `results` are bit-identical to `clean`, naming the first
/// divergent job.
fn assert_identical(check: &str, results: &[JobResult], clean: &[SimStats], summary: &str) {
    assert_eq!(
        results.len(),
        clean.len(),
        "{check}: {} results vs {} clean jobs\n{summary}",
        results.len(),
        clean.len()
    );
    for (i, (r, c)) in results.iter().zip(clean).enumerate() {
        match r.success() {
            Some(s) => assert!(
                s.stats == *c,
                "{check}: job {i} stats diverged from the clean run\n{summary}"
            ),
            None => panic!("{check}: job {i} did not complete: {r:?}\n{summary}"),
        }
    }
}

/// A benchmark that profiles cleanly on TRAIN but commits a load from an
/// unmapped address on REF: the canonical guest-trap victim. The load
/// address comes from `r20`, mapped for TRAIN and wild for REF.
fn trap_victim() -> ExperimentInput {
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
/// only the cycle budget can stop.
fn hang_victim() -> ExperimentInput {
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

/// The victim alone on a fresh engine with the default policy.
fn run_victim(victim: ExperimentInput) -> (Engine, Vec<JobResult>) {
    let mut engine = Engine::new();
    engine.set_fault_policy(FaultPolicy::default());
    let bench = engine.add_benchmark(victim);
    let jobs = engine.jobs_for_cells(&[four_wide(bench)]);
    let results = run_all(&engine, &jobs);
    (engine, results)
}

fn is_load_fault(r: &JobResult) -> bool {
    matches!(
        r,
        JobResult::Faulted {
            trap: SimError::LoadFault { .. },
            ..
        }
    )
}

/// Runs the fault suite plus the trap victim with reproducers written to
/// `qdir`, and asserts the guest-trap contract.
fn assert_guest_trap_contained(qdir: &Path) {
    let policy = FaultPolicy {
        quarantine_dir: Some(qdir.to_path_buf()),
        ..FaultPolicy::default()
    };
    let (engine, jobs, nsuite) = engine_with_suite(Some(trap_victim()), policy);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let summary = stats.summary();

    assert_eq!(
        results.len(),
        jobs.len(),
        "suite completes without aborting: {} of {} jobs reported",
        results.len(),
        jobs.len()
    );
    let victim = &results[nsuite..];
    assert!(
        victim.iter().all(is_load_fault),
        "victim jobs fault with a typed load trap: {victim:?}"
    );
    assert_identical(
        "unaffected suite is bit-identical",
        &results[..nsuite],
        clean(),
        &summary,
    );
    assert!(
        stats.jobs_faulted == victim.len() as u64 && summary.contains("faulted"),
        "summary counts the faulted jobs: jobs_faulted = {}\n{summary}",
        stats.jobs_faulted
    );
    let repro_written = fs::read_dir(qdir).is_ok_and(|entries| {
        entries
            .flatten()
            .any(|e| e.path().join("repro.txt").is_file() && e.path().join("program.asm").is_file())
    });
    assert!(
        repro_written,
        "quarantine reproducer written: {}",
        qdir.display()
    );
    // Replayability: a fresh engine reproduces the identical trap.
    let (_, replay) = run_victim(trap_victim());
    let replays = victim.len() == replay.len()
        && victim.iter().zip(&replay).all(|(a, b)| match (a, b) {
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
    assert!(
        replays,
        "fault replays deterministically: {victim:?} then {replay:?}"
    );
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
    let (engine, results) = run_victim(trap_victim());
    assert!(results.iter().all(is_load_fault), "{results:?}");
    // The profile stage itself succeeded (the failure is REF-only).
    assert_eq!(engine.stats().profile_misses, 1);
}

#[test]
fn guest_trap_is_contained_and_replayable() {
    let scratch = Scratch::new("guest-trap");
    assert_guest_trap_contained(&scratch.0);
}

/// The quarantine reproducer is genuinely replayable: `program.asm`
/// re-parses to the victim program and `repro.txt` records the failing
/// job's coordinates.
#[test]
fn quarantine_reproducer_replays() {
    let scratch = Scratch::new("repro");
    assert_guest_trap_contained(&scratch.0);

    let entry = fs::read_dir(&scratch.0)
        .expect("quarantine directory exists")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.join("repro.txt").is_file())
        .expect("a quarantined job directory");

    let asm = fs::read_to_string(entry.join("program.asm")).expect("program.asm");
    let program = parse_program(&asm).expect("quarantined program re-parses");
    assert_eq!(
        program.disassemble(),
        trap_victim().program.disassemble(),
        "reproducer program round-trips to the victim"
    );

    let repro = fs::read_to_string(entry.join("repro.txt")).expect("repro.txt");
    for field in ["benchmark", "victim-trap", "failure"] {
        assert!(
            repro.contains(field),
            "repro.txt missing {field:?}:\n{repro}"
        );
    }
}

/// A wedged guest is cancelled by the cycle budget, which is armed for
/// every job and perturbs none.
#[test]
fn hang_is_cancelled_by_the_watchdog() {
    // Budget: far above anything a healthy suite job needs, far below
    // the victim's 2^64-iteration spin.
    let budget = clean().iter().map(|s| s.cycles).max().unwrap_or(0) * 4 + 100_000;
    let policy = FaultPolicy {
        max_cycles: Some(budget),
        ..FaultPolicy::default()
    };
    let (engine, jobs, nsuite) = engine_with_suite(Some(hang_victim()), policy);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let summary = stats.summary();

    let victim = &results[nsuite..];
    assert!(
        victim
            .iter()
            .all(|r| matches!(r, JobResult::TimedOut { cycles, .. } if *cycles >= budget)),
        "cycle budget cancels the wedged jobs: budget {budget} cycles; victim outcomes {victim:?}"
    );
    assert_identical(
        "armed budget does not perturb the suite",
        &results[..nsuite],
        clean(),
        &summary,
    );
    assert!(
        stats.jobs_timed_out == victim.len() as u64 && summary.contains("timed out"),
        "summary counts the timed-out jobs: jobs_timed_out = {}\n{summary}",
        stats.jobs_timed_out
    );
}

/// A panic in the job at a seed-chosen index fails that job alone.
fn assert_worker_panic_contained(seed: u64) {
    let (engine, jobs, _) = engine_with_suite(None, FaultPolicy::default());
    let target = (seed as usize) % jobs.len();
    engine.inject_worker_panic(target);
    let mut results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let summary = stats.summary();

    assert!(
        matches!(
            &results[target],
            JobResult::Failed { error, .. } if matches!(error.kind, ErrorKind::WorkerPanic { .. })
        ),
        "panicked job fails with a typed worker panic: seed {seed}, job {target}: {:?}",
        results[target]
    );
    // Both lists without the panicked job (later indices shift by one).
    results.remove(target);
    let mut clean_rest = clean().to_vec();
    clean_rest.remove(target);
    assert_identical(
        &format!("every other job is bit-identical to clean (seed {seed})"),
        &results,
        &clean_rest,
        &summary,
    );
    assert!(
        stats.jobs_failed == 1 && summary.contains(" 1 failed"),
        "summary counts one failed job: seed {seed}, jobs_failed = {}\n{summary}",
        stats.jobs_failed
    );
}

#[test]
fn worker_panic_is_contained() {
    assert_worker_panic_contained(0);
}

/// Truncates a cache entry to half its length.
fn truncate_entry(path: &Path, _seed: u64) -> io::Result<()> {
    let data = fs::read(path)?;
    fs::write(path, &data[..data.len() / 2])
}

/// Flips one seed-chosen bit of a cache entry's payload.
fn bitflip_entry(path: &Path, seed: u64) -> io::Result<()> {
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
/// cache directory, keeping the artifact entries. A journaled job never
/// loads its artifacts, so with the journal in place a damaged entry
/// would never be read.
fn forget_results(cache_dir: &Path) {
    let journal = Journal::new(cache_dir.join(RESULTS_FILE));
    let _ = fs::remove_file(journal.snapshot_path());
    let _ = fs::remove_file(journal.path());
}

/// Populates a disk cache in `cdir`, damages the seed-chosen entry with
/// `corrupt`, and asserts that the entry is quarantined, recomputed
/// bit-identically and re-stored.
fn assert_cache_corruption_contained(
    corrupt: fn(&Path, u64) -> io::Result<()>,
    seed: u64,
    cdir: &Path,
) {
    let policy = FaultPolicy {
        cache_dir: Some(cdir.to_path_buf()),
        ..FaultPolicy::default()
    };
    {
        let (engine, jobs, _) = engine_with_suite(None, policy.clone());
        run_all(&engine, &jobs);
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(cdir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "bin"))
                .collect()
        })
        .unwrap_or_default();
    // `profile-*` sorts after `pair-*`; reversed, seed 0 damages a
    // profile entry, whose binary counters nothing but the checksum
    // guards (a flipped bit in a pair's text mostly fails its parse too).
    entries.sort();
    entries.reverse();
    assert!(
        !entries.is_empty(),
        "disk cache populated: no entries in {}",
        cdir.display()
    );
    let target = &entries[seed as usize % entries.len()];
    if let Err(e) = corrupt(target, seed) {
        panic!("entry corrupted on disk: {}: {e}", target.display());
    }

    // Recovery: a fresh engine over the damaged cache.
    forget_results(cdir);
    let (engine, jobs, _) = engine_with_suite(None, policy.clone());
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let summary = stats.summary();
    assert_identical(
        &format!("corrupt entry evicted and recomputed bit-identically (seed {seed})"),
        &results,
        clean(),
        &summary,
    );
    assert!(
        stats.cache_corrupt >= 1,
        "corruption detected and counted: seed {seed}, {} damaged, cache_corrupt = {}\n{summary}",
        target.display(),
        stats.cache_corrupt
    );
    let quarantine = cdir.join("quarantine");
    assert!(
        fs::read_dir(&quarantine).is_ok_and(|rd| rd.count() >= 1),
        "corrupt entry quarantined, not deleted silently: {}",
        quarantine.display()
    );
    // Self-healing: the recomputed entry was re-stored, so a third
    // engine, again without the journal, sees a fully healthy cache.
    forget_results(cdir);
    let (healed, jobs, _) = engine_with_suite(None, policy);
    run_all(&healed, &jobs);
    assert_eq!(
        healed.stats().cache_corrupt,
        0,
        "cache self-heals after recompute: seed {seed}"
    );
}

#[test]
fn truncated_cache_entry_is_evicted_and_recomputed() {
    let scratch = Scratch::new("cache-truncation");
    assert_cache_corruption_contained(truncate_entry, 0, &scratch.0);
}

#[test]
fn bitflipped_cache_entry_is_evicted_and_recomputed() {
    let scratch = Scratch::new("cache-bitflip");
    assert_cache_corruption_contained(bitflip_entry, 0, &scratch.0);
}

/// Disk pressure: the cache directory path runs *through a regular
/// file*, so every artifact store and results-journal append fails
/// (`ENOTDIR` stands in for `ENOSPC`; permission bits are useless under
/// root). The suite degrades to compute-without-store, bit-identically.
#[test]
fn cache_disk_pressure_degrades_without_store() {
    let scratch = Scratch::new("cache-enospc");
    fs::create_dir_all(&scratch.0).expect("scratch directory");
    let blocker = scratch.0.join("blocker");
    fs::write(&blocker, b"not a directory").expect("blocker file");
    let policy = FaultPolicy {
        cache_dir: Some(blocker.join("cache")),
        ..FaultPolicy::default()
    };
    let (engine, jobs, _) = engine_with_suite(None, policy);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let summary = stats.summary();
    assert_identical(
        "full-disk cache degrades to compute-without-store",
        &results,
        clean(),
        &summary,
    );
    assert!(
        stats.cache_store_failures >= 1 && stats.jobs_failed == 0,
        "failed stores counted, zero job failures: cache_store_failures = {}, jobs_failed = {}",
        stats.cache_store_failures,
        stats.jobs_failed
    );
    assert!(
        summary.contains("store failures"),
        "summary surfaces the store failures:\n{summary}"
    );
}

/// Different seeds stay contained too: the seed steers which job
/// panics and which cache entry is corrupted, never the verdict.
#[test]
fn containment_holds_across_seeds() {
    for seed in [1, 7] {
        assert_worker_panic_contained(seed);
        let scratch = Scratch::new(&format!("seed-{seed}"));
        assert_cache_corruption_contained(bitflip_entry, seed, &scratch.0);
    }
}

/// Runs the `figures` binary with `args`. The child sees none of the
/// caller's `VANGUARD_*` variables, only `env`, so the caller's
/// environment cannot steer a kill round.
fn run_figures(args: &[&str], env: &[(&str, String)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("VANGUARD_") {
            cmd.env_remove(key);
        }
    }
    cmd.args(args)
        .envs(env.iter().cloned())
        .output()
        .expect("spawn the figures binary")
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

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let out = run_figures(&RESUMED_RUN, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "uninterrupted reference run: {}: {stderr}",
            out.status
        );
        let jobs = simulated_jobs(&out.stderr)
            .unwrap_or_else(|| panic!("uninterrupted reference run: no simulate line: {stderr}"));
        Reference {
            stdout: out.stdout,
            jobs,
        }
    })
}

/// One crash-and-resume round through the real CLI: `figures` runs
/// [`RESUMED_RUN`] with `--fault-kill-after kill_after` on the fresh
/// cache directory `dir`, then again without it. Asserts the crash is
/// real (SIGABRT with a partial journal), the rerun simulates exactly
/// the jobs the journal misses, no job is journaled twice, and the
/// rerun's output is byte-identical to an uninterrupted run.
fn crash_and_resume(dir: &Path, kill_after: usize, env: &[(&str, String)]) {
    let reference = reference();
    let journal = Journal::new(dir.join(RESULTS_FILE));
    let total = reference.jobs;
    let mut env = env.to_vec();
    env.push(("VANGUARD_CACHE_DIR", dir.display().to_string()));
    let kill = kill_after.to_string();
    let killed_run = [RESUMED_RUN[0], RESUMED_RUN[1], "--fault-kill-after", &kill];

    let first = run_figures(&killed_run, &env);
    let killed_at = journal.read().map(|s| s.records.len()).unwrap_or(0);
    assert!(
        first.status.signal() == Some(6) && (kill_after..total).contains(&killed_at),
        "SIGABRT mid-run leaves a partial journal: {env:?}: abort after {kill_after}: {} with \
         {killed_at} of {total} jobs",
        first.status
    );

    let second = run_figures(&RESUMED_RUN, &env);
    let rerun_jobs = simulated_jobs(&second.stderr);
    assert!(
        second.status.success() && rerun_jobs == Some(total - killed_at),
        "rerun simulates only the jobs the journal misses: {env:?}: {}, simulated \
         {rerun_jobs:?} of {total} with {killed_at} journaled",
        second.status
    );

    let snapshot = journal.read().unwrap_or_default();
    let duplicates = snapshot.duplicate_keys();
    assert!(
        duplicates.is_empty() && snapshot.records.len() == total,
        "no job ran its side effects twice: {env:?}: {} records of {total}, duplicates \
         {duplicates:?}",
        snapshot.records.len()
    );
    assert!(
        second.stdout == reference.stdout,
        "output byte-identical to an uninterrupted run: {env:?}: {} bytes, {} expected",
        second.stdout.len(),
        reference.stdout.len()
    );
}

/// A `figures fig8 --quick` process aborts (`SIGABRT`) after its first
/// results-journal append; a rerun on the same cache directory resumes
/// off the journal, at every pool size.
#[test]
fn kill_and_resume_is_byte_identical_at_every_pool_size() {
    for threads in KILL_THREADS {
        let scratch = Scratch::new(&format!("kill-resume-{threads}"));
        crash_and_resume(&scratch.0, 1, &[("VANGUARD_THREADS", threads.to_string())]);
    }
}

/// The kill-and-resume round under a 256-byte journal-compaction
/// threshold: the 2nd append crosses it and compacts, so the abort lands
/// right after a compaction or during the next. The rerun (still
/// compacting) must complete off the snapshot + tail, and the snapshot
/// must be left behind.
#[test]
fn kill_during_compaction_is_byte_identical_at_every_pool_size() {
    for threads in KILL_THREADS {
        let scratch = Scratch::new(&format!("compact-kill-{threads}"));
        let env = [
            ("VANGUARD_THREADS", threads.to_string()),
            (COMPACT_BYTES_ENV, "256".to_string()),
        ];
        crash_and_resume(&scratch.0, 2, &env);
        let snapshot = Journal::new(scratch.0.join(RESULTS_FILE)).snapshot_path();
        assert!(
            snapshot.is_file(),
            "compaction actually fired (snapshot on disk): threads={threads}: {}",
            snapshot.display()
        );
    }
}
