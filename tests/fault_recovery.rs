//! Fault-recovery integration tests: one test per fault class of the
//! `vanguard_bench::faultinject` harness (DESIGN.md §7.8).
//!
//! Each test stages its failure mode against the quick-scale fault
//! suite and asserts the engine's containment contract — the suite
//! completes, the fault surfaces as its typed outcome, and every
//! unaffected job is bit-identical to a clean run. The clean reference
//! is computed once and shared across tests.

use std::path::PathBuf;
use std::sync::OnceLock;
use vanguard_bench::faultinject::{clean_suite_stats, run_class, trap_victim, FaultClass};
use vanguard_isa::parse_program;
use vanguard_sim::SimStats;

fn clean() -> &'static [SimStats] {
    static CLEAN: OnceLock<Vec<SimStats>> = OnceLock::new();
    CLEAN.get_or_init(clean_suite_stats)
}

/// A per-test scratch directory under the system temp dir, removed on
/// drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "vanguard-fault-recovery-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_class_contained(class: FaultClass) {
    let scratch = Scratch::new(class.name());
    let report = run_class(class, 0, &scratch.0, clean());
    for check in &report.checks {
        assert!(
            check.passed,
            "{}: check {:?} failed: {}\nengine summary:\n{}",
            class.name(),
            check.name,
            check.detail,
            report.summary
        );
    }
}

#[test]
fn guest_trap_is_contained_and_replayable() {
    assert_class_contained(FaultClass::GuestTrap);
}

#[test]
fn hang_is_cancelled_by_the_watchdog() {
    assert_class_contained(FaultClass::Hang);
}

#[test]
fn worker_panic_recovers_via_retry() {
    assert_class_contained(FaultClass::WorkerPanic);
}

#[test]
fn truncated_cache_entry_is_evicted_and_recomputed() {
    assert_class_contained(FaultClass::CacheTruncation);
}

#[test]
fn bitflipped_cache_entry_is_evicted_and_recomputed() {
    assert_class_contained(FaultClass::CacheBitflip);
}

/// Disk pressure (every store and results-journal append fails)
/// degrades to compute-without-store, bit-identically. The kill classes
/// (kill-and-resume, compaction-under-kill) run the `figures` binary
/// that sits beside the running executable, which a test binary does
/// not have, so they run through the `faultinject` binary in CI instead.
#[test]
fn cache_disk_pressure_degrades_without_store() {
    assert_class_contained(FaultClass::CacheEnospc);
}

/// The quarantine reproducer is genuinely replayable: `program.asm`
/// re-parses to the victim program and `repro.txt` records the failing
/// job's coordinates.
#[test]
fn quarantine_reproducer_replays() {
    let scratch = Scratch::new("repro");
    let report = run_class(FaultClass::GuestTrap, 0, &scratch.0, clean());
    assert!(report.passed(), "{:#?}", report.checks);

    let qdir = scratch.0.join("quarantine-guest-trap");
    let entry = std::fs::read_dir(&qdir)
        .expect("quarantine directory exists")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.join("repro.txt").is_file())
        .expect("a quarantined job directory");

    let asm = std::fs::read_to_string(entry.join("program.asm")).expect("program.asm");
    let program = parse_program(&asm).expect("quarantined program re-parses");
    assert_eq!(
        program.disassemble(),
        trap_victim().program.disassemble(),
        "reproducer program round-trips to the victim"
    );

    let repro = std::fs::read_to_string(entry.join("repro.txt")).expect("repro.txt");
    for field in ["benchmark", "victim-trap", "failure"] {
        assert!(
            repro.contains(field),
            "repro.txt missing {field:?}:\n{repro}"
        );
    }
}

/// Different seeds stay contained too: the seed steers which job
/// panics and which cache entry is corrupted, never the verdict.
#[test]
fn containment_holds_across_seeds() {
    let scratch = Scratch::new("seeds");
    for seed in [1, 7] {
        for class in [FaultClass::WorkerPanic, FaultClass::CacheBitflip] {
            let report = run_class(class, seed, &scratch.0, clean());
            assert!(
                report.passed(),
                "{} seed {seed}: {:#?}",
                class.name(),
                report.checks
            );
        }
    }
}
