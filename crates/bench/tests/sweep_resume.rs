//! Integration tests for the `vanguard-sweep` binary: the CI
//! `sweep-resume` gate's contract, exercised through the real CLI.
//!
//! * a sharded run's merged output is byte-identical to `--serial`,
//!   and its workers leave no per-worker files in the cache directory;
//! * `--fault-kill-after` interrupts the run (exit 3) leaving a
//!   partial journal, and `resume` completes it byte-identically;
//! * the committed request file `tests/sweeps/ci-quick.req` stays in
//!   sync with [`SweepRequest::ci_quick`].

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use vanguard_bench::sweep::SweepRequest;

const SWEEP_EXE: &str = env!("CARGO_BIN_EXE_vanguard-sweep");

/// The committed CI request file (repo root `tests/sweeps/`).
fn ci_request_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/sweeps/ci-quick.req")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vanguard-sweep-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `vanguard-sweep` with `args`, caching under `cache`, returning
/// (exit code, stdout). Forwards the child's stderr so a failing
/// assertion shows *why* the binary exited the way it did.
fn run_sweep(args: &[&str], cache: &Path) -> (i32, Vec<u8>) {
    let output = Command::new(SWEEP_EXE)
        .args(args)
        .env("VANGUARD_CACHE_DIR", cache)
        .output()
        .expect("spawn vanguard-sweep");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    (output.status.code().unwrap_or(-1), output.stdout)
}

#[test]
fn committed_request_matches_ci_quick() {
    let text = fs::read_to_string(ci_request_path()).expect("committed request file");
    let parsed = SweepRequest::parse(&text).expect("committed request parses");
    assert_eq!(parsed, SweepRequest::ci_quick());
    // The canonical render round-trips (the file may add comments, but
    // its semantic content is exactly the CI quick request).
    assert_eq!(SweepRequest::parse(&parsed.render()).unwrap(), parsed);
}

#[test]
fn sharded_run_matches_serial_byte_for_byte() {
    let dir = scratch("sharded");
    let request = ci_request_path();
    let request = request.to_str().unwrap();

    let (code, serial) = run_sweep(
        &["run", "--request", request, "--serial"],
        &dir.join("serial-cache"),
    );
    assert_eq!(code, 0, "serial run succeeds");
    assert!(!serial.is_empty());

    let journal = dir.join("sharded.vgj");
    let cache = dir.join("sharded-cache");
    let (code, sharded) = run_sweep(
        &[
            "run",
            "--request",
            request,
            "--journal",
            journal.to_str().unwrap(),
            "--shards",
            "2",
        ],
        &cache,
    );
    assert_eq!(code, 0, "sharded run succeeds");
    assert_eq!(sharded, serial, "sharded merge is byte-identical to serial");
    let leftovers: Vec<_> = fs::read_dir(&cache)
        .expect("workers populated the cache directory")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("hb-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "workers leave no per-worker files: {leftovers:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = scratch("killresume");
    let request = ci_request_path();
    let request = request.to_str().unwrap();

    let (code, serial) = run_sweep(
        &["run", "--request", request, "--serial"],
        &dir.join("serial-cache"),
    );
    assert_eq!(code, 0);

    // Interrupt: SIGKILL the workers after 2 journaled jobs. The
    // throttle keeps jobs slow enough that the kill lands mid-sweep.
    let journal = dir.join("killed.vgj");
    let cache = dir.join("killed-cache");
    let (code, _) = run_sweep(
        &[
            "run",
            "--request",
            request,
            "--journal",
            journal.to_str().unwrap(),
            "--shards",
            "2",
            "--fault-kill-after",
            "2",
            "--throttle-ms",
            "40",
        ],
        &cache,
    );
    assert_eq!(code, 3, "--fault-kill-after exits 3 (interrupted)");
    assert!(journal.exists(), "interrupted run leaves its journal");

    // Resuming a journal that does not exist is a usage error.
    let (code, _) = run_sweep(
        &[
            "resume",
            "--request",
            request,
            "--journal",
            dir.join("no-such.vgj").to_str().unwrap(),
        ],
        &cache,
    );
    assert_eq!(code, 2, "resume without a journal exits 2");

    // Resume off the partial journal: completes, byte-identical.
    let (code, resumed) = run_sweep(
        &[
            "resume",
            "--request",
            request,
            "--journal",
            journal.to_str().unwrap(),
            "--shards",
            "2",
        ],
        &cache,
    );
    assert_eq!(code, 0, "resume completes");
    assert_eq!(
        resumed, serial,
        "resumed merge is byte-identical to an uninterrupted serial run"
    );
    let _ = fs::remove_dir_all(&dir);
}
