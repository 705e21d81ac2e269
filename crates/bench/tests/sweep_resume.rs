//! Integration tests for the `vanguard-sweep` binary: the CI
//! `sweep-resume` gate's contract, exercised through the real CLI.
//!
//! * a journaled `run` is byte-identical to `--serial` at any pool size,
//!   and without `VANGUARD_CACHE_DIR` it writes nothing but its journal;
//! * `--fault-kill-after` aborts the process (`SIGABRT`) leaving a
//!   partial journal, and `resume` completes it byte-identically;
//! * unknown flags are usage errors;
//! * the committed request file `tests/sweeps/ci-quick.req` stays in
//!   sync with [`SweepRequest::ci_quick`].

use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus};
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

/// Runs `vanguard-sweep` with `args` in `dir` on a `threads`-worker pool,
/// with `VANGUARD_CACHE_DIR` unset, returning (exit status, stdout).
/// Forwards the child's stderr so a failing assertion shows *why* the
/// binary exited the way it did.
fn run_sweep(args: &[&str], dir: &Path, threads: usize) -> (ExitStatus, Vec<u8>) {
    let output = Command::new(SWEEP_EXE)
        .args(args)
        .current_dir(dir)
        .env("VANGUARD_THREADS", threads.to_string())
        .env_remove("VANGUARD_CACHE_DIR")
        .output()
        .expect("spawn vanguard-sweep");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    (output.status, output.stdout)
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
fn run_matches_serial_byte_for_byte_at_any_pool_size() {
    let dir = scratch("run");
    let request = ci_request_path();
    let request = request.to_str().unwrap();

    let (status, serial) = run_sweep(&["run", "--request", request, "--serial"], &dir, 1);
    assert!(status.success(), "serial run succeeds");
    assert!(!serial.is_empty());

    for threads in [1, 4] {
        let journal = format!("run-{threads}.vgj");
        let (status, merged) = run_sweep(
            &["run", "--request", request, "--journal", &journal],
            &dir,
            threads,
        );
        assert!(status.success(), "run at {threads} threads succeeds");
        assert_eq!(
            merged, serial,
            "run at {threads} threads is byte-identical to serial"
        );
    }
    let leftovers: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name == "sweep-cache" || name.starts_with("claim-job-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "a run without VANGUARD_CACHE_DIR writes no cache or claim files: {leftovers:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = scratch("killresume");
    let request = ci_request_path();
    let request = request.to_str().unwrap();

    let (status, serial) = run_sweep(&["run", "--request", request, "--serial"], &dir, 1);
    assert!(status.success());

    // Crash: the process aborts right after its 2nd journal append.
    let (status, _) = run_sweep(
        &[
            "run",
            "--request",
            request,
            "--journal",
            "killed.vgj",
            "--fault-kill-after",
            "2",
        ],
        &dir,
        2,
    );
    assert_eq!(
        status.signal(),
        Some(6),
        "--fault-kill-after dies by SIGABRT"
    );
    let records = vanguard_core::Journal::new(dir.join("killed.vgj"))
        .read()
        .expect("the crashed run leaves a readable journal")
        .records
        .len();
    let planned = String::from_utf8_lossy(&serial).lines().count();
    assert!(
        (2..planned).contains(&records),
        "the crash leaves a partial journal: {records} of {planned} records"
    );

    // Resuming a journal that does not exist is a usage error.
    let (status, _) = run_sweep(
        &["resume", "--request", request, "--journal", "no-such.vgj"],
        &dir,
        2,
    );
    assert_eq!(status.code(), Some(2), "resume without a journal exits 2");

    // Resume off the partial journal: completes, byte-identical.
    let (status, resumed) = run_sweep(
        &["resume", "--request", request, "--journal", "killed.vgj"],
        &dir,
        2,
    );
    assert!(status.success(), "resume completes");
    assert_eq!(
        resumed, serial,
        "resumed merge is byte-identical to an uninterrupted serial run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let dir = scratch("badflag");
    let request = ci_request_path();
    let (status, _) = run_sweep(
        &[
            "run",
            "--request",
            request.to_str().unwrap(),
            "--shards",
            "2",
        ],
        &dir,
        1,
    );
    assert_eq!(status.code(), Some(2), "--shards is no longer a flag");
    let _ = fs::remove_dir_all(&dir);
}
