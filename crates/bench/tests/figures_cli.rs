//! Usage errors of the harness binaries: a bad item, flag or value must
//! exit 2 with a usage line before any workload is built, never fall
//! back to a default (full scale, the default cycle budget, the
//! vanguard pass) and
//! run.

use std::process::{Command, Output};

const FIGURES_EXE: &str = env!("CARGO_BIN_EXE_figures");

/// Runs `exe` with `args` and no cache directory, and asserts a usage
/// error: exit 2, stderr opening with `usage: <name>`, nothing on stdout.
fn assert_usage_error(exe: &str, name: &str, args: &[&str]) -> Output {
    let output = Command::new(exe)
        .args(args)
        .env_remove("VANGUARD_CACHE_DIR")
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("usage: {name}")),
        "{args:?}: {stderr}"
    );
    assert!(output.stdout.is_empty(), "{args:?} ran");
    output
}

#[test]
fn bad_flags_exit_2_with_usage_before_any_work() {
    let cases: [&[&str]; 12] = [
        &["all", "--quik"],
        &["table1", "--max-cycles"],
        &["table1", "--max-cycles", "lots"],
        &["table1", "--transform"],
        &["table1", "--transform", "bogus"],
        &["--verbose", "table1", "--max-cycles", "-5"],
        // An unknown item is caught before `table1` runs.
        &["table1", "nosuch"],
        &["table1", "--fault-kill-after"],
        &["table1", "--fault-kill-after", "0"],
        &["table1", "--fault-kill-after", "two"],
        &["table1", "--fault-kill-after", "-1"],
        // Without a cache directory nothing is journaled to abort after.
        &["table1", "--fault-kill-after", "2"],
    ];
    // `table1` prints at once when it runs; nothing may be printed.
    for args in cases {
        assert_usage_error(FIGURES_EXE, "figures", args);
    }
}

#[test]
fn fault_kill_after_zero_is_malformed_even_with_a_cache_dir() {
    let dir = std::env::temp_dir().join(format!("vanguard-figures-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(FIGURES_EXE)
        .args(["table1", "--fault-kill-after", "0"])
        .env("VANGUARD_CACHE_DIR", &dir)
        .output()
        .expect("spawn figures");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    assert!(!dir.exists(), "a usage error builds nothing");
}

#[test]
fn inspect_and_pipeview_follow_the_usage_contract() {
    let inspect = env!("CARGO_BIN_EXE_inspect");
    let pipeview = env!("CARGO_BIN_EXE_pipeview");
    let cases: [(&str, &str, &[&str]); 8] = [
        (inspect, "inspect", &["mcf", "--quik"]),
        (inspect, "inspect", &["mcf", "--transform"]),
        (inspect, "inspect", &["mcf", "--transform", "bogus"]),
        (inspect, "inspect", &["mcf", "astar"]),
        (pipeview, "pipeview", &["--quik"]),
        (pipeview, "pipeview", &["--transform"]),
        (pipeview, "pipeview", &["--transform", "bogus"]),
        (pipeview, "pipeview", &["prog.s", "many"]),
    ];
    for (exe, name, args) in cases {
        assert_usage_error(exe, name, args);
    }
}
