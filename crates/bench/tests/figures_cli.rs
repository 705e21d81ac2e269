//! Usage errors of the `figures` binary: a bad flag must exit 2 with a
//! usage line before any workload is built, never fall back to a default
//! (full scale, no watchdog, the vanguard pass) and run.

use std::process::Command;

const FIGURES_EXE: &str = env!("CARGO_BIN_EXE_figures");

#[test]
fn bad_flags_exit_2_with_usage_before_any_work() {
    let cases: [&[&str]; 6] = [
        &["all", "--quik"],
        &["table1", "--max-cycles"],
        &["table1", "--max-cycles", "lots"],
        &["table1", "--transform"],
        &["table1", "--transform", "bogus"],
        &["--verbose", "table1", "--max-cycles", "-5"],
    ];
    for args in cases {
        let output = Command::new(FIGURES_EXE)
            .args(args)
            .output()
            .expect("spawn figures");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: figures"), "{args:?}: {stderr}");
        // `table1` prints at once when it runs; nothing may be printed.
        assert!(output.stdout.is_empty(), "{args:?} ran an item");
    }
}
