//! Fault-injection gate: stages each fault class against the engine and
//! writes `BENCH_robustness.json`.
//!
//! ```text
//! cargo run --release -p vanguard-bench --bin faultinject -- --all-classes --seed 0
//! cargo run --release -p vanguard-bench --bin faultinject -- --class guest-trap
//! cargo run --release -p vanguard-bench --bin faultinject -- --skip-overhead --out target/r.json
//! ```
//!
//! Exit status is non-zero when any class assertion fails or the armed
//! watchdog costs ≥ 2 % of clean simulate time (the robustness gate CI
//! applies). Everything is deterministic in `--seed`. The kill classes
//! run the `figures` binary from the same directory, so build both
//! first (`cargo build --release -p vanguard-bench --bins`).

use std::fmt::Write as _;
use vanguard_bench::faultinject::{
    clean_suite_stats, measure_overhead, run_class, ClassReport, FaultClass,
};

/// Maximum tolerated watchdog overhead on a clean run, in percent.
const OVERHEAD_GATE_PCT: f64 = 2.0;

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_robustness.json", |s| s.as_str());
    let rounds: usize = args
        .iter()
        .position(|a| a == "--rounds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let skip_overhead = args.iter().any(|a| a == "--skip-overhead");
    let mut classes: Vec<FaultClass> = Vec::new();
    let mut bad_flag = false;
    for (i, a) in args.iter().enumerate() {
        if a == "--class" {
            match args
                .get(i + 1)
                .map(String::as_str)
                .and_then(FaultClass::parse)
            {
                Some(c) => classes.push(c),
                None => {
                    eprintln!("[faultinject] unknown --class value: {:?}", args.get(i + 1));
                    bad_flag = true;
                }
            }
        }
    }
    if bad_flag {
        std::process::exit(2);
    }
    if classes.is_empty() || args.iter().any(|a| a == "--all-classes") {
        classes = FaultClass::ALL.to_vec();
    }

    let scratch = std::env::temp_dir().join(format!("vanguard-faultinject-{}", std::process::id()));
    eprintln!("[faultinject] seed {seed}, scratch {}", scratch.display());
    eprintln!("[faultinject] clean reference run ...");
    let clean = clean_suite_stats();

    let mut reports: Vec<ClassReport> = Vec::new();
    for class in classes {
        eprintln!("[faultinject] class {} ...", class.name());
        let report = run_class(class, seed, &scratch, &clean);
        for check in &report.checks {
            eprintln!(
                "[faultinject]   {} {}: {}",
                if check.passed { "PASS" } else { "FAIL" },
                check.name,
                check.detail
            );
        }
        reports.push(report);
    }

    let overhead = if skip_overhead {
        None
    } else {
        eprintln!("[faultinject] watchdog overhead, min-of-{rounds} per side ...");
        let o = measure_overhead(rounds);
        eprintln!(
            "[faultinject] clean {:.1} ms, armed {:.1} ms, overhead {:.2}%",
            o.clean_sim_ms,
            o.armed_sim_ms,
            o.overhead_pct()
        );
        Some(o)
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"vanguard-faultinject-v1\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"classes\": [");
    for (i, report) in reports.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"class\": {},", json_str(report.class.name()));
        let _ = writeln!(json, "      \"passed\": {},", report.passed());
        let _ = writeln!(json, "      \"checks\": [");
        for (j, check) in report.checks.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{ \"name\": {}, \"passed\": {} }}{}",
                json_str(check.name),
                check.passed,
                if j + 1 < report.checks.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]{}", if overhead.is_some() { "," } else { "" });
    if let Some(o) = overhead {
        let _ = writeln!(json, "  \"overhead\": {{");
        let _ = writeln!(json, "    \"rounds\": {},", o.rounds);
        let _ = writeln!(json, "    \"clean_sim_ms\": {:.4},", o.clean_sim_ms);
        let _ = writeln!(json, "    \"armed_sim_ms\": {:.4},", o.armed_sim_ms);
        let _ = writeln!(json, "    \"overhead_pct\": {:.4},", o.overhead_pct());
        let _ = writeln!(json, "    \"gate_pct\": {OVERHEAD_GATE_PCT},");
        let _ = writeln!(
            json,
            "    \"passed\": {}",
            o.overhead_pct() < OVERHEAD_GATE_PCT
        );
        let _ = writeln!(json, "  }}");
    }
    let _ = writeln!(json, "}}");
    std::fs::write(out_path, &json).expect("write BENCH_robustness.json");
    eprintln!("[faultinject] wrote {out_path}");

    let _ = std::fs::remove_dir_all(&scratch);

    let failed_classes: Vec<&str> = reports
        .iter()
        .filter(|r| !r.passed())
        .map(|r| r.class.name())
        .collect();
    if !failed_classes.is_empty() {
        eprintln!("[faultinject] FAIL: classes {failed_classes:?}");
        std::process::exit(1);
    }
    if let Some(o) = overhead {
        if o.overhead_pct() >= OVERHEAD_GATE_PCT {
            eprintln!(
                "[faultinject] FAIL: watchdog overhead {:.2}% exceeds the {OVERHEAD_GATE_PCT}% gate",
                o.overhead_pct()
            );
            std::process::exit(1);
        }
    }
    eprintln!("[faultinject] all classes contained");
}
