//! `vanguard-fuzz`: differential fuzzing of the Decomposed Branch
//! Transformation.
//!
//! ```text
//! # campaign: 1000 seeded cases (or stop after 120 s), reproducers to ./fuzz-out
//! cargo run --release -p vanguard-bench --bin vanguard-fuzz -- \
//!     --cases 1000 --seed 0 --time-budget 120 --out fuzz-out
//!
//! # replay one (possibly shrunk) case with explicit knobs
//! cargo run --release -p vanguard-bench --bin vanguard-fuzz -- \
//!     --one 42 --sites 1 --side-insts 2 --iterations 10
//!
//! # prove the harness catches sabotage (test-only)
//! cargo run --release -p vanguard-bench --bin vanguard-fuzz -- \
//!     --cases 20 --inject flip-resolves
//! ```
//!
//! Exit status is non-zero iff any case failed (after shrinking and
//! writing reproducers), so CI can gate on it directly.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use vanguard_bench::fuzz::{
    kinds_for, run_case_kinds, run_fuzz, shrink_kinds, write_reproducer, FuzzConfig, Inject,
};
use vanguard_core::TransformKind;
use vanguard_workloads::FuzzSpec;

fn usage() -> ! {
    eprintln!(
        "usage: vanguard-fuzz [--cases N] [--seed S] [--time-budget SECS] [--out DIR]\n\
         \x20                  [--transform vanguard|meld|shadow|stacked]\n\
         \x20                  [--inject flip-resolves|faulting-loads]\n\
         \x20                  [--one SEED [--sites N] [--side-insts N] [--stores N]\n\
         \x20                   [--persistent N] [--iterations N] [--cond-chain BOOL]\n\
         \x20                   [--shadow-temps BOOL] [--hoist-loads BOOL] [--max-hoist N]]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut cases: u64 = 1000;
    let mut seed: u64 = 0;
    let mut time_budget: Option<Duration> = None;
    let mut out_dir = PathBuf::from("fuzz-out");
    let mut inject: Option<Inject> = None;
    let mut transform: Option<TransformKind> = None;
    let mut one: Option<u64> = None;
    let mut overrides: Vec<(String, String)> = Vec::new();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => cases = parse(args.next()),
            "--seed" => seed = parse(args.next()),
            "--time-budget" => time_budget = Some(Duration::from_secs(parse(args.next()))),
            "--out" => out_dir = PathBuf::from(parse::<String>(args.next())),
            "--transform" => {
                transform = Some(
                    args.next()
                        .as_deref()
                        .and_then(TransformKind::parse)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--inject" => {
                inject = Some(
                    args.next()
                        .as_deref()
                        .and_then(Inject::parse)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--one" => one = Some(parse(args.next())),
            knob @ ("--sites" | "--side-insts" | "--stores" | "--persistent" | "--iterations"
            | "--cond-chain" | "--shadow-temps" | "--hoist-loads" | "--max-hoist") => {
                overrides.push((knob.to_string(), parse(args.next())));
            }
            _ => usage(),
        }
    }

    if let Some(seed) = one {
        // Replay mode: one case, knobs overridable for shrunk reproducers.
        let mut spec = FuzzSpec::from_seed(seed);
        for (knob, value) in &overrides {
            match knob.as_str() {
                "--sites" => spec.sites = value.parse().unwrap_or_else(|_| usage()),
                "--side-insts" => spec.side_insts = value.parse().unwrap_or_else(|_| usage()),
                "--stores" => spec.stores_per_side = value.parse().unwrap_or_else(|_| usage()),
                "--persistent" => spec.persistent = value.parse().unwrap_or_else(|_| usage()),
                "--iterations" => spec.iterations = value.parse().unwrap_or_else(|_| usage()),
                "--cond-chain" => spec.cond_chain = value.parse().unwrap_or_else(|_| usage()),
                "--shadow-temps" => spec.shadow_temps = value.parse().unwrap_or_else(|_| usage()),
                "--hoist-loads" => spec.hoist_loads = value.parse().unwrap_or_else(|_| usage()),
                "--max-hoist" => spec.max_hoist = value.parse().unwrap_or_else(|_| usage()),
                _ => unreachable!("knob list matches the parser"),
            }
        }
        eprintln!("[fuzz] replaying {spec:?}");
        let kinds = kinds_for(transform);
        return match run_case_kinds(&spec, inject, &kinds) {
            Ok(sites) => {
                println!("seed {seed}: PASS ({sites} sites converted)");
                ExitCode::SUCCESS
            }
            Err(failure) => {
                let (min_spec, min_failure) = shrink_kinds(&spec, inject, failure, &kinds);
                println!("seed {seed}: FAIL\n{min_failure}");
                match write_reproducer(&out_dir, &min_spec, inject, &min_failure) {
                    Ok(dir) => eprintln!("[fuzz] reproducer written to {}", dir.display()),
                    Err(e) => eprintln!("[fuzz] failed to write reproducer: {e}"),
                }
                ExitCode::FAILURE
            }
        };
    }

    let config = FuzzConfig {
        cases,
        start_seed: seed,
        time_budget,
        out_dir,
        inject,
        transform,
    };
    let stats = run_fuzz(&config);
    println!(
        "fuzz: {} cases, {} with converted sites ({} sites total), {} failures",
        stats.cases_run,
        stats.transformed,
        stats.sites_converted,
        stats.failures.len()
    );
    for (seed, spec, failure) in &stats.failures {
        println!("  seed {seed} (shrunk to {spec:?}):\n    {failure}");
    }
    if stats.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
