//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p vanguard-bench --bin figures -- all
//! cargo run --release -p vanguard-bench --bin figures -- table2 --quick
//! cargo run --release -p vanguard-bench --bin figures -- fig8 fig9 sensitivity
//! cargo run --release -p vanguard-bench --bin figures -- fig8 --quick --assert-shape
//! cargo run --release -p vanguard-bench --bin figures -- ablation --quick
//! cargo run --release -p vanguard-bench --bin figures -- knobs --quick
//! cargo run --release -p vanguard-bench --bin figures -- fig8 --transform meld
//! ```
//!
//! `ablation` runs every benchmark through all four transform passes
//! (vanguard / meld / shadow / stacked) head-to-head on the 4-wide and
//! prints the per-benchmark ablation table; `--transform <kind>`
//! re-runs any *other* item under a rival pass instead of the paper's
//! decomposition. `knobs` sweeps the paper's design choices one at a
//! time (selection threshold, hoist budget, `ld.s` hoisting, shadow
//! temporaries, DBB size) over SPEC06 INT+FP on the 4-wide, and forces
//! conversion on one kernel per Figure 1 quadrant. Neither `ablation`
//! nor `knobs` is part of `all`, which reproduces the paper's figures
//! only, and both ignore `--transform`.
//!
//! `--assert-shape` (CI's paper-shape job) re-checks the qualitative
//! claims of Figure 8 — positive geomean speedup at every width, the
//! paper's high-opportunity benchmarks leading the low-opportunity ones —
//! and exits non-zero on any violation.
//!
//! Exit codes: 0 success, 2 usage, 3 shape violation. An unknown item or
//! flag, a `--max-cycles`/`--transform`/`--fault-kill-after` with a
//! missing or malformed value, or `--fault-kill-after` without
//! `VANGUARD_CACHE_DIR` exits 2 with a usage line before any workload is
//! built.
//!
//! All items share one experiment engine: profiles and compiled pairs
//! are computed once per distinct (benchmark, predictor, width) and
//! reused across figures, and simulations run on a worker pool sized by
//! `VANGUARD_THREADS` (default: available parallelism). Figure data is
//! printed to stdout — byte-identical for any worker count — while
//! progress and per-stage timings go to stderr (`--verbose` adds a line
//! per simulation job).
//!
//! With `VANGUARD_CACHE_DIR` set, every simulated job's outcome is
//! journaled in `<dir>/results.vgj` as it finishes, and a run serves
//! every job the journal already holds without simulating it, so
//! rerunning an interrupted run on the same directory resumes it.
//! `--fault-kill-after N` aborts the process (`SIGABRT`, exit 134) right
//! after its Nth journal append, to test exactly that.

use std::sync::Arc;
use std::time::Instant;
use vanguard_bench::{
    ablation_rows, check_ablation_shape, check_fig8_shape, fig14_rows, fig2_fig3_series,
    format_ablation, format_knobs, format_speedups, format_table2, geomean_pct, icache_ablation,
    knob_rows, quadrant_rows, sensitivity_rows, suite_speedups, table1_text, table2_rows,
    BenchScale, StderrProgress, SuiteEngine,
};
use vanguard_core::engine::FaultPolicy;
use vanguard_core::TransformKind;
use vanguard_workloads::suite;

/// The items `all` runs, in order: the paper's figures and tables.
const PAPER_ITEMS: [&str; 13] = [
    "table1",
    "fig2",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "fig14",
    "sensitivity",
    "icache",
];

fn usage() -> ! {
    eprintln!(
        "usage: figures [ITEM...] [--quick] [--verbose] [--assert-shape] [--max-cycles N] \
         [--transform vanguard|meld|shadow|stacked] [--fault-kill-after N]\n\
         \x20      items: all {} ablation knobs",
        PAPER_ITEMS.join(" ")
    );
    std::process::exit(2);
}

/// A flag's value, parsed; a missing or malformed value is a usage error.
fn flag_value<T>(value: Option<&String>, parse: impl FnOnce(&str) -> Option<T>) -> T {
    value.and_then(|v| parse(v)).unwrap_or_else(|| usage())
}

fn main() {
    let mut shape_violated = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut verbose, mut assert_shape) = (false, false, false);
    // `--max-cycles N` replaces the simulator's default per-job cycle
    // budget: a job still running at cycle N becomes a TimedOut outcome.
    let mut max_cycles: Option<u64> = None;
    // `--transform <kind>` swaps the pass used by every non-ablation item.
    let mut transform: Option<TransformKind> = None;
    // `--fault-kill-after N` aborts after the Nth results-journal append.
    let mut kill_after: Option<usize> = None;
    let mut what: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--verbose" => verbose = true,
            "--assert-shape" => assert_shape = true,
            "--max-cycles" => max_cycles = Some(flag_value(it.next(), |v| v.parse().ok())),
            "--transform" => transform = Some(flag_value(it.next(), TransformKind::parse)),
            "--fault-kill-after" => {
                kill_after = Some(flag_value(it.next(), |v| v.parse().ok().filter(|&n| n > 0)))
            }
            flag if flag.starts_with("--") => usage(),
            item if ["all", "ablation", "knobs"].contains(&item) || PAPER_ITEMS.contains(&item) => {
                what.push(item)
            }
            _ => usage(),
        }
    }
    // Without a cache directory nothing is journaled, so nothing aborts.
    if kill_after.is_some() && FaultPolicy::from_env().cache_dir.is_none() {
        usage();
    }
    let scale = if quick {
        BenchScale::Quick
    } else {
        BenchScale::Full
    };
    if what.is_empty() || what.contains(&"all") {
        what = PAPER_ITEMS.to_vec();
    }

    let mut eng = SuiteEngine::new(scale);
    if let Some(kind) = transform {
        eng.set_transform_kind(kind);
        eprintln!("[engine] transform pass: {kind}");
    }
    if let Some(mc) = max_cycles {
        let mut policy = eng.engine().fault_policy().clone();
        policy.max_cycles = Some(mc);
        eng.set_fault_policy(policy);
    }
    if let Some(appends) = kill_after {
        eng.engine().abort_after_appends(appends);
    }
    eng.observe(Arc::new(if verbose {
        StderrProgress::verbose()
    } else {
        StderrProgress::new()
    }));
    eprintln!("[engine] {} workers", eng.engine().workers());
    let started = Instant::now();

    for item in what {
        let item_started = Instant::now();
        match item {
            "table1" => {
                println!("== Table 1: Machine Configuration Parameters ==");
                println!("{}", table1_text());
            }
            "fig2" | "fig3" => {
                let (label, specs) = if item == "fig2" {
                    (
                        "Figure 2: SPEC 2006 INT predictability vs bias (top 75 fwd branches)",
                        suite::spec2006_int(),
                    )
                } else {
                    (
                        "Figure 3: SPEC 2006 FP predictability vs bias (top 75 fwd branches)",
                        suite::spec2006_fp(),
                    )
                };
                println!("== {label} ==");
                println!(
                    "{:>4} {:>8} {:>14} {:>10}",
                    "rank", "bias", "predictability", "execs"
                );
                for p in fig2_fig3_series(&mut eng, &specs, 75) {
                    println!(
                        "{:>4} {:>8.3} {:>14.3} {:>10}",
                        p.rank, p.bias, p.predictability, p.executed
                    );
                }
                println!();
            }
            "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig13" => {
                let (label, specs, best) = match item {
                    "fig8" => (
                        "Figure 8: SPEC06 INT speedup, all REF inputs",
                        suite::spec2006_int(),
                        false,
                    ),
                    "fig9" => (
                        "Figure 9: SPEC06 INT speedup, best REF input",
                        suite::spec2006_int(),
                        true,
                    ),
                    "fig10" => (
                        "Figure 10: SPEC00 INT speedup, all REF inputs",
                        suite::spec2000_int(),
                        false,
                    ),
                    "fig11" => (
                        "Figure 11: SPEC00 INT speedup, best REF input",
                        suite::spec2000_int(),
                        true,
                    ),
                    "fig12" => (
                        "Figure 12: SPEC06 FP speedup, all REF inputs",
                        suite::spec2006_fp(),
                        false,
                    ),
                    _ => (
                        "Figure 13: SPEC00 FP speedup, all REF inputs",
                        suite::spec2000_fp(),
                        false,
                    ),
                };
                println!("== {label} ==");
                let rows = suite_speedups(&mut eng, &specs);
                println!("{}", format_speedups(&rows, best));
                if assert_shape && item == "fig8" {
                    match check_fig8_shape(&rows) {
                        Ok(()) => eprintln!("[shape] fig8 shape assertions hold"),
                        Err(violations) => {
                            shape_violated = true;
                            for v in &violations {
                                eprintln!("[shape] VIOLATION: {v}");
                            }
                        }
                    }
                }
            }
            "table2" => {
                println!("== Table 2: SPEC 2006 INT+FP metrics, 4-wide (sorted by SPD) ==");
                let mut specs = suite::spec2006_int();
                specs.extend(suite::spec2006_fp());
                let mut rows = table2_rows(&mut eng, &specs);
                rows.sort_by(|a, b| b.spd.partial_cmp(&a.spd).unwrap());
                println!("{}", format_table2(&rows));
            }
            "fig14" => {
                println!("== Figure 14: % increase in instructions issued (4-wide) ==");
                let mut specs = suite::spec2006_int();
                specs.extend(suite::spec2006_fp());
                let rows = fig14_rows(&mut eng, &specs);
                for r in &rows {
                    println!("{:<12} {:>6.2}%", r.name, r.increase_pct);
                }
                let avg: f64 = rows.iter().map(|r| r.increase_pct).sum::<f64>() / rows.len() as f64;
                println!("{:<12} {avg:>6.2}%\n", "AVERAGE");
            }
            "ablation" => {
                println!("== Transform ablation: SPEC06 INT+FP, 4-wide, speedup% (sites) ==");
                let mut specs = suite::spec2006_int();
                specs.extend(suite::spec2006_fp());
                let rows = ablation_rows(&mut eng, &specs);
                println!("{}", format_ablation(&rows));
                if assert_shape {
                    match check_ablation_shape(&rows) {
                        Ok(()) => eprintln!("[shape] ablation shape assertions hold"),
                        Err(violations) => {
                            shape_violated = true;
                            for v in &violations {
                                eprintln!("[shape] VIOLATION: {v}");
                            }
                        }
                    }
                }
            }
            "knobs" => {
                println!("== Design knobs: SPEC06 INT+FP, 4-wide, speedup% (converted sites) ==");
                let mut specs = suite::spec2006_int();
                specs.extend(suite::spec2006_fp());
                let rows = knob_rows(&mut eng, &specs);
                let quadrants = quadrant_rows(&mut eng);
                println!("{}", format_knobs(&rows, &quadrants));
            }
            "sensitivity" => {
                println!("== Section 5.3: branch-predictor sensitivity (astar/sjeng/gobmk/mcf) ==");
                let specs: Vec<_> = suite::spec2006_int()
                    .into_iter()
                    .filter(|s| ["astar", "sjeng", "gobmk", "mcf"].contains(&s.name.as_str()))
                    .collect();
                println!(
                    "{:<8} {:<30} {:>10} {:>9}",
                    "bench", "predictor", "missrate", "speedup"
                );
                for r in sensitivity_rows(&mut eng, &specs) {
                    println!(
                        "{:<8} {:<30} {:>9.2}% {:>8.2}%",
                        r.name,
                        r.predictor,
                        r.mispredict_rate * 100.0,
                        r.speedup_pct
                    );
                }
                println!();
            }
            "icache" => {
                println!("== Section 6.1: I$ 32KB -> 24KB ablation (transformed code) ==");
                let specs = suite::spec2006_int();
                let rows = icache_ablation(&mut eng, &specs);
                println!(
                    "{:<12} {:>12} {:>12} {:>10} {:>22}",
                    "bench", "cyc(32K)", "cyc(24K)", "slowdown", "I$miss-under-mispred"
                );
                let mut slows = Vec::new();
                for r in &rows {
                    println!(
                        "{:<12} {:>12} {:>12} {:>9.2}% {:>21.1}%",
                        r.name,
                        r.cycles_32k,
                        r.cycles_24k,
                        r.slowdown_pct(),
                        r.miss_under_mispredict * 100.0
                    );
                    slows.push(r.slowdown_pct());
                }
                println!("geomean slowdown: {:.2}%\n", geomean_pct(&slows));
            }
            other => unreachable!("item {other} was checked up front"),
        }
        eprintln!(
            "[engine] item {:<12} done in {:.1} ms",
            item,
            item_started.elapsed().as_secs_f64() * 1e3
        );
    }

    eprintln!(
        "[engine] total wall-clock {:.1} ms, per-stage breakdown:\n{}",
        started.elapsed().as_secs_f64() * 1e3,
        eng.engine().stats().summary()
    );
    if shape_violated {
        eprintln!("[shape] shape assertions FAILED");
        std::process::exit(3);
    }
}
