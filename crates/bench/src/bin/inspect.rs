//! Developer inspection tool: dumps baseline-vs-experimental statistics
//! for one benchmark (used to diagnose where cycles go).
//!
//! `--transform <kind>` swaps the pass (vanguard | meld | shadow |
//! stacked) so rival transformations can be diagnosed the same way. An
//! unknown flag, a missing or unknown kind, or a second benchmark exits
//! 2 with a usage line, as `figures` does.

use std::sync::Arc;
use vanguard_bench::{BenchScale, StderrProgress, SuiteEngine};
use vanguard_core::TransformKind;
use vanguard_sim::MachineConfig;
use vanguard_workloads::suite;

fn usage() -> ! {
    eprintln!("usage: inspect [BENCH] [--transform vanguard|meld|shadow|stacked]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut transform: Option<TransformKind> = None;
    let mut name: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--transform" => {
                transform = Some(
                    it.next()
                        .and_then(|v| TransformKind::parse(v))
                        .unwrap_or_else(|| usage()),
                )
            }
            flag if flag.starts_with("--") => usage(),
            bench if name.is_none() => name = Some(bench.to_string()),
            _ => usage(),
        }
    }
    let name = name.unwrap_or_else(|| "mcf".into());
    let Some(spec) = suite::all_benchmarks().into_iter().find(|s| s.name == name) else {
        let names: Vec<String> = suite::all_benchmarks()
            .into_iter()
            .map(|s| s.name)
            .collect();
        eprintln!(
            "unknown benchmark `{name}`; choose one of: {}",
            names.join(", ")
        );
        std::process::exit(1);
    };
    let mut eng = SuiteEngine::new(BenchScale::Quick);
    if let Some(kind) = transform {
        eng.set_transform_kind(kind);
    }
    eng.observe(Arc::new(StderrProgress::verbose()));
    let out = eng.outcome(&spec, MachineConfig::four_wide());
    let r = &out.runs[0];
    println!("== {name} ({}) ==", eng.transform().kind);
    println!(
        "speedup: {:.2}%   PBC {:.1}  PISCS {:.1}",
        out.geomean_speedup_pct(),
        out.report.pbc(),
        out.report.piscs()
    );
    println!(
        "converted: {}  melded: {}  skipped sites: {:?}",
        out.report.converted.len(),
        out.report.melded,
        out.report.skipped
    );
    for (label, s) in [("base", &r.base), ("exp ", &r.exp)] {
        println!(
            "{label}: cyc={} ipc={:.2} issued={} wp={} fetched={} br={} brmiss={} res={} resmiss={} \
             brstall={} resstall={} festall={} opstall={} fustall={} icstall={} l1d(h={},m={}) l2m={} l3m={} mem={}",
            s.cycles, s.ipc(), s.issued, s.issued_wrong_path, s.fetched,
            s.branches, s.branch_mispredicts, s.resolves, s.resolve_mispredicts,
            s.branch_stall_cycles, s.resolve_stall_cycles, s.frontend_stall_cycles,
            s.operand_stall_cycles, s.fu_stall_cycles, s.icache_stall_cycles,
            s.mem.l1d.hits, s.mem.l1d.misses, s.mem.l2.misses, s.mem.l3.misses, s.mem.memory_accesses,
        );
    }
    eprintln!("{}", eng.engine().stats().summary());
}
