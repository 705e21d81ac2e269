//! Pipeline viewer: run a program on the cycle simulator and print a
//! per-cycle issue trace — the tool for *seeing* why the decomposed
//! version is faster.
//!
//! ```text
//! # Built-in demo (baseline vs decomposed hammock, first 60 cycles):
//! cargo run --release -p vanguard-bench --bin pipeview
//!
//! # Your own program (assembly syntax; see vanguard_isa::parse_program):
//! cargo run --release -p vanguard-bench --bin pipeview -- path/to/prog.s 120
//!
//! # Rival passes on the demo (vanguard | meld | shadow | stacked):
//! cargo run --release -p vanguard-bench --bin pipeview -- --transform shadow
//! ```
//!
//! An unknown flag, a missing or unknown `--transform` kind, a
//! malformed cycle count or a third argument exits 2 with a usage line,
//! as `figures` does.

use std::sync::Arc;
use vanguard_bench::StderrProgress;
use vanguard_bpred::Combined;
use vanguard_core::engine::{Engine, PredictorKind};
use vanguard_core::{ExperimentInput, RunInput, TransformKind, TransformOptions};
use vanguard_isa::{parse_program, Memory, Program, Reg};
use vanguard_sim::{MachineConfig, Simulator, TraceEvent};

const DEMO: &str = r"
.entry bb0
bb0 <entry>:
    mov r1, #200
    mov r3, #65536
    mov r10, #131072
    ; fallthrough -> bb1
bb1 <head>:
    ld r4, [r3+0]
    cmp.ne r5, r4, #0
    br.nz r5, bb3
    ; fallthrough -> bb2
bb2 <fall>:
    ld r6, [r10+0]
    add r7, r6, #1
    st [r10+64], r7
    jmp bb4
bb3 <taken>:
    ld r6, [r10+8]
    add r7, r6, #2
    st [r10+72], r7
    ; fallthrough -> bb4
bb4 <latch>:
    add r3, r3, #8
    sub r1, r1, #1
    cmp.ne r2, r1, #0
    br.nz r2, bb1
    ; fallthrough -> bb5
bb5 <exit>:
    halt
";

fn demo_memory() -> Memory {
    let mut mem = Memory::new();
    let conds: Vec<u64> = (0..200).map(|i| u64::from(i % 3 != 1)).collect();
    mem.load_words(0x1_0000, &conds);
    mem.load_words(0x2_0000, &(0..64u64).collect::<Vec<_>>());
    mem
}

fn render(label: &str, program: &Program, mem: Memory, window: u64) -> u64 {
    println!("--- {label} ---");
    let sim = Simulator::new(
        program,
        mem,
        MachineConfig::four_wide(),
        Box::new(Combined::ptlsim_default()),
    );
    let mut events: Vec<TraceEvent> = Vec::new();
    let result = sim
        .run_traced(|e| events.push(*e))
        .expect("simulates cleanly");
    // Show a steady-state window starting at the 100th issue (past the
    // cold-I$ warmup, which is all stall); short programs fall back to
    // their first issue.
    let issue_cycles: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Issue { cycle, .. } => Some(*cycle),
            _ => None,
        })
        .collect();
    let start = issue_cycles
        .get(100)
        .or_else(|| issue_cycles.first())
        .copied()
        .unwrap_or(0);
    let end = start + window;
    let mut last_cycle = u64::MAX;
    let mut rows: Vec<String> = Vec::new();
    for e in &events {
        match *e {
            TraceEvent::Issue {
                cycle,
                pc,
                mnemonic,
                wrong_path,
            } if (start..end).contains(&cycle) => {
                if cycle != last_cycle {
                    rows.push(format!("cyc {cycle:>5} |"));
                    last_cycle = cycle;
                }
                let tag = if wrong_path { "*" } else { " " };
                let row = rows.last_mut().expect("row exists");
                row.push_str(&format!(" {mnemonic}@{pc:#x}{tag}"));
            }
            TraceEvent::Flush { cycle, target } if (start..end).contains(&cycle) => {
                rows.push(format!("cyc {cycle:>5} | ==== FLUSH -> {target} ===="));
                last_cycle = u64::MAX;
            }
            TraceEvent::ResolveMispredict { cycle, pc } if (start..end).contains(&cycle) => {
                rows.push(format!("cyc {cycle:>5} | resolve@{pc:#x} MISPREDICT"));
                last_cycle = u64::MAX;
            }
            _ => {}
        }
    }
    for r in &rows {
        println!("{r}");
    }
    println!(
        "({} total cycles, IPC {:.2}; window cycles {start}..{end}; * = wrong-path issue)\n",
        result.stats.cycles,
        result.stats.ipc()
    );
    result.stats.cycles
}

fn usage() -> ! {
    eprintln!("usage: pipeview [FILE [CYCLES]] [--transform vanguard|meld|shadow|stacked]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = TransformKind::default();
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--transform" => {
                kind = it
                    .next()
                    .and_then(|v| TransformKind::parse(v))
                    .unwrap_or_else(|| usage())
            }
            flag if flag.starts_with("--") => usage(),
            _ if positional.len() < 2 => positional.push(arg),
            _ => usage(),
        }
    }
    let max_cycles: u64 = match positional.get(1) {
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
        None => 60,
    };

    if let Some(path) = positional.first() {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                std::process::exit(1);
            }
        };
        let program = match parse_program(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("parse error in `{path}`: {e}");
                std::process::exit(1);
            }
        };
        render(path, &program, Memory::new(), max_cycles);
        return;
    }

    // Demo: baseline vs decomposed on the Figure 6-shaped hammock. The
    // pair comes from the experiment engine (profile + compile stages
    // reported through the stderr observer); only the traced simulation
    // below is hand-rolled, because tracing needs `run_traced`.
    let program = parse_program(DEMO).expect("demo parses");
    let mut engine = Engine::new();
    engine.observe(Arc::new(StderrProgress::new()));
    let demo_input = RunInput {
        memory: demo_memory(),
        init_regs: vec![],
    };
    let bench = engine.add_benchmark(ExperimentInput {
        name: "pipeview-demo".into(),
        program,
        train: demo_input.clone(),
        refs: vec![demo_input],
        seed: None,
    });
    let options = TransformOptions {
        kind,
        ..TransformOptions::default()
    };
    let pair = engine
        .compile_pair(
            bench,
            PredictorKind::Combined24KB,
            MachineConfig::four_wide(),
            &options,
            1_000_000,
        )
        .expect("profiles");
    let (base, dec, report) = (pair.baseline, pair.transformed, pair.report);

    println!(
        "Pass `{kind}`: {} site(s) decomposed, {} hammock(s) melded. Watch the\n\
         baseline stall at `cmp`/`br` while the transformed trace runs ahead.\n",
        report.converted.len(),
        report.melded
    );
    let b = render("baseline", &base, demo_memory(), max_cycles);
    let d = render(kind.name(), &dec, demo_memory(), max_cycles);
    println!(
        "speedup: {:.2}%  (r1 iterations: 200)",
        (b as f64 / d as f64 - 1.0) * 100.0
    );
    let _ = Reg(0);
}
