//! Committed-state parity across the whole quick suite: every benchmark's
//! compiled baseline and transformed programs run through both the
//! functional interpreter and the cycle simulator (which fetches from the
//! shared pre-decoded image), and the architecturally observable results
//! must agree — the cycle model may stall, speculate, and roll back, but
//! it must commit exactly the interpreter's state.
//!
//! The transformed side is checked under *every* transform pass
//! (vanguard, meld, shadow, stacked), so a rival pass can never ship a
//! program the cycle model commits differently.
//!
//! Every job's full `SimStats` (`mem` included) is also compared with
//! `tests/golden/parity_simstats.txt`, one line per (benchmark,
//! variant). The printed figure goldens show only some counters; this
//! one pins all of them, so a simulator-speed change that shifts any
//! counter fails here. The lines the run produced are written to
//! `parity_simstats.txt` under Cargo's integration-test temp directory;
//! when a change to the timing model is intended, copy that file over
//! the golden.

use std::sync::Arc;
use vanguard_bench::{quick_spec, BenchScale};
use vanguard_bpred::Combined;
use vanguard_core::{Experiment, TransformKind};
use vanguard_isa::{DecodedImage, Interpreter, Memory, Program, Reg, StopReason, TakenOracle};
use vanguard_sim::{MachineConfig, SimResult, Simulator, StopCause};
use vanguard_workloads::suite;

fn interp_state(
    program: &Program,
    memory: Memory,
    init: &[(Reg, u64)],
) -> (Vec<u64>, Vec<(u64, u64)>) {
    let mut i = Interpreter::new(program, memory);
    for &(r, v) in init {
        i.set_reg(r, v);
    }
    // Committed state is oracle-independent (the equivalence suite proves
    // it); not-taken matches the resolve's static prediction.
    let out = i
        .run(&mut TakenOracle::AlwaysNotTaken)
        .expect("interprets cleanly");
    assert_eq!(out.stop, StopReason::Halted);
    (i.regs().to_vec(), i.memory().written_words())
}

fn sim_result(image: &Arc<DecodedImage>, memory: Memory, init: &[(Reg, u64)]) -> SimResult {
    let mut sim = Simulator::with_image(
        Arc::clone(image),
        memory,
        MachineConfig::four_wide(),
        Box::new(Combined::ptlsim_default()),
    );
    for &(r, v) in init {
        sim.set_reg(r, v);
    }
    let res = sim.run().expect("simulates cleanly");
    assert_eq!(res.stop, StopCause::Halted);
    res
}

const SIMSTATS_GOLDEN: &str = include_str!("golden/parity_simstats.txt");

#[test]
fn quick_suite_commits_interpreter_state() {
    let mut stats_lines = Vec::new();
    for spec in suite::all_benchmarks() {
        let mut spec = quick_spec(spec, BenchScale::Quick);
        // Debug-build sized: parity needs every control-flow shape, not
        // quick-scale statistics.
        spec.iterations = spec.iterations.min(150);
        spec.train_iterations = spec.train_iterations.min(150);
        let name = spec.name.clone();
        let w = spec.build();

        let mut exp = Experiment::new(MachineConfig::four_wide());
        let input = vanguard_bench::to_experiment_input(w.clone());
        let profile = exp.profile(&input).expect("profiles cleanly");

        for (k, kind) in TransformKind::ALL.into_iter().enumerate() {
            exp.transform.kind = kind;
            let (baseline, transformed, _) = exp.compile_pair(&input.program, &profile);
            // The baseline side is transform-independent: check it once.
            let programs: &[(&str, &Program)] = if k == 0 {
                &[("baseline", &baseline), (kind.name(), &transformed)]
            } else {
                &[(kind.name(), &transformed)]
            };
            for &(variant, program) in programs {
                let (regs, written) =
                    interp_state(program, w.refs[0].memory.clone(), &w.refs[0].init_regs);
                let image = Arc::new(DecodedImage::build(program));
                let res = sim_result(&image, w.refs[0].memory.clone(), &w.refs[0].init_regs);
                assert_eq!(
                    res.regs.to_vec(),
                    regs,
                    "{name}/{variant}: committed registers"
                );
                assert_eq!(
                    res.memory.written_words(),
                    written,
                    "{name}/{variant}: committed memory"
                );
                stats_lines.push(format!("{name}/{variant}: {:?}", res.stats));
            }
        }
    }

    let actual = stats_lines.join("\n") + "\n";
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("parity_simstats.txt");
    std::fs::write(&out, &actual).expect("write the produced SimStats lines");
    let golden: Vec<&str> = SIMSTATS_GOLDEN.lines().collect();
    for (i, line) in stats_lines.iter().enumerate() {
        let want = golden.get(i).copied().unwrap_or("<missing>");
        let job = line.split(": ").next().unwrap_or(line);
        assert_eq!(
            line,
            want,
            "{job}: SimStats differ from tests/golden/parity_simstats.txt line {}\n  \
             got:  {line}\n  want: {want}\n(all produced lines: {})",
            i + 1,
            out.display()
        );
    }
    assert_eq!(
        stats_lines.len(),
        golden.len(),
        "job count differs from tests/golden/parity_simstats.txt (produced lines: {})",
        out.display()
    );
}
