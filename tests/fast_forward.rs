//! Idle-cycle fast-forward is exact: a fast-forwarded simulation and the
//! per-cycle reference run (`Simulator::set_fast_forward(false)`) end
//! with the same stop cause, every `SimStats` counter, every register
//! and every written word.
//!
//! Generated fuzz kernels (original and decomposed) run at 2, 4 and 8
//! wide, with the Table 1 and the reduced I$, under a predictor rung
//! picked by the seed, and each to completion and to two cycle budgets.
//! The budgets land mid-run, where a skip that overshoots its wake
//! cycle would show as a different stop cycle.

use vanguard_bpred::{ladder, Combined};
use vanguard_compiler::profile_program;
use vanguard_core::{decompose_branches, TransformOptions};
use vanguard_isa::Program;
use vanguard_sim::{MachineConfig, SimResult, Simulator};
use vanguard_workloads::{FuzzCase, FuzzSpec};

/// Seeds tried (sized for a debug build).
const SEEDS: u64 = 48;
/// Cycle budgets of the cut-short runs.
const BUDGETS: [u64; 2] = [3001, 2777];

/// The case's kernel and its decomposed version.
fn programs(case: &FuzzCase) -> Vec<Program> {
    let profile = profile_program(
        &case.program,
        case.memory.clone(),
        &case.init_regs,
        Combined::ptlsim_default(),
        4_000_000,
    )
    .expect("generated kernels profile");
    let mut options = TransformOptions::default();
    options.select.min_executions = case.spec.iterations.min(32);
    let mut transformed = case.program.clone();
    decompose_branches(&mut transformed, &profile, &options);
    vec![case.program.clone(), transformed]
}

fn simulate(
    program: &Program,
    case: &FuzzCase,
    config: MachineConfig,
    rung: usize,
    budget: Option<u64>,
    fast_forward: bool,
) -> SimResult {
    let mut sim = Simulator::new(program, case.memory.clone(), config, ladder()[rung].build());
    sim.set_fast_forward(fast_forward);
    if let Some(budget) = budget {
        sim.set_cycle_budget(budget);
    }
    for &(r, v) in &case.init_regs {
        sim.set_reg(r, v);
    }
    sim.run().expect("generated kernels do not fault")
}

#[test]
fn fast_forward_matches_the_per_cycle_reference() {
    let mut transformed = 0;
    for seed in 0..SEEDS {
        let case = FuzzSpec::from_seed(seed).build();
        let programs = programs(&case);
        transformed += usize::from(programs[0] != programs[1]);
        let rung = seed as usize % ladder().len();
        for (p, program) in programs.iter().enumerate() {
            for width in MachineConfig::all_widths() {
                for config in [width, width.with_reduced_icache()] {
                    for budget in [None, Some(BUDGETS[0]), Some(BUDGETS[1])] {
                        let on = simulate(program, &case, config, rung, budget, true);
                        let off = simulate(program, &case, config, rung, budget, false);
                        let at = format!(
                            "seed {seed} program {p} width {} reduced-I$ {} budget {budget:?}",
                            config.width,
                            config.mem != MachineConfig::four_wide().mem,
                        );
                        assert_eq!(on.stop, off.stop, "{at}: stop cause");
                        assert_eq!(on.stats, off.stats, "{at}: SimStats");
                        assert_eq!(on.regs, off.regs, "{at}: registers");
                        assert_eq!(
                            on.memory.written_words(),
                            off.memory.written_words(),
                            "{at}: memory"
                        );
                    }
                }
            }
        }
    }
    assert!(
        transformed >= SEEDS as usize / 2,
        "only {transformed}/{SEEDS} kernels were decomposed"
    );
}
