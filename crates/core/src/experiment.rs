//! End-to-end experiment facade: profile → compile → simulate → report.

use crate::engine::Stage;
use crate::error::{ErrorKind, VanguardError};
use crate::report::TransformReport;
use crate::transform::TransformOptions;
use vanguard_compiler::{
    compact_program, layout_program, profile_program, schedule_program, ProfileError, SchedConfig,
};
use vanguard_ir::Profile;
use vanguard_isa::{Memory, Program, Reg};
use vanguard_sim::{MachineConfig, SimStats, Simulator, StopCause};

pub use vanguard_bpred::LadderRung as PredictorKind;

/// One input set: an initial memory image plus initial register values
/// (the paper distinguishes TRAIN inputs, used for profiling, from REF
/// inputs, used for evaluation — bias can differ between them).
#[derive(Clone, Debug, Default)]
pub struct RunInput {
    /// Initial data memory.
    pub memory: Memory,
    /// Initial register values.
    pub init_regs: Vec<(Reg, u64)>,
}

/// A benchmark handed to [`Experiment::run`].
#[derive(Clone, Debug)]
pub struct ExperimentInput {
    /// Benchmark name (for reports).
    pub name: String,
    /// The program (pre-transformation).
    pub program: Program,
    /// TRAIN input, used only for profiling.
    pub train: RunInput,
    /// REF inputs, used for evaluation (≥ 1).
    pub refs: Vec<RunInput>,
    /// Generator seed when the benchmark is seed-generated (fuzz/suite
    /// workloads); lets engine failure reports and quarantine
    /// reproducers name an exact replay command.
    pub seed: Option<u64>,
}

/// The error of a failed TRAIN-input profile of `input`, attributed to
/// its benchmark and seed.
pub(crate) fn profile_error(input: &ExperimentInput, e: ProfileError) -> VanguardError {
    VanguardError::new(Stage::Profile, ErrorKind::Profile(e))
        .with_benchmark(&input.name)
        .with_seed(input.seed)
}

/// Baseline-vs-experimental statistics for one REF input.
#[derive(Clone, Debug)]
pub struct RefRun {
    /// Baseline machine statistics.
    pub base: SimStats,
    /// Experimental (decomposed-branch) machine statistics.
    pub exp: SimStats,
}

impl RefRun {
    /// Speedup over the baseline in percent (> 0 means the transformation
    /// won).
    pub fn speedup_pct(&self) -> f64 {
        if self.exp.cycles == 0 {
            return 0.0;
        }
        (self.base.cycles as f64 / self.exp.cycles as f64 - 1.0) * 100.0
    }
}

/// Everything measured for one benchmark: the transformation report and
/// per-REF-input baseline/experimental statistics (the Table 2 row).
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Benchmark name.
    pub name: String,
    /// Transformation report (PBC, PISCS, hoist counts).
    pub report: TransformReport,
    /// Per-REF-input runs.
    pub runs: Vec<RefRun>,
    /// Dynamic instructions in the profiling run (PDIH denominator).
    pub profile_dynamic_insts: u64,
}

impl ExperimentOutcome {
    /// SPD: geometric-mean speedup over all REF inputs, in percent
    /// (Figures 8, 10, 12, 13).
    pub fn geomean_speedup_pct(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self
            .runs
            .iter()
            .map(|r| (r.base.cycles as f64 / r.exp.cycles as f64).ln())
            .sum();
        ((log_sum / self.runs.len() as f64).exp() - 1.0) * 100.0
    }

    /// Speedup on the best-performing REF input (Figures 9 and 11).
    pub fn best_speedup_pct(&self) -> f64 {
        self.runs
            .iter()
            .map(RefRun::speedup_pct)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// PDIH: average % of dynamic instructions hoisted above converted
    /// branches (Table 2).
    pub fn pdih(&self) -> f64 {
        if self.profile_dynamic_insts == 0 {
            return 0.0;
        }
        self.report.dynamic_hoisted() as f64 * 100.0 / self.profile_dynamic_insts as f64
    }

    /// ASPCB: average stall cycles per converted branch (Table 2),
    /// measured at the resolve instructions of the experimental runs.
    pub fn aspcb(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .map(|r| r.exp.stalls_per_resolve())
            .sum::<f64>()
            / self.runs.len() as f64
    }

    /// MPPKI of the baseline runs (Table 2).
    pub fn mppki(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.base.mppki()).sum::<f64>() / self.runs.len() as f64
    }

    /// Percent increase in issued instructions, experimental vs baseline
    /// (Figure 14).
    pub fn issued_increase_pct(&self) -> f64 {
        let base: u64 = self.runs.iter().map(|r| r.base.issued).sum();
        let exp: u64 = self.runs.iter().map(|r| r.exp.issued).sum();
        if base == 0 {
            return 0.0;
        }
        (exp as f64 - base as f64) * 100.0 / base as f64
    }
}

/// The experiment driver: owns the machine configuration, predictor
/// choice, and transformation options.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Machine to simulate (Table 1; 2/4/8-wide).
    pub machine: MachineConfig,
    /// Branch predictor rung (§5.3 ladder; the default baseline is the
    /// 24 KB PTLSim-style combined predictor).
    pub predictor: PredictorKind,
    /// Transformation options.
    pub transform: TransformOptions,
    /// Profiling step budget.
    pub max_profile_steps: u64,
}

impl Experiment {
    /// An experiment on the given machine with the paper's defaults.
    pub fn new(machine: MachineConfig) -> Self {
        Experiment {
            machine,
            predictor: PredictorKind::Combined24KB,
            transform: TransformOptions::default(),
            max_profile_steps: crate::engine::DEFAULT_MAX_PROFILE_STEPS,
        }
    }

    /// Profiles with TRAIN, builds baseline and transformed programs, and
    /// simulates both over every REF input.
    ///
    /// Delegates to the [engine](crate::engine): jobs run on the worker
    /// pool and artifacts are cached, but results are identical to the
    /// historical serial loop (see DESIGN.md §6).
    ///
    /// # Errors
    ///
    /// Returns a [`VanguardError`] if profiling or simulation faults, or
    /// no REF inputs were supplied.
    pub fn run(&self, input: &ExperimentInput) -> Result<ExperimentOutcome, VanguardError> {
        let mut outcomes = self.run_suite(std::slice::from_ref(input))?;
        Ok(outcomes.remove(0))
    }

    /// Runs a whole suite of benchmarks under this experiment's machine,
    /// predictor, and options, sharing the engine's worker pool and
    /// artifact cache across all of them. Outcomes are returned in input
    /// order regardless of worker count.
    ///
    /// # Errors
    ///
    /// Returns the first (by benchmark and REF-input order) profiling or
    /// simulation error, or [`ErrorKind::NoRefInputs`] if any benchmark
    /// has none.
    pub fn run_suite(
        &self,
        inputs: &[ExperimentInput],
    ) -> Result<Vec<ExperimentOutcome>, VanguardError> {
        let mut engine = crate::engine::Engine::new();
        let cells: Vec<crate::engine::SweepCell> = inputs
            .iter()
            .map(|input| crate::engine::SweepCell {
                bench: engine.add_benchmark(input.clone()),
                machine: self.machine,
                predictor: self.predictor,
            })
            .collect();
        engine.run_cells(&cells, &self.transform, self.max_profile_steps)
    }

    /// Runs only the profiling step (TRAIN input).
    ///
    /// # Errors
    ///
    /// Returns a [`VanguardError`] if the profiled program faults.
    pub fn profile(&self, input: &ExperimentInput) -> Result<Profile, VanguardError> {
        profile_program(
            &input.program,
            input.train.memory.clone(),
            &input.train.init_regs,
            self.predictor.build(),
            self.max_profile_steps,
        )
        .map_err(|e| profile_error(input, e))
    }

    /// Compiles the baseline and transformed versions of a program for
    /// this experiment's machine, returning both plus the transformation
    /// report.
    pub fn compile_pair(
        &self,
        program: &Program,
        profile: &Profile,
    ) -> (Program, Program, TransformReport) {
        let sched = SchedConfig::for_width(self.machine.width);

        let mut baseline = program.clone();
        layout_program(&mut baseline, profile);
        schedule_program(&mut baseline, &sched);
        let baseline = compact_program(&baseline);

        let mut transformed = program.clone();
        let report = crate::passes::apply_transform(&mut transformed, profile, &self.transform);
        layout_program(&mut transformed, profile);
        schedule_program(&mut transformed, &sched);
        let transformed = compact_program(&transformed);

        (baseline, transformed, report)
    }

    /// Simulates one program over one input on this experiment's machine.
    ///
    /// # Errors
    ///
    /// Returns a [`VanguardError`] on a committed-path fault
    /// ([`ErrorKind::GuestTrap`]) or when the run exhausts the
    /// simulator's default cycle budget ([`ErrorKind::Timeout`]).
    pub fn simulate(&self, program: &Program, input: &RunInput) -> Result<SimStats, VanguardError> {
        let mut sim = Simulator::new(
            program,
            input.memory.clone(),
            self.machine,
            self.predictor.build(),
        );
        for &(r, v) in &input.init_regs {
            sim.set_reg(r, v);
        }
        let kind = match sim.run_checked() {
            Ok(res) if res.stop == StopCause::Halted => return Ok(res.stats),
            Ok(res) => ErrorKind::Timeout {
                cycles: res.stats.cycles,
            },
            Err(fault) => ErrorKind::GuestTrap {
                pc: fault.error.pc(),
                cycle: fault.cycle,
                trap: fault.error,
            },
        };
        Err(VanguardError::new(Stage::Simulate, kind))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vanguard_isa::{AluOp, CmpKind, CondKind, Inst, Operand, ProgramBuilder};

    /// A Figure 6-style kernel: per-iteration forward branch driven by a
    /// condition array, with dependent loads on both sides.
    fn kernel(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block("entry");
        let head = b.block("head");
        let bb_f = b.block("bb_f");
        let bb_t = b.block("bb_t");
        let latch = b.block("latch");
        let exit = b.block("exit");

        b.push(entry, Inst::mov(Reg(1), Operand::Imm(n)));
        b.push(entry, Inst::mov(Reg(3), Operand::Imm(0x10000)));
        b.push(entry, Inst::mov(Reg(10), Operand::Imm(0x20000)));
        b.push(entry, Inst::mov(Reg(11), Operand::Imm(0x80000)));
        b.fallthrough(entry, head);

        b.push(head, Inst::load(Reg(4), Reg(3), 0));
        b.push(
            head,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(5),
                a: Reg(4),
                b: Operand::Imm(0),
            },
        );
        b.push(
            head,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(5),
                target: bb_t,
            },
        );
        b.fallthrough(head, bb_f);

        // Both sides: pointer-chase-flavoured loads then a store.
        for (bb, off, inc) in [(bb_f, 0i64, 1i64), (bb_t, 8, 2)] {
            b.push(bb, Inst::load(Reg(6), Reg(10), off));
            b.push(bb, Inst::load(Reg(7), Reg(10), off + 16));
            b.push(
                bb,
                Inst::alu(
                    AluOp::Add,
                    Reg(8),
                    Operand::Reg(Reg(6)),
                    Operand::Reg(Reg(7)),
                ),
            );
            b.push(
                bb,
                Inst::alu(AluOp::Add, Reg(8), Operand::Reg(Reg(8)), Operand::Imm(inc)),
            );
            b.push(bb, Inst::store(Reg(8), Reg(11), off));
            b.push(bb, Inst::Jump { target: latch });
        }

        b.push(
            latch,
            Inst::alu(AluOp::Add, Reg(3), Operand::Reg(Reg(3)), Operand::Imm(8)),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Add, Reg(10), Operand::Reg(Reg(10)), Operand::Imm(32)),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Add, Reg(11), Operand::Reg(Reg(11)), Operand::Imm(16)),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Sub, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)),
        );
        b.push(
            latch,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(2),
                a: Reg(1),
                b: Operand::Imm(0),
            },
        );
        b.push(
            latch,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(2),
                target: head,
            },
        );
        b.fallthrough(latch, exit);
        b.push(exit, Inst::Halt);
        b.set_entry(entry);
        b.finish().unwrap()
    }

    /// 60/40-biased but fully periodic (predictable) condition pattern.
    fn predictable_unbiased_input(n: usize) -> RunInput {
        let mut memory = Memory::new();
        let cond: Vec<u64> = (0..n)
            .map(|i| u64::from(matches!(i % 5, 0 | 1 | 3)))
            .collect();
        memory.load_words(0x10000, &cond);
        let data: Vec<u64> = (0..4 * n)
            .map(|i| (i as u64).wrapping_mul(7) % 100)
            .collect();
        memory.load_words(0x20000, &data);
        memory.map_region(0x80000, (2 * n) as u64 * 8);
        RunInput {
            memory,
            init_regs: vec![],
        }
    }

    pub(crate) fn experiment_input(n: usize) -> ExperimentInput {
        ExperimentInput {
            name: "fig6-kernel".into(),
            program: kernel(n as i64),
            train: predictable_unbiased_input(n),
            refs: vec![predictable_unbiased_input(n)],
            seed: None,
        }
    }

    #[test]
    fn transformed_kernel_beats_baseline_on_the_4wide() {
        let exp = Experiment::new(MachineConfig::four_wide());
        let out = exp.run(&experiment_input(3000)).unwrap();
        assert_eq!(
            out.report.converted.len(),
            1,
            "skipped {:?}",
            out.report.skipped
        );
        let spd = out.geomean_speedup_pct();
        assert!(
            spd > 3.0,
            "expected a clear speedup on a predictable-unbiased kernel, got {spd:.2}% \
             (base {} cyc, exp {} cyc)",
            out.runs[0].base.cycles,
            out.runs[0].exp.cycles
        );
    }

    #[test]
    fn committed_work_matches_between_machines() {
        let exp = Experiment::new(MachineConfig::four_wide());
        let out = exp.run(&experiment_input(500)).unwrap();
        let r = &out.runs[0];
        // Both versions resolve the same dynamic branch-site count.
        assert_eq!(r.base.branches, r.exp.branches + r.exp.resolves);
        assert!(r.exp.resolves >= 500);
    }

    #[test]
    fn metrics_are_populated() {
        let exp = Experiment::new(MachineConfig::four_wide());
        let out = exp.run(&experiment_input(1000)).unwrap();
        assert!(out.report.pbc() > 0.0);
        assert!(out.report.piscs() > 0.0);
        assert!(out.pdih() > 0.0);
        assert!(out.mppki() >= 0.0);
        assert!(out.best_speedup_pct() >= out.geomean_speedup_pct() - 1e-9);
    }

    #[test]
    fn no_ref_inputs_is_an_error() {
        let mut input = experiment_input(100);
        input.refs.clear();
        let exp = Experiment::new(MachineConfig::four_wide());
        let err = exp.run(&input).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::NoRefInputs), "{err}");
        assert_eq!(err.benchmark.as_deref(), Some("fig6-kernel"));
    }

    #[test]
    fn unpredictable_branch_is_left_untouched() {
        // A pseudo-random 50/50 pattern: predictability ≈ bias ≈ 0.5, so
        // nothing qualifies and the "transformed" program is the baseline.
        let n = 1000usize;
        let mut memory = Memory::new();
        let mut x = 0x2545f4914f6cdd1du64;
        let cond: Vec<u64> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1
            })
            .collect();
        memory.load_words(0x10000, &cond);
        let data: Vec<u64> = (0..4 * n).map(|i| i as u64).collect();
        memory.load_words(0x20000, &data);
        memory.map_region(0x80000, (2 * n) as u64 * 8);
        let input = ExperimentInput {
            name: "random".into(),
            program: kernel(n as i64),
            train: RunInput {
                memory: memory.clone(),
                init_regs: vec![],
            },
            refs: vec![RunInput {
                memory,
                init_regs: vec![],
            }],
            seed: None,
        };
        let exp = Experiment::new(MachineConfig::four_wide());
        let out = exp.run(&input).unwrap();
        assert!(out.report.converted.is_empty());
        let spd = out.geomean_speedup_pct();
        assert!(spd.abs() < 1.0, "identical programs: {spd}%");
    }
}
