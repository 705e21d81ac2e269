//! `fuzz-diff`: consecutive `FuzzSpec::from_seed` cases, one op per
//! `vanguard_bench::fuzz::run_case` call, checked by every case
//! returning `Ok`.
//!
//! The traced run splits a case into the public calls `run_case` makes
//! (build, profile, compile per transform kind, lint, interpreter
//! differential, decode, simulate), so each layer gets its own spans.

use crate::measure::{secs, LayerReport, Samples, Tracer, OP};
use crate::Workload;
use std::sync::Arc;
use std::time::Instant;
use vanguard_core::{
    lint_program, lint_variant, verify_equivalence, Experiment, ExperimentInput, Observables,
    RunInput, TransformKind, TransformOptions,
};
use vanguard_isa::{
    DecodedImage, InterpConfig, Interpreter, Program, Reg, StopReason, TakenOracle,
};
use vanguard_sim::{MachineConfig, SimStats, Simulator, StopCause};
use vanguard_workloads::{FuzzCase, FuzzSpec};

/// Cases per pass.
pub const CASES: u64 = 1000;
/// Step budget of every interpreter and simulator run (as `run_case`).
const MAX_STEPS: u64 = 4_000_000;
/// Seeded random oracles per differential run (as `run_case`).
const RANDOM_ORACLES: u32 = 3;

pub struct FuzzDiff {
    seed: u64,
    specs: Vec<FuzzSpec>,
}

impl FuzzDiff {
    pub fn new(seed: u64) -> Self {
        FuzzDiff {
            seed,
            specs: Vec::new(),
        }
    }
}

impl Workload for FuzzDiff {
    fn setup(&mut self) {
        self.specs = (0..CASES)
            .map(|i| FuzzSpec::from_seed(self.seed.wrapping_add(i)))
            .collect();
        // Kernel generation: every case's program and memory image.
        let cases: Vec<FuzzCase> = self.specs.iter().map(FuzzSpec::build).collect();
        std::hint::black_box(cases);
    }

    fn kernels(&self) -> usize {
        self.specs.len()
    }

    fn pass(&mut self, tr: &mut Tracer, s: &mut Samples, layers: &mut LayerReport) -> f64 {
        let mut failed = 0u64;
        let mut sites = 0u64;
        let started = Instant::now();
        for spec in &self.specs {
            let t = Instant::now();
            let outcome = tr.span(OP, |tr| {
                if tr.enabled() {
                    traced_case(spec, tr, layers)
                } else {
                    vanguard_bench::fuzz::run_case(spec, None).map_err(|f| f.to_string())
                }
            });
            let dt = secs(t);
            s.op_ms.push(dt * 1e3);
            match outcome {
                Ok(n) => sites += n,
                Err(e) => {
                    failed += 1;
                    eprintln!("fuzz-diff: case {} failed: {e}", spec.seed);
                }
            }
        }
        let wall = secs(started);
        s.pass_walls.push(wall);
        s.ops_per_pass = self.specs.len();
        s.attempted += self.specs.len() as u64;
        s.failed += failed;
        if failed > 0 {
            s.correct = false;
        }
        if tr.enabled() {
            layers.set("transform.sites_converted", sites as f64);
        }
        wall
    }
}

/// The experiment `run_case` compiles a case under: the spec's
/// transform knobs, with the selector relaxed for short loops.
fn experiment_for(spec: &FuzzSpec, kind: TransformKind) -> Experiment {
    let mut exp = Experiment::new(MachineConfig::four_wide());
    exp.transform = TransformOptions {
        kind,
        max_hoist: spec.max_hoist,
        hoist_loads: spec.hoist_loads,
        shadow_temps: spec.shadow_temps,
        ..TransformOptions::default()
    };
    exp.transform.select.min_executions = spec.iterations.min(32);
    exp
}

/// Registers the original program reads or writes.
fn observable_regs(program: &Program) -> Vec<Reg> {
    let mut seen = [false; vanguard_isa::NUM_ARCH_REGS];
    for (_, block) in program.iter() {
        for inst in block.insts() {
            if let Some(d) = inst.dst() {
                seen[d.index()] = true;
            }
            for r in inst.srcs() {
                seen[r.index()] = true;
            }
        }
    }
    (0..vanguard_isa::NUM_ARCH_REGS)
        .filter(|&i| seen[i])
        .map(|i| Reg(i as u8))
        .collect()
}

/// Observable registers and written words after a run.
type Committed = (Vec<u64>, Vec<(u64, u64)>);

/// One case through the calls `run_case` makes, each in its layer's
/// span. Returns the largest per-kind count of changed sites.
fn traced_case(spec: &FuzzSpec, tr: &mut Tracer, layers: &mut LayerReport) -> Result<u64, String> {
    let case = tr.span("build", |_| spec.build());
    let run = RunInput {
        memory: case.memory.clone(),
        init_regs: case.init_regs.clone(),
    };
    let input = ExperimentInput {
        name: format!("fuzz-{}", spec.seed),
        program: case.program.clone(),
        train: run.clone(),
        refs: vec![run],
        seed: Some(spec.seed),
    };
    let profile = tr
        .span("profile", |_| {
            experiment_for(spec, TransformKind::Vanguard).profile(&input)
        })
        .map_err(|e| format!("profile error: {e}"))?;
    let obs = Observables {
        regs: observable_regs(&case.program),
        memory_ranges: vec![case.out_range],
    };
    let mut max_sites = 0u64;
    for (idx, &kind) in TransformKind::ALL.iter().enumerate() {
        let exp = experiment_for(spec, kind);
        let (baseline, transformed, report) =
            tr.span("compile", |_| exp.compile_pair(&case.program, &profile));
        let sites = (report.converted.len() + report.melded) as u64;
        max_sites = max_sites.max(sites);
        if idx == 0 {
            if !tr.span("lint", |_| lint_program(&baseline)).is_empty() {
                return Err("lint violations on baseline".into());
            }
            gates("baseline", &baseline, &case, &obs, tr, layers)?;
        } else if sites == 0 {
            continue;
        }
        if !tr
            .span("lint", |_| lint_variant(kind, &baseline, &transformed))
            .is_empty()
        {
            return Err(format!("lint violations on {kind}"));
        }
        gates(kind.name(), &transformed, &case, &obs, tr, layers)?;
    }
    Ok(max_sites)
}

/// The runtime gates of one compiled program: the interpreter
/// differential, then interpreter-vs-simulator parity. `run_case`
/// simulates each gated program twice (its parity and replay-parity
/// gates), so this does too, with the simulator's default settings.
fn gates(
    variant: &str,
    program: &Program,
    case: &FuzzCase,
    obs: &Observables,
    tr: &mut Tracer,
    layers: &mut LayerReport,
) -> Result<(), String> {
    let divs = tr
        .span("interp", |_| {
            verify_equivalence(
                &case.program,
                program,
                &case.memory,
                &case.init_regs,
                obs,
                RANDOM_ORACLES,
                MAX_STEPS,
            )
        })
        .map_err(|e| format!("{variant}: reference run faulted: {e}"))?;
    if !divs.is_empty() {
        return Err(format!("{variant}: interpreter differential diverged"));
    }
    let reference = tr.span("interp", |_| interp_state(program, case, &obs.regs))?;
    let mut first: Option<SimStats> = None;
    for _ in 0..2 {
        let image = tr.span("decode", |_| Arc::new(DecodedImage::build(program)));
        let (state, stats) = tr.span("sim", |_| sim_state(image, case, &obs.regs))?;
        if state != reference {
            return Err(format!("{variant}: simulator and interpreter disagree"));
        }
        if first.is_some_and(|f| f != stats) {
            return Err(format!("{variant}: repeated simulations disagree"));
        }
        first = Some(stats);
        layers.add_sim(&stats);
    }
    Ok(())
}

fn interp_state(program: &Program, case: &FuzzCase, regs: &[Reg]) -> Result<Committed, String> {
    let mut i = Interpreter::new(program, case.memory.clone()).with_config(InterpConfig {
        max_steps: MAX_STEPS,
    });
    for &(r, v) in &case.init_regs {
        i.set_reg(r, v);
    }
    let out = i
        .run(&mut TakenOracle::AlwaysNotTaken)
        .map_err(|e| e.to_string())?;
    if out.stop != StopReason::Halted {
        return Err(format!("interpreter did not halt within {MAX_STEPS} steps"));
    }
    Ok((
        regs.iter().map(|&r| i.reg(r)).collect(),
        i.memory().written_words(),
    ))
}

fn sim_state(
    image: Arc<DecodedImage>,
    case: &FuzzCase,
    regs: &[Reg],
) -> Result<(Committed, SimStats), String> {
    let mut sim = Simulator::with_image(
        image,
        case.memory.clone(),
        MachineConfig::four_wide(),
        Box::new(vanguard_bpred::Combined::ptlsim_default()),
    );
    for &(r, v) in &case.init_regs {
        sim.set_reg(r, v);
    }
    let res = sim.run().map_err(|e| e.to_string())?;
    if res.stop != StopCause::Halted {
        return Err(format!("simulator stopped on {:?}", res.stop));
    }
    let vals = regs.iter().map(|&r| res.regs[r.index()]).collect();
    Ok(((vals, res.memory.written_words()), res.stats))
}
