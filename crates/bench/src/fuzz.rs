//! Differential fuzzing driver for the Decomposed Branch Transformation.
//!
//! Each case is one seed: [`FuzzSpec::from_seed`] generates a random
//! kernel, the full [`Experiment`] pipeline profiles and compiles it,
//! and the compiled pair must then survive three independent gates:
//!
//! 1. **Static lint** — [`lint_program`] on both compiled programs
//!    (zero diagnostics; the §3 structural contract).
//! 2. **Interpreter differential** — [`verify_equivalence`]: the
//!    transformed program under adversarial prediction oracles
//!    (always-taken, always-not-taken, alternating, seeded random) must
//!    reach the original program's observable state (registers the
//!    original uses, plus the output memory region). The baseline goes
//!    through the same gate, checking layout/scheduling alone.
//! 3. **Simulator parity** — both compiled programs run on the cycle
//!    simulator, whose committed registers and written words must match
//!    the interpreter's (the `parity_suite` comparison, per case).
//!
//! A failing case is shrunk by greedy knob reduction to a minimal
//! reproducer and written to disk with exact replay instructions.
//! Everything is deterministic in the seed.
//!
//! Every case runs through *all* transform passes ([`TransformKind::ALL`]
//! unless `--transform` restricts it): the baseline gates once, then
//! each variant's transformed program goes through the same
//! lint/differential/parity oracle, with the lint dispatching on the
//! pass's structural contract ([`vanguard_core::lint_variant`]).

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vanguard_bpred::Combined;
use vanguard_core::{
    lint_program, lint_variant, verify_equivalence, Experiment, ExperimentInput, Observables,
    RunInput, TransformKind, TransformOptions,
};
use vanguard_isa::{
    DecodedImage, InterpConfig, Interpreter, Memory, Program, Reg, StopReason, TakenOracle,
};
use vanguard_sim::{MachineConfig, Simulator, StopCause};
use vanguard_workloads::{FuzzCase, FuzzSpec};

/// Interpreter/simulator step budget per run (generated kernels retire
/// well under a million instructions).
const MAX_STEPS: u64 = 4_000_000;
/// Seeded random prediction oracles per differential run.
const RANDOM_ORACLES: u32 = 3;
/// Greedy shrink attempts before giving up on further reduction.
const MAX_SHRINK_ATTEMPTS: usize = 64;

/// Deliberate transform sabotage, enabled by the test-only
/// `--inject` flag: proves the harness catches real bug classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Negate both resolve conditions of every pair: structurally intact
    /// (the lint cannot see it) but semantically inverted — only the
    /// interpreter differential catches it.
    FlipResolves,
    /// Strip the non-faulting mark from hoisted loads: semantically
    /// invisible on in-bounds inputs — only the lint catches it.
    FaultingLoads,
}

impl Inject {
    /// Parses the `--inject` flag value.
    pub fn parse(s: &str) -> Option<Inject> {
        match s {
            "flip-resolves" => Some(Inject::FlipResolves),
            "faulting-loads" => Some(Inject::FaultingLoads),
            _ => None,
        }
    }
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Cases to run (seeds `start_seed..start_seed + cases`).
    pub cases: u64,
    /// First seed.
    pub start_seed: u64,
    /// Wall-clock budget; the run stops early (successfully) when spent.
    pub time_budget: Option<Duration>,
    /// Directory minimized reproducers are written to.
    pub out_dir: PathBuf,
    /// Test-only transform sabotage.
    pub inject: Option<Inject>,
    /// Restrict the campaign to one pass (default: every
    /// [`TransformKind`], vanguard first).
    pub transform: Option<TransformKind>,
}

/// The variant list a campaign runs: one explicit kind, or all of them
/// with vanguard first (the injected-sabotage smoke tests rely on the
/// vanguard variant being gated before the rivals).
pub fn kinds_for(transform: Option<TransformKind>) -> Vec<TransformKind> {
    match transform {
        Some(kind) => vec![kind],
        None => TransformKind::ALL.to_vec(),
    }
}

/// Why one case failed.
#[derive(Clone, Debug)]
pub enum CaseFailure {
    /// The generated program failed to profile (input bug, not transform).
    Profile(String),
    /// The lint reported diagnostics on a compiled program.
    Lint {
        /// "baseline" or "transformed".
        variant: &'static str,
        /// Rendered diagnostics.
        diagnostics: Vec<String>,
    },
    /// The interpreter differential diverged.
    Divergence {
        /// "baseline" or "transformed".
        variant: &'static str,
        /// Rendered divergences.
        divergences: Vec<String>,
    },
    /// Simulator committed state differed from the interpreter's.
    SimParity {
        /// "baseline" or "transformed".
        variant: &'static str,
        /// Description of the first mismatch.
        detail: String,
    },
}

impl fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseFailure::Profile(e) => write!(f, "profile error: {e}"),
            CaseFailure::Lint {
                variant,
                diagnostics,
            } => {
                writeln!(f, "lint violations on {variant}:")?;
                for d in diagnostics {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            CaseFailure::Divergence {
                variant,
                divergences,
            } => {
                writeln!(f, "interpreter differential divergence on {variant}:")?;
                for d in divergences {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            CaseFailure::SimParity { variant, detail } => {
                write!(
                    f,
                    "simulator/interpreter parity mismatch on {variant}: {detail}"
                )
            }
        }
    }
}

/// Outcome of a whole fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzStats {
    /// Cases executed.
    pub cases_run: u64,
    /// Cases where the selector converted at least one site.
    pub transformed: u64,
    /// Total sites converted across all cases.
    pub sites_converted: u64,
    /// Failing seeds, with the shrunk spec and failure.
    pub failures: Vec<(u64, FuzzSpec, String)>,
}

/// Maps the spec's transform knobs onto the experiment, with the
/// selector relaxed so short fuzz loops still qualify.
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

/// Registers the original program reads or writes: the architecturally
/// observable set. Shadow temporaries the transform introduces are by
/// construction *not* in it, and their final values legitimately depend
/// on the prediction stream.
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

/// Applies the requested sabotage to a compiled transformed program.
fn sabotage(program: &mut Program, inject: Inject) {
    for i in 0..program.num_blocks() {
        let block = program.block_mut(vanguard_isa::BlockId(i as u32));
        for inst in block.insts_mut() {
            match (inject, inst) {
                (Inject::FlipResolves, vanguard_isa::Inst::Resolve { cond, .. }) => {
                    *cond = cond.negate();
                }
                (Inject::FaultingLoads, vanguard_isa::Inst::Load { speculative, .. }) => {
                    *speculative = false;
                }
                _ => {}
            }
        }
    }
}

/// Committed state of one execution: observable register values in the
/// caller's order, plus every explicitly written memory word.
type CommittedState = (Vec<u64>, Vec<(u64, u64)>);

/// Interpreter committed state (oracle-independent for observables).
fn interp_state(
    program: &Program,
    memory: Memory,
    init: &[(Reg, u64)],
    regs: &[Reg],
) -> Result<CommittedState, String> {
    let mut i = Interpreter::new(program, memory).with_config(InterpConfig {
        max_steps: MAX_STEPS,
    });
    for &(r, v) in init {
        i.set_reg(r, v);
    }
    let out = i
        .run(&mut TakenOracle::AlwaysNotTaken)
        .map_err(|e| e.to_string())?;
    if out.stop != StopReason::Halted {
        return Err(format!("interpreter did not halt within {MAX_STEPS} steps"));
    }
    let vals = regs.iter().map(|&r| i.reg(r)).collect();
    Ok((vals, i.memory().written_words()))
}

/// Simulator committed state for the same program and input.
fn sim_state(
    program: &Program,
    memory: Memory,
    init: &[(Reg, u64)],
    regs: &[Reg],
) -> Result<CommittedState, String> {
    let image = Arc::new(DecodedImage::build(program));
    let mut sim = Simulator::with_image(
        image,
        memory,
        MachineConfig::four_wide(),
        Box::new(Combined::ptlsim_default()),
    );
    for &(r, v) in init {
        sim.set_reg(r, v);
    }
    let res = sim.run().map_err(|e| e.to_string())?;
    if res.stop != StopCause::Halted {
        return Err(format!("simulator stopped on {:?}", res.stop));
    }
    let vals = regs.iter().map(|&r| res.regs[r.index()]).collect();
    Ok((vals, res.memory.written_words()))
}

/// Gates 2 and 3 for one compiled program under one label.
fn runtime_gates(
    variant: &'static str,
    program: &Program,
    case: &FuzzCase,
    obs: &Observables,
) -> Result<(), CaseFailure> {
    // Gate 2: interpreter differential under adversarial oracles.
    let divs = verify_equivalence(
        &case.program,
        program,
        &case.memory,
        &case.init_regs,
        obs,
        RANDOM_ORACLES,
        MAX_STEPS,
    )
    .map_err(|e| CaseFailure::Profile(format!("reference run faulted: {e}")))?;
    if !divs.is_empty() {
        return Err(CaseFailure::Divergence {
            variant,
            divergences: divs.iter().map(|d| d.to_string()).collect(),
        });
    }

    // Gate 3: cycle-simulator parity with the interpreter.
    let i = interp_state(program, case.memory.clone(), &case.init_regs, &obs.regs)
        .map_err(|detail| CaseFailure::SimParity { variant, detail })?;
    let s = sim_state(program, case.memory.clone(), &case.init_regs, &obs.regs)
        .map_err(|detail| CaseFailure::SimParity { variant, detail })?;
    if i.0 != s.0 {
        let r = obs
            .regs
            .iter()
            .zip(i.0.iter().zip(&s.0))
            .find(|(_, (a, b))| a != b);
        let (reg, (iv, sv)) = r.expect("some register differs");
        return Err(CaseFailure::SimParity {
            variant,
            detail: format!("{reg}: interpreter {iv:#x} vs simulator {sv:#x}"),
        });
    }
    if i.1 != s.1 {
        return Err(CaseFailure::SimParity {
            variant,
            detail: format!(
                "written words differ: interpreter {} words vs simulator {}",
                i.1.len(),
                s.1.len()
            ),
        });
    }
    Ok(())
}

/// Runs one case through all three gates for every transform pass.
/// `Ok(sites)` is the largest per-variant count of changed sites
/// (converted branches + melded hammocks; 0 = every selector declined —
/// still checked).
pub fn run_case(spec: &FuzzSpec, inject: Option<Inject>) -> Result<u64, CaseFailure> {
    run_case_kinds(spec, inject, &kinds_for(None))
}

/// [`run_case`] restricted to an explicit variant list. The baseline
/// program is identical across variants and gates once (against the
/// first kind's compile); each variant's transformed program then runs
/// the full oracle under its pass-specific lint contract. The TRAIN
/// profile is computed once and shared across every variant.
pub fn run_case_kinds(
    spec: &FuzzSpec,
    inject: Option<Inject>,
    kinds: &[TransformKind],
) -> Result<u64, CaseFailure> {
    let case: FuzzCase = spec.build();
    let input = ExperimentInput {
        name: format!("fuzz-{}", spec.seed),
        program: case.program.clone(),
        train: RunInput {
            memory: case.memory.clone(),
            init_regs: case.init_regs.clone(),
        },
        refs: vec![RunInput {
            memory: case.memory.clone(),
            init_regs: case.init_regs.clone(),
        }],
        seed: Some(spec.seed),
    };
    // The profile depends only on program + predictor, never on the
    // transform: compute it once and share it across every variant.
    let profile = experiment_for(spec, TransformKind::Vanguard)
        .profile(&input)
        .map_err(|e| CaseFailure::Profile(e.to_string()))?;
    let obs = Observables {
        regs: observable_regs(&case.program),
        memory_ranges: vec![case.out_range],
    };

    let mut max_sites = 0u64;
    for (idx, &kind) in kinds.iter().enumerate() {
        let exp = experiment_for(spec, kind);
        let (baseline, mut transformed, report) = exp.compile_pair(&case.program, &profile);
        if let Some(inject) = inject {
            sabotage(&mut transformed, inject);
        }
        let sites = (report.converted.len() + report.melded) as u64;
        max_sites = max_sites.max(sites);

        if idx == 0 {
            // The baseline side is transform-independent (layout +
            // scheduling only): gate it once.
            let diags = lint_program(&baseline);
            if !diags.is_empty() {
                return Err(CaseFailure::Lint {
                    variant: "baseline",
                    diagnostics: diags.iter().map(|d| d.to_string()).collect(),
                });
            }
            runtime_gates("baseline", &baseline, &case, &obs)?;
        } else if sites == 0 && inject.is_none() {
            // This variant's selector declined every site, so its
            // transformed program is the already-gated baseline.
            continue;
        }

        // Gate 1: pass-contract lint on the transformed program.
        let diags = lint_variant(kind, &baseline, &transformed);
        if !diags.is_empty() {
            return Err(CaseFailure::Lint {
                variant: kind.name(),
                diagnostics: diags.iter().map(|d| d.to_string()).collect(),
            });
        }
        runtime_gates(kind.name(), &transformed, &case, &obs)?;
    }

    Ok(max_sites)
}

/// Greedy shrink: repeatedly tries knob reductions, keeping any that
/// still fail, until no reduction makes progress (or the attempt budget
/// runs out). Returns the minimal failing spec and its failure.
pub fn shrink(
    spec: &FuzzSpec,
    inject: Option<Inject>,
    failure: CaseFailure,
) -> (FuzzSpec, CaseFailure) {
    shrink_kinds(spec, inject, failure, &kinds_for(None))
}

/// [`shrink`] restricted to an explicit variant list, so a campaign
/// limited to one pass shrinks against that pass's oracle only.
pub fn shrink_kinds(
    spec: &FuzzSpec,
    inject: Option<Inject>,
    failure: CaseFailure,
    kinds: &[TransformKind],
) -> (FuzzSpec, CaseFailure) {
    let mut best = spec.clone();
    let mut best_failure = failure;
    let mut attempts = 0;
    loop {
        let mut reduced = false;
        let candidates: Vec<FuzzSpec> = [
            FuzzSpec {
                iterations: best.iterations / 2,
                ..best.clone()
            },
            FuzzSpec {
                iterations: best.iterations.saturating_sub(1),
                ..best.clone()
            },
            FuzzSpec {
                sites: best.sites - 1,
                ..best.clone()
            },
            FuzzSpec {
                side_insts: best.side_insts - 1,
                ..best.clone()
            },
            FuzzSpec {
                stores_per_side: 0,
                ..best.clone()
            },
            FuzzSpec {
                persistent: best.persistent - 1,
                ..best.clone()
            },
            FuzzSpec {
                cond_chain: false,
                ..best.clone()
            },
            FuzzSpec {
                shadow_temps: false,
                ..best.clone()
            },
            FuzzSpec {
                max_hoist: best.max_hoist / 2,
                ..best.clone()
            },
        ]
        .into_iter()
        .filter(|c| {
            *c != best
                && c.iterations >= 2
                && c.sites >= 1
                && c.side_insts >= 1
                && c.persistent >= 1
                && c.max_hoist >= 1
        })
        .collect();
        for candidate in candidates {
            attempts += 1;
            if attempts > MAX_SHRINK_ATTEMPTS {
                return (best, best_failure);
            }
            if let Err(f) = run_case_kinds(&candidate, inject, kinds) {
                best = candidate;
                best_failure = f;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (best, best_failure);
        }
    }
}

/// The pass a failure implicates: its variant label *is* a kind name
/// for transformed-side failures (baseline/profile failures fall back
/// to vanguard — the transform is not implicated there anyway).
pub fn failure_kind(failure: &CaseFailure) -> TransformKind {
    let variant = match failure {
        CaseFailure::Lint { variant, .. }
        | CaseFailure::Divergence { variant, .. }
        | CaseFailure::SimParity { variant, .. } => variant,
        CaseFailure::Profile(_) => "vanguard",
    };
    TransformKind::parse(variant).unwrap_or_default()
}

/// Writes a minimized reproducer directory: the spec, replay command,
/// failure description, and both programs' disassembly (the transformed
/// side compiled under the pass the failure implicates).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_reproducer(
    dir: &Path,
    spec: &FuzzSpec,
    inject: Option<Inject>,
    failure: &CaseFailure,
) -> std::io::Result<PathBuf> {
    let case_dir = dir.join(format!("seed-{}", spec.seed));
    std::fs::create_dir_all(&case_dir)?;
    let kind = failure_kind(failure);
    let mut replay = format!(
        "cargo run --release -p vanguard-bench --bin vanguard-fuzz -- \\\n  --one {} --sites {} --side-insts {} --stores {} --persistent {} \\\n  --iterations {} --cond-chain {} --shadow-temps {} --hoist-loads {} --max-hoist {}",
        spec.seed,
        spec.sites,
        spec.side_insts,
        spec.stores_per_side,
        spec.persistent,
        spec.iterations,
        spec.cond_chain,
        spec.shadow_temps,
        spec.hoist_loads,
        spec.max_hoist,
    );
    if kind != TransformKind::Vanguard {
        replay.push_str(&format!(" \\\n  --transform {kind}"));
    }
    if let Some(inject) = inject {
        let flag = match inject {
            Inject::FlipResolves => "flip-resolves",
            Inject::FaultingLoads => "faulting-loads",
        };
        replay.push_str(&format!(" \\\n  --inject {flag}"));
    }
    std::fs::write(
        case_dir.join("repro.txt"),
        format!("minimized spec:\n{spec:#?}\n\nreplay:\n{replay}\n\nfailure:\n{failure}\n"),
    )?;
    let case = spec.build();
    std::fs::write(case_dir.join("original.asm"), case.program.disassemble())?;
    let exp = experiment_for(spec, kind);
    if let Ok(profile) = exp.profile(&ExperimentInput {
        name: "repro".into(),
        program: case.program.clone(),
        train: RunInput {
            memory: case.memory.clone(),
            init_regs: case.init_regs.clone(),
        },
        refs: vec![RunInput {
            memory: case.memory.clone(),
            init_regs: case.init_regs.clone(),
        }],
        seed: Some(spec.seed),
    }) {
        let (_, mut transformed, _) = exp.compile_pair(&case.program, &profile);
        if let Some(inject) = inject {
            sabotage(&mut transformed, inject);
        }
        std::fs::write(case_dir.join("transformed.asm"), transformed.disassemble())?;
    }
    Ok(case_dir)
}

/// Runs the full fuzzing campaign described by `config`, shrinking and
/// persisting every failure. Progress goes to stderr.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzStats {
    let started = Instant::now();
    let mut stats = FuzzStats::default();
    let kinds = kinds_for(config.transform);
    for i in 0..config.cases {
        if let Some(budget) = config.time_budget {
            if started.elapsed() >= budget {
                eprintln!("[fuzz] time budget spent after {} cases", stats.cases_run);
                break;
            }
        }
        let seed = config.start_seed + i;
        let spec = FuzzSpec::from_seed(seed);
        stats.cases_run += 1;
        match run_case_kinds(&spec, config.inject, &kinds) {
            Ok(sites) => {
                if sites > 0 {
                    stats.transformed += 1;
                    stats.sites_converted += sites;
                }
            }
            Err(failure) => {
                eprintln!("[fuzz] seed {seed} FAILED: shrinking…");
                let (min_spec, min_failure) = shrink_kinds(&spec, config.inject, failure, &kinds);
                match write_reproducer(&config.out_dir, &min_spec, config.inject, &min_failure) {
                    Ok(dir) => eprintln!("[fuzz] reproducer written to {}", dir.display()),
                    Err(e) => eprintln!("[fuzz] failed to write reproducer: {e}"),
                }
                stats
                    .failures
                    .push((seed, min_spec, min_failure.to_string()));
            }
        }
        if stats.cases_run % 100 == 0 {
            eprintln!(
                "[fuzz] {} cases, {} transformed ({} sites), {} failures, {:.1}s",
                stats.cases_run,
                stats.transformed,
                stats.sites_converted,
                stats.failures.len(),
                started.elapsed().as_secs_f64()
            );
        }
    }
    stats
}
