//! Conversions between workload bundles and experiment inputs, plus the
//! harness-wide [`SuiteEngine`] wrapper around the core experiment
//! engine.

use std::collections::HashMap;
use std::sync::Arc;
use vanguard_core::engine::{
    Engine, FaultPolicy, PredictorKind, ProgressObserver, SimJob, SweepCell,
    DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::{
    ExperimentInput, ExperimentOutcome, RunInput, TransformKind, TransformOptions, VanguardError,
};
use vanguard_ir::Profile;
use vanguard_sim::MachineConfig;
use vanguard_workloads::{BenchmarkSpec, BuiltWorkload};

/// Converts a built workload to an experiment input.
pub fn to_experiment_input(w: BuiltWorkload) -> ExperimentInput {
    ExperimentInput {
        name: w.name,
        program: w.program,
        train: RunInput {
            memory: w.train.memory,
            init_regs: w.train.init_regs,
        },
        refs: w
            .refs
            .into_iter()
            .map(|r| RunInput {
                memory: r.memory,
                init_regs: r.init_regs,
            })
            .collect(),
        seed: Some(w.seed),
    }
}

/// Scale knob for harness runs.
///
/// The contract between the two scales:
///
/// * [`BenchScale::Full`] runs each spec exactly as defined — the
///   paper-shaped iteration counts and every REF input. Figures and
///   tables meant to be compared against the paper use this scale.
/// * [`BenchScale::Quick`] clamps REF iterations to
///   [`BenchScale::QUICK_REF_ITERATIONS`], TRAIN iterations to
///   [`BenchScale::QUICK_TRAIN_ITERATIONS`], and keeps a single REF
///   input ([`BenchScale::QUICK_REF_INPUTS`]). It never *raises* a
///   spec's counts, so a spec smaller than the clamps is unchanged.
///   Quick preserves every structural property the tests rely on
///   (branch-site mix, selection decisions, transformation shape) but
///   shrinks the measured statistics' sample sizes — use it for CI and
///   unit tests, never for paper-comparison numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchScale {
    /// Shrunken iteration counts and one REF input (CI-sized).
    Quick,
    /// The specs as defined (paper-shaped runs).
    Full,
}

impl BenchScale {
    /// REF-iteration clamp applied by [`BenchScale::Quick`]: enough
    /// iterations for every Markov site's measured bias/predictability
    /// to settle within the calibration tolerances, small enough that a
    /// full suite sweep stays CI-sized.
    pub const QUICK_REF_ITERATIONS: u64 = 600;
    /// TRAIN-iteration clamp applied by [`BenchScale::Quick`]: shorter
    /// than the REF clamp (profiling needs only stable selection
    /// decisions, not tight statistics).
    pub const QUICK_TRAIN_ITERATIONS: u64 = 400;
    /// REF-input count under [`BenchScale::Quick`] (bias jitter across
    /// inputs is a Full-scale concern, Figures 8 vs 9).
    pub const QUICK_REF_INPUTS: usize = 1;
}

/// Applies the scale knob to a spec.
pub fn quick_spec(mut spec: BenchmarkSpec, scale: BenchScale) -> BenchmarkSpec {
    if scale == BenchScale::Quick {
        spec.iterations = spec.iterations.min(BenchScale::QUICK_REF_ITERATIONS);
        spec.train_iterations = spec
            .train_iterations
            .min(BenchScale::QUICK_TRAIN_ITERATIONS);
        spec.ref_inputs = BenchScale::QUICK_REF_INPUTS;
    }
    spec
}

/// The bench harness's front door to the core experiment engine: an
/// [`Engine`] plus a name-keyed registry so every figure and table item
/// shares one artifact cache (one profile per benchmark × predictor, one
/// compiled pair per benchmark × width, across *all* items of a run).
///
/// Construct one per harness invocation, subscribe observers, and pass
/// it to the figure functions.
#[derive(Debug)]
pub struct SuiteEngine {
    engine: Engine,
    scale: BenchScale,
    ids: HashMap<String, usize>,
    transform: TransformOptions,
}

impl SuiteEngine {
    /// A suite engine at the given scale with default worker count
    /// (`VANGUARD_THREADS` override honoured).
    pub fn new(scale: BenchScale) -> Self {
        SuiteEngine {
            engine: Engine::new(),
            scale,
            ids: HashMap::new(),
            transform: TransformOptions::default(),
        }
    }

    /// A suite engine with an explicit worker count (1 = serial).
    pub fn with_workers(scale: BenchScale, workers: usize) -> Self {
        SuiteEngine {
            engine: Engine::with_workers(workers),
            scale,
            ids: HashMap::new(),
            transform: TransformOptions::default(),
        }
    }

    /// Selects the transform pass for subsequent [`SuiteEngine::run_cells`]
    /// / [`SuiteEngine::run_jobs`] / [`SuiteEngine::outcome`] calls (the
    /// remaining options keep their paper defaults). Artifacts are keyed
    /// by the full option set, so switching kinds mid-run never collides.
    pub fn set_transform_kind(&mut self, kind: TransformKind) {
        self.transform.kind = kind;
    }

    /// The transform options subsequent runs will use.
    pub fn transform(&self) -> &TransformOptions {
        &self.transform
    }

    /// Subscribes a progress observer on the underlying engine.
    pub fn observe(&mut self, observer: Arc<dyn ProgressObserver>) {
        self.engine.observe(observer);
    }

    /// Overrides the underlying engine's fault policy (watchdog
    /// budgets, retry behaviour, quarantine/cache directories).
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.engine.set_fault_policy(policy);
    }

    /// The underlying engine (cache statistics, registered benchmarks).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The configured scale.
    pub fn scale(&self) -> BenchScale {
        self.scale
    }

    /// The engine benchmark id for a spec, building and registering the
    /// workload on first use (scale applied). Ids are keyed by spec
    /// name, so repeated requests share artifacts.
    pub fn bench_id(&mut self, spec: &BenchmarkSpec) -> usize {
        if let Some(&id) = self.ids.get(&spec.name) {
            return id;
        }
        let input = to_experiment_input(quick_spec(spec.clone(), self.scale).build());
        let id = self.engine.add_benchmark(input);
        self.ids.insert(spec.name.clone(), id);
        id
    }

    /// The TRAIN profile of a spec under a predictor (cached).
    ///
    /// # Errors
    ///
    /// Returns the profiling error.
    pub fn profile(
        &mut self,
        spec: &BenchmarkSpec,
        predictor: PredictorKind,
    ) -> Result<Arc<Profile>, VanguardError> {
        let id = self.bench_id(spec);
        self.engine
            .profile(id, predictor, DEFAULT_MAX_PROFILE_STEPS)
    }

    /// Runs a sweep matrix with the configured transform options (the
    /// paper's defaults unless [`SuiteEngine::set_transform_kind`] was
    /// called).
    ///
    /// # Errors
    ///
    /// Returns the first (by job index) profiling or simulation error.
    pub fn run_cells(&self, cells: &[SweepCell]) -> Result<Vec<ExperimentOutcome>, VanguardError> {
        self.run_cells_with(cells, &self.transform)
    }

    /// Runs a sweep matrix with an explicit option set (the ablation
    /// table sweeps every [`TransformKind`] over the same cells).
    ///
    /// # Errors
    ///
    /// Returns the first (by job index) profiling or simulation error.
    pub fn run_cells_with(
        &self,
        cells: &[SweepCell],
        options: &TransformOptions,
    ) -> Result<Vec<ExperimentOutcome>, VanguardError> {
        self.engine
            .run_cells(cells, options, DEFAULT_MAX_PROFILE_STEPS)
    }

    /// Runs a flat job list with the configured transform options.
    /// Infallible: each job yields its own [`JobResult`](vanguard_core::engine::JobResult) outcome.
    pub fn run_jobs(&self, jobs: &[SimJob]) -> Vec<vanguard_core::engine::JobResult> {
        self.engine
            .run_jobs(jobs, &self.transform, DEFAULT_MAX_PROFILE_STEPS)
    }

    /// Convenience: one spec, one machine, baseline predictor — the old
    /// `Experiment::run` shape, but artifact-cached and pooled.
    ///
    /// # Panics
    ///
    /// Panics if the workload faults (generated kernels never do).
    pub fn outcome(&mut self, spec: &BenchmarkSpec, machine: MachineConfig) -> ExperimentOutcome {
        let bench = self.bench_id(spec);
        let cells = [SweepCell {
            bench,
            machine,
            predictor: PredictorKind::Combined24KB,
        }];
        self.run_cells(&cells)
            .expect("workload simulates cleanly")
            .remove(0)
    }
}

/// Geometric mean of percentage speedups (composed as ratios).
pub fn geomean_pct(pcts: &[f64]) -> f64 {
    if pcts.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = pcts.iter().map(|p| (1.0 + p / 100.0).ln()).sum();
    ((log_sum / pcts.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean_pct(&[10.0, 10.0, 10.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_is_below_arithmetic_mean() {
        let g = geomean_pct(&[0.0, 21.0]);
        assert!(g > 9.0 && g < 10.5, "{g}");
    }

    #[test]
    fn empty_geomean_is_zero() {
        assert_eq!(geomean_pct(&[]), 0.0);
    }

    #[test]
    fn quick_scale_shrinks() {
        let spec = vanguard_workloads::suite::spec2006_int().remove(0);
        let q = quick_spec(spec.clone(), BenchScale::Quick);
        assert!(q.iterations <= 600);
        assert_eq!(q.ref_inputs, 1);
        let f = quick_spec(spec.clone(), BenchScale::Full);
        assert_eq!(f.iterations, spec.iterations);
    }

    #[test]
    fn conversion_preserves_refs() {
        let spec = quick_spec(
            vanguard_workloads::suite::spec2006_int().remove(0),
            BenchScale::Quick,
        );
        let input = to_experiment_input(spec.build());
        assert_eq!(input.refs.len(), 1);
        assert!(!input.train.init_regs.is_empty());
    }
}
