//! The engine's headline guarantee (DESIGN.md §6): outcomes from the
//! parallel, artifact-cached engine are **bit-identical** to strictly
//! serial staged execution, each distinct job simulates at most once per
//! engine, and cache keys never collide across distinct sweep
//! coordinates.

use proptest::prelude::*;
use std::sync::OnceLock;
use vanguard_bench::{quick_spec, to_experiment_input, BenchScale};
use vanguard_core::engine::{
    Engine, PredictorKind, SimJob, SweepCell, Variant, DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::{Experiment, ExperimentOutcome, RefRun, TransformKind, TransformOptions};
use vanguard_sim::{MachineConfig, SimStats};
use vanguard_workloads::suite;

fn two_benchmark_inputs() -> Vec<vanguard_core::ExperimentInput> {
    // One INT, one FP benchmark: different site mixes, several REF
    // inputs at Full scale would be slow, so Quick.
    let mut inputs = Vec::new();
    for name in ["h264ref", "wrf"] {
        let spec = suite::all_benchmarks()
            .into_iter()
            .find(|s| s.name == name)
            .expect("known benchmark");
        inputs.push(to_experiment_input(
            quick_spec(spec, BenchScale::Quick).build(),
        ));
    }
    inputs
}

/// Hand-rolled serial reference: the exact stage sequence the historical
/// `Experiment::run` loop performed, with no engine, no cache, no
/// threads.
fn serial_reference(
    exp: &Experiment,
    inputs: &[vanguard_core::ExperimentInput],
) -> Vec<ExperimentOutcome> {
    inputs
        .iter()
        .map(|input| {
            let profile = exp.profile(input).expect("profiles");
            let (baseline, transformed, report) = exp.compile_pair(&input.program, &profile);
            let runs: Vec<RefRun> = input
                .refs
                .iter()
                .map(|r| RefRun {
                    base: exp.simulate(&baseline, r).expect("simulates"),
                    exp: exp.simulate(&transformed, r).expect("simulates"),
                })
                .collect();
            ExperimentOutcome {
                name: input.name.clone(),
                report,
                runs,
                profile_dynamic_insts: profile.dynamic_insts,
            }
        })
        .collect()
}

fn assert_outcomes_identical(a: &[ExperimentOutcome], b: &[ExperimentOutcome]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.profile_dynamic_insts, y.profile_dynamic_insts);
        assert_eq!(x.report.converted.len(), y.report.converted.len());
        assert_eq!(x.report.skipped.len(), y.report.skipped.len());
        assert_eq!(x.runs.len(), y.runs.len());
        for (rx, ry) in x.runs.iter().zip(&y.runs) {
            // SimStats is PartialEq over every counter: bit-identity,
            // not approximate agreement.
            assert_eq!(rx.base, ry.base, "{}: baseline stats diverged", x.name);
            assert_eq!(rx.exp, ry.exp, "{}: transformed stats diverged", x.name);
        }
    }
}

/// Parallel engine outcomes == serial staged execution, for a
/// 2-benchmark suite across 1, 2, and 8 workers.
#[test]
fn engine_outcomes_are_identical_to_serial_for_any_worker_count() {
    let inputs = two_benchmark_inputs();
    let exp = Experiment::new(MachineConfig::four_wide());
    let reference = serial_reference(&exp, &inputs);
    for workers in [1, 2, 8] {
        let mut engine = Engine::with_workers(workers);
        let cells: Vec<SweepCell> = inputs
            .iter()
            .map(|input| SweepCell {
                bench: engine.add_benchmark(input.clone()),
                machine: exp.machine,
                predictor: exp.predictor,
            })
            .collect();
        let outcomes = engine
            .run_cells(&cells, &exp.transform, exp.max_profile_steps)
            .expect("engine runs cleanly");
        assert_outcomes_identical(&reference, &outcomes);
    }
}

/// `Experiment::run_suite` (the engine-backed public path) matches the
/// serial reference too.
#[test]
fn run_suite_matches_serial_reference() {
    let inputs = two_benchmark_inputs();
    let exp = Experiment::new(MachineConfig::four_wide());
    let reference = serial_reference(&exp, &inputs);
    let outcomes = exp.run_suite(&inputs).expect("runs cleanly");
    assert_outcomes_identical(&reference, &outcomes);
}

/// The suite-level artifact contract: one profile per benchmark, one
/// compiled pair per (benchmark, width), however many jobs reference
/// them.
#[test]
fn suite_sweep_computes_each_artifact_once() {
    let inputs = two_benchmark_inputs();
    let mut engine = Engine::with_workers(4);
    let cells: Vec<SweepCell> = inputs
        .iter()
        .flat_map(|input| {
            let bench = engine.add_benchmark(input.clone());
            MachineConfig::all_widths()
                .into_iter()
                .map(move |machine| SweepCell {
                    bench,
                    machine,
                    predictor: PredictorKind::Combined24KB,
                })
        })
        .collect();
    engine
        .run_cells(
            &cells,
            &TransformOptions::default(),
            DEFAULT_MAX_PROFILE_STEPS,
        )
        .expect("engine runs cleanly");
    let stats = engine.stats();
    assert_eq!(stats.profile_misses, 2, "{stats:?}");
    assert_eq!(stats.compile_misses, 6, "{stats:?}");
}

/// The simulation memo under concurrency: a job list in which every job
/// appears three times in a row (so at 4 workers the copies race for
/// one key) simulates each distinct job exactly once, serves the rest
/// from the memo, and every result equals a fresh engine's run of that
/// job alone.
#[test]
fn repeated_jobs_simulate_once_at_any_worker_count() {
    let inputs = two_benchmark_inputs();
    let options = TransformOptions::default();
    let engine_with_inputs = |workers: usize| {
        let mut engine = Engine::with_workers(workers);
        let ids: Vec<usize> = inputs
            .iter()
            .map(|input| engine.add_benchmark(input.clone()))
            .collect();
        (engine, ids)
    };
    let (probe, ids) = engine_with_inputs(1);
    let cells: Vec<SweepCell> = ids
        .iter()
        .flat_map(|&bench| {
            [MachineConfig::two_wide(), MachineConfig::four_wide()]
                .into_iter()
                .map(move |machine| SweepCell {
                    bench,
                    machine,
                    predictor: PredictorKind::Combined24KB,
                })
        })
        .collect();
    let distinct = probe.jobs_for_cells(&cells);
    let reference: Vec<SimStats> = distinct
        .iter()
        .map(|job| {
            let (fresh, _) = engine_with_inputs(1);
            fresh
                .run_job(job, &options, DEFAULT_MAX_PROFILE_STEPS)
                .expect_completed()
                .stats
        })
        .collect();
    let tripled: Vec<SimJob> = distinct.iter().flat_map(|&job| [job; 3]).collect();
    for workers in [1, 4] {
        let (engine, _) = engine_with_inputs(workers);
        let results = engine.run_jobs(&tripled, &options, DEFAULT_MAX_PROFILE_STEPS);
        let stats = engine.stats();
        assert_eq!(
            stats.sim_jobs as usize,
            distinct.len(),
            "{workers}w: {stats:?}"
        );
        assert_eq!(
            stats.sim_memo_hits as usize,
            tripled.len() - distinct.len(),
            "{workers}w: {stats:?}"
        );
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.job(), &tripled[i]);
            assert_eq!(
                result.expect_completed().stats,
                reference[i / 3],
                "{workers}w: job {i} differs from a fresh engine's run"
            );
        }
    }
}

/// The wall-clock acceptance criterion: 4 workers beat serial by >2× on
/// a simulation-heavy sweep. Requires real cores — on boxes with fewer
/// than 4 CPUs the criterion is physically unmeasurable (oversubscribing
/// one core only adds scheduling overhead), so the test self-skips.
#[test]
fn four_workers_beat_serial_when_cores_allow() {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup measurement: {cores} core(s) available, need 4");
        return;
    }
    let inputs = two_benchmark_inputs();
    let run = |workers: usize| {
        let mut engine = Engine::with_workers(workers);
        let cells: Vec<SweepCell> = inputs
            .iter()
            .flat_map(|input| {
                let bench = engine.add_benchmark(input.clone());
                MachineConfig::all_widths()
                    .into_iter()
                    .map(move |machine| SweepCell {
                        bench,
                        machine,
                        predictor: PredictorKind::Combined24KB,
                    })
            })
            .collect();
        let started = std::time::Instant::now();
        engine
            .run_cells(
                &cells,
                &TransformOptions::default(),
                DEFAULT_MAX_PROFILE_STEPS,
            )
            .expect("engine runs cleanly");
        started.elapsed()
    };
    run(1); // warm the page cache and branch predictors
    let serial = run(1);
    let parallel = run(4);
    let ratio = serial.as_secs_f64() / parallel.as_secs_f64();
    assert!(
        ratio > 2.0,
        "expected >2x speedup at 4 workers, got {ratio:.2}x ({serial:?} vs {parallel:?})"
    );
}

fn arb_options() -> impl Strategy<Value = TransformOptions> {
    (
        0usize..TransformKind::ALL.len(),
        // threshold in hundredths, min_executions, forward_only
        (0u64..200, 1u64..512, any::<bool>()),
        // max_hoist, hoist_loads, shadow_temps, meld_max_side
        (0usize..32, any::<bool>(), any::<bool>(), 0usize..16),
    )
        .prop_map(
            |(kind, (th, min_exec, fwd), (hoist, loads, shadow, meld))| TransformOptions {
                kind: TransformKind::ALL[kind],
                select: vanguard_core::SelectOptions {
                    threshold: th as f64 / 100.0,
                    min_executions: min_exec,
                    forward_only: fwd,
                },
                max_hoist: hoist,
                hoist_loads: loads,
                shadow_temps: shadow,
                meld_max_side: meld,
            },
        )
}

fn arb_predictor() -> impl Strategy<Value = PredictorKind> {
    prop_oneof![
        Just(PredictorKind::Bimodal8K),
        Just(PredictorKind::Combined6KB),
        Just(PredictorKind::Combined24KB),
        Just(PredictorKind::TwoLevelLocal),
        Just(PredictorKind::Tage32KB),
        Just(PredictorKind::IslTage64KB),
    ]
}

/// An engine with eight registrations of one quick benchmark under
/// eight names: eight distinct identities.
fn eight_benchmarks() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let input = two_benchmark_inputs().swap_remove(0);
        let mut engine = Engine::with_workers(1);
        for i in 0..8 {
            let mut renamed = input.clone();
            renamed.name = format!("{}-{i}", input.name);
            engine.add_benchmark(renamed);
        }
        engine
    })
}

/// `true` three times in four: the second job of a case copies most of
/// the first job's coordinates, so pairs that differ in one coordinate
/// alone, the pairs a key missing that coordinate would merge, are
/// common.
fn mostly_true() -> impl Strategy<Value = bool> {
    prop_oneof![Just(true), Just(true), Just(true), Just(false)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Job keys are injective: distinct (benchmark, width, predictor,
    /// step budget, variant) coordinates never share a key, nor do
    /// transformed jobs under distinct option sets. A baseline job's key
    /// ignores the options, since no option changes the baseline.
    #[test]
    fn cache_keys_never_collide(
        bench_a in 0usize..8, bench_b in 0usize..8,
        width_a in 0usize..3, width_b in 0usize..3,
        pred_a in arb_predictor(), pred_b in arb_predictor(),
        steps_a in 1u64..4, steps_b in 1u64..4,
        transformed_a in any::<bool>(), transformed_b in any::<bool>(),
        opts_a in arb_options(), opts_b in arb_options(),
        same in (
            mostly_true(), mostly_true(), mostly_true(), mostly_true(), mostly_true(),
            any::<bool>(),
        ),
    ) {
        let bench_b = if same.0 { bench_a } else { bench_b };
        let width_b = if same.1 { width_a } else { width_b };
        let pred_b = if same.2 { pred_a } else { pred_b };
        let steps_b = if same.3 { steps_a } else { steps_b };
        let transformed_b = if same.4 { transformed_a } else { transformed_b };
        let opts_b = if same.5 { opts_a } else { opts_b };
        let engine = eight_benchmarks();
        let job = |bench, width: usize, predictor, transformed| SimJob {
            bench,
            ref_input: 0,
            machine: MachineConfig::all_widths()[width],
            predictor,
            variant: if transformed { Variant::Transformed } else { Variant::Baseline },
        };
        let key_a = engine.job_key(&job(bench_a, width_a, pred_a, transformed_a), &opts_a, steps_a);
        let key_b = engine.job_key(&job(bench_b, width_b, pred_b, transformed_b), &opts_b, steps_b);
        let program_differs = bench_a != bench_b
            || width_a != width_b
            || pred_a != pred_b
            || steps_a != steps_b
            || transformed_a != transformed_b;
        let coords_differ = program_differs || (transformed_a && opts_a != opts_b);
        prop_assert_eq!(key_a != key_b, coords_differ);
    }
}
