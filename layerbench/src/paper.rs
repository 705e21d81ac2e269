//! `paper-quick`: the job matrix of `figures all --quick` (648 simulation
//! jobs over the 54 kernels), one op per `Engine::run_job` call, checked
//! by regenerating every section and byte-comparing it with the golden.

use crate::measure::{secs, shuffled, LayerReport, Samples, Tracer, OP};
use crate::{fresh_engine, Workload};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;
use vanguard_bench::{
    format_speedups, format_table2, geomean_pct, quick_spec, table1_text, to_experiment_input,
    BenchScale, IcacheAblationRow, SpeedupRow, Table2Row,
};
use vanguard_core::engine::{
    Engine, JobResult, PredictorKind, SimJob, SweepCell, Variant, DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::{ExperimentOutcome, RefRun, TransformOptions};
use vanguard_sim::{MachineConfig, SimStats};
use vanguard_workloads::{suite, BenchmarkSpec};

/// The `figures all --quick` output this workload must reproduce.
pub const GOLDEN: &str = include_str!("../../tests/golden/figures_quick_all.txt");

/// One printed section of `figures all`, in print order.
enum Section {
    Table1,
    BiasPred(&'static str, Vec<BenchmarkSpec>),
    Speedups(&'static str, Vec<BenchmarkSpec>, bool),
    Table2(Vec<BenchmarkSpec>),
    Fig14(Vec<BenchmarkSpec>),
    Sensitivity(Vec<BenchmarkSpec>),
    Icache(Vec<BenchmarkSpec>),
}

fn sections() -> Vec<Section> {
    let int06 = suite::spec2006_int;
    let both06 = || {
        let mut s = suite::spec2006_int();
        s.extend(suite::spec2006_fp());
        s
    };
    vec![
        Section::Table1,
        Section::BiasPred(
            "Figure 2: SPEC 2006 INT predictability vs bias (top 75 fwd branches)",
            int06(),
        ),
        Section::BiasPred(
            "Figure 3: SPEC 2006 FP predictability vs bias (top 75 fwd branches)",
            suite::spec2006_fp(),
        ),
        Section::Speedups(
            "Figure 8: SPEC06 INT speedup, all REF inputs",
            int06(),
            false,
        ),
        Section::Speedups(
            "Figure 9: SPEC06 INT speedup, best REF input",
            int06(),
            true,
        ),
        Section::Speedups(
            "Figure 10: SPEC00 INT speedup, all REF inputs",
            suite::spec2000_int(),
            false,
        ),
        Section::Speedups(
            "Figure 11: SPEC00 INT speedup, best REF input",
            suite::spec2000_int(),
            true,
        ),
        Section::Speedups(
            "Figure 12: SPEC06 FP speedup, all REF inputs",
            suite::spec2006_fp(),
            false,
        ),
        Section::Speedups(
            "Figure 13: SPEC00 FP speedup, all REF inputs",
            suite::spec2000_fp(),
            false,
        ),
        Section::Table2(both06()),
        Section::Fig14(both06()),
        Section::Sensitivity(
            int06()
                .into_iter()
                .filter(|s| ["astar", "sjeng", "gobmk", "mcf"].contains(&s.name.as_str()))
                .collect(),
        ),
        Section::Icache(int06()),
    ]
}

/// A fresh engine with every kernel of the suite registered, plus the
/// flat job list and the section each job feeds.
struct Built {
    engine: Engine,
    ids: HashMap<String, usize>,
    jobs: Vec<SimJob>,
    /// `(first job, end job)` of each section.
    spans: Vec<(usize, usize)>,
}

pub struct PaperQuick {
    seed: u64,
    golden: String,
    sections: Vec<Section>,
    built: Option<Built>,
    kernels: usize,
}

impl PaperQuick {
    pub fn new(seed: u64) -> Self {
        Self::with_golden(seed, GOLDEN.to_string())
    }

    /// A workload checked against `golden` instead of the repository's
    /// golden (the self-test passes a perturbed copy).
    pub fn with_golden(seed: u64, golden: String) -> Self {
        PaperQuick {
            seed,
            golden,
            sections: sections(),
            built: None,
            kernels: 0,
        }
    }
}

fn cells_of(
    ids: &HashMap<String, usize>,
    specs: &[BenchmarkSpec],
    machines: &[MachineConfig],
    predictors: &[PredictorKind],
) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for spec in specs {
        for &machine in machines {
            for &predictor in predictors {
                cells.push(SweepCell {
                    bench: ids[&spec.name],
                    machine,
                    predictor,
                });
            }
        }
    }
    cells
}

/// The sweep cells a section runs (`None` for the Icache raw job list
/// and for sections that run no jobs).
fn section_cells(section: &Section, ids: &HashMap<String, usize>) -> Option<Vec<SweepCell>> {
    let base = [PredictorKind::Combined24KB];
    let four = [MachineConfig::four_wide()];
    match section {
        Section::Speedups(_, specs, _) => {
            Some(cells_of(ids, specs, &MachineConfig::all_widths(), &base))
        }
        Section::Table2(specs) | Section::Fig14(specs) => Some(cells_of(ids, specs, &four, &base)),
        Section::Sensitivity(specs) => Some(cells_of(ids, specs, &four, &vanguard_bpred::ladder())),
        _ => None,
    }
}

fn icache_jobs(ids: &HashMap<String, usize>, specs: &[BenchmarkSpec]) -> Vec<SimJob> {
    let machines = [
        MachineConfig::four_wide(),
        MachineConfig::four_wide().with_reduced_icache(),
    ];
    specs
        .iter()
        .flat_map(|spec| {
            machines.map(|machine| SimJob {
                bench: ids[&spec.name],
                ref_input: 0,
                machine,
                predictor: PredictorKind::Combined24KB,
                variant: Variant::Transformed,
            })
        })
        .collect()
}

impl Workload for PaperQuick {
    fn setup(&mut self) {
        self.built = None;
        let mut engine = fresh_engine(None);
        let mut ids = HashMap::new();
        for spec in suite::all_benchmarks() {
            if ids.contains_key(&spec.name) {
                continue;
            }
            let input = to_experiment_input(quick_spec(spec.clone(), BenchScale::Quick).build());
            ids.insert(spec.name.clone(), engine.add_benchmark(input));
        }
        let mut jobs = Vec::new();
        let mut spans = Vec::new();
        for section in &self.sections {
            let start = jobs.len();
            if let Some(cells) = section_cells(section, &ids) {
                jobs.extend(engine.jobs_for_cells(&cells));
            } else if let Section::Icache(specs) = section {
                jobs.extend(icache_jobs(&ids, specs));
            }
            spans.push((start, jobs.len()));
        }
        self.kernels = ids.len();
        self.built = Some(Built {
            engine,
            ids,
            jobs,
            spans,
        });
    }

    fn kernels(&self) -> usize {
        self.kernels
    }

    fn pass(&mut self, tr: &mut Tracer, s: &mut Samples, layers: &mut LayerReport) -> f64 {
        let built = self.built.take().expect("setup runs before every pass");
        let engine = &built.engine;
        let options = TransformOptions::default();
        let n = built.jobs.len();
        let order = shuffled(n, self.seed);
        let mut results: Vec<Option<JobResult>> = vec![None; n];
        let mut sites = 0u64;
        let started = Instant::now();
        for &i in &order {
            let job = &built.jobs[i];
            let t = Instant::now();
            let result = tr.span(OP, |tr| {
                if tr.enabled() {
                    // Traced: run the profile and compile stages as their
                    // own calls, so `run_job` below is left with the
                    // simulation alone.
                    let _ = tr.span("profile", |_| {
                        engine.profile(job.bench, job.predictor, DEFAULT_MAX_PROFILE_STEPS)
                    });
                    let misses = engine.stats().compile_misses;
                    let pair = tr.span("compile", |_| {
                        engine.compile_pair(
                            job.bench,
                            job.predictor,
                            job.machine,
                            &options,
                            DEFAULT_MAX_PROFILE_STEPS,
                        )
                    });
                    if let (Ok(pair), true) = (pair, engine.stats().compile_misses > misses) {
                        sites += (pair.report.converted.len() + pair.report.melded) as u64;
                    }
                }
                tr.span("sim", |_| {
                    engine.run_job(job, &options, DEFAULT_MAX_PROFILE_STEPS)
                })
            });
            let dt = secs(t);
            s.op_ms.push(dt * 1e3);
            results[i] = Some(result);
        }
        let wall = secs(started);
        s.pass_walls.push(wall);
        s.ops_per_pass = n;
        s.attempted += n as u64;

        let results: Vec<JobResult> = results
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect();
        let mut failed: Vec<bool> = results.iter().map(|r| !r.is_completed()).collect();
        if tr.enabled() {
            // Every traced op calls each stage once.
            let stats = engine.stats();
            let calls = n as f64;
            layers.set(
                "profile.hit_ratio",
                1.0 - stats.profile_misses as f64 / calls,
            );
            layers.set(
                "compile.hit_ratio",
                1.0 - stats.compile_misses as f64 / calls,
            );
            layers.set("transform.sites_converted", sites as f64);
            for r in &results {
                if let Some(ok) = r.success() {
                    layers.add_sim(&ok.stats);
                }
            }
        }
        if failed.iter().any(|&f| f) {
            s.correct = false;
        } else {
            let rendered = render(&self.sections, &built, &results);
            let (ok, bad_sections) = compare(&rendered, &self.golden);
            if !ok {
                s.correct = false;
                eprintln!(
                    "paper-quick: output differs from the golden in sections {bad_sections:?}"
                );
                for &k in &bad_sections {
                    if let Some(&(a, b)) = built.spans.get(k) {
                        failed[a..b].iter_mut().for_each(|f| *f = true);
                    }
                }
            }
        }
        s.failed += failed.iter().filter(|&&f| f).count() as u64;
        wall
    }
}

/// Renders every section from the job results, in the exact format the
/// `figures` binary prints.
fn render(sections: &[Section], built: &Built, results: &[JobResult]) -> Vec<String> {
    let engine = &built.engine;
    let options = TransformOptions::default();
    let outcomes = |cells: &[SweepCell], range: (usize, usize)| -> Vec<ExperimentOutcome> {
        let mut at = range.0;
        cells
            .iter()
            .map(|cell| {
                let input = engine.benchmark(cell.bench);
                let runs: Vec<RefRun> = (0..input.refs.len())
                    .map(|_| {
                        let run = RefRun {
                            base: results[at].expect_completed().stats,
                            exp: results[at + 1].expect_completed().stats,
                        };
                        at += 2;
                        run
                    })
                    .collect();
                let pair = engine
                    .compile_pair(
                        cell.bench,
                        cell.predictor,
                        cell.machine,
                        &options,
                        DEFAULT_MAX_PROFILE_STEPS,
                    )
                    .expect("compiled during the pass");
                let profile = engine
                    .profile(cell.bench, cell.predictor, DEFAULT_MAX_PROFILE_STEPS)
                    .expect("profiled during the pass");
                ExperimentOutcome {
                    name: input.name.clone(),
                    report: pair.report,
                    runs,
                    profile_dynamic_insts: profile.dynamic_insts,
                }
            })
            .collect()
    };
    sections
        .iter()
        .zip(&built.spans)
        .map(|(section, &range)| {
            let mut s = String::new();
            match section {
                Section::Table1 => {
                    let _ = writeln!(s, "== Table 1: Machine Configuration Parameters ==");
                    let _ = writeln!(s, "{}", table1_text());
                }
                Section::BiasPred(label, specs) => {
                    let _ = writeln!(s, "== {label} ==");
                    let _ = writeln!(
                        s,
                        "{:>4} {:>8} {:>14} {:>10}",
                        "rank", "bias", "predictability", "execs"
                    );
                    for (rank, (bias, pred, execs)) in bias_pred(built, specs).iter().enumerate() {
                        let _ = writeln!(s, "{rank:>4} {bias:>8.3} {pred:>14.3} {execs:>10}");
                    }
                    let _ = writeln!(s);
                }
                Section::Speedups(label, specs, best) => {
                    let cells = section_cells(section, &built.ids).expect("speedup cells");
                    let outs = outcomes(&cells, range);
                    let rows: Vec<SpeedupRow> = specs
                        .iter()
                        .zip(outs.chunks_exact(3))
                        .map(|(spec, outs)| {
                            let mut all = [0.0; 3];
                            let mut best = [0.0; 3];
                            for (i, out) in outs.iter().enumerate() {
                                all[i] = out.geomean_speedup_pct();
                                best[i] = out.best_speedup_pct();
                            }
                            SpeedupRow {
                                name: spec.name.clone(),
                                all_inputs: all,
                                best_input: best,
                            }
                        })
                        .collect();
                    let _ = writeln!(s, "== {label} ==");
                    let _ = writeln!(s, "{}", format_speedups(&rows, *best));
                }
                Section::Table2(specs) => {
                    let cells = section_cells(section, &built.ids).expect("table2 cells");
                    let outs = outcomes(&cells, range);
                    let mut rows: Vec<Table2Row> = specs
                        .iter()
                        .zip(&cells)
                        .zip(&outs)
                        .map(|((spec, cell), out)| {
                            table2_row(spec, out, &engine.benchmark(cell.bench).program)
                        })
                        .collect();
                    rows.sort_by(|a, b| {
                        b.spd
                            .partial_cmp(&a.spd)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    let _ = writeln!(
                        s,
                        "== Table 2: SPEC 2006 INT+FP metrics, 4-wide (sorted by SPD) =="
                    );
                    let _ = writeln!(s, "{}", format_table2(&rows));
                }
                Section::Fig14(specs) => {
                    let cells = section_cells(section, &built.ids).expect("fig14 cells");
                    let outs = outcomes(&cells, range);
                    let _ = writeln!(
                        s,
                        "== Figure 14: % increase in instructions issued (4-wide) =="
                    );
                    let mut sum = 0.0;
                    for (spec, out) in specs.iter().zip(&outs) {
                        let pct = out.issued_increase_pct();
                        sum += pct;
                        let _ = writeln!(s, "{:<12} {:>6.2}%", spec.name, pct);
                    }
                    let avg = sum / outs.len() as f64;
                    let _ = writeln!(s, "{:<12} {avg:>6.2}%\n", "AVERAGE");
                }
                Section::Sensitivity(specs) => {
                    let cells = section_cells(section, &built.ids).expect("sensitivity cells");
                    let outs = outcomes(&cells, range);
                    let ladder = vanguard_bpred::ladder();
                    let _ = writeln!(
                        s,
                        "== Section 5.3: branch-predictor sensitivity (astar/sjeng/gobmk/mcf) =="
                    );
                    let _ = writeln!(
                        s,
                        "{:<8} {:<30} {:>10} {:>9}",
                        "bench", "predictor", "missrate", "speedup"
                    );
                    for (spec, outs) in specs.iter().zip(outs.chunks_exact(ladder.len())) {
                        for (rung, out) in ladder.iter().zip(outs) {
                            let miss = 1.0
                                - out
                                    .runs
                                    .iter()
                                    .map(|r| r.base.prediction_accuracy())
                                    .sum::<f64>()
                                    / out.runs.len() as f64;
                            let _ = writeln!(
                                s,
                                "{:<8} {:<30} {:>9.2}% {:>8.2}%",
                                spec.name,
                                rung.label(),
                                miss * 100.0,
                                out.geomean_speedup_pct()
                            );
                        }
                    }
                    let _ = writeln!(s);
                }
                Section::Icache(specs) => {
                    let _ = writeln!(
                        s,
                        "== Section 6.1: I$ 32KB -> 24KB ablation (transformed code) =="
                    );
                    let _ = writeln!(
                        s,
                        "{:<12} {:>12} {:>12} {:>10} {:>22}",
                        "bench", "cyc(32K)", "cyc(24K)", "slowdown", "I$miss-under-mispred"
                    );
                    let mut slows = Vec::new();
                    for (spec, pair) in specs.iter().zip(results[range.0..range.1].chunks_exact(2))
                    {
                        let s32: SimStats = pair[0].expect_completed().stats;
                        let s24: SimStats = pair[1].expect_completed().stats;
                        let row = IcacheAblationRow {
                            name: spec.name.clone(),
                            cycles_32k: s32.cycles,
                            cycles_24k: s24.cycles,
                            miss_under_mispredict: s32.icache_miss_under_mispredict as f64
                                / s32.mem.l1i.misses.max(1) as f64,
                        };
                        let _ = writeln!(
                            s,
                            "{:<12} {:>12} {:>12} {:>9.2}% {:>21.1}%",
                            row.name,
                            row.cycles_32k,
                            row.cycles_24k,
                            row.slowdown_pct(),
                            row.miss_under_mispredict * 100.0
                        );
                        slows.push(row.slowdown_pct());
                    }
                    let _ = writeln!(s, "geomean slowdown: {:.2}%\n", geomean_pct(&slows));
                }
            }
            s
        })
        .collect()
}

/// Figure 2/3 points `(bias, predictability, executions)`: the top-75
/// most-executed forward branches pooled over `specs`, by descending bias.
fn bias_pred(built: &Built, specs: &[BenchmarkSpec]) -> Vec<(f64, f64, u64)> {
    let mut pool: Vec<(f64, f64, u64)> = Vec::new();
    for spec in specs {
        let id = built.ids[&spec.name];
        let profile = built
            .engine
            .profile(id, PredictorKind::Combined24KB, DEFAULT_MAX_PROFILE_STEPS)
            .expect("profiled during the pass");
        let program = &built.engine.benchmark(id).program;
        let cfg = vanguard_ir::Cfg::build(program);
        for (block, stats) in profile.iter() {
            if cfg.branch_direction(program, block) == Some(vanguard_ir::BranchDirection::Forward) {
                pool.push((stats.bias(), stats.predictability(), stats.executed));
            }
        }
    }
    pool.sort_by_key(|&(_, _, execs)| std::cmp::Reverse(execs));
    pool.truncate(75);
    pool.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    pool
}

/// One Table 2 row, as `vanguard_bench::table2_rows` computes it.
fn table2_row(
    spec: &BenchmarkSpec,
    out: &ExperimentOutcome,
    program: &vanguard_isa::Program,
) -> Table2Row {
    let hoisted: usize = out
        .report
        .converted
        .iter()
        .map(|s| s.hoisted_taken + s.hoisted_fallthrough)
        .sum();
    let per_side =
        spec.loads_per_block + 3 * spec.chase_loads + spec.hoistable_alu + 1 + spec.tail_alu;
    let exposed = out.report.converted.len() * 2 * per_side;
    let phi = if exposed == 0 {
        0.0
    } else {
        hoisted as f64 * 100.0 / exposed as f64
    };
    let (mut loads, mut blocks) = (0usize, 0usize);
    for (_, b) in program.iter() {
        if !b.insts().is_empty() {
            blocks += 1;
            loads += b
                .insts()
                .iter()
                .filter(|i| matches!(i, vanguard_isa::Inst::Load { .. }))
                .count();
        }
    }
    Table2Row {
        name: spec.name.clone(),
        spd: out.geomean_speedup_pct(),
        pbc: out.report.pbc(),
        pdih: out.pdih(),
        alpbb: if blocks == 0 {
            0.0
        } else {
            loads as f64 / blocks as f64
        },
        aspcb: out.aspcb(),
        phi,
        mppki: out.mppki(),
        piscs: out.report.piscs(),
    }
}

/// Splits text into sections at the `== ` header lines.
fn split_sections(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.split_inclusive('\n') {
        if line.starts_with("== ") || out.is_empty() {
            out.push(String::new());
        }
        out.last_mut().expect("a section is open").push_str(line);
    }
    out
}

/// Whether the rendered sections byte-match `golden`, and the indices of
/// the sections that differ.
pub fn compare(rendered: &[String], golden: &str) -> (bool, Vec<usize>) {
    let expected = split_sections(golden);
    let n = rendered.len().max(expected.len());
    let bad: Vec<usize> = (0..n)
        .filter(|&k| rendered.get(k) != expected.get(k))
        .collect();
    (bad.is_empty() && rendered.concat() == golden, bad)
}
