//! The design sweeps: the transform-pass ablation and the knob sweep,
//! both over the quick or full suite on the 4-wide with the
//! Combined24KB predictor.
//!
//! The ablation puts every [`TransformKind`] head-to-head, one column
//! each. The baseline of every pair is identical (PGO layout +
//! scheduling, no transformation), so each column's speedup is directly
//! comparable: `vanguard` is the paper's §3 decomposition, `meld` the
//! Li et al. if-conversion rival, `shadow` decomposition with zero code
//! motion, and `stacked` the vanguard ∘ meld composition.
//!
//! The knob sweep moves one of the paper's design choices at a time
//! away from its default: the selection threshold, the hoist budget,
//! `ld.s` hoisting, shadow temporaries and the DBB size. It also forces
//! conversion on one single-site kernel per Figure 1 quadrant.
//!
//! Profiles and baseline runs are shared across every option set of a
//! benchmark (neither key covers the transform options); compiled pairs
//! are keyed per option set and can never collide. The DBB size is part
//! of the machine key, so each size re-simulates its baselines.

use crate::glue::{geomean_pct, SuiteEngine};
use std::fmt::Write as _;
use vanguard_core::engine::{PredictorKind, SweepCell};
use vanguard_core::{ExperimentOutcome, TransformKind, TransformOptions};
use vanguard_sim::MachineConfig;
use vanguard_workloads::{BenchmarkSpec, OutcomeModel, SiteSpec, Suite};

/// Runs every spec once on `machine` under `options` with the
/// Combined24KB predictor; outcomes come back in spec order.
///
/// # Panics
///
/// Panics if a workload faults in simulation (generated kernels never
/// do).
fn run_specs(
    eng: &mut SuiteEngine,
    specs: &[BenchmarkSpec],
    machine: MachineConfig,
    options: &TransformOptions,
) -> Vec<ExperimentOutcome> {
    let cells: Vec<SweepCell> = specs
        .iter()
        .map(|spec| SweepCell {
            bench: eng.bench_id(spec),
            machine,
            predictor: PredictorKind::Combined24KB,
        })
        .collect();
    eng.run_cells_with(&cells, options)
        .expect("workload simulates cleanly")
}

/// One benchmark's row of the ablation table, indexed like
/// [`TransformKind::ALL`].
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: String,
    /// Geomean speedup % over all REF inputs on the 4-wide, per kind.
    pub speedup_pct: [f64; 4],
    /// Static sites changed per kind: converted branch sites for the
    /// decomposing passes, melded hammocks for meld, both for stacked.
    pub sites: [usize; 4],
}

/// Runs the head-to-head ablation over `specs` on the 4-wide machine.
///
/// # Panics
///
/// Panics if a workload faults in simulation (generated kernels never
/// do).
pub fn ablation_rows(eng: &mut SuiteEngine, specs: &[BenchmarkSpec]) -> Vec<AblationRow> {
    let mut rows: Vec<AblationRow> = specs
        .iter()
        .map(|spec| AblationRow {
            name: spec.name.clone(),
            speedup_pct: [0.0; 4],
            sites: [0; 4],
        })
        .collect();
    for (k, kind) in TransformKind::ALL.into_iter().enumerate() {
        let options = TransformOptions {
            kind,
            ..TransformOptions::default()
        };
        let outcomes = run_specs(eng, specs, MachineConfig::four_wide(), &options);
        for (row, out) in rows.iter_mut().zip(&outcomes) {
            row.speedup_pct[k] = out.geomean_speedup_pct();
            row.sites[k] = out.report.converted.len() + out.report.melded;
        }
    }
    rows
}

/// Renders the ablation rows as an aligned text table with a GEOMEAN
/// line (speedup % per column; site counts in parentheses).
pub fn format_ablation(rows: &[AblationRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>14} {:>14} {:>14} {:>14}",
        "Name", "vanguard", "meld", "shadow", "stacked"
    );
    for r in rows {
        let _ = write!(s, "{:<12}", r.name);
        for k in 0..4 {
            let _ = write!(s, " {:>7.1}% ({:>3})", r.speedup_pct[k], r.sites[k]);
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "{:<12}", "GEOMEAN");
    for k in 0..4 {
        let g = geomean_pct(&rows.iter().map(|r| r.speedup_pct[k]).collect::<Vec<_>>());
        let _ = write!(s, " {:>7.1}% {:>5}", g, "");
    }
    let _ = writeln!(s);
    s
}

/// Checks the qualitative shape of the ablation against the papers'
/// claims on this suite (predictable-unbiased branch mix):
///
/// * the vanguard geomean beats the meld geomean (the suite's sites are
///   *predictable*; if-converting them wastes fetch bandwidth and buys
///   no misprediction win);
/// * vanguard also beats shadow (early redirect alone, with no hoisted
///   MLP, captures only part of the win);
/// * every decomposing column (vanguard, shadow, stacked) converts at
///   least one site on every benchmark.
///
/// Returns every violated property.
pub fn check_ablation_shape(rows: &[AblationRow]) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let geo = |k: usize| geomean_pct(&rows.iter().map(|r| r.speedup_pct[k]).collect::<Vec<_>>());
    let (vanguard, meld, shadow) = (geo(0), geo(1), geo(2));
    if vanguard <= meld {
        violations.push(format!(
            "vanguard geomean {vanguard:.2}% <= meld geomean {meld:.2}% on a \
             predictable-biased suite"
        ));
    }
    if vanguard <= shadow {
        violations.push(format!(
            "vanguard geomean {vanguard:.2}% <= shadow geomean {shadow:.2}% (hoisting \
             must add speedup over early redirect alone)"
        ));
    }
    for r in rows {
        for (k, label) in [(0usize, "vanguard"), (2, "shadow"), (3, "stacked")] {
            if r.sites[k] == 0 {
                violations.push(format!("{}: {label} converted no sites", r.name));
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// One setting of the knob sweep: geomean speedups on the 4-wide, with
/// every other knob at the paper's default.
#[derive(Clone, Debug)]
pub struct KnobRow {
    /// The knob and its value, as printed (`threshold 0.050`, `dbb 16`).
    pub setting: String,
    /// Geomean speedup % over the integer and over the floating-point
    /// benchmarks.
    pub speedup_pct: [f64; 2],
    /// Converted branch sites summed over the integer and over the
    /// floating-point benchmarks.
    pub sites: [usize; 2],
}

/// Runs the knob sweep over `specs`: the selection threshold, the hoist
/// budget, `ld.s` hoisting off, shadow temporaries on and the DBB size,
/// one setting per row. Three rows are the paper's defaults under
/// other names: `threshold 0.050`, `max_hoist 12` and `dbb 16`.
///
/// # Panics
///
/// Panics if a workload faults in simulation (generated kernels never
/// do).
pub fn knob_rows(eng: &mut SuiteEngine, specs: &[BenchmarkSpec]) -> Vec<KnobRow> {
    let four = MachineConfig::four_wide();
    let paper = TransformOptions::default();
    let mut settings = Vec::new();
    for threshold in [-1.0, 0.0, 0.025, 0.05, 0.10, 0.20] {
        let mut options = paper;
        options.select.threshold = threshold;
        settings.push((format!("threshold {threshold:.3}"), four, options));
    }
    for max_hoist in [0, 2, 6, 12] {
        let options = TransformOptions { max_hoist, ..paper };
        settings.push((format!("max_hoist {max_hoist}"), four, options));
    }
    let (mut no_loads, mut temps) = (paper, paper);
    no_loads.hoist_loads = false;
    temps.shadow_temps = true;
    settings.push(("hoist_loads off".into(), four, no_loads));
    settings.push(("shadow_temps on".into(), four, temps));
    for dbb_entries in [2, 4, 16, 64] {
        let mut machine = four;
        machine.dbb_entries = dbb_entries;
        settings.push((format!("dbb {dbb_entries}"), machine, paper));
    }
    settings
        .into_iter()
        .map(|(setting, machine, options)| {
            let outcomes = run_specs(eng, specs, machine, &options);
            let mut speedups: [Vec<f64>; 2] = Default::default();
            let mut sites = [0; 2];
            for (spec, out) in specs.iter().zip(&outcomes) {
                let col = usize::from(matches!(spec.suite, Suite::Fp2006 | Suite::Fp2000));
                speedups[col].push(out.geomean_speedup_pct());
                sites[col] += out.report.converted.len();
            }
            KnobRow {
                setting,
                speedup_pct: speedups.map(|s| geomean_pct(&s)),
                sites,
            }
        })
        .collect()
}

/// One Figure 1 quadrant: a single-site kernel, converted by force.
#[derive(Clone, Debug)]
pub struct QuadrantRow {
    /// The quadrant, which also names its kernel.
    pub name: String,
    /// Speedup % on the 4-wide.
    pub speedup_pct: f64,
    /// Converted branch sites.
    pub sites: usize,
}

/// Runs Figure 1's three quadrants (predictable-unbiased,
/// unpredictable-unbiased, highly-biased): one kernel each, identical
/// but for its one site's outcome model, with selection forced
/// (threshold −1) so that every quadrant converts.
///
/// # Panics
///
/// Panics if a workload faults in simulation (generated kernels never
/// do).
pub fn quadrant_rows(eng: &mut SuiteEngine) -> Vec<QuadrantRow> {
    // Each kernel needs its own name: the engine registers workloads by
    // spec name.
    let specs: Vec<BenchmarkSpec> = [
        ("predictable-unbiased", OutcomeModel::markov(0.58, 0.95)),
        (
            "unpredictable-unbiased",
            OutcomeModel::Random { taken_prob: 0.5 },
        ),
        ("highly-biased", OutcomeModel::markov(0.96, 0.99)),
    ]
    .into_iter()
    .map(|(name, model)| BenchmarkSpec {
        name: name.into(),
        suite: Suite::Int2006,
        sites: vec![SiteSpec { model }],
        loads_per_block: 2,
        chase_loads: 0,
        hoistable_alu: 2,
        tail_alu: 1,
        fp_ops: 0,
        data_footprint: 16 * 1024,
        cond_depends_on_data: true,
        succ_depends_on_cond: false,
        iterations: 800,
        train_iterations: 500,
        ref_inputs: 1,
        bias_jitter: 0.0,
        use_calls: false,
        seed: 500,
    })
    .collect();
    let mut forced = TransformOptions::default();
    forced.select.threshold = -1.0;
    let outcomes = run_specs(eng, &specs, MachineConfig::four_wide(), &forced);
    specs
        .into_iter()
        .zip(&outcomes)
        .map(|(spec, out)| QuadrantRow {
            name: spec.name,
            speedup_pct: out.geomean_speedup_pct(),
            sites: out.report.converted.len(),
        })
        .collect()
}

/// Renders the knob sweep (speedup % per column, converted sites in
/// parentheses) followed by the Figure 1 quadrants.
pub fn format_knobs(rows: &[KnobRow], quadrants: &[QuadrantRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{:<16} {:>13} {:>13}", "setting", "INT", "FP");
    for r in rows {
        let _ = write!(s, "{:<16}", r.setting);
        for col in 0..2 {
            let _ = write!(s, " {:>6.1}% ({:>3})", r.speedup_pct[col], r.sites[col]);
        }
        let _ = writeln!(s);
    }
    let _ = writeln!(
        s,
        "\nFigure 1 quadrants, one site each, forced (threshold -1):"
    );
    for q in quadrants {
        let _ = writeln!(s, "{:<24} {:>6.2}% ({})", q.name, q.speedup_pct, q.sites);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glue::BenchScale;
    use vanguard_workloads::suite;

    #[test]
    fn knob_sweep_invariants_hold() {
        // One INT06 and one FP06 benchmark keep both columns filled.
        let specs: Vec<BenchmarkSpec> = suite::spec2006_int()
            .into_iter()
            .chain(suite::spec2006_fp())
            .filter(|s| s.name == "h264ref" || s.name == "lbm")
            .collect();
        assert_eq!(specs.len(), 2);
        let mut eng = SuiteEngine::new(BenchScale::Quick);
        let rows = knob_rows(&mut eng, &specs);
        let row = |setting: &str| {
            rows.iter()
                .find(|r| r.setting == setting)
                .unwrap_or_else(|| panic!("no row {setting}"))
        };

        let thresholds: Vec<&KnobRow> = rows
            .iter()
            .filter(|r| r.setting.starts_with("threshold "))
            .collect();
        assert_eq!(thresholds.len(), 6);
        for pair in thresholds.windows(2) {
            for col in 0..2 {
                assert!(
                    pair[1].sites[col] <= pair[0].sites[col],
                    "{} converts more than {}: {:?} vs {:?}",
                    pair[1].setting,
                    pair[0].setting,
                    pair[1].sites,
                    pair[0].sites
                );
            }
        }

        let paper = row("threshold 0.050");
        for setting in ["max_hoist 12", "dbb 16"] {
            let r = row(setting);
            assert_eq!(
                (r.speedup_pct, r.sites),
                (paper.speedup_pct, paper.sites),
                "{setting} differs from the paper's default"
            );
        }

        let quadrants = quadrant_rows(&mut eng);
        assert_eq!(quadrants.len(), 3);
        for (i, a) in quadrants.iter().enumerate() {
            assert_eq!(a.sites, 1, "{}: forced conversion", a.name);
            for b in &quadrants[i + 1..] {
                assert_ne!(
                    a.speedup_pct, b.speedup_pct,
                    "{} and {} ran the same workload",
                    a.name, b.name
                );
            }
        }
    }
}
