//! # vanguard-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index):
//!
//! * Figures 2/3 — predictability vs. bias of the top-75 forward branches;
//! * Table 1 — machine configurations;
//! * Table 2 — per-benchmark SPD/PBC/PDIH/ALPBB/ASPCB/PHI/MPPKI/PISCS;
//! * Figures 8–13 — per-suite speedups (2/4/8-wide; all/best REF inputs);
//! * Figure 14 — % increase in issued instructions;
//! * §5.3 — branch-predictor sensitivity ladder;
//! * §6.1 — I$ ablation (32 KB → 24 KB) and code-size effects.
//!
//! Everything is callable as a library (the `figures` binary is a thin
//! dispatcher) and returns structured rows so tests can assert the
//! *shape* of the reproduction.

#![warn(missing_docs)]

//!
//! All sweeps run on the [`vanguard_core::engine`] worker pool through a
//! shared [`SuiteEngine`], so profiles and compiled pairs are computed
//! once and reused across every figure of a harness invocation.

mod ablation;
mod figures;
pub mod fuzz;
mod glue;
mod progress;
mod speedups;

pub use ablation::{ablation_rows, check_ablation_shape, format_ablation, AblationRow};
pub use figures::{
    fig14_rows, fig2_fig3_series, icache_ablation, sensitivity_rows, table1_text, BiasPredPoint,
    IcacheAblationRow, IssuedRow, SensitivityRow,
};
pub use glue::{geomean_pct, quick_spec, to_experiment_input, BenchScale, SuiteEngine};
pub use progress::StderrProgress;
pub use speedups::{
    check_fig8_shape, format_speedups, format_table2, suite_speedups, table2_rows, SpeedupRow,
    Table2Row,
};
