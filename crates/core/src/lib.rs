//! # vanguard-core
//!
//! The paper's contribution: the **Decomposed Branch Transformation**
//! (§3) and its surrounding machinery.
//!
//! A conditional branch whose *predictability* exceeds its *bias* by at
//! least 5% (measured on TRAIN-style profiling runs) is decomposed into a
//! [`predict`](vanguard_isa::Inst::Predict) instruction — the control-flow
//! divergence point, data-independent of everything — and a pair of
//! [`resolve`](vanguard_isa::Inst::Resolve) instructions in per-path
//! *resolution blocks*. The branch's condition slice is pushed down into
//! the resolution blocks, the profitable prefix of each successor is
//! hoisted above the resolve (loads become non-faulting `ld.s`), stores
//! sink below the resolution point, and correction blocks repair control
//! on misprediction.
//!
//! The result is a pair of highly-biased branches (taken only on
//! misprediction) that an in-order machine can schedule across: load
//! latency from both paths overlaps, exposing the MLP the original control
//! dependence serialized.
//!
//! Entry points:
//!
//! * [`select_candidates`] — the paper's §5 profile-guided heuristic.
//! * [`decompose_branches`] — the transformation itself.
//! * [`Experiment`] — end-to-end facade: profile → compile baseline and
//!   transformed programs → simulate both → report speedup and the
//!   Table 2 metrics.
//! * [`engine`] — the parallel, artifact-cached sweep engine behind
//!   [`Experiment::run`] and the bench harness: stages as cached
//!   artifacts, flat [`engine::SimJob`] lists, a scoped worker pool,
//!   and [`engine::ProgressObserver`] progress events.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod diskcache;
pub mod engine;
mod error;
mod experiment;
pub mod journal;
mod lint;
mod passes;
mod report;
mod select;
mod slice;
mod transform;
mod verify;

pub use diskcache::{atomic_publish, fnv1a, CorruptEntry, DiskCache};
pub use error::{ErrorKind, VanguardError};
pub use experiment::{
    Experiment, ExperimentError, ExperimentInput, ExperimentOutcome, PredictorKind, RefRun,
    RunInput,
};
pub use journal::{Journal, JournalRecord, JournalSnapshot};
pub use lint::{lint_program, lint_variant, LintDiagnostic, LintKind};
pub use passes::{apply_transform, TransformKind};
pub use report::{CodeSizeReport, SiteOutcome, TransformReport};
pub use select::{select_candidates, Candidate, SelectOptions};
pub use slice::{condition_slice, SliceError};
pub use transform::{decompose_branches, TransformOptions};
pub use verify::{verify_equivalence, Divergence, Observables};
