//! # vanguard-sim
//!
//! A cycle-level **in-order superscalar** simulator with architectural
//! support for the paper's decomposed `predict`/`resolve` branches.
//!
//! The machine models (Table 1):
//!
//! * a 5-stage front end with a 32-entry fetch buffer and 2/4/8-wide
//!   fetch/decode/dispatch;
//! * in-order issue with scoreboarding and strict head-of-line blocking,
//!   limited by functional-unit ports (2×LD/ST, 2×INT, 4×FP);
//! * speculative issue in the shadow of predicted branches, with full
//!   wrong-path execution, checkpoint/rollback, and front-end re-steer on
//!   misprediction;
//! * the non-blocking memory hierarchy of [`vanguard_mem`];
//! * the front-end structures of [`vanguard_bpred`], including the
//!   **Decomposed Branch Buffer** that re-associates `resolve` outcomes
//!   with `predict` predictor entries (§4, Figure 7).
//!
//! Functional execution happens at issue, so wrong-path instructions
//! execute for real (their cache pollution and issue-slot consumption is
//! measured — Figure 14 of the paper) and are rolled back at redirect.
//! The committed architectural state is bit-identical to
//! [`vanguard_isa::Interpreter`]'s, which integration tests verify.
//!
//! ```
//! use vanguard_isa::{ProgramBuilder, Inst, Memory};
//! use vanguard_sim::{Simulator, MachineConfig};
//! use vanguard_bpred::Combined;
//!
//! let mut b = ProgramBuilder::new();
//! let entry = b.block("entry");
//! b.push(entry, Inst::Halt);
//! b.set_entry(entry);
//! let p = b.finish().unwrap();
//!
//! let mut sim = Simulator::new(&p, Memory::new(), MachineConfig::four_wide(),
//!                              Box::new(Combined::ptlsim_default()));
//! let result = sim.run().unwrap();
//! assert!(result.stats.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod front;
mod pipeline;
mod stats;
mod store_buffer;

pub use config::MachineConfig;
pub use front::{FetchedInst, FrontEnd, PredInfo};
pub use pipeline::{
    HotloopProfile, SimError, SimFault, SimResult, Simulator, StopCause, TraceEvent,
};
pub use stats::SimStats;
pub use store_buffer::{StoreBuffer, StoreEntry};
