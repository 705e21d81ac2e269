//! Transformation kinds: the paper's decomposition plus two rivals from
//! the related work, dispatched by one `match` in [`apply_transform`].
//!
//! The Decomposed Branch Transformation is one point in a design space,
//! and the related work names two natural rivals. Head-to-head cells
//! (baseline vs vanguard vs meld vs shadow vs stacked) are what the
//! ablation table measures:
//!
//! * **vanguard** — the paper's §3 decomposition
//!   ([`decompose_branches`]).
//! * **meld** — IR-level branch melding (Li et al., *Eliminate Branches
//!   by Melding IR Instructions*): short side-effect-free hammocks are
//!   if-converted into straight-line mask-and-blend code. The right
//!   tool for *unpredictable* unbiased branches (Figure 1's
//!   bottom-right quadrant), wasted work on predictable ones.
//! * **shadow** — decode-time shadow-branch exposure (Pepi et al.,
//!   *Exposing Shadow Branches*): the branch's prediction is surfaced
//!   early as a predict/resolve decomposition but **no** code moves —
//!   resolution blocks carry only the pushed-down condition slice, so
//!   the measured speedup isolates the early-redirect effect with zero
//!   speculative code motion.
//! * **stacked** — vanguard ∘ meld: melding removes the short
//!   unpredictable hammocks first, then the decomposition converts the
//!   predictable remainder.
//!
//! The lint matches on the same [`TransformKind`] to pick each kind's
//! structural contract ([`crate::lint_variant`]), and the engine's
//! artifact and disk-cache keys cover the kind with the rest of the
//! options, so two variants of the same (benchmark, profile, width) can
//! never collide.

use std::fmt;

use crate::report::TransformReport;
use crate::transform::{decompose_branches, TransformOptions};
use vanguard_compiler::if_convert;
use vanguard_ir::{BranchDirection, Cfg, Profile};
use vanguard_isa::Program;

/// Which transformation compiles the experimental side of a pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// The paper's Decomposed Branch Transformation (§3).
    #[default]
    Vanguard,
    /// IR-level branch melding (if-conversion), per Li et al.
    Meld,
    /// Decode-time shadow-branch exposure, per Pepi et al.
    Shadow,
    /// Meld first, then decompose the surviving branches.
    Stacked,
}

impl TransformKind {
    /// Every kind, in ablation-table column order.
    pub const ALL: [TransformKind; 4] = [
        TransformKind::Vanguard,
        TransformKind::Meld,
        TransformKind::Shadow,
        TransformKind::Stacked,
    ];

    /// CLI and report name.
    pub fn name(self) -> &'static str {
        match self {
            TransformKind::Vanguard => "vanguard",
            TransformKind::Meld => "meld",
            TransformKind::Shadow => "shadow",
            TransformKind::Stacked => "stacked",
        }
    }

    /// Parses a `--transform` flag value ([`TransformKind::name`]
    /// spelling).
    pub fn parse(s: &str) -> Option<TransformKind> {
        TransformKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for TransformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Applies the transformation selected by `options.kind` in place and
/// reports what changed — the single dispatch point every compile
/// pipeline goes through. Each kind reads the knobs it needs from the
/// shared option set (`meld_max_side` for meld/stacked, the selection
/// and hoist knobs for vanguard, the selection knobs alone for shadow)
/// and ignores the rest.
pub fn apply_transform(
    program: &mut Program,
    profile: &Profile,
    options: &TransformOptions,
) -> TransformReport {
    match options.kind {
        TransformKind::Vanguard => decompose_branches(program, profile, options),
        TransformKind::Meld => {
            let mut report = TransformReport {
                code_bytes_before: program.code_bytes(),
                forward_branches: forward_branch_count(program),
                ..TransformReport::default()
            };
            let stats = if_convert(program, options.meld_max_side);
            report.melded = stats.converted;
            report.meld_added_insts = stats.added_insts;
            report.code_bytes_after = program.code_bytes();
            report
        }
        TransformKind::Shadow => {
            // Same site selection as vanguard, but zero code motion: with
            // the hoist budget pinned to 0, resolution blocks carry only
            // the pushed-down condition slice and the resolve — the
            // decode-time exposure of the prediction, nothing speculative.
            let opts = TransformOptions {
                max_hoist: 0,
                hoist_loads: false,
                shadow_temps: false,
                ..*options
            };
            decompose_branches(program, profile, &opts)
        }
        TransformKind::Stacked => {
            let code_bytes_before = program.code_bytes();
            let stats = if_convert(program, options.meld_max_side);
            // Melded hammocks no longer appear as branch sites, so the
            // decomposition naturally works on the remainder; block ids are
            // preserved, keeping the profile's site keys valid.
            let mut report = decompose_branches(program, profile, options);
            report.code_bytes_before = code_bytes_before;
            report.melded = stats.converted;
            report.meld_added_insts = stats.added_insts;
            report
        }
    }
}

/// Static forward conditional branches (the PBC denominator) — the same
/// count [`decompose_branches`] reports for its report header.
fn forward_branch_count(program: &Program) -> usize {
    let cfg = Cfg::build(program);
    cfg.branch_blocks(program)
        .filter(|&b| cfg.branch_direction(program, b) == Some(BranchDirection::Forward))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanguard_isa::{AluOp, BlockId, CmpKind, CondKind, Inst, Operand, ProgramBuilder, Reg};

    /// A program with both rivals' prey: a pure-ALU hammock (meld bait,
    /// blocks 1–3) and a memory-heavy diamond whose branch is
    /// predictable-unbiased (decomposition bait, block 4).
    fn mixed() -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block("entry"); // 0
        let meld_head = b.block("meld_head"); // 1
        let mt = b.block("mt"); // 2
        let mf = b.block("mf"); // 3
        let join = b.block("join"); // 4
        let bb_f = b.block("bb_f"); // 5
        let bb_t = b.block("bb_t"); // 6
        let exit = b.block("exit"); // 7

        b.push(entry, Inst::mov(Reg(3), Operand::Imm(0x10000)));
        b.push(entry, Inst::mov(Reg(10), Operand::Imm(0x20000)));
        b.push(entry, Inst::mov(Reg(11), Operand::Imm(0x30000)));
        b.push(entry, Inst::mov(Reg(20), Operand::Imm(1)));
        b.push(entry, Inst::mov(Reg(22), Operand::Imm(50)));
        b.fallthrough(entry, meld_head);

        // Pure-ALU hammock: if (r20) r21 = r22+7 else r21 = r22-7.
        b.push(
            meld_head,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(20),
                target: mt,
            },
        );
        b.fallthrough(meld_head, mf);
        b.push(
            mt,
            Inst::alu(AluOp::Add, Reg(21), Operand::Reg(Reg(22)), Operand::Imm(7)),
        );
        b.push(mt, Inst::Jump { target: join });
        b.push(
            mf,
            Inst::alu(AluOp::Sub, Reg(21), Operand::Reg(Reg(22)), Operand::Imm(7)),
        );
        b.fallthrough(mf, join);

        // Memory diamond: load-compare-branch with loads and a store on
        // each side (melding must refuse it; decomposition wants it).
        b.push(join, Inst::load(Reg(4), Reg(3), 0));
        b.push(
            join,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(5),
                a: Reg(4),
                b: Operand::Imm(0),
            },
        );
        b.push(
            join,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(5),
                target: bb_t,
            },
        );
        b.fallthrough(join, bb_f);
        for (bb, off, inc) in [(bb_f, 0i64, 1i64), (bb_t, 8, 2)] {
            b.push(bb, Inst::load(Reg(6), Reg(10), off));
            b.push(
                bb,
                Inst::alu(AluOp::Add, Reg(8), Operand::Reg(Reg(6)), Operand::Imm(inc)),
            );
            b.push(bb, Inst::store(Reg(8), Reg(11), off));
            b.push(bb, Inst::Jump { target: exit });
        }
        b.push(exit, Inst::Halt);
        b.set_entry(entry);
        b.finish().unwrap()
    }

    /// A profile that qualifies `site` under the default selector:
    /// 60/100 taken (bias 0.6), 95/100 predicted (predictability 0.95).
    fn qualifying_profile(site: BlockId) -> Profile {
        let mut p = Profile::new();
        for i in 0..100u64 {
            p.record(site, i < 60, i < 95);
        }
        p.dynamic_insts = 1_000;
        p
    }

    fn count_insts(p: &Program, f: impl Fn(&Inst) -> bool) -> usize {
        p.iter()
            .flat_map(|(_, b)| b.insts())
            .filter(|i| f(i))
            .count()
    }

    #[test]
    fn kind_names_parse_and_display_roundtrip() {
        for kind in TransformKind::ALL {
            assert_eq!(TransformKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(TransformKind::parse("bogus"), None);
        assert_eq!(TransformKind::default(), TransformKind::Vanguard);
    }

    #[test]
    fn vanguard_pass_decomposes_the_memory_diamond() {
        let mut p = mixed();
        let profile = qualifying_profile(BlockId(4));
        let report = apply_transform(&mut p, &profile, &TransformOptions::default());
        assert_eq!(report.converted.len(), 1, "skipped {:?}", report.skipped);
        assert_eq!(report.melded, 0);
        assert!(count_insts(&p, |i| matches!(i, Inst::Predict { .. })) > 0);
    }

    #[test]
    fn meld_pass_converts_only_the_alu_hammock() {
        let mut p = mixed();
        let profile = qualifying_profile(BlockId(4));
        let opts = TransformOptions {
            kind: TransformKind::Meld,
            ..TransformOptions::default()
        };
        let before_stores = count_insts(&p, |i| matches!(i, Inst::Store { .. }));
        let report = apply_transform(&mut p, &profile, &opts);
        assert_eq!(report.melded, 1);
        assert!(report.converted.is_empty());
        // No decomposition artifacts, no new stores; the memory diamond's
        // branch survives while the hammock's is gone.
        assert_eq!(count_insts(&p, |i| matches!(i, Inst::Predict { .. })), 0);
        assert_eq!(count_insts(&p, |i| matches!(i, Inst::Resolve { .. })), 0);
        assert_eq!(
            count_insts(&p, |i| matches!(i, Inst::Store { .. })),
            before_stores
        );
        assert_eq!(count_insts(&p, |i| matches!(i, Inst::Branch { .. })), 1);
    }

    #[test]
    fn shadow_pass_exposes_predictions_without_code_motion() {
        let mut p = mixed();
        let profile = qualifying_profile(BlockId(4));
        let opts = TransformOptions {
            kind: TransformKind::Shadow,
            ..TransformOptions::default()
        };
        let report = apply_transform(&mut p, &profile, &opts);
        assert_eq!(report.converted.len(), 1, "skipped {:?}", report.skipped);
        for site in &report.converted {
            assert_eq!(site.hoisted_taken, 0);
            assert_eq!(site.hoisted_fallthrough, 0);
            assert_eq!(site.commit_moves, 0);
        }
        // Zero speculative code motion: no non-faulting load form exists.
        assert_eq!(
            count_insts(&p, |i| matches!(
                i,
                Inst::Load {
                    speculative: true,
                    ..
                }
            )),
            0
        );
        assert!(count_insts(&p, |i| matches!(i, Inst::Predict { .. })) > 0);
    }

    #[test]
    fn stacked_pass_melds_then_decomposes() {
        let mut p = mixed();
        let profile = qualifying_profile(BlockId(4));
        let opts = TransformOptions {
            kind: TransformKind::Stacked,
            ..TransformOptions::default()
        };
        let before_bytes = mixed().code_bytes();
        let report = apply_transform(&mut p, &profile, &opts);
        assert_eq!(report.melded, 1);
        assert_eq!(report.converted.len(), 1, "skipped {:?}", report.skipped);
        assert_eq!(report.code_bytes_before, before_bytes);
        // No conditional branch survives: one melded, one decomposed.
        assert_eq!(count_insts(&p, |i| matches!(i, Inst::Branch { .. })), 0);
    }
}
