//! Static invariant checker ("transform lint") for decomposed programs.
//!
//! [`decompose_branches`](crate::decompose_branches) must obey the paper's
//! §3 structural contract, and until now that contract was enforced only
//! dynamically (replaying kernels under adversarial oracles). This module
//! checks it *statically*, by walking the CFG of a compiled program:
//!
//! 1. **Pairing** — every `predict` has a downstream pair of resolution
//!    blocks (its taken target and its fall-through both terminate in a
//!    `resolve`), the two resolves test the same condition register with
//!    complementary conditions, and no path holds more than
//!    [`DBB_ENTRIES`] outstanding predictions (the Decomposed Branch
//!    Buffer pairs each resolve with its predict and has 16 entries).
//! 2. **Store sinking** — resolution blocks contain no store above their
//!    `resolve`: stores are irreversible and must sink below the
//!    resolution point (§3, "stores are not hoisted").
//! 3. **Non-faulting hoists** — every load speculatively hoisted above a
//!    `resolve` is the non-faulting `ld.s` form (§2.2 mechanism 1). The
//!    pushed-down condition slice is exempt: it re-executes work from
//!    *before* the original branch, whose faults are architectural.
//! 4. **Live-in protection** — no speculative (non-slice) instruction
//!    above a `resolve` writes a register that is live into the resolve's
//!    correction target; shadow temporaries exist precisely so that such
//!    values are written elsewhere and committed "in the shadow of the
//!    resolve" (§2.2 mechanism 3).
//! 5. **Correction coverage** — for each direction, the architectural
//!    register writes of the correctly-predicted path (resolution block
//!    projected through its commit moves, plus its suffix block) equal
//!    the writes of the correction block that repairs a misprediction of
//!    the *other* direction, so predicted and corrected executions
//!    converge to the same def-set.
//! 6. **Shadow dominance** — a suffix block that consumes a value
//!    computed speculatively in its resolution block (hoisted values and
//!    shadow-temp commit moves) must be dominated by that resolution
//!    block; otherwise some path observes the speculative state without
//!    having passed the resolve.
//!
//! Violations are reported as structured [`LintDiagnostic`]s carrying the
//! block and instruction location. Clean programs — untransformed
//! baselines and everything `decompose_branches` emits — produce none;
//! the fuzz harness and the mutation tests in `tests/lint_mutations.rs`
//! keep both directions honest.

use crate::passes::TransformKind;
use std::fmt;
use vanguard_bpred::DBB_ENTRIES;
use vanguard_ir::{Cfg, DomTree, Liveness, RegSet};
use vanguard_isa::{BasicBlock, BlockId, CondKind, Inst, Program, Reg};

/// The invariant a [`LintDiagnostic`] reports a violation of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// A `predict`'s taken target or fall-through does not terminate in a
    /// `resolve` (the predict has no downstream resolution pair).
    UnpairedPredict,
    /// A predict's two resolution blocks disagree on the condition
    /// register or do not test complementary conditions.
    MismatchedResolvePair,
    /// A `resolve` is reachable with no outstanding prediction to pair
    /// with (the DBB would underflow).
    UnmatchedResolve,
    /// Some path accumulates more than [`DBB_ENTRIES`] outstanding
    /// predictions before resolving them.
    DbbOverflow,
    /// A store appears above a `resolve` (stores must sink below the
    /// resolution point).
    StoreAboveResolve,
    /// A hoisted (non-slice) load above a `resolve` is not the
    /// non-faulting `ld.s` form.
    FaultingHoistedLoad,
    /// A speculative instruction above a `resolve` writes a register that
    /// is live into the correction target.
    ClobberedLiveIn,
    /// A correction block fails to write a register the corresponding
    /// predicted path writes (misprediction damage is not repaired).
    MissingCorrectionWrite,
    /// A correction block writes a register the corresponding predicted
    /// path does not (predicted and corrected executions diverge).
    ExtraCorrectionWrite,
    /// A suffix block consumes a speculative value from a resolution
    /// block that does not dominate it.
    ShadowCommitNotDominated,
    /// The melded program contains more stores than the original
    /// (melding must be side-effect-equivalent and may never
    /// speculatively execute a store).
    MeldStoreGrowth,
    /// The melded program contains more conditional branches than the
    /// original (melding removes branches; it may never add one).
    MeldBranchGrowth,
    /// The melded program contains decomposition artifacts
    /// (`predict`/`resolve`) — the meld pass works purely at the IR
    /// level and must not emit decode-model instructions.
    MeldResidualDecomposition,
    /// A resolution block of a shadow-exposure program carries an
    /// instruction outside the pushed-down condition slice — exposing a
    /// shadow branch at decode is a model of *prediction* reaching the
    /// front end early, and moves no code.
    ShadowSpeculativeWork,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintKind::UnpairedPredict => "unpaired-predict",
            LintKind::MismatchedResolvePair => "mismatched-resolve-pair",
            LintKind::UnmatchedResolve => "unmatched-resolve",
            LintKind::DbbOverflow => "dbb-overflow",
            LintKind::StoreAboveResolve => "store-above-resolve",
            LintKind::FaultingHoistedLoad => "faulting-hoisted-load",
            LintKind::ClobberedLiveIn => "clobbered-live-in",
            LintKind::MissingCorrectionWrite => "missing-correction-write",
            LintKind::ExtraCorrectionWrite => "extra-correction-write",
            LintKind::ShadowCommitNotDominated => "shadow-commit-not-dominated",
            LintKind::MeldStoreGrowth => "meld-store-growth",
            LintKind::MeldBranchGrowth => "meld-branch-growth",
            LintKind::MeldResidualDecomposition => "meld-residual-decomposition",
            LintKind::ShadowSpeculativeWork => "shadow-speculative-work",
        };
        f.write_str(s)
    }
}

/// One structural-invariant violation, located at a block and (where
/// meaningful) an instruction index within it.
#[derive(Clone, Debug)]
pub struct LintDiagnostic {
    /// Which invariant is violated.
    pub kind: LintKind,
    /// Block the violation is located at.
    pub block: BlockId,
    /// Instruction index within `block`, when the violation is tied to a
    /// specific instruction.
    pub inst: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            Some(i) => write!(
                f,
                "{}: {} at inst {}: {}",
                self.kind, self.block, i, self.message
            ),
            None => write!(f, "{}: {}: {}", self.kind, self.block, self.message),
        }
    }
}

/// Everything the lint needs to know about one resolution block.
struct ResolveInfo {
    cond: CondKind,
    src: Reg,
    /// Correction target taken on misprediction.
    target: BlockId,
    /// Per-instruction membership in the backward slice of `src` (the
    /// pushed-down condition slice).
    in_slice: Vec<bool>,
    /// Raw destinations of the speculative (non-slice) instructions above
    /// the resolve — shadow temporaries included un-projected.
    spec_defs: RegSet,
}

/// Extracts [`ResolveInfo`] from a resolve-terminated block.
fn resolve_info(block: &BasicBlock) -> Option<ResolveInfo> {
    let Some(&Inst::Resolve { cond, src, target }) = block.terminator() else {
        return None;
    };
    let n = block.insts().len();
    // Backward slice of the resolve's condition register within the block.
    // Any instruction order is handled (the list scheduler interleaves
    // slice and hoisted instructions).
    let mut in_slice = vec![false; n];
    let mut needed = RegSet::new();
    needed.insert(src);
    for i in (0..n - 1).rev() {
        let inst = &block.insts()[i];
        if let Some(d) = inst.dst() {
            if needed.contains(d) {
                in_slice[i] = true;
                needed.remove(d);
                needed.extend(inst.srcs());
            }
        }
    }
    let mut spec_defs = RegSet::new();
    for (i, inst) in block.insts().iter().enumerate().take(n - 1) {
        if !in_slice[i] {
            if let Some(d) = inst.dst() {
                spec_defs.insert(d);
            }
        }
    }
    Some(ResolveInfo {
        cond,
        src,
        target,
        in_slice,
        spec_defs,
    })
}

/// Checks the §3 structural invariants of a (possibly) decomposed
/// program and returns every violation found. Programs containing no
/// `predict`/`resolve` instructions trivially pass.
pub fn lint_program(program: &Program) -> Vec<LintDiagnostic> {
    let cfg = Cfg::build(program);
    let liveness = Liveness::build(program, &cfg);
    let dom = DomTree::build(program, &cfg);
    let mut diags = Vec::new();

    // Per-block resolve information, indexed by block id.
    let resolves: Vec<Option<ResolveInfo>> = program
        .iter()
        .map(|(_, block)| resolve_info(block))
        .collect();

    for (bid, block) in program.iter() {
        if let Some(info) = &resolves[bid.index()] {
            check_resolution_block(program, &liveness, &dom, bid, block, info, &mut diags);
        }
        if let Some(&Inst::Predict { target }) = block.terminator() {
            check_predict_pair(
                program, &liveness, bid, block, target, &resolves, &mut diags,
            );
        }
    }

    check_dbb_depth(program, &cfg, &resolves, &mut diags);
    diags
}

/// Checks `transformed` against the structural contract of the
/// transform `kind` that produced it:
///
/// * **vanguard, stacked** — the full §3 contract, [`lint_program`].
/// * **meld** — side-effect equivalence against `original`: no new
///   stores, no new conditional branches, and no decomposition
///   artifacts (`predict`/`resolve`).
/// * **shadow** — the §3 contract *plus* resolution blocks carrying
///   only the pushed-down condition slice: exposing a shadow branch at
///   decode moves no code.
///
/// `original` is the pre-transformation program; contracts that are
/// purely structural ignore it.
pub fn lint_variant(
    kind: TransformKind,
    original: &Program,
    transformed: &Program,
) -> Vec<LintDiagnostic> {
    match kind {
        TransformKind::Vanguard | TransformKind::Stacked => lint_program(transformed),
        TransformKind::Meld => lint_meld(original, transformed),
        TransformKind::Shadow => {
            let mut diags = lint_program(transformed);
            check_shadow_exposure(transformed, &mut diags);
            diags
        }
    }
}

/// The meld contract: side-effect equivalence by counting. Melding
/// replaces branches with straight-line blend code, so stores and
/// conditional branches may only *decrease*, and no decode-model
/// instruction may appear.
fn lint_meld(original: &Program, transformed: &Program) -> Vec<LintDiagnostic> {
    fn count(p: &Program, f: impl Fn(&Inst) -> bool) -> usize {
        p.iter()
            .flat_map(|(_, b)| b.insts())
            .filter(|i| f(i))
            .count()
    }
    let mut diags = Vec::new();
    let (stores_before, stores_after) = (
        count(original, |i| matches!(i, Inst::Store { .. })),
        count(transformed, |i| matches!(i, Inst::Store { .. })),
    );
    if stores_after > stores_before {
        diags.push(LintDiagnostic {
            kind: LintKind::MeldStoreGrowth,
            block: transformed.entry(),
            inst: None,
            message: format!(
                "melded program has {stores_after} stores, original had {stores_before}; \
                 melding may never add a store"
            ),
        });
    }
    let (branches_before, branches_after) = (
        count(original, |i| matches!(i, Inst::Branch { .. })),
        count(transformed, |i| matches!(i, Inst::Branch { .. })),
    );
    if branches_after > branches_before {
        diags.push(LintDiagnostic {
            kind: LintKind::MeldBranchGrowth,
            block: transformed.entry(),
            inst: None,
            message: format!(
                "melded program has {branches_after} conditional branches, original had \
                 {branches_before}; melding may never add a branch"
            ),
        });
    }
    for (bid, block) in transformed.iter() {
        for (i, inst) in block.insts().iter().enumerate() {
            if matches!(inst, Inst::Predict { .. } | Inst::Resolve { .. }) {
                diags.push(LintDiagnostic {
                    kind: LintKind::MeldResidualDecomposition,
                    block: bid,
                    inst: Some(i),
                    message: format!(
                        "`{inst}` in a melded program; melding is a pure IR transformation"
                    ),
                });
            }
        }
    }
    diags
}

/// The shadow-exposure refinement of the §3 contract: resolution blocks
/// carry *only* the pushed-down condition slice above their resolve.
fn check_shadow_exposure(program: &Program, diags: &mut Vec<LintDiagnostic>) {
    for (bid, block) in program.iter() {
        let Some(info) = resolve_info(block) else {
            continue;
        };
        let n = block.insts().len();
        for (i, inst) in block.insts().iter().enumerate().take(n - 1) {
            if !info.in_slice[i] && !matches!(inst, Inst::Nop) {
                diags.push(LintDiagnostic {
                    kind: LintKind::ShadowSpeculativeWork,
                    block: bid,
                    inst: Some(i),
                    message: format!(
                        "`{inst}` above the resolve is outside the condition slice; shadow \
                         exposure models early prediction delivery and moves no code"
                    ),
                });
            }
        }
    }
}

/// Checks 2–4 and 6: store sinking, non-faulting hoists, live-in
/// protection, and shadow dominance for one resolution block.
fn check_resolution_block(
    program: &Program,
    liveness: &Liveness,
    dom: &DomTree,
    bid: BlockId,
    block: &BasicBlock,
    info: &ResolveInfo,
    diags: &mut Vec<LintDiagnostic>,
) {
    let correction_live_in = liveness.live_in(info.target);
    let n = block.insts().len();
    for (i, inst) in block.insts().iter().enumerate().take(n - 1) {
        if matches!(inst, Inst::Store { .. }) {
            diags.push(LintDiagnostic {
                kind: LintKind::StoreAboveResolve,
                block: bid,
                inst: Some(i),
                message: format!("`{inst}` above the resolve; stores must sink below it"),
            });
            continue;
        }
        if info.in_slice[i] {
            // The pushed-down condition slice recomputes pre-branch work;
            // its faults and writes are architectural.
            continue;
        }
        if let Inst::Load {
            speculative: false, ..
        } = inst
        {
            diags.push(LintDiagnostic {
                kind: LintKind::FaultingHoistedLoad,
                block: bid,
                inst: Some(i),
                message: format!("hoisted `{inst}` is not the non-faulting ld.s form"),
            });
        }
        if let Some(d) = inst.dst() {
            if correction_live_in.contains(d) {
                diags.push(LintDiagnostic {
                    kind: LintKind::ClobberedLiveIn,
                    block: bid,
                    inst: Some(i),
                    message: format!(
                        "`{inst}` clobbers {d}, live into correction block {}",
                        info.target
                    ),
                });
            }
        }
    }

    // Shadow dominance: the suffix consumes speculative values (hoisted
    // results and shadow-temp commits) that only exist after this block's
    // resolve, so every path into the suffix must pass through it.
    let Some(suffix) = block.fallthrough() else {
        return; // Program::validate rejects this; nothing more to check.
    };
    let mut killed = RegSet::new();
    for (i, inst) in program.block(suffix).insts().iter().enumerate() {
        let reads_spec = inst
            .srcs()
            .iter()
            .any(|&r| info.spec_defs.contains(r) && !killed.contains(r));
        if reads_spec && !dom.dominates(bid, suffix) {
            diags.push(LintDiagnostic {
                kind: LintKind::ShadowCommitNotDominated,
                block: suffix,
                inst: Some(i),
                message: format!(
                    "`{inst}` reads a speculative value from {bid}, which does not dominate {suffix}"
                ),
            });
            break;
        }
        if let Some(d) = inst.dst() {
            killed.insert(d);
        }
    }
}

/// Checks 1 (pairing shape) and 5 (correction coverage) for one predict.
fn check_predict_pair(
    program: &Program,
    liveness: &Liveness,
    bid: BlockId,
    block: &BasicBlock,
    target: BlockId,
    resolves: &[Option<ResolveInfo>],
    diags: &mut Vec<LintDiagnostic>,
) {
    let Some(fall) = block.fallthrough() else {
        return; // rejected by Program::validate.
    };
    let res_taken = resolves[target.index()].as_ref();
    let res_fall = resolves[fall.index()].as_ref();
    let (Some(res_taken), Some(res_fall)) = (res_taken, res_fall) else {
        for (dir, succ, found) in [
            ("taken", target, res_taken.is_some()),
            ("fall-through", fall, res_fall.is_some()),
        ] {
            if !found {
                diags.push(LintDiagnostic {
                    kind: LintKind::UnpairedPredict,
                    block: bid,
                    inst: Some(block.insts().len() - 1),
                    message: format!(
                        "{dir} successor {succ} of the predict does not terminate in a resolve"
                    ),
                });
            }
        }
        return;
    };
    if target == fall {
        diags.push(LintDiagnostic {
            kind: LintKind::UnpairedPredict,
            block: bid,
            inst: Some(block.insts().len() - 1),
            message: format!("predict target and fall-through are the same block {target}"),
        });
        return;
    }
    if res_taken.src != res_fall.src || res_taken.cond != res_fall.cond.negate() {
        diags.push(LintDiagnostic {
            kind: LintKind::MismatchedResolvePair,
            block: bid,
            inst: Some(block.insts().len() - 1),
            message: format!(
                "resolves {target} (resolve.{:?} {}) and {fall} (resolve.{:?} {}) must test the \
                 same register with complementary conditions",
                res_taken.cond, res_taken.src, res_fall.cond, res_fall.src
            ),
        });
    }

    // Correction coverage, cross-paired per §3: the path predicted toward
    // direction d (resolution block + suffix) and the correction block
    // repairing a misprediction *of the other direction* both realise an
    // actual-d execution, so their architectural def-sets must agree.
    for (dir, res_id, res, correction) in [
        ("taken", target, res_taken, res_fall.target),
        ("fall-through", fall, res_fall, res_taken.target),
    ] {
        let Some(suffix) = program.block(res_id).fallthrough() else {
            continue;
        };
        let correction_defs = liveness.defs(correction);
        let correction_live_in = liveness.live_in(correction);
        // Shadow temporaries: speculative destinations that are dead on
        // the correction path (unknown to the original program). Their
        // architectural projection arrives via commit moves in the
        // suffix, which `defs(suffix)` already covers.
        let temps = res
            .spec_defs
            .difference(correction_defs)
            .difference(correction_live_in);
        let predicted_defs = res
            .spec_defs
            .difference(&temps)
            .union(liveness.defs(suffix));
        let missing = predicted_defs.difference(correction_defs);
        let extra = correction_defs.difference(&predicted_defs);
        if !missing.is_empty() {
            diags.push(LintDiagnostic {
                kind: LintKind::MissingCorrectionWrite,
                block: correction,
                inst: None,
                message: format!(
                    "correction block {correction} does not write {missing:?}, written on the \
                     predicted-{dir} path ({res_id} + {suffix}) of the predict in {bid}"
                ),
            });
        }
        if !extra.is_empty() {
            diags.push(LintDiagnostic {
                kind: LintKind::ExtraCorrectionWrite,
                block: correction,
                inst: None,
                message: format!(
                    "correction block {correction} writes {extra:?}, never written on the \
                     predicted-{dir} path ({res_id} + {suffix}) of the predict in {bid}"
                ),
            });
        }
    }
}

/// Checks 1's depth bound: a forward dataflow over the set of possible
/// outstanding-prediction counts per block. `predict` pushes a DBB entry,
/// `resolve` pops one; more than [`DBB_ENTRIES`] outstanding on any path
/// overflows the buffer, and a pop at depth zero has no predict to pair
/// with.
fn check_dbb_depth(
    program: &Program,
    cfg: &Cfg,
    resolves: &[Option<ResolveInfo>],
    diags: &mut Vec<LintDiagnostic>,
) {
    // Depths are capped at DBB_ENTRIES + 1 so cyclic predict chains
    // terminate; each (block, depth) state is visited once.
    let cap = DBB_ENTRIES + 1;
    let n = program.num_blocks();
    let mut seen = vec![vec![false; cap + 1]; n];
    let mut overflowed = vec![false; n];
    let mut underflowed = vec![false; n];
    let mut work = vec![(program.entry(), 0usize)];
    seen[program.entry().index()][0] = true;
    while let Some((bid, depth)) = work.pop() {
        let block = program.block(bid);
        let out_depth = match block.terminator() {
            Some(Inst::Predict { .. }) => {
                let d = (depth + 1).min(cap);
                if d > DBB_ENTRIES && !overflowed[bid.index()] {
                    overflowed[bid.index()] = true;
                    diags.push(LintDiagnostic {
                        kind: LintKind::DbbOverflow,
                        block: bid,
                        inst: Some(block.insts().len() - 1),
                        message: format!(
                            "a path reaches this predict with {DBB_ENTRIES} predictions already \
                             outstanding (DBB has {DBB_ENTRIES} entries)"
                        ),
                    });
                }
                d
            }
            Some(Inst::Resolve { .. }) => {
                if depth == 0 {
                    if !underflowed[bid.index()] {
                        underflowed[bid.index()] = true;
                        diags.push(LintDiagnostic {
                            kind: LintKind::UnmatchedResolve,
                            block: bid,
                            inst: Some(block.insts().len() - 1),
                            message: "a path reaches this resolve with no outstanding predict to \
                                      pair with"
                                .into(),
                        });
                    }
                    0
                } else {
                    depth - 1
                }
            }
            _ => depth,
        };
        for &succ in cfg.succs(bid) {
            if !seen[succ.index()][out_depth] {
                seen[succ.index()][out_depth] = true;
                work.push((succ, out_depth));
            }
        }
    }
    let _ = resolves;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanguard_isa::{AluOp, CmpKind, Operand, ProgramBuilder};

    /// entry → head(predict) → {rt, rf} → suffixes → exit, the §3 shape.
    fn decomposed_diamond() -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block("entry");
        let head = b.block("head");
        let rt = b.block("head.resolve_t");
        let rf = b.block("head.resolve_nt");
        let st = b.block("bb_t.suffix");
        let sf = b.block("bb_f.suffix");
        let bb_t = b.block("bb_t");
        let bb_f = b.block("bb_f");
        let exit = b.block("exit");

        b.push(entry, Inst::mov(Reg(3), Operand::Imm(0x10000)));
        b.push(entry, Inst::mov(Reg(10), Operand::Imm(0x20000)));
        b.fallthrough(entry, head);
        b.push(head, Inst::Predict { target: rt });
        b.fallthrough(head, rf);

        for (res, cond, hoist_dst, off, suffix, correction) in [
            (rt, CondKind::Z, Reg(8), 8, st, bb_f),
            (rf, CondKind::Nz, Reg(6), 0, sf, bb_t),
        ] {
            // Pushed-down slice: ld + cmp feeding the resolve.
            b.push(res, Inst::load(Reg(4), Reg(3), 0));
            b.push(
                res,
                Inst::Cmp {
                    kind: CmpKind::Ne,
                    dst: Reg(5),
                    a: Reg(4),
                    b: Operand::Imm(0),
                },
            );
            // Speculatively hoisted load.
            b.push(res, Inst::load_spec(hoist_dst, Reg(10), off));
            b.push(
                res,
                Inst::Resolve {
                    cond,
                    src: Reg(5),
                    target: correction,
                },
            );
            b.fallthrough(res, suffix);
        }
        // Suffixes consume the hoisted value; originals recompute it.
        for (blk, src, off) in [
            (st, Reg(8), 8i64),
            (sf, Reg(6), 0),
            (bb_t, Reg(8), 8),
            (bb_f, Reg(6), 0),
        ] {
            if blk == bb_t || blk == bb_f {
                b.push(blk, Inst::load(src, Reg(10), off));
            }
            b.push(
                blk,
                Inst::alu(AluOp::Add, Reg(12), Operand::Reg(src), Operand::Imm(1)),
            );
            b.push(blk, Inst::store(Reg(12), Reg(3), 0x100));
            b.push(blk, Inst::Jump { target: exit });
        }
        b.push(exit, Inst::Halt);
        b.set_entry(entry);
        b.finish().unwrap()
    }

    #[test]
    fn clean_decomposition_passes() {
        let p = decomposed_diamond();
        let diags = lint_program(&p);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn plain_programs_trivially_pass() {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        b.push(e, Inst::store(Reg(1), Reg(2), 0));
        b.push(e, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        assert!(lint_program(&p).is_empty());
    }

    #[test]
    fn store_above_resolve_is_flagged() {
        let mut p = decomposed_diamond();
        // rt is block 2; insert a store above its resolve.
        let rt = BlockId(2);
        let at = p.block(rt).insts().len() - 1;
        p.block_mut(rt)
            .insts_mut()
            .insert(at, Inst::store(Reg(4), Reg(3), 0x200));
        let diags = lint_program(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == LintKind::StoreAboveResolve && d.block == rt),
            "{diags:?}"
        );
    }

    #[test]
    fn resolve_without_predict_is_flagged() {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let r = b.block("resolve");
        let s = b.block("suffix");
        b.push(e, Inst::Nop);
        b.fallthrough(e, r);
        b.push(
            r,
            Inst::Resolve {
                cond: CondKind::Nz,
                src: Reg(1),
                target: s,
            },
        );
        b.fallthrough(r, s);
        b.push(s, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        let diags = lint_program(&p);
        assert!(
            diags.iter().any(|d| d.kind == LintKind::UnmatchedResolve),
            "{diags:?}"
        );
    }

    #[test]
    fn mismatched_conditions_are_flagged() {
        let mut p = decomposed_diamond();
        // Make both resolves test the same (non-complementary) condition.
        let rf = BlockId(3);
        let last = p.block(rf).insts().len() - 1;
        if let Inst::Resolve { cond, .. } = &mut p.block_mut(rf).insts_mut()[last] {
            *cond = CondKind::Z;
        }
        let diags = lint_program(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == LintKind::MismatchedResolvePair),
            "{diags:?}"
        );
    }

    /// A trivial straight-line program with one store and no branches.
    fn straight_line() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        b.push(e, Inst::mov(Reg(1), Operand::Imm(7)));
        b.push(e, Inst::store(Reg(1), Reg(2), 0));
        b.push(e, Inst::Halt);
        b.set_entry(e);
        b.finish().unwrap()
    }

    #[test]
    fn meld_contract_accepts_identity() {
        let p = straight_line();
        assert!(lint_variant(TransformKind::Meld, &p, &p).is_empty());
    }

    #[test]
    fn meld_contract_flags_new_store() {
        let original = straight_line();
        let mut melded = original.clone();
        melded
            .block_mut(BlockId(0))
            .insts_mut()
            .insert(0, Inst::store(Reg(1), Reg(2), 8));
        let diags = lint_variant(TransformKind::Meld, &original, &melded);
        assert!(
            diags.iter().any(|d| d.kind == LintKind::MeldStoreGrowth),
            "{diags:?}"
        );
    }

    #[test]
    fn meld_contract_flags_residual_decomposition() {
        let original = straight_line();
        let melded = decomposed_diamond();
        let diags = lint_variant(TransformKind::Meld, &original, &melded);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == LintKind::MeldResidualDecomposition),
            "{diags:?}"
        );
    }

    #[test]
    fn shadow_contract_flags_hoisted_work() {
        // decomposed_diamond hoists an ld.s into each resolution block —
        // clean under the vanguard contract, speculative work under the
        // shadow contract.
        let p = decomposed_diamond();
        let original = straight_line();
        assert!(lint_variant(TransformKind::Vanguard, &original, &p).is_empty());
        let diags = lint_variant(TransformKind::Shadow, &original, &p);
        let flagged: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::ShadowSpeculativeWork)
            .collect();
        assert_eq!(flagged.len(), 2, "{diags:?}");
    }

    #[test]
    fn shadow_contract_accepts_slice_only_resolution_blocks() {
        let mut p = decomposed_diamond();
        // Strip the hoisted ld.s from both resolution blocks; the suffix
        // loads stay architectural via the correction twins, so re-point
        // the suffixes at fresh loads by replacing the hoisted consumers.
        for (res, suffix, dst, off) in [
            (BlockId(2), BlockId(4), Reg(8), 8i64),
            (BlockId(3), BlockId(5), Reg(6), 0),
        ] {
            let insts = p.block_mut(res).insts_mut();
            insts.retain(|i| {
                !matches!(
                    i,
                    Inst::Load {
                        speculative: true,
                        ..
                    }
                )
            });
            p.block_mut(suffix)
                .insts_mut()
                .insert(0, Inst::load(dst, Reg(10), off));
        }
        let diags = lint_variant(TransformKind::Shadow, &straight_line(), &p);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
