//! The Decomposed Branch Transformation (§3, Figures 5 and 6).

use crate::report::{SiteOutcome, TransformReport};
use crate::select::{select_candidates, SelectOptions};
use crate::slice::condition_slice;
use vanguard_ir::{BranchDirection, Cfg, Liveness, Profile, RegSet};
use vanguard_isa::{BasicBlock, BlockId, Inst, Program};

/// Parameters of [`decompose_branches`] — and, since the pass framework,
/// of every [`crate::passes::TransformPass`]: `kind` selects the pass and
/// the remaining knobs are read by whichever passes their contract names.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransformOptions {
    /// Which transformation pass compiles the experimental variant.
    pub kind: crate::passes::TransformKind,
    /// Candidate-selection heuristic (§5: predictability − bias ≥ 5%).
    pub select: SelectOptions,
    /// Maximum instructions hoisted into each resolution block.
    pub max_hoist: usize,
    /// Convert hoisted loads to the non-faulting `ld.s` form and hoist
    /// them (§2.2 mechanism 1). With this off, only non-load work hoists.
    pub hoist_loads: bool,
    /// Use free architectural registers as *shadow temporaries* (§2.2
    /// mechanism 3 / §3): instructions that would clobber a live-in of the
    /// alternate (correction) path are hoisted into temporaries, with the
    /// move back to the architected register "hidden in the shadow of the
    /// resolution instruction" — executed only on the correctly-predicted
    /// path. Off (the default), such instructions simply stay below the
    /// resolve; measurements show temps pay off only when the clobbering
    /// instructions are long-latency (the commit moves are not free), so
    /// the aggressive mode is opt-in.
    pub shadow_temps: bool,
    /// Maximum instructions per hammock side that the meld/stacked
    /// passes will if-convert (Li et al. meld short diamonds only).
    pub meld_max_side: usize,
}

impl Default for TransformOptions {
    fn default() -> Self {
        TransformOptions {
            kind: crate::passes::TransformKind::Vanguard,
            select: SelectOptions::default(),
            max_hoist: 12,
            hoist_loads: true,
            shadow_temps: false,
            meld_max_side: 4,
        }
    }
}

/// Applies the Decomposed Branch Transformation to every qualifying site
/// of `program`:
///
/// 1. The branch `A → {T, F}` is replaced by a `predict` ending `A`
///    (Figure 5b).
/// 2. Two *resolution blocks* are created, one per predicted direction,
///    each containing the pushed-down condition slice, the speculatively
///    hoisted prefix of its path's successor (loads as `ld.s`; stores
///    sink), and a `resolve` that is taken only on misprediction
///    (Figure 5c–d).
/// 3. The original successors remain intact as the correction targets
///    (compensation code) and for any other predecessors.
/// 4. Slice instructions left dead in `A` are removed.
///
/// The transformation is semantics-preserving under *any* prediction
/// sequence; integration tests verify final state against the
/// interpreter under adversarial oracles.
pub fn decompose_branches(
    program: &mut Program,
    profile: &Profile,
    options: &TransformOptions,
) -> TransformReport {
    let mut report = TransformReport {
        code_bytes_before: program.code_bytes(),
        ..TransformReport::default()
    };
    {
        let cfg = Cfg::build(program);
        report.forward_branches = cfg
            .branch_blocks(program)
            .filter(|&b| cfg.branch_direction(program, b) == Some(BranchDirection::Forward))
            .count();
    }
    let mut candidates = select_candidates(program, profile, &options.select);
    // Process later blocks first so a site that is also another site's
    // successor is already decomposed when its predecessor copies it.
    candidates.sort_by_key(|c| std::cmp::Reverse(c.block));

    for cand in candidates {
        match transform_site(program, cand.block, options) {
            Ok(mut outcome) => {
                outcome.executed = cand.executed;
                report.converted.push(outcome);
            }
            Err(reason) => report.skipped.push((cand.block, reason)),
        }
    }
    report.code_bytes_after = program.code_bytes();
    debug_assert!(program.validate().is_ok());
    report
}

/// Instructions of a hoisted prefix plus what stayed behind.
struct HoistSplit {
    hoisted: Vec<Inst>,
    remainder: Vec<Inst>,
    /// `(architected, temporary)` commit moves for shadow-temp hoists,
    /// placed at the top of the suffix block (the resolve's shadow).
    commits: Vec<(vanguard_isa::Reg, vanguard_isa::Reg)>,
}

/// Scans the body of a successor block and splits it into a speculatively
/// hoistable prefix and the remainder (Figure 5c "upper portion").
///
/// Hoisting rules:
/// * loads become non-faulting `ld.s` (skipped entirely when
///   `hoist_loads` is off);
/// * stores never hoist (they sink below the resolve) and bar later loads
///   from hoisting past them;
/// * an instruction whose sources were written by a skipped instruction,
///   or whose destination is in `clobber` or touched by a skipped
///   instruction, stays behind.
fn hoist_prefix(
    body: &[Inst],
    clobber: &RegSet,
    max_hoist: usize,
    hoist_loads: bool,
    temps: &mut Vec<vanguard_isa::Reg>,
) -> HoistSplit {
    let mut hoisted = Vec::new();
    let mut remainder = Vec::new();
    let mut commits: Vec<(vanguard_isa::Reg, vanguard_isa::Reg)> = Vec::new();
    // Hoisted-code renames: architected → shadow temporary.
    let mut rename: std::collections::HashMap<vanguard_isa::Reg, vanguard_isa::Reg> =
        std::collections::HashMap::new();
    let mut skipped_writes = RegSet::new();
    let mut skipped_reads = RegSet::new();
    let mut store_barrier = false;

    for inst in body {
        let skip = |inst: &Inst,
                    remainder: &mut Vec<Inst>,
                    skipped_writes: &mut RegSet,
                    skipped_reads: &mut RegSet| {
            if let Some(d) = inst.dst() {
                skipped_writes.insert(d);
            }
            skipped_reads.extend(inst.srcs());
            remainder.push(*inst);
        };
        if hoisted.len() >= max_hoist {
            skip(
                inst,
                &mut remainder,
                &mut skipped_writes,
                &mut skipped_reads,
            );
            continue;
        }
        let hoistable_kind = match inst {
            Inst::Load { .. } => hoist_loads && !store_barrier,
            Inst::Alu { .. } | Inst::Cmp { .. } => true,
            Inst::Store { .. } => {
                store_barrier = true;
                false
            }
            _ => false,
        };
        if !hoistable_kind {
            skip(
                inst,
                &mut remainder,
                &mut skipped_writes,
                &mut skipped_reads,
            );
            continue;
        }
        let reads: RegSet = inst.srcs().into_iter().collect();
        let dst = inst.dst();
        // Intra-block ordering conflicts always block the hoist.
        let order_blocked = !reads.intersection(&skipped_writes).is_empty()
            || dst.is_some_and(|d| skipped_writes.contains(d) || skipped_reads.contains(d));
        if order_blocked {
            skip(
                inst,
                &mut remainder,
                &mut skipped_writes,
                &mut skipped_reads,
            );
            continue;
        }
        // A correction-path live-in clobber is fixable with a shadow temp
        // (§3): write the temp speculatively, commit in the resolve shadow.
        let mut inst = *inst;
        // Hoisted reads of previously-renamed registers use the temps.
        rewrite_reads(&mut inst, &rename);
        if let Some(d) = dst {
            if clobber.contains(d) && !rename.contains_key(&d) {
                let Some(t) = temps.pop() else {
                    // Out of temporaries: leave it below the resolve. Its
                    // reads may already be renamed to temps — still correct,
                    // because the temps hold exactly the hoisted values and
                    // are never reused.
                    skip(
                        &inst,
                        &mut remainder,
                        &mut skipped_writes,
                        &mut skipped_reads,
                    );
                    continue;
                };
                rename.insert(d, t);
                commits.push((d, t));
            }
            if let Some(&t) = rename.get(&d) {
                set_dst(&mut inst, t);
            }
        }
        if let Inst::Load { speculative, .. } = &mut inst {
            *speculative = true;
        }
        hoisted.push(inst);
    }
    HoistSplit {
        hoisted,
        remainder,
        commits,
    }
}

/// Rewrites an instruction's register reads through the rename map.
fn rewrite_reads(
    inst: &mut Inst,
    rename: &std::collections::HashMap<vanguard_isa::Reg, vanguard_isa::Reg>,
) {
    if rename.is_empty() {
        return;
    }
    let map = |r: &mut vanguard_isa::Reg| {
        if let Some(&t) = rename.get(r) {
            *r = t;
        }
    };
    match inst {
        Inst::Alu { a, b, .. } => {
            if let vanguard_isa::Operand::Reg(r) = a {
                map(r);
            }
            if let vanguard_isa::Operand::Reg(r) = b {
                map(r);
            }
        }
        Inst::Cmp { a, b, .. } => {
            map(a);
            if let vanguard_isa::Operand::Reg(r) = b {
                map(r);
            }
        }
        Inst::Fp { a, b, .. } => {
            map(a);
            map(b);
        }
        Inst::Load { base, .. } => map(base),
        Inst::Store { src, base, .. } => {
            map(src);
            map(base);
        }
        _ => {}
    }
}

/// Rewrites an instruction's destination register.
fn set_dst(inst: &mut Inst, t: vanguard_isa::Reg) {
    match inst {
        Inst::Alu { dst, .. }
        | Inst::Cmp { dst, .. }
        | Inst::Fp { dst, .. }
        | Inst::Load { dst, .. } => *dst = t,
        _ => {}
    }
}

fn transform_site(
    program: &mut Program,
    site: BlockId,
    options: &TransformOptions,
) -> Result<SiteOutcome, String> {
    let a_block = program.block(site);
    let Some(&Inst::Branch { cond, src, target }) = a_block.terminator() else {
        return Err("terminator is not a conditional branch".into());
    };
    let taken_succ = target;
    let Some(fall_succ) = a_block.fallthrough() else {
        return Err("branch without fall-through".into());
    };
    if taken_succ == fall_succ || taken_succ == site || fall_succ == site {
        return Err("degenerate successor structure".into());
    }

    let slice = condition_slice(a_block).map_err(|e| format!("slice: {e:?}"))?;
    let slice_insts: Vec<Inst> = slice.indices.iter().map(|&i| a_block.insts()[i]).collect();

    let cfg = Cfg::build(program);
    let liveness = Liveness::build(program, &cfg);

    // Registers a hoisted instruction must never write: anything the
    // alternate (correction) path may read, the condition register, and
    // everything the pushed-down slice touches.
    let clobber_base = {
        let mut s = slice.inputs.union(&slice.outputs);
        s.insert(src);
        s
    };
    let clobber_taken = clobber_base.union(liveness.live_in(fall_succ));
    let clobber_fall = clobber_base.union(liveness.live_in(taken_succ));

    let body_of = |b: &BasicBlock| -> Vec<Inst> {
        match b.terminator() {
            Some(t) if t.is_control() => b.insts()[..b.insts().len() - 1].to_vec(),
            _ => b.insts().to_vec(),
        }
    };
    let taken_block = program.block(taken_succ).clone();
    let fall_block = program.block(fall_succ).clone();
    // Shadow-temporary pool: registers unused anywhere in the program
    // (§2.2: "additional registers to hold speculative values").
    let mut temps: Vec<vanguard_isa::Reg> = if options.shadow_temps {
        let mut used = RegSet::new();
        for (_, b) in program.iter() {
            for inst in b.insts() {
                if let Some(d) = inst.dst() {
                    used.insert(d);
                }
                used.extend(inst.srcs());
            }
        }
        RegSet::all().difference(&used).iter().collect()
    } else {
        Vec::new()
    };
    let taken_split = hoist_prefix(
        &body_of(&taken_block),
        &clobber_taken,
        options.max_hoist,
        options.hoist_loads,
        &mut temps,
    );
    let fall_split = hoist_prefix(
        &body_of(&fall_block),
        &clobber_fall,
        options.max_hoist,
        options.hoist_loads,
        &mut temps,
    );

    // Suffix blocks B' (Figure 5d): the successor minus its hoisted prefix.
    let make_suffix =
        |program: &mut Program, orig: &BasicBlock, split: &HoistSplit, label: &str| -> BlockId {
            let mut nb = BasicBlock::new(format!("{}.{label}", orig.name()));
            // Commit moves first: they sit in the resolve's shadow, executing
            // only on the correctly-predicted path (§3).
            for &(arch, temp) in &split.commits {
                nb.insts_mut()
                    .push(Inst::mov(arch, vanguard_isa::Operand::Reg(temp)));
            }
            nb.insts_mut().extend(split.remainder.iter().cloned());
            if let Some(t) = orig.terminator() {
                if t.is_control() {
                    nb.insts_mut().push(*t);
                }
            }
            nb.set_fallthrough(orig.fallthrough());
            program.add_block(nb)
        };
    let taken_suffix = make_suffix(program, &taken_block, &taken_split, "suffix");
    let fall_suffix = make_suffix(program, &fall_block, &fall_split, "suffix");

    // Resolution blocks A' (Figure 5b/c): pushed-down slice + hoisted
    // prefix + resolve. The resolve is taken only on misprediction and
    // targets the *original* alternate successor (the compensation path).
    let a_name = program.block(site).name().to_string();
    let mut res_taken = BasicBlock::new(format!("{a_name}.resolve_t"));
    res_taken.insts_mut().extend(slice_insts.iter().cloned());
    res_taken
        .insts_mut()
        .extend(taken_split.hoisted.iter().cloned());
    res_taken.insts_mut().push(Inst::Resolve {
        cond: cond.negate(), // mispredict iff the branch was NOT taken
        src,
        target: fall_succ,
    });
    res_taken.set_fallthrough(Some(taken_suffix));
    let res_taken_id = program.add_block(res_taken);

    let mut res_fall = BasicBlock::new(format!("{a_name}.resolve_nt"));
    res_fall.insts_mut().extend(slice_insts.iter().cloned());
    res_fall
        .insts_mut()
        .extend(fall_split.hoisted.iter().cloned());
    res_fall.insts_mut().push(Inst::Resolve {
        cond, // mispredict iff the branch WAS taken
        src,
        target: taken_succ,
    });
    res_fall.set_fallthrough(Some(fall_suffix));
    let res_fall_id = program.add_block(res_fall);

    // Rewrite A: drop the branch, DCE the now-dead slice, append predict.
    let a = program.block_mut(site);
    a.insts_mut().pop();
    let removed = dce_slice(a, &slice.indices);
    a.insts_mut().push(Inst::Predict {
        target: res_taken_id,
    });
    a.set_fallthrough(Some(res_fall_id));

    Ok(SiteOutcome {
        block: site,
        hoisted_taken: taken_split.hoisted.len(),
        hoisted_fallthrough: fall_split.hoisted.len(),
        slice_insts: slice_insts.len(),
        removed_from_block: removed,
        commit_moves: taken_split.commits.len() + fall_split.commits.len(),
        executed: 0,
    })
}

/// Removes slice instructions from `a` whose destinations are not read by
/// any remaining (non-slice) instruction of `a`. Returns how many were
/// removed. (The resolution blocks recompute them for every consumer
/// beyond `a`.)
fn dce_slice(a: &mut BasicBlock, slice_indices: &[usize]) -> usize {
    let insts = a.insts();
    let in_slice: Vec<bool> = {
        let mut v = vec![false; insts.len()];
        for &i in slice_indices {
            v[i] = true;
        }
        v
    };
    let mut removable = vec![false; insts.len()];
    // Iterate in reverse: a slice inst is removable if its dst is not read
    // by any later instruction that will remain.
    for &i in slice_indices.iter().rev() {
        let Some(d) = insts[i].dst() else { continue };
        let mut read_later = false;
        for (j, inst) in insts.iter().enumerate().skip(i + 1) {
            if in_slice[j] && removable[j] {
                continue; // that reader is itself being removed
            }
            if inst.srcs().contains(&d) {
                read_later = true;
                break;
            }
            if inst.dst() == Some(d) {
                break; // redefined before any read
            }
        }
        removable[i] = !read_later;
    }
    let removed = removable.iter().filter(|&&r| r).count();
    let kept: Vec<Inst> = insts
        .iter()
        .enumerate()
        .filter(|&(i, _)| !removable[i])
        .map(|(_, inst)| *inst)
        .collect();
    *a.insts_mut() = kept;
    removed
}

/// Checks whether a reg appears in sources (helper for tests).
#[cfg(test)]
fn reads(inst: &Inst, r: vanguard_isa::Reg) -> bool {
    inst.srcs().contains(&r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanguard_isa::{
        AluOp, CmpKind, CondKind, Interpreter, Memory, Operand, ProgramBuilder, Reg, StopReason,
        TakenOracle,
    };

    /// The Figure 6 shape: a loop over a condition array with loads on
    /// both sides of a predictable-but-unbiased forward branch.
    ///
    /// head:  r4 = load cond[i]
    ///        r5 = (r4 != 0)
    ///        br.nz r5 -> bb_t
    /// bb_f:  r6 = load data_f[i]; r7 = r6+1; store out_f[i] = r7 -> latch
    /// bb_t:  r8 = load data_t[i]; r9 = r8+2; store out_t[i] = r9 -> latch
    /// latch: i++, loop
    fn figure6_loop(n: i64) -> (Program, BlockId) {
        let mut b = ProgramBuilder::new();
        let entry = b.block("entry");
        let head = b.block("head");
        let bb_f = b.block("bb_f");
        let bb_t = b.block("bb_t");
        let latch = b.block("latch");
        let exit = b.block("exit");

        b.push(entry, Inst::mov(Reg(1), Operand::Imm(n)));
        b.push(entry, Inst::mov(Reg(3), Operand::Imm(0x10000))); // cond base
        b.push(entry, Inst::mov(Reg(10), Operand::Imm(0x20000))); // data base
        b.push(entry, Inst::mov(Reg(11), Operand::Imm(0x30000))); // out base
        b.fallthrough(entry, head);

        b.push(head, Inst::load(Reg(4), Reg(3), 0));
        b.push(
            head,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(5),
                a: Reg(4),
                b: Operand::Imm(0),
            },
        );
        b.push(
            head,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(5),
                target: bb_t,
            },
        );
        b.fallthrough(head, bb_f);

        b.push(bb_f, Inst::load(Reg(6), Reg(10), 0));
        b.push(
            bb_f,
            Inst::alu(AluOp::Add, Reg(7), Operand::Reg(Reg(6)), Operand::Imm(1)),
        );
        b.push(bb_f, Inst::store(Reg(7), Reg(11), 0));
        b.push(bb_f, Inst::Jump { target: latch });

        b.push(bb_t, Inst::load(Reg(8), Reg(10), 8));
        b.push(
            bb_t,
            Inst::alu(AluOp::Add, Reg(9), Operand::Reg(Reg(8)), Operand::Imm(2)),
        );
        b.push(bb_t, Inst::store(Reg(9), Reg(11), 8));
        b.push(bb_t, Inst::Jump { target: latch });

        b.push(
            latch,
            Inst::alu(AluOp::Add, Reg(3), Operand::Reg(Reg(3)), Operand::Imm(8)),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Add, Reg(10), Operand::Reg(Reg(10)), Operand::Imm(16)),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Add, Reg(11), Operand::Reg(Reg(11)), Operand::Imm(16)),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Sub, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)),
        );
        b.push(
            latch,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(2),
                a: Reg(1),
                b: Operand::Imm(0),
            },
        );
        b.push(
            latch,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(2),
                target: head,
            },
        );
        b.fallthrough(latch, exit);
        b.push(exit, Inst::Halt);
        b.set_entry(entry);
        (b.finish().unwrap(), head)
    }

    fn memory_for(n: usize, pattern: impl Fn(usize) -> bool) -> Memory {
        let mut mem = Memory::new();
        let cond: Vec<u64> = (0..n).map(|i| u64::from(pattern(i))).collect();
        mem.load_words(0x10000, &cond);
        let data: Vec<u64> = (0..2 * n).map(|i| i as u64 * 3 + 1).collect();
        mem.load_words(0x20000, &data);
        mem.map_region(0x30000, (2 * n) as u64 * 8);
        mem
    }

    fn profile_of(site: BlockId, taken: u64, total: u64, correct: u64) -> Profile {
        let mut p = Profile::new();
        for i in 0..total {
            p.record(site, i < taken, i < correct);
        }
        p.dynamic_insts = total * 10;
        p
    }

    fn transform_fig6(n: i64) -> (Program, Program, TransformReport) {
        let (p0, head) = figure6_loop(n);
        let mut p1 = p0.clone();
        // 60/40 bias, 95% predictability: a textbook candidate.
        let profile = profile_of(head, 60 * n as u64 / 100, n as u64, 95 * n as u64 / 100);
        let report = decompose_branches(&mut p1, &profile, &TransformOptions::default());
        (p0, p1, report)
    }

    #[test]
    fn figure6_site_is_converted() {
        let (_, p1, report) = transform_fig6(100);
        assert_eq!(report.converted.len(), 1, "skipped: {:?}", report.skipped);
        let site = &report.converted[0];
        assert_eq!(site.slice_insts, 2, "ld + cmp pushed down");
        assert!(
            site.hoisted_taken >= 2,
            "load+add hoisted, got {}",
            site.hoisted_taken
        );
        assert!(site.hoisted_fallthrough >= 2);
        assert_eq!(site.removed_from_block, 2, "slice DCE'd from head");
        // A predict and two resolves now exist.
        let summary = p1.static_summary();
        assert_eq!(summary.mnemonics.get("predict"), Some(&1));
        assert_eq!(
            summary.mnemonics.get("resolve.nz").copied().unwrap_or(0)
                + summary.mnemonics.get("resolve.z").copied().unwrap_or(0),
            2
        );
        // Hoisted loads became speculative.
        assert!(summary.mnemonics.get("ld.s").copied().unwrap_or(0) >= 2);
    }

    #[test]
    fn transformed_program_is_valid_and_bigger() {
        let (p0, p1, report) = transform_fig6(100);
        assert!(p1.validate().is_ok());
        assert!(report.code_bytes_after > report.code_bytes_before);
        assert!(p1.num_blocks() > p0.num_blocks());
        assert!(report.pbc() > 0.0);
        assert!(report.piscs() > 0.0);
    }

    #[test]
    fn semantics_preserved_under_adversarial_oracles() {
        let n = 64usize;
        let (p0, p1, _) = transform_fig6(n as i64);
        for (name, pattern) in [
            (
                "all-taken",
                Box::new(|_: usize| true) as Box<dyn Fn(usize) -> bool>,
            ),
            ("all-not", Box::new(|_| false)),
            ("alternating", Box::new(|i| i % 2 == 0)),
            ("pattern", Box::new(|i| i % 5 != 3)),
        ] {
            let run = |p: &Program, oracle: &mut TakenOracle| {
                let mut i = Interpreter::new(p, memory_for(n, &pattern));
                let out = i.run(oracle).unwrap();
                assert_eq!(out.stop, StopReason::Halted);
                let mut mem_out = Vec::new();
                for k in 0..2 * n as u64 {
                    mem_out.push(i.memory().read(0x30000 + k * 8));
                }
                (*i.regs(), mem_out)
            };
            let reference = run(&p0, &mut TakenOracle::AlwaysTaken);
            for mut oracle in [
                TakenOracle::AlwaysTaken,
                TakenOracle::AlwaysNotTaken,
                TakenOracle::random(11),
                TakenOracle::Alternate { next: false },
            ] {
                let got = run(&p1, &mut oracle);
                assert_eq!(got.1, reference.1, "{name} / {oracle:?}: memory differs");
                // Live-out registers must match. Dead per-iteration
                // temporaries (r4–r9) may legitimately differ when a
                // speculative hoist executed on a corrected path.
                for r in [1usize, 2, 3, 10, 11] {
                    assert_eq!(got.0[r], reference.0[r], "{name} / {oracle:?}: r{r}");
                }
            }
        }
    }

    #[test]
    fn resolve_fires_exactly_on_mispredictions() {
        let n = 200usize;
        let (_, p1, _) = transform_fig6(n as i64);
        // Alternating pattern with an always-taken oracle: the predict is
        // wrong exactly when the branch is not taken (half the time).
        let mut interp = Interpreter::new(&p1, memory_for(n, |i| i % 2 == 0));
        let out = interp.run(&mut TakenOracle::AlwaysTaken).unwrap();
        assert_eq!(out.record.predicts, n as u64);
        assert_eq!(out.record.resolves, n as u64);
        assert_eq!(out.record.resolve_mispredicts, n as u64 / 2);
    }

    #[test]
    fn correction_paths_reexecute_the_full_successor() {
        // With an always-wrong oracle every iteration goes through
        // correction code; results must still be exact.
        let n = 50usize;
        let (p0, p1, _) = transform_fig6(n as i64);
        let pattern = |i: usize| i.is_multiple_of(3);
        let mut ref_i = Interpreter::new(&p0, memory_for(n, pattern));
        ref_i.run(&mut TakenOracle::AlwaysTaken).unwrap();
        // Adversarial oracle: always predict the wrong way by construction
        // (predict the complement of the pattern via LastOutcome inversion
        // is fiddly; random is adversarial enough plus the exhaustive test
        // above covers always-taken/always-not).
        let mut i = Interpreter::new(&p1, memory_for(n, pattern));
        i.run(&mut TakenOracle::random(99)).unwrap();
        for k in 0..2 * n as u64 {
            assert_eq!(
                i.memory().read(0x30000 + k * 8),
                ref_i.memory().read(0x30000 + k * 8),
                "word {k}"
            );
        }
    }

    #[test]
    fn hoist_prefix_respects_clobbers_and_stores() {
        let body = vec![
            Inst::load(Reg(6), Reg(10), 0),
            Inst::alu(AluOp::Add, Reg(7), Operand::Reg(Reg(6)), Operand::Imm(1)),
            Inst::store(Reg(7), Reg(11), 0),
            Inst::load(Reg(8), Reg(10), 8), // after the store: barred
            Inst::alu(AluOp::Add, Reg(9), Operand::Imm(1), Operand::Imm(1)),
        ];
        let clobber: RegSet = [Reg(9)].into_iter().collect();
        let split = hoist_prefix(&body, &clobber, 16, true, &mut Vec::new());
        // r6 load and r7 add hoist; store stays; r8 load barred by the
        // store; r9 add blocked by the clobber set.
        assert_eq!(split.hoisted.len(), 2);
        assert!(matches!(
            split.hoisted[0],
            Inst::Load {
                speculative: true,
                ..
            }
        ));
        assert_eq!(split.remainder.len(), 3);
        assert!(reads(&split.hoisted[1], Reg(6)));
    }

    #[test]
    fn hoist_budget_is_respected() {
        let body = vec![
            Inst::load(Reg(6), Reg(10), 0),
            Inst::load(Reg(7), Reg(10), 8),
            Inst::load(Reg(8), Reg(10), 16),
        ];
        let split = hoist_prefix(&body, &RegSet::new(), 2, true, &mut Vec::new());
        assert_eq!(split.hoisted.len(), 2);
        assert_eq!(split.remainder.len(), 1);
    }

    #[test]
    fn hoist_loads_off_leaves_loads_behind() {
        let body = vec![
            Inst::load(Reg(6), Reg(10), 0),
            Inst::alu(AluOp::Add, Reg(9), Operand::Imm(1), Operand::Imm(1)),
        ];
        let split = hoist_prefix(&body, &RegSet::new(), 8, false, &mut Vec::new());
        assert_eq!(split.hoisted.len(), 1); // only the ALU op
        assert!(matches!(split.remainder[0], Inst::Load { .. }));
    }

    #[test]
    fn degenerate_sites_are_skipped_not_broken() {
        // Branch whose target equals its fall-through.
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let j = b.block("join");
        b.push(
            e,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(1),
                target: j,
            },
        );
        b.fallthrough(e, j);
        b.push(j, Inst::Halt);
        b.set_entry(e);
        let mut p = b.finish().unwrap();
        let profile = profile_of(e, 60, 100, 95);
        let report = decompose_branches(&mut p, &profile, &TransformOptions::default());
        assert!(report.converted.is_empty());
        assert_eq!(report.skipped.len(), 1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn shadow_temps_hoist_clobbering_instructions() {
        // r9 is live on the alternate path; without temps the write stays
        // behind, with temps it hoists into a temporary plus a commit move.
        let body = vec![
            Inst::load(Reg(6), Reg(10), 0),
            Inst::alu(AluOp::Add, Reg(9), Operand::Reg(Reg(6)), Operand::Imm(1)),
            Inst::alu(AluOp::Add, Reg(7), Operand::Reg(Reg(9)), Operand::Imm(2)),
        ];
        let clobber: RegSet = [Reg(9)].into_iter().collect();
        // Without temps: the r9 write and its dependant stay behind.
        let split = hoist_prefix(&body, &clobber, 16, true, &mut Vec::new());
        assert_eq!(split.hoisted.len(), 1);
        assert!(split.commits.is_empty());
        // With a temp pool: everything hoists; one commit move recorded.
        let mut temps = vec![Reg(60), Reg(61)];
        let split = hoist_prefix(&body, &clobber, 16, true, &mut temps);
        assert_eq!(split.hoisted.len(), 3, "hoisted {:?}", split.hoisted);
        assert_eq!(split.commits, vec![(Reg(9), Reg(61))]);
        // The hoisted writer and reader both use the temp.
        assert_eq!(split.hoisted[1].dst(), Some(Reg(61)));
        assert!(split.hoisted[2].srcs().contains(&Reg(61)));
    }

    #[test]
    fn shadow_temps_preserve_semantics_under_adversarial_oracles() {
        // A kernel where the taken path writes a register that is live on
        // the fall-through path — only convertible with shadow temps.
        let mut b = ProgramBuilder::new();
        let entry = b.block("entry");
        let head = b.block("head");
        let bb_f = b.block("bb_f");
        let bb_t = b.block("bb_t");
        let latch = b.block("latch");
        let exit = b.block("exit");
        b.push(entry, Inst::mov(Reg(1), Operand::Imm(60)));
        b.push(entry, Inst::mov(Reg(3), Operand::Imm(0x10000)));
        b.push(entry, Inst::mov(Reg(9), Operand::Imm(5))); // live-in both paths
        b.fallthrough(entry, head);
        b.push(head, Inst::load(Reg(4), Reg(3), 0));
        b.push(
            head,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(5),
                a: Reg(4),
                b: Operand::Imm(0),
            },
        );
        b.push(
            head,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(5),
                target: bb_t,
            },
        );
        b.fallthrough(head, bb_f);
        // Fall path READS r9 (so r9 is live-in on the correction path of
        // the taken side).
        b.push(
            bb_f,
            Inst::alu(AluOp::Add, Reg(6), Operand::Reg(Reg(9)), Operand::Imm(1)),
        );
        b.push(bb_f, Inst::store(Reg(6), Reg(3), 0x20000));
        b.push(bb_f, Inst::Jump { target: latch });
        // Taken path WRITES r9 (clobber without temps).
        b.push(
            bb_t,
            Inst::alu(AluOp::Add, Reg(9), Operand::Reg(Reg(9)), Operand::Imm(7)),
        );
        b.push(bb_t, Inst::store(Reg(9), Reg(3), 0x30000));
        b.push(bb_t, Inst::Jump { target: latch });
        b.push(
            latch,
            Inst::alu(AluOp::Add, Reg(3), Operand::Reg(Reg(3)), Operand::Imm(8)),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Sub, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)),
        );
        b.push(
            latch,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(2),
                a: Reg(1),
                b: Operand::Imm(0),
            },
        );
        b.push(
            latch,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(2),
                target: head,
            },
        );
        b.fallthrough(latch, exit);
        b.push(exit, Inst::store(Reg(9), Reg(3), 0x40000));
        b.push(exit, Inst::Halt);
        b.set_entry(entry);
        let p0 = b.finish().unwrap();

        let profile = profile_of(head, 50, 100, 95);
        let opts = TransformOptions {
            shadow_temps: true,
            ..TransformOptions::default()
        };
        let mut p1 = p0.clone();
        let report = decompose_branches(&mut p1, &profile, &opts);
        assert_eq!(report.converted.len(), 1);
        let site = &report.converted[0];
        assert!(site.commit_moves >= 1, "expected a commit move: {site:?}");
        assert!(site.hoisted_taken >= 1);

        let mem = || {
            let mut m = Memory::new();
            let conds: Vec<u64> = (0..60).map(|i| u64::from(i % 3 != 1)).collect();
            m.load_words(0x10000, &conds);
            m.map_region(0x30000, 0x20000);
            m
        };
        let run = |p: &Program, oracle: &mut TakenOracle| {
            let mut i = Interpreter::new(p, mem());
            i.run(oracle).unwrap();
            let snap: Vec<Option<u64>> =
                (0..256).map(|k| i.memory().read(0x30000 + k * 8)).collect();
            (i.reg(Reg(9)), snap)
        };
        let want = run(&p0, &mut TakenOracle::AlwaysTaken);
        for mut oracle in [
            TakenOracle::AlwaysTaken,
            TakenOracle::AlwaysNotTaken,
            TakenOracle::random(42),
        ] {
            assert_eq!(run(&p1, &mut oracle), want, "oracle {oracle:?}");
        }
    }

    #[test]
    fn without_shadow_temps_clobbering_hoists_are_refused() {
        let body = vec![Inst::alu(
            AluOp::Add,
            Reg(9),
            Operand::Reg(Reg(9)),
            Operand::Imm(7),
        )];
        let clobber: RegSet = [Reg(9)].into_iter().collect();
        let split = hoist_prefix(&body, &clobber, 16, true, &mut Vec::new());
        assert!(split.hoisted.is_empty());
        assert_eq!(split.remainder.len(), 1);
    }
}
