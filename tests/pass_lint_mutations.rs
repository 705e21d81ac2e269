//! Mutation tests for the per-pass lint contracts
//! (`vanguard_core::lint_variant`), mirroring `lint_mutations.rs`:
//! genuinely transformed programs must be clean under their own pass's
//! contract, and a program hand-broken in each contract dimension must
//! produce exactly the intended diagnostic. The quick suite additionally
//! runs every benchmark through the full pipeline under *all* passes and
//! requires zero diagnostics.

use vanguard_bench::{quick_spec, BenchScale};
use vanguard_core::{
    apply_transform, lint_variant, Experiment, LintKind, TransformKind, TransformOptions,
};
use vanguard_ir::Profile;
use vanguard_isa::{
    AluOp, BlockId, CmpKind, CondKind, Inst, Operand, Program, ProgramBuilder, Reg,
};
use vanguard_sim::MachineConfig;
use vanguard_workloads::suite;

/// The Figure 6 kernel (memory on both sides — decomposable, not
/// meldable) with an extra pure-ALU hammock ahead of it (meldable, not
/// decomposition-profitable under a cold profile).
fn mixed_kernel() -> (Program, BlockId, BlockId) {
    let mut b = ProgramBuilder::new();
    let entry = b.block("entry");
    let meld_head = b.block("meld_head");
    let mt = b.block("mt");
    let mf = b.block("mf");
    let head = b.block("head");
    let bb_f = b.block("bb_f");
    let bb_t = b.block("bb_t");
    let exit = b.block("exit");

    b.push(entry, Inst::mov(Reg(3), Operand::Imm(0x10000)));
    b.push(entry, Inst::mov(Reg(10), Operand::Imm(0x20000)));
    b.push(entry, Inst::mov(Reg(11), Operand::Imm(0x30000)));
    b.push(entry, Inst::mov(Reg(20), Operand::Imm(1)));
    b.push(entry, Inst::mov(Reg(22), Operand::Imm(50)));
    b.fallthrough(entry, meld_head);

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
    b.push(mt, Inst::Jump { target: head });
    b.push(
        mf,
        Inst::alu(AluOp::Sub, Reg(21), Operand::Reg(Reg(22)), Operand::Imm(7)),
    );
    b.fallthrough(mf, head);

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
    b.push(bb_f, Inst::Jump { target: exit });

    b.push(bb_t, Inst::load(Reg(8), Reg(10), 8));
    b.push(
        bb_t,
        Inst::alu(AluOp::Add, Reg(9), Operand::Reg(Reg(8)), Operand::Imm(2)),
    );
    b.push(bb_t, Inst::store(Reg(9), Reg(11), 8));
    b.push(bb_t, Inst::Jump { target: exit });

    b.push(exit, Inst::Halt);
    b.set_entry(entry);
    (b.finish().unwrap(), meld_head, head)
}

fn profile_of(site: BlockId, taken: u64, total: u64, correct: u64) -> Profile {
    let mut p = Profile::new();
    for i in 0..total {
        p.record(site, i < taken, i < correct);
    }
    p
}

/// Applies `kind` to the mixed kernel under a profile that qualifies the
/// memory diamond; returns (original, transformed).
fn transformed_pair(kind: TransformKind) -> (Program, Program) {
    let (original, _, head) = mixed_kernel();
    let profile = profile_of(head, 60, 100, 95);
    let options = TransformOptions {
        kind,
        ..TransformOptions::default()
    };
    let mut transformed = original.clone();
    let report = apply_transform(&mut transformed, &profile, &options);
    match kind {
        TransformKind::Vanguard | TransformKind::Shadow => {
            assert_eq!(report.converted.len(), 1, "skipped: {:?}", report.skipped)
        }
        TransformKind::Meld => assert_eq!(report.melded, 1),
        TransformKind::Stacked => {
            assert_eq!(report.converted.len(), 1);
            assert_eq!(report.melded, 1);
        }
    }
    (original, transformed)
}

fn kinds_of(kind: TransformKind, original: &Program, transformed: &Program) -> Vec<LintKind> {
    lint_variant(kind, original, transformed)
        .iter()
        .map(|d| d.kind)
        .collect()
}

/// Block id of the block whose name ends with `suffix`.
fn block_named(p: &Program, suffix: &str) -> BlockId {
    p.iter()
        .find(|(_, b)| b.name().ends_with(suffix))
        .map(|(id, _)| id)
        .unwrap_or_else(|| panic!("no block named *{suffix}"))
}

#[test]
fn every_pass_output_is_clean_under_its_contract() {
    for kind in TransformKind::ALL {
        let (original, transformed) = transformed_pair(kind);
        let diags = lint_variant(kind, &original, &transformed);
        assert!(diags.is_empty(), "{kind}: {diags:?}");
    }
}

#[test]
fn quick_suite_all_variants_lint_clean() {
    // Every benchmark, through the full pipeline under every pass
    // (transform → layout → schedule → compact): the shipped program must
    // satisfy its pass's structural contract.
    for spec in suite::all_benchmarks() {
        let mut spec = quick_spec(spec, BenchScale::Quick);
        spec.iterations = spec.iterations.min(150);
        spec.train_iterations = spec.train_iterations.min(150);
        let name = spec.name.clone();
        let w = spec.build();

        let mut exp = Experiment::new(MachineConfig::four_wide());
        let input = vanguard_bench::to_experiment_input(w);
        let profile = exp.profile(&input).expect("profiles cleanly");
        for kind in TransformKind::ALL {
            exp.transform.kind = kind;
            let (baseline, transformed, _) = exp.compile_pair(&input.program, &profile);
            let diags = lint_variant(kind, &baseline, &transformed);
            assert!(diags.is_empty(), "{name}/{kind}: {diags:?}");
        }
    }
}

#[test]
fn vanguard_contract_dispatches_to_the_decomposition_lint() {
    // lint_variant(Vanguard, ..) must be the §3 structural lint: break
    // the sunk-store invariant and expect its diagnostic.
    let (original, mut transformed) = transformed_pair(TransformKind::Vanguard);
    let rt = block_named(&transformed, ".resolve_t");
    let at = transformed.block(rt).insts().len() - 1;
    transformed
        .block_mut(rt)
        .insts_mut()
        .insert(at, Inst::store(Reg(4), Reg(11), 0x40));
    assert_eq!(
        kinds_of(TransformKind::Vanguard, &original, &transformed),
        vec![LintKind::StoreAboveResolve]
    );
}

#[test]
fn stacked_contract_dispatches_to_the_decomposition_lint() {
    // Stacked output is held to the §3 lint alone — not to the meld
    // contract (its predict/resolve would read as residual
    // decomposition) and not to shadow exposure (its hoisted work would
    // read as speculative): the same store mutation yields exactly the
    // sunk-store diagnostic.
    let (original, mut transformed) = transformed_pair(TransformKind::Stacked);
    let rt = block_named(&transformed, ".resolve_t");
    let at = transformed.block(rt).insts().len() - 1;
    transformed
        .block_mut(rt)
        .insts_mut()
        .insert(at, Inst::store(Reg(4), Reg(11), 0x40));
    assert_eq!(
        kinds_of(TransformKind::Stacked, &original, &transformed),
        vec![LintKind::StoreAboveResolve]
    );
}

#[test]
fn meld_mutation_new_store() {
    // Melding may only predicate ALU work; a store the original never had
    // violates side-effect equivalence.
    let (original, mut transformed) = transformed_pair(TransformKind::Meld);
    let head = block_named(&transformed, "meld_head");
    transformed
        .block_mut(head)
        .insts_mut()
        .insert(0, Inst::store(Reg(21), Reg(11), 0x40));
    assert_eq!(
        kinds_of(TransformKind::Meld, &original, &transformed),
        vec![LintKind::MeldStoreGrowth]
    );
}

#[test]
fn meld_mutation_new_branch() {
    // Melding removes branches; one appearing from nowhere means the
    // pass manufactured control flow.
    let (original, mut transformed) = transformed_pair(TransformKind::Meld);
    // Re-add a conditional branch AND delete one of the original's two,
    // so only the no-new-branches direction can fire... adding alone
    // already exceeds the original count since meld removed one.
    let head = block_named(&transformed, "meld_head");
    transformed.block_mut(head).insts_mut().insert(
        0,
        Inst::Branch {
            cond: CondKind::Nz,
            src: Reg(20),
            target: head,
        },
    );
    // One branch was melded away, so count is back to the original's:
    // add a second to exceed it.
    transformed.block_mut(head).insts_mut().insert(
        0,
        Inst::Branch {
            cond: CondKind::Nz,
            src: Reg(20),
            target: head,
        },
    );
    assert_eq!(
        kinds_of(TransformKind::Meld, &original, &transformed),
        vec![LintKind::MeldBranchGrowth]
    );
}

#[test]
fn meld_mutation_residual_decomposition() {
    // A meld pass must never emit predict/resolve: lint a *decomposed*
    // program under the meld contract.
    let (original, decomposed) = transformed_pair(TransformKind::Vanguard);
    let ks = kinds_of(TransformKind::Meld, &original, &decomposed);
    assert!(
        ks.contains(&LintKind::MeldResidualDecomposition),
        "expected meld-residual-decomposition in {ks:?}"
    );
}

#[test]
fn shadow_mutation_speculative_work() {
    // Shadow exposure moves no computation: any non-slice instruction in
    // a resolution block breaks the decode-model consistency contract.
    let (original, clean) = transformed_pair(TransformKind::Shadow);
    assert!(lint_variant(TransformKind::Shadow, &original, &clean).is_empty());
    let mut broken = clean.clone();
    let rt = block_named(&broken, ".resolve_t");
    broken.block_mut(rt).insts_mut().insert(
        0,
        Inst::alu(AluOp::Add, Reg(25), Operand::Reg(Reg(22)), Operand::Imm(1)),
    );
    let ks = kinds_of(TransformKind::Shadow, &original, &broken);
    assert!(
        ks.contains(&LintKind::ShadowSpeculativeWork),
        "expected shadow-speculative-work in {ks:?}"
    );
}

#[test]
fn shadow_output_does_no_code_motion() {
    // The shadow pass's report must show zero hoisting and its program
    // zero speculative loads — that is what distinguishes it from the
    // full decomposition.
    let (_, transformed) = transformed_pair(TransformKind::Shadow);
    let spec_loads = transformed
        .iter()
        .flat_map(|(_, b)| b.insts())
        .filter(|i| {
            matches!(
                i,
                Inst::Load {
                    speculative: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(spec_loads, 0, "shadow exposure hoisted loads");
}
