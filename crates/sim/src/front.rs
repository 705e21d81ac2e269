//! The 5-stage front end: fetch, prediction, and the Decomposed Branch
//! Buffer.

use crate::config::MachineConfig;
use crate::stats::SimStats;
use std::collections::VecDeque;
use std::sync::Arc;
use vanguard_bpred::{Btb, DecomposedBranchBuffer, DirectionPredictor, PredMeta, Ras};
use vanguard_isa::{BlockId, DecodedImage, FuClass, Inst, NO_INST};
use vanguard_mem::{AccessKind, Level, MemSystem};

/// Prediction state attached to a fetched conditional.
#[derive(Clone, Copy, Debug)]
pub enum PredInfo {
    /// A conventional branch: the predictor metadata and direction chosen
    /// at fetch.
    Branch {
        /// Predictor metadata for the later update.
        meta: PredMeta,
        /// Direction the front end followed.
        predicted_taken: bool,
    },
    /// A `resolve`: always predicted not-taken; carries the DBB index that
    /// associates it with its `predict` (Figure 7b).
    Resolve {
        /// DBB tail index read at decode.
        dbb_index: usize,
    },
}

/// One reversible call-stack mutation, recorded at fetch so a
/// misprediction flush can restore the stack without snapshotting it.
#[derive(Clone, Copy, Debug)]
enum JournalOp {
    /// A `call` pushed a frame.
    Pushed,
    /// A `ret` popped this return block.
    Popped(BlockId),
}

/// Front-end state captured at the fetch of every conditional, restored on
/// a misprediction re-steer (the paper notes branch history and the DBB
/// tail are recovered by the same mechanism).
///
/// `Copy`: the call stack itself is not cloned per conditional; the flush
/// path instead rewinds the undo journal to `journal_mark`.
#[derive(Clone, Copy, Debug)]
pub struct FetchSnapshot {
    /// DBB tail pointer.
    pub dbb_tail: usize,
    /// Hardware RAS depth (the entry contents are re-derived from the
    /// perfect call stack, modelling a checkpointed top-of-stack pointer).
    pub ras_depth: usize,
    /// Call-stack journal length at capture time.
    pub journal_mark: usize,
}

/// `LaneMeta::ctrl` value: no control significance at issue.
pub(crate) const CTRL_OTHER: u8 = 0;
/// `LaneMeta::ctrl` value: a conventional `Branch`.
pub(crate) const CTRL_BRANCH: u8 = 1;
/// `LaneMeta::ctrl` value: a `Resolve`.
pub(crate) const CTRL_RESOLVE: u8 = 2;
/// `LaneMeta::ctrl` value: a `Halt`.
pub(crate) const CTRL_HALT: u8 = 3;

/// Issue-stage metadata for one buffered instruction: a packed
/// structure-of-arrays lane kept in lockstep with the fetch buffer so the
/// per-cycle ready/scoreboard/port checks — which re-run every cycle the
/// head stalls — touch 16 contiguous bytes instead of the much larger
/// [`FetchedInst`] (and never re-derive source registers or the FU class
/// through `match`es on the instruction encoding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LaneMeta {
    /// Cycle at which the instruction clears the front end (mirrors
    /// `FetchedInst::ready_cycle`).
    pub ready: u64,
    /// Source registers read at issue ([`LaneMeta::NO_SRC`] = unused).
    pub srcs: [u8; 2],
    /// Functional-unit class.
    pub fu: FuClass,
    /// Control class at issue (`CTRL_*`).
    pub ctrl: u8,
}

impl LaneMeta {
    /// Sentinel for an unused source slot (no architectural register has
    /// this index).
    pub(crate) const NO_SRC: u8 = u8::MAX;

    /// Derives the lane metadata for `inst` becoming issue-eligible at
    /// `ready`.
    pub(crate) fn of(inst: &Inst, ready: u64) -> LaneMeta {
        let mut srcs = [LaneMeta::NO_SRC; 2];
        let mut n = 0usize;
        inst.visit_srcs(|r| {
            debug_assert!(n < 2, "no instruction reads more than two registers");
            srcs[n] = r.index() as u8;
            n += 1;
        });
        let ctrl = match inst {
            Inst::Branch { .. } => CTRL_BRANCH,
            Inst::Resolve { .. } => CTRL_RESOLVE,
            Inst::Halt => CTRL_HALT,
            _ => CTRL_OTHER,
        };
        LaneMeta {
            ready,
            srcs,
            fu: inst.fu_class(),
            ctrl,
        }
    }
}

/// An instruction waiting in the fetch buffer.
#[derive(Clone, Copy, Debug)]
pub struct FetchedInst {
    /// The instruction.
    pub inst: Inst,
    /// Containing block.
    pub block: BlockId,
    /// Index within the block.
    pub index: usize,
    /// Code address.
    pub pc: u64,
    /// Cycle at which it clears the front end and becomes issue-eligible.
    pub ready_cycle: u64,
    /// Prediction state (conditionals only).
    pub pred: Option<PredInfo>,
    /// Front-end snapshot (conditionals only).
    pub snapshot: Option<FetchSnapshot>,
}

/// The front end: fetch PC, fetch buffer, predictor, BTB, RAS, DBB, and
/// the perfect call stack used to model a translated machine's precise
/// return handling.
///
/// Fetch walks a shared pre-decoded [`DecodedImage`] — the fetch PC is a
/// flat instruction index and fall-through chains cost nothing at run
/// time.
pub struct FrontEnd {
    image: Arc<DecodedImage>,
    config: MachineConfig,
    /// Next fetch position: flat index into the decoded image.
    pc: u32,
    /// Decoded instructions awaiting issue.
    pub(crate) buffer: VecDeque<FetchedInst>,
    /// Issue-stage lane metadata, in lockstep with `buffer` (see
    /// [`LaneMeta`]): the only per-entry state the issue stage reads
    /// until an instruction actually issues.
    pub(crate) meta: VecDeque<LaneMeta>,
    /// Per-flat-index [`LaneMeta`] with `ready = 0`, precomputed at
    /// construction ([`LaneMeta`] is instruction-determined except for
    /// the ready cycle, which fetch patches in).
    meta_tpl: Box<[LaneMeta]>,
    pub(crate) predictor: Box<dyn DirectionPredictor>,
    pub(crate) dbb: DecomposedBranchBuffer,
    btb: Btb,
    ras: Ras,
    call_stack: Vec<BlockId>,
    /// Undo log of speculative call-stack mutations since the last
    /// compaction; snapshots reference a position in it.
    journal: Vec<JournalOp>,
    /// Buffered instructions currently carrying a snapshot (compaction
    /// is legal only when this is zero and no redirect is pending).
    snapshots_in_buffer: usize,
    /// Fetch is blocked until this cycle (I$ miss or BTB bubble).
    stall_until: u64,
    /// Set when a `halt` (or an unresolvable wrong-path `ret`) was fetched.
    halted: bool,
    /// Line containing the last fetched instruction (I$ access filter).
    last_line: Option<u64>,
    /// True from a flush until the first I$ line access completes
    /// (measures the §6.1 miss-under-mispredict conjunction).
    redirect_window: bool,
}

impl std::fmt::Debug for FrontEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("pc", &self.pc)
            .field("buffer_len", &self.buffer.len())
            .field("stall_until", &self.stall_until)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl FrontEnd {
    /// Creates a front end positioned at the program entry.
    pub fn new(
        image: Arc<DecodedImage>,
        config: MachineConfig,
        predictor: Box<dyn DirectionPredictor>,
    ) -> Self {
        // Issue metadata is a pure function of the instruction, so it is
        // derived once per flat index here; fetch then copies 16 bytes
        // per instruction instead of re-matching the encoding.
        let meta_tpl = image
            .insts()
            .iter()
            .map(|di| LaneMeta::of(&di.inst, 0))
            .collect();
        FrontEnd {
            pc: image.entry_index(),
            image,
            config,
            buffer: VecDeque::with_capacity(config.fetch_buffer),
            meta: VecDeque::with_capacity(config.fetch_buffer),
            meta_tpl,
            predictor,
            dbb: DecomposedBranchBuffer::new(config.dbb_entries),
            btb: Btb::table1_default(),
            ras: Ras::table1_default(),
            call_stack: Vec::new(),
            journal: Vec::new(),
            snapshots_in_buffer: 0,
            stall_until: 0,
            halted: false,
            last_line: None,
            redirect_window: false,
        }
    }

    /// The decoded image fetch walks (shared with the issue stage).
    pub fn image(&self) -> &DecodedImage {
        &self.image
    }

    /// The oldest buffered instruction, if any.
    pub fn head(&self) -> Option<&FetchedInst> {
        self.buffer.front()
    }

    /// Removes and returns the oldest buffered instruction.
    pub fn pop(&mut self) -> Option<FetchedInst> {
        let fi = self.buffer.pop_front();
        if let Some(fi) = &fi {
            self.meta.pop_front();
            debug_assert_eq!(self.meta.len(), self.buffer.len(), "meta lane in lockstep");
            if fi.snapshot.is_some() {
                self.snapshots_in_buffer -= 1;
            }
        }
        fi
    }

    /// Issue-stage metadata of the oldest buffered instruction.
    pub(crate) fn head_meta(&self) -> Option<LaneMeta> {
        self.meta.front().copied()
    }

    fn snapshot(&self) -> FetchSnapshot {
        FetchSnapshot {
            dbb_tail: self.dbb.tail(),
            ras_depth: self.ras.depth(),
            journal_mark: self.journal.len(),
        }
    }

    /// Runs one fetch cycle: up to `width` instructions, stopping at taken
    /// steers, I$ miss stalls, a full fetch buffer, or `halt`.
    pub(crate) fn fetch_cycle(&mut self, cycle: u64, mem: &mut MemSystem, stats: &mut SimStats) {
        if self.halted {
            return;
        }
        if cycle < self.stall_until {
            stats.icache_stall_cycles += 1;
            return;
        }
        let mut slots = self.config.width;
        while slots > 0 && self.buffer.len() < self.config.fetch_buffer {
            assert!(
                self.pc != NO_INST,
                "validated program: fall-through present"
            );
            let di = *self.image.get(self.pc);
            let pc = di.pc;

            // Instruction cache: one access per line transition.
            let line = pc >> 6;
            if self.last_line != Some(line) {
                let acc = mem.access(cycle, pc, AccessKind::InstFetch);
                let was_redirect_window = self.redirect_window;
                self.redirect_window = false;
                if acc.level != Level::L1 {
                    if was_redirect_window {
                        stats.icache_miss_under_mispredict += 1;
                    }
                    self.stall_until = acc.complete;
                    self.last_line = Some(line);
                    stats.icache_stall_cycles += 1;
                    return;
                }
                self.last_line = Some(line);
            }

            stats.fetched += 1;
            slots -= 1;

            match di.inst {
                Inst::Predict { target } => {
                    stats.predicts += 1;
                    let meta = self.predictor.predict(pc);
                    let predicted_taken = meta.taken;
                    self.dbb.insert(pc, meta);
                    if predicted_taken {
                        if self.steer(cycle, pc, target) {
                            return;
                        }
                        break; // taken steer ends the fetch group
                    }
                    self.pc = di.next;
                }
                Inst::Branch { target, .. } => {
                    let snapshot = self.snapshot();
                    let meta = self.predictor.predict(pc);
                    let predicted_taken = meta.taken;
                    self.push_fetched(
                        &di,
                        cycle,
                        Some(PredInfo::Branch {
                            meta,
                            predicted_taken,
                        }),
                        Some(snapshot),
                    );
                    if predicted_taken {
                        if self.steer(cycle, pc, target) {
                            return;
                        }
                        break;
                    }
                    self.pc = di.next;
                }
                Inst::Resolve { .. } => {
                    // Always predicted not-taken; tagged with the DBB tail.
                    let snapshot = self.snapshot();
                    let dbb_index = self.dbb.tail();
                    self.push_fetched(
                        &di,
                        cycle,
                        Some(PredInfo::Resolve { dbb_index }),
                        Some(snapshot),
                    );
                    self.pc = di.next;
                }
                Inst::Jump { target } => {
                    if self.steer(cycle, pc, target) {
                        return;
                    }
                    break;
                }
                Inst::Call { callee, ret_to } => {
                    self.call_stack.push(ret_to);
                    self.journal.push(JournalOp::Pushed);
                    self.ras.push(self.image.block_start(ret_to));
                    if self.steer(cycle, pc, callee) {
                        return;
                    }
                    break;
                }
                Inst::Ret => {
                    self.ras.pop();
                    match self.call_stack.pop() {
                        Some(ret) => {
                            self.journal.push(JournalOp::Popped(ret));
                            if self.steer(cycle, pc, ret) {
                                return;
                            }
                        }
                        None => {
                            // Wrong-path return past the top frame: fetch
                            // cannot proceed; wait to be flushed.
                            self.halted = true;
                        }
                    }
                    break;
                }
                Inst::Halt => {
                    self.push_fetched(&di, cycle, None, None);
                    self.halted = true;
                    break;
                }
                _ => {
                    self.push_fetched(&di, cycle, None, None);
                    self.pc = di.next;
                }
            }
        }
    }

    fn push_fetched(
        &mut self,
        di: &vanguard_isa::DecodedInst,
        cycle: u64,
        pred: Option<PredInfo>,
        snapshot: Option<FetchSnapshot>,
    ) {
        if snapshot.is_some() {
            self.snapshots_in_buffer += 1;
        }
        let ready_cycle = cycle + self.config.fe_latency();
        // `self.pc` still indexes the instruction being pushed: every
        // fetch arm advances the pc only after pushing.
        let mut m = self.meta_tpl[self.pc as usize];
        m.ready = ready_cycle;
        self.meta.push_back(m);
        self.buffer.push_back(FetchedInst {
            inst: di.inst,
            block: di.block,
            index: di.index as usize,
            pc: di.pc,
            ready_cycle,
            pred,
            snapshot,
        });
    }

    /// Redirects fetch to `target`; returns `true` if a BTB miss inserted a
    /// one-cycle steer bubble (which ends the fetch cycle immediately).
    fn steer(&mut self, cycle: u64, from_pc: u64, target: BlockId) -> bool {
        self.pc = self.image.block_entry(target);
        self.last_line = None;
        let target_addr = self.image.block_start(target);
        if self.btb.lookup(from_pc) != Some(target_addr) {
            self.btb.insert(from_pc, target_addr);
            // Decode-stage steer: one bubble cycle.
            self.stall_until = cycle + 2;
            return true;
        }
        false
    }

    /// Squashes all buffered instructions and re-steers fetch after a
    /// misprediction, restoring the snapshot captured at the mispredicting
    /// conditional's fetch. The call stack is rewound by replaying the
    /// undo journal in reverse down to the snapshot's mark.
    pub fn flush(&mut self, target: BlockId, snap: &FetchSnapshot, resume_cycle: u64) {
        self.buffer.clear();
        self.meta.clear();
        self.snapshots_in_buffer = 0;
        self.pc = self.image.block_entry(target);
        self.dbb.recover_tail(snap.dbb_tail);
        while self.journal.len() > snap.journal_mark {
            match self.journal.pop().expect("journal longer than mark") {
                JournalOp::Pushed => {
                    self.call_stack.pop();
                }
                JournalOp::Popped(b) => self.call_stack.push(b),
            }
        }
        // Rebuild the hardware RAS to the snapshot depth (entry contents
        // are re-derived from the perfect stack, modelling a checkpointed
        // top-of-stack pointer).
        self.ras.clear();
        for &b in &self.call_stack {
            self.ras.push(self.image.block_start(b));
        }
        self.stall_until = resume_cycle;
        self.halted = false;
        self.last_line = None;
        self.redirect_window = true;
    }

    /// Discards the dead journal prefix. Legal only when no live snapshot
    /// references it: the caller must ensure no redirect is pending; the
    /// buffered-snapshot count is checked here.
    pub(crate) fn compact_journal(&mut self) {
        if self.snapshots_in_buffer == 0 {
            self.journal.clear();
        }
    }

    /// True when fetch has stopped at a `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;
    use vanguard_bpred::Combined;
    use vanguard_isa::{CondKind, Program, ProgramBuilder, Reg};
    use vanguard_mem::{MemConfig, MemSystem};

    fn front_for(p: &Program) -> (FrontEnd, MemSystem, SimStats) {
        let fe = FrontEnd::new(
            Arc::new(DecodedImage::build(p)),
            MachineConfig::four_wide(),
            Box::new(Combined::ptlsim_default()),
        );
        (
            fe,
            MemSystem::new(MemConfig::table1_default()),
            SimStats::default(),
        )
    }

    fn straightline() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        for _ in 0..6 {
            b.push(e, Inst::Nop);
        }
        b.push(e, Inst::Halt);
        b.set_entry(e);
        b.finish().unwrap()
    }

    #[test]
    fn fetch_fills_the_buffer_at_width_per_cycle() {
        let p = straightline();
        let (mut fe, mut mem, mut stats) = front_for(&p);
        // Cycle 0: cold I$ miss stalls fetch.
        fe.fetch_cycle(0, &mut mem, &mut stats);
        assert_eq!(fe.buffer.len(), 0);
        assert!(stats.icache_stall_cycles > 0);
        // After the fill completes, width instructions per cycle.
        let resume = 200;
        fe.fetch_cycle(resume, &mut mem, &mut stats);
        assert_eq!(fe.buffer.len(), 4);
        fe.fetch_cycle(resume + 1, &mut mem, &mut stats);
        assert_eq!(fe.buffer.len(), 7); // 6 nops + halt
        assert!(fe.is_halted());
    }

    #[test]
    fn ready_cycle_reflects_front_end_depth() {
        let p = straightline();
        let (mut fe, mut mem, mut stats) = front_for(&p);
        fe.fetch_cycle(0, &mut mem, &mut stats); // cold I$ fill
        fe.fetch_cycle(200, &mut mem, &mut stats);
        let head = fe.head().expect("fetched");
        assert_eq!(head.ready_cycle, 200 + 4);
    }

    #[test]
    fn taken_branch_prediction_ends_the_fetch_group() {
        // entry: br (trained taken) -> target far away.
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let t = b.block("target");
        let f = b.block("fall");
        b.push(e, Inst::Nop);
        b.push(
            e,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(1),
                target: t,
            },
        );
        b.fallthrough(e, f);
        b.push(f, Inst::Halt);
        b.push(t, Inst::Nop);
        b.push(t, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        let (mut fe, mut mem, mut stats) = front_for(&p);
        // Warm the I$ then fetch: nop + branch fetched; the branch is
        // predicted not-taken cold, so fetch continues at the fall-through
        // within the same group.
        fe.fetch_cycle(0, &mut mem, &mut stats);
        fe.fetch_cycle(200, &mut mem, &mut stats);
        assert!(fe.buffer.len() >= 2);
        let kinds: Vec<_> = fe.buffer.iter().map(|fi| fi.inst.mnemonic()).collect();
        assert!(kinds.contains(&"br.nz"));
    }

    #[test]
    fn flush_clears_buffer_and_resteers() {
        let p = straightline();
        let (mut fe, mut mem, mut stats) = front_for(&p);
        fe.fetch_cycle(0, &mut mem, &mut stats); // cold I$ fill
        fe.fetch_cycle(200, &mut mem, &mut stats);
        assert!(!fe.buffer.is_empty());
        let snap = FetchSnapshot {
            dbb_tail: 0,
            ras_depth: 0,
            journal_mark: 0,
        };
        fe.flush(p.entry(), &snap, 300);
        assert!(fe.buffer.is_empty());
        assert!(!fe.is_halted());
        // Fetch resumes at the redirect cycle, not before.
        fe.fetch_cycle(299, &mut mem, &mut stats);
        assert!(fe.buffer.is_empty());
        fe.fetch_cycle(300, &mut mem, &mut stats);
        assert!(!fe.buffer.is_empty());
    }

    #[test]
    fn fetch_buffer_capacity_is_respected() {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let l = b.block("loop");
        b.push(e, Inst::Nop);
        b.fallthrough(e, l);
        for _ in 0..8 {
            b.push(l, Inst::Nop);
        }
        b.push(l, Inst::Jump { target: l });
        b.set_entry(e);
        let p = b.finish().unwrap();
        let (mut fe, mut mem, mut stats) = front_for(&p);
        for c in 0..300 {
            fe.fetch_cycle(c, &mut mem, &mut stats);
        }
        assert!(fe.buffer.len() <= MachineConfig::four_wide().fetch_buffer);
    }

    #[test]
    fn flush_rewinds_the_call_stack_via_the_journal() {
        // entry: call f; f: branch (snapshot) then ret; after: halt.
        // Fetch past the call, snapshot at the branch, keep fetching
        // through the ret (journal records the pop), then flush back to
        // the snapshot: the call stack must again hold the frame.
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let f = b.block("callee");
        let t = b.block("t");
        let r = b.block("after");
        b.push(
            e,
            Inst::Call {
                callee: f,
                ret_to: r,
            },
        );
        b.push(
            f,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(1),
                target: t,
            },
        );
        b.fallthrough(f, t);
        b.push(t, Inst::Ret);
        b.push(r, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        let (mut fe, mut mem, mut stats) = front_for(&p);
        // Drive fetch until the ret's return block has been entered
        // (the halt after the ret marks it).
        for c in 0..2000 {
            fe.fetch_cycle(c, &mut mem, &mut stats);
            if fe.is_halted() {
                break;
            }
        }
        assert!(fe.is_halted(), "fetch must reach the halt after ret");
        assert_eq!(fe.call_stack.len(), 0);
        let snap = fe
            .buffer
            .iter()
            .find_map(|fi| fi.snapshot)
            .expect("branch captured a snapshot");
        fe.flush(f, &snap, 0);
        // The ret's pop was rewound: the frame pushed by the call is live.
        assert_eq!(fe.call_stack, vec![r]);
        assert_eq!(fe.ras.depth(), 1);
        assert_eq!(fe.journal.len(), snap.journal_mark);
    }

    #[test]
    fn journal_compacts_when_no_snapshots_are_live() {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let f = b.block("callee");
        let r = b.block("after");
        b.push(
            e,
            Inst::Call {
                callee: f,
                ret_to: r,
            },
        );
        b.push(f, Inst::Ret);
        b.push(r, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        let (mut fe, mut mem, mut stats) = front_for(&p);
        for c in 0..2000 {
            fe.fetch_cycle(c, &mut mem, &mut stats);
            if fe.is_halted() {
                break;
            }
        }
        assert!(!fe.journal.is_empty(), "call/ret journalled");
        assert_eq!(fe.snapshots_in_buffer, 0);
        fe.compact_journal();
        assert!(fe.journal.is_empty());
    }
}
