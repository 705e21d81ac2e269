//! The issue/execute core: scoreboarded in-order issue with speculative
//! wrong-path execution and checkpoint rollback.

use crate::config::MachineConfig;
use crate::front::{FetchSnapshot, FrontEnd, PredInfo};
use crate::stats::SimStats;
use crate::store_buffer::StoreBuffer;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use vanguard_isa::{
    eval_alu, BlockId, DecodedImage, FpOp, FuClass, Inst, Memory, Operand, Program, NUM_ARCH_REGS,
};
use vanguard_mem::{AccessKind, MemSystem};

/// Why the simulation stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// A `halt` instruction committed.
    Halted,
    /// The cycle budget ran out (see [`Simulator::set_cycle_budget`]):
    /// a runaway guest, or a run cut short on purpose.
    TimedOut,
}

/// The cycle budget of a simulator nobody sets one on: a safety stop
/// for runaway guests, far past any workload's run.
pub const DEFAULT_CYCLE_BUDGET: u64 = 2_000_000_000;

/// Simulation errors (architectural faults on the committed path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A committed non-speculative load touched an unmapped address.
    LoadFault {
        /// Faulting address.
        addr: u64,
        /// Program counter of the load.
        pc: u64,
    },
    /// A committed `resolve` found no valid DBB entry *and* the program
    /// had no outstanding `predict` (compiler bug, not an exceptional
    /// control-flow artifact).
    OrphanResolve {
        /// Program counter of the resolve.
        pc: u64,
    },
    /// The decoded image violated a structural invariant the front end
    /// relies on (e.g. a conditional without a fall-through successor, or
    /// a front-end-only instruction reaching issue). Always a compiler or
    /// decoder bug, surfaced as a trap so a bad program cannot abort the
    /// host process.
    MalformedImage {
        /// Program counter of the offending instruction.
        pc: u64,
        /// The violated invariant.
        detail: &'static str,
    },
}

impl SimError {
    /// Program counter the fault was detected at.
    pub fn pc(&self) -> u64 {
        match *self {
            SimError::LoadFault { pc, .. }
            | SimError::OrphanResolve { pc }
            | SimError::MalformedImage { pc, .. } => pc,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LoadFault { addr, pc } => {
                write!(f, "committed load fault at {addr:#x} (pc {pc:#x})")
            }
            SimError::OrphanResolve { pc } => write!(f, "orphan resolve at pc {pc:#x}"),
            SimError::MalformedImage { pc, detail } => {
                write!(f, "malformed image at pc {pc:#x}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A [`SimError`] plus the cycle it was detected at, from
/// [`Simulator::run_checked`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimFault {
    /// The architectural fault.
    pub error: SimError,
    /// Cycle the fault was detected at.
    pub cycle: u64,
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at cycle {}", self.error, self.cycle)
    }
}

impl std::error::Error for SimFault {}

/// A pipeline trace event, delivered to [`Simulator::run_traced`]'s sink
/// in cycle order. Intended for debugging schedules and for pipeline
/// visualisation; the no-trace path pays nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction issued.
    Issue {
        /// Cycle of issue.
        cycle: u64,
        /// Code address.
        pc: u64,
        /// Mnemonic of the issued instruction.
        mnemonic: &'static str,
        /// Whether it was issued on a path later squashed.
        wrong_path: bool,
    },
    /// A misprediction redirect was applied (flush + re-steer).
    Flush {
        /// Cycle the flush took effect.
        cycle: u64,
        /// Re-steer target block.
        target: BlockId,
    },
    /// A `resolve` detected a misprediction.
    ResolveMispredict {
        /// Cycle of detection.
        cycle: u64,
        /// Resolve's code address.
        pc: u64,
    },
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Collected statistics.
    pub stats: SimStats,
    /// Final architectural register file.
    pub regs: [u64; NUM_ARCH_REGS],
    /// Final architectural memory image.
    pub memory: Memory,
    /// Why the run ended.
    pub stop: StopCause,
}

/// Per-stage wall-clock attribution for the pipeline hot loop, collected
/// by [`Simulator::run_profiled`].
///
/// This simulator executes instructions at issue, so the issue and
/// execute stages are one bucket (`issue_ns`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotloopProfile {
    /// Nanoseconds in the fetch stage (I$ probes, prediction, steers).
    pub fetch_ns: u64,
    /// Nanoseconds in the fused issue/execute stage.
    pub issue_ns: u64,
    /// Nanoseconds committing stores (store-buffer drain).
    pub commit_ns: u64,
    /// Nanoseconds of batch-entry work (stop checks, redirect
    /// application, journal compaction) and of idle-cycle
    /// fast-forward jumps.
    pub other_ns: u64,
    /// Cycles simulated, fast-forwarded ones included (equals
    /// [`SimStats::cycles`]).
    pub cycles: u64,
}

impl HotloopProfile {
    /// Total attributed nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.fetch_ns + self.issue_ns + self.commit_ns + self.other_ns
    }

    /// Accumulates another profile into this one (for multi-job sums).
    pub fn merge(&mut self, other: &HotloopProfile) {
        self.fetch_ns += other.fetch_ns;
        self.issue_ns += other.issue_ns;
        self.commit_ns += other.commit_ns;
        self.other_ns += other.other_ns;
        self.cycles += other.cycles;
    }
}

/// Trace sink type (see [`Simulator::run_traced`]).
type TraceSink<'t> = Box<dyn FnMut(&TraceEvent) + 't>;

pub(crate) struct PendingRedirect {
    redirect_cycle: u64,
    target: BlockId,
    regs: [u64; NUM_ARCH_REGS],
    reg_ready: [u64; NUM_ARCH_REGS],
    store_seq: u64,
    snapshot: FetchSnapshot,
    /// Predictor-history repair applied at flush time (fetches made while
    /// the redirect was in flight polluted speculative history).
    repair: Option<(vanguard_bpred::PredMeta, bool)>,
}

/// The cycle-level in-order superscalar simulator.
///
/// See the crate docs for the pipeline model. Construct with a program, an
/// initial memory image, a [`MachineConfig`], and a direction predictor;
/// drive with [`run`](Self::run). Simulations of the same program can share
/// one pre-decoded image via [`with_image`](Self::with_image).
pub struct Simulator<'t> {
    pub(crate) config: MachineConfig,
    pub(crate) front: FrontEnd,
    pub(crate) mem_sys: MemSystem,
    pub(crate) memory: Memory,
    pub(crate) regs: [u64; NUM_ARCH_REGS],
    pub(crate) reg_ready: [u64; NUM_ARCH_REGS],
    pub(crate) store_buffer: StoreBuffer,
    pub(crate) stats: SimStats,
    pub(crate) cycle: u64,
    pub(crate) next_seq: u64,
    pub(crate) pending: Option<PendingRedirect>,
    pub(crate) halted: bool,
    trace: Option<TraceSink<'t>>,
    /// Cycle budget: reaching it stops the run with
    /// [`StopCause::TimedOut`].
    pub(crate) cycle_budget: u64,
    /// Jump over idle cycles instead of ticking them (see
    /// [`Simulator::set_fast_forward`]).
    fast_forward: bool,
}

impl<'t> fmt::Debug for Simulator<'t> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("halted", &self.halted)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'t> Simulator<'t> {
    /// Creates a simulator over `program` with the given initial data
    /// memory, machine configuration, and direction predictor.
    ///
    /// Decodes the program into a private flat image; callers running many
    /// simulations of one program should decode once and use
    /// [`with_image`](Self::with_image).
    pub fn new(
        program: &Program,
        memory: Memory,
        config: MachineConfig,
        predictor: Box<dyn vanguard_bpred::DirectionPredictor>,
    ) -> Self {
        Simulator::with_image(
            Arc::new(DecodedImage::build(program)),
            memory,
            config,
            predictor,
        )
    }

    /// Creates a simulator over a shared pre-decoded program image.
    pub fn with_image(
        image: Arc<DecodedImage>,
        memory: Memory,
        config: MachineConfig,
        predictor: Box<dyn vanguard_bpred::DirectionPredictor>,
    ) -> Self {
        Simulator {
            config,
            front: FrontEnd::new(image, config, predictor),
            mem_sys: MemSystem::new(config.mem),
            memory,
            regs: [0; NUM_ARCH_REGS],
            reg_ready: [0; NUM_ARCH_REGS],
            store_buffer: StoreBuffer::new(),
            stats: SimStats::default(),
            cycle: 0,
            next_seq: 0,
            pending: None,
            halted: false,
            trace: None,
            cycle_budget: DEFAULT_CYCLE_BUDGET,
            fast_forward: true,
        }
    }

    /// Sets an initial register value (before [`run`](Self::run)).
    pub fn set_reg(&mut self, r: vanguard_isa::Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Replaces the cycle budget ([`DEFAULT_CYCLE_BUDGET`] until set).
    /// The run stops at exactly that cycle with [`StopCause::TimedOut`],
    /// partial statistics intact, instead of spinning forever on a
    /// wedged guest.
    pub fn set_cycle_budget(&mut self, cycles: u64) {
        self.cycle_budget = cycles;
    }

    /// Turns idle-cycle fast-forward on (the default) or off. Off, the
    /// run ticks every cycle: the per-cycle reference that tests and the
    /// fuzzer compare fast-forwarded runs against. Both give the same
    /// [`SimResult`], statistics included.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Runs to completion, delivering [`TraceEvent`]s to `sink`.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on a committed-path architectural fault.
    pub fn run_traced(mut self, sink: impl FnMut(&TraceEvent) + 't) -> Result<SimResult, SimError> {
        self.trace = Some(Box::new(sink));
        self.run()
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on a committed-path architectural fault.
    pub fn run(self) -> Result<SimResult, SimError> {
        self.run_checked().map_err(|f| f.error)
    }

    /// Runs to completion, reporting faults with the cycle they were
    /// detected at (the engine's entry point: fault context feeds
    /// `JobResult::Faulted`).
    ///
    /// # Errors
    ///
    /// Returns a [`SimFault`] on a committed-path architectural fault.
    pub fn run_checked(mut self) -> Result<SimResult, SimFault> {
        let mut prof = HotloopProfile::default();
        let stop = self.run_loop::<false>(&mut prof)?;
        Ok(self.into_result(stop))
    }

    /// Runs to completion like [`run_checked`](Self::run_checked), also
    /// collecting per-stage wall-clock attribution for the hot loop. The
    /// per-cycle timestamping costs real time; use only for profiling.
    ///
    /// # Errors
    ///
    /// Returns a [`SimFault`] on a committed-path architectural fault.
    pub fn run_profiled(mut self) -> Result<(SimResult, HotloopProfile), SimFault> {
        let mut prof = HotloopProfile::default();
        let stop = self.run_loop::<true>(&mut prof)?;
        Ok((self.into_result(stop), prof))
    }

    /// The per-cycle loop, restructured as batches: all cold per-cycle
    /// branch-outs (stop conditions, redirect apply, journal compaction)
    /// run once at batch entry, then a fused fetch/issue/commit fast
    /// path runs until the next cold event. The batch limit is the
    /// earliest of the cycle budget, the next 4096-cycle boundary, and a
    /// pending redirect's due cycle; a halt or a newly-scheduled
    /// redirect ends the batch early. The boundary exists for the
    /// front end's call-stack undo journal: batch entry is where it is
    /// compacted, so a long redirect-free stretch cannot grow it past
    /// 4096 cycles of calls and returns. Every cold check therefore fires at exactly the cycles the
    /// per-cycle loop fired it at, so the restructuring is
    /// cycle-for-cycle invisible.
    ///
    /// Idle cycles are fast-forwarded: after a cycle that neither fetched
    /// nor issued, with no redirect pending, every following cycle
    /// repeats it until the wake cycle [`idle_wake`](Self::idle_wake)
    /// computes (capped at the batch limit). The loop jumps there and
    /// adds the idle cycle's stall-counter increments once per skipped
    /// cycle. Store-buffer drains skipped on the way land at the wake
    /// cycle instead, which no load can see: loads forward from the
    /// buffer first, and a squash only drops stores younger than the
    /// redirecting branch.
    fn run_loop<const PROFILE: bool>(
        &mut self,
        prof: &mut HotloopProfile,
    ) -> Result<StopCause, SimFault> {
        loop {
            let mut mark = if PROFILE { Some(Instant::now()) } else { None };
            if self.halted {
                return Ok(StopCause::Halted);
            }
            if self.cycle >= self.cycle_budget {
                return Ok(StopCause::TimedOut);
            }
            // Apply a due misprediction redirect.
            if let Some(p) = &self.pending {
                if p.redirect_cycle <= self.cycle {
                    let p = self.pending.take().expect("just checked");
                    self.regs = p.regs;
                    self.reg_ready = p.reg_ready;
                    self.store_buffer.squash_from(p.store_seq);
                    self.front.flush(p.target, &p.snapshot, self.cycle);
                    if let Some((meta, taken)) = p.repair {
                        self.front.predictor.repair_history(&meta, taken);
                    }
                    if let Some(t) = self.trace.as_mut() {
                        t(&TraceEvent::Flush {
                            cycle: self.cycle,
                            target: p.target,
                        });
                    }
                }
            }
            // With no redirect in flight and no snapshot buffered, the
            // call-stack undo journal has no live reference: drop it.
            if self.pending.is_none() {
                self.front.compact_journal();
            }
            if PROFILE {
                let now = Instant::now();
                prof.other_ns += (now - mark.expect("profiling")).as_nanos() as u64;
                mark = Some(now);
            }
            let mut limit = self.cycle_budget.min((self.cycle | 0xFFF) + 1);
            if let Some(p) = &self.pending {
                limit = limit.min(p.redirect_cycle);
            }
            while self.cycle < limit {
                let active = (self.stats.fetched, self.stats.issued);
                let stalls = self.stats.stall_counters();
                // Fetch.
                self.front
                    .fetch_cycle(self.cycle, &mut self.mem_sys, &mut self.stats);
                if PROFILE {
                    let now = Instant::now();
                    prof.fetch_ns += (now - mark.expect("profiling")).as_nanos() as u64;
                    mark = Some(now);
                }
                // Issue (and execute: this pipeline executes at issue).
                if let Err(error) = self.issue_cycle() {
                    return Err(SimFault {
                        error,
                        cycle: self.cycle,
                    });
                }
                if PROFILE {
                    let now = Instant::now();
                    prof.issue_ns += (now - mark.expect("profiling")).as_nanos() as u64;
                    mark = Some(now);
                }
                // Commit stores that can no longer be squashed: any older
                // conditional has redirected by now (redirect window is
                // redirect_latency + 1 cycles).
                if self.pending.is_none() {
                    let safety = u64::from(self.config.redirect_latency) + 2;
                    if self.cycle >= safety {
                        self.store_buffer
                            .drain_older_than(self.cycle - safety, &mut self.memory);
                    }
                }
                self.cycle += 1;
                if PROFILE {
                    prof.cycles += 1;
                    let now = Instant::now();
                    prof.commit_ns += (now - mark.expect("profiling")).as_nanos() as u64;
                    mark = Some(now);
                }
                if self.halted || self.pending.is_some() {
                    break;
                }
                if self.fast_forward && active == (self.stats.fetched, self.stats.issued) {
                    let wake = self.idle_wake(limit);
                    if wake > self.cycle {
                        let skipped = wake - self.cycle;
                        self.stats.repeat_stalls(stalls, skipped);
                        self.cycle = wake;
                        if PROFILE {
                            prof.cycles += skipped;
                            let now = Instant::now();
                            prof.other_ns += (now - mark.expect("profiling")).as_nanos() as u64;
                            mark = Some(now);
                        }
                    }
                }
            }
        }
    }

    /// The cycle an idle machine next acts at, capped at `limit`, called
    /// after the idle cycle `self.cycle - 1`: the earliest of fetch's
    /// wake ([`FrontEnd::idle_until`]) and the issue head's. A head not
    /// yet through the front end wakes at its `ready` cycle; one that is
    /// waits on its latest source operand. Both comparisons are `>=`: a
    /// head whose `ready` is exactly `self.cycle` counted a front-end
    /// stall in the idle cycle but is checked for operands next, so that
    /// cycle must be ticked.
    fn idle_wake(&self, limit: u64) -> u64 {
        let cycle = self.cycle;
        let mut wake = limit.min(self.front.idle_until(cycle));
        if let Some(m) = self.front.head_meta() {
            let head = if m.ready >= cycle {
                m.ready
            } else {
                m.srcs
                    .iter()
                    .filter(|&&s| s != crate::front::LaneMeta::NO_SRC)
                    .map(|&s| self.reg_ready[s as usize])
                    .fold(cycle, u64::max)
            };
            wake = wake.min(head);
        }
        wake
    }

    /// Drains outstanding stores and packages the final architectural
    /// state (shared epilogue of the run entry points).
    fn into_result(mut self, stop: StopCause) -> SimResult {
        self.store_buffer.drain_all(&mut self.memory);
        self.stats.cycles = self.cycle;
        self.stats.mem = self.mem_sys.stats();
        SimResult {
            stats: self.stats,
            regs: self.regs,
            memory: self.memory,
            stop,
        }
    }

    fn fallthrough_of(&self, block: BlockId, pc: u64) -> Result<BlockId, SimError> {
        self.front
            .image()
            .fall_of(block)
            .ok_or(SimError::MalformedImage {
                pc,
                detail: "conditional has no fall-through successor",
            })
    }

    fn issue_cycle(&mut self) -> Result<(), SimError> {
        let mut issued = 0usize;
        let mut int_slots = self.config.fu_int;
        let mut ldst_slots = self.config.fu_ldst;
        let mut fp_slots = self.config.fu_fp;

        while issued < self.config.width {
            // The stall checks below re-run every cycle the head waits;
            // they read only the packed issue lane ([`LaneMeta`]), not
            // the decoded instruction, which is read once from the image
            // at the actual issue.
            let Some(m) = self.front.head_meta() else {
                if issued == 0 {
                    self.stats.frontend_stall_cycles += 1;
                }
                break;
            };
            if m.ready > self.cycle {
                if issued == 0 {
                    self.stats.frontend_stall_cycles += 1;
                }
                break;
            }
            // A halt at the head: commit it only on the correct path.
            if m.ctrl == crate::front::CTRL_HALT {
                if self.pending.is_none() {
                    self.stats.issued += 1;
                    self.halted = true;
                }
                break;
            }
            // Operand readiness (scoreboard), from the pre-extracted
            // source-register lane.
            let blocked = m.srcs.iter().any(|&s| {
                s != crate::front::LaneMeta::NO_SRC && self.reg_ready[s as usize] > self.cycle
            });
            if blocked {
                if issued == 0 {
                    self.stats.operand_stall_cycles += 1;
                    // Attribute the stall to a branch resolution when one is
                    // imminent: the blocked head is the branch itself or an
                    // instruction feeding a branch/resolve a few slots away
                    // (the classic `load → cmp → br` serialization).
                    for lm in self.front.meta.iter().take(4) {
                        match lm.ctrl {
                            crate::front::CTRL_BRANCH => {
                                self.stats.branch_stall_cycles += 1;
                                break;
                            }
                            crate::front::CTRL_RESOLVE => {
                                self.stats.resolve_stall_cycles += 1;
                                break;
                            }
                            _ => {}
                        }
                    }
                }
                break;
            }
            // Functional-unit port availability.
            let slot = match m.fu {
                FuClass::Int => &mut int_slots,
                FuClass::LdSt => &mut ldst_slots,
                FuClass::Fp => &mut fp_slots,
                FuClass::None => {
                    // Front-end-only instructions never reach issue; Halt is
                    // handled above. Nothing else should appear.
                    return Err(SimError::MalformedImage {
                        pc: self.front.head().map_or(0, |h| h.pc),
                        detail: "front-end-only instruction in fetch buffer",
                    });
                }
            };
            if *slot == 0 {
                if issued == 0 {
                    self.stats.fu_stall_cycles += 1;
                }
                break;
            }
            *slot -= 1;

            let idx = self.front.pop().expect("head exists");
            let di = *self.front.image().get(idx);
            let wrong_path = self.pending.is_some();
            self.stats.issued += 1;
            self.stats.issued_wrong_path += wrong_path as u64;
            issued += 1;
            if let Some(t) = self.trace.as_mut() {
                t(&TraceEvent::Issue {
                    cycle: self.cycle,
                    pc: di.pc,
                    mnemonic: di.inst.mnemonic(),
                    wrong_path,
                });
            }
            let seq = self.next_seq;
            self.next_seq += 1;

            match di.inst {
                Inst::Alu { op, dst, a, b } => {
                    let av = self.operand(a);
                    let bv = self.operand(b);
                    self.regs[dst.index()] = eval_alu(op, av, bv);
                    self.reg_ready[dst.index()] = self.cycle + u64::from(di.inst.base_latency());
                }
                Inst::Fp { op, dst, a, b } => {
                    let av = f64::from_bits(self.regs[a.index()]);
                    let bv = f64::from_bits(self.regs[b.index()]);
                    let r = match op {
                        FpOp::Add => av + bv,
                        FpOp::Sub => av - bv,
                        FpOp::Mul => av * bv,
                        FpOp::Div => av / bv,
                    };
                    self.regs[dst.index()] = r.to_bits();
                    self.reg_ready[dst.index()] = self.cycle + u64::from(di.inst.base_latency());
                }
                Inst::Cmp { kind, dst, a, b } => {
                    let av = self.regs[a.index()];
                    let bv = self.operand(b);
                    self.regs[dst.index()] = kind.eval(av, bv) as u64;
                    self.reg_ready[dst.index()] = self.cycle + 1;
                }
                Inst::Load {
                    dst,
                    base,
                    offset,
                    speculative,
                } => {
                    let addr = self.regs[base.index()].wrapping_add(offset as u64);
                    let value = match self.store_buffer.forward(addr) {
                        Some(v) => Some(v),
                        None => self.memory.read(addr),
                    };
                    let value = match value {
                        Some(v) => v,
                        None if speculative || wrong_path => 0,
                        None => {
                            return Err(SimError::LoadFault { addr, pc: di.pc });
                        }
                    };
                    self.regs[dst.index()] = value;
                    let acc = self.mem_sys.access(self.cycle, addr, AccessKind::Load);
                    self.reg_ready[dst.index()] = acc.complete;
                }
                Inst::Store { src, base, offset } => {
                    let addr = self.regs[base.index()].wrapping_add(offset as u64);
                    self.store_buffer
                        .push(addr, self.regs[src.index()], seq, self.cycle);
                    // Timing: write-allocate probe; completion never blocks.
                    let _ = self.mem_sys.access(self.cycle, addr, AccessKind::Store);
                }
                Inst::Branch { cond, src, target } => {
                    let taken = cond.eval(self.regs[src.index()]);
                    let Some((
                        PredInfo::Branch {
                            meta,
                            predicted_taken,
                        },
                        snapshot,
                    )) = self.front.pop_cond()
                    else {
                        return Err(SimError::MalformedImage {
                            pc: di.pc,
                            detail: "branch fetched without prediction",
                        });
                    };
                    if !wrong_path {
                        self.stats.branches += 1;
                        self.front.predictor.update(di.pc, &meta, taken);
                        if taken != predicted_taken {
                            self.stats.branch_mispredicts += 1;
                            let dest = if taken {
                                target
                            } else {
                                self.fallthrough_of(di.block, di.pc)?
                            };
                            self.schedule_redirect(dest, seq + 1, snapshot, Some((meta, taken)));
                        }
                    }
                }
                Inst::Resolve { cond, src, target } => {
                    let mispredicted = cond.eval(self.regs[src.index()]);
                    let Some((PredInfo::Resolve { dbb_index }, snapshot)) = self.front.pop_cond()
                    else {
                        return Err(SimError::MalformedImage {
                            pc: di.pc,
                            detail: "resolve fetched without DBB index",
                        });
                    };
                    if !wrong_path {
                        self.stats.resolves += 1;
                        // Train the predict instruction's entry via the DBB.
                        if let Some(entry) = self.front.dbb.get(dbb_index) {
                            let actual = entry.meta.taken ^ mispredicted;
                            self.front
                                .predictor
                                .update(entry.predict_pc, &entry.meta, actual);
                        }
                        if mispredicted {
                            self.stats.resolve_mispredicts += 1;
                            if let Some(t) = self.trace.as_mut() {
                                t(&TraceEvent::ResolveMispredict {
                                    cycle: self.cycle,
                                    pc: di.pc,
                                });
                            }
                            // History repair uses the *predict* site's meta.
                            let repair = self
                                .front
                                .dbb
                                .get(dbb_index)
                                .map(|e| (e.meta, e.meta.taken ^ mispredicted));
                            self.schedule_redirect(target, seq + 1, snapshot, repair);
                        }
                    }
                }
                Inst::Nop => {}
                Inst::Jump { .. }
                | Inst::Predict { .. }
                | Inst::Call { .. }
                | Inst::Ret
                | Inst::Halt => {
                    return Err(SimError::MalformedImage {
                        pc: di.pc,
                        detail: "front-end-only instruction issued",
                    });
                }
            }
        }
        Ok(())
    }

    fn schedule_redirect(
        &mut self,
        target: BlockId,
        store_seq: u64,
        snapshot: FetchSnapshot,
        repair: Option<(vanguard_bpred::PredMeta, bool)>,
    ) {
        debug_assert!(self.pending.is_none());
        self.stats.redirects += 1;
        self.pending = Some(PendingRedirect {
            redirect_cycle: self.cycle + 1 + u64::from(self.config.redirect_latency),
            target,
            regs: self.regs,
            reg_ready: self.reg_ready,
            store_seq,
            snapshot,
            repair,
        });
    }

    fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(v) => v as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanguard_bpred::Combined;
    use vanguard_isa::{AluOp, CmpKind, CondKind, Interpreter, ProgramBuilder, Reg, TakenOracle};

    fn run_sim(p: &Program, mem: Memory, init: &[(Reg, u64)]) -> SimResult {
        let mut sim = Simulator::new(
            p,
            mem,
            MachineConfig::four_wide(),
            Box::new(Combined::ptlsim_default()),
        );
        for &(r, v) in init {
            sim.set_reg(r, v);
        }
        sim.run().expect("simulation fault")
    }

    fn straightline(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        for i in 0..n {
            b.push(
                e,
                Inst::alu(
                    AluOp::Add,
                    Reg(1),
                    Operand::Reg(Reg(1)),
                    Operand::Imm(i as i64 + 1),
                ),
            );
        }
        b.push(e, Inst::Halt);
        b.set_entry(e);
        b.finish().unwrap()
    }

    #[test]
    fn straightline_dependent_chain_is_serial() {
        let p = straightline(32);
        let r = run_sim(&p, Memory::new(), &[]);
        assert_eq!(r.stop, StopCause::Halted);
        // Each add depends on the previous: ~1 IPC despite 4-wide.
        assert!(r.stats.cycles >= 32, "cycles {}", r.stats.cycles);
        let expected: u64 = (1..=32).sum();
        assert_eq!(r.regs[1], expected);
    }

    fn independent_adds(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        for i in 0..n {
            b.push(
                e,
                Inst::alu(
                    AluOp::Add,
                    Reg((1 + (i % 2)) as u8),
                    Operand::Imm(i as i64),
                    Operand::Imm(1),
                ),
            );
        }
        b.push(e, Inst::Halt);
        b.set_entry(e);
        b.finish().unwrap()
    }

    /// A loop repeating `body` 50 times (warms the I$ after iteration 1).
    fn looped(body: Vec<Inst>) -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let l = b.block("loop");
        let x = b.block("exit");
        b.push(e, Inst::mov(Reg(10), Operand::Imm(50)));
        b.fallthrough(e, l);
        b.push_all(l, body);
        b.push(
            l,
            Inst::alu(AluOp::Sub, Reg(10), Operand::Reg(Reg(10)), Operand::Imm(1)),
        );
        b.push(
            l,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(11),
                a: Reg(10),
                b: Operand::Imm(0),
            },
        );
        b.push(
            l,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(11),
                target: l,
            },
        );
        b.fallthrough(l, x);
        b.push(x, Inst::Halt);
        b.set_entry(e);
        b.finish().unwrap()
    }

    #[test]
    fn independent_work_uses_int_ports() {
        // In a warm loop, 16 serial adds are 1-per-cycle while 16
        // independent adds dual-issue on the 2 INT ports.
        let serial: Vec<Inst> = (0..16)
            .map(|_| Inst::alu(AluOp::Add, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)))
            .collect();
        let par: Vec<Inst> = (0..16)
            .map(|i| {
                Inst::alu(
                    AluOp::Add,
                    Reg(1 + (i % 2) as u8),
                    Operand::Imm(i),
                    Operand::Imm(1),
                )
            })
            .collect();
        let rs = run_sim(&looped(serial), Memory::new(), &[]);
        let rp = run_sim(&looped(par), Memory::new(), &[]);
        assert!(
            rs.stats.cycles >= rp.stats.cycles + 200,
            "serial {} parallel {}",
            rs.stats.cycles,
            rp.stats.cycles
        );
    }

    fn countdown_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.push(e, Inst::mov(Reg(1), Operand::Imm(iters)));
        b.fallthrough(e, body);
        b.push(
            body,
            Inst::alu(AluOp::Sub, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)),
        );
        b.push(
            body,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(2),
                a: Reg(1),
                b: Operand::Imm(0),
            },
        );
        b.push(
            body,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(2),
                target: body,
            },
        );
        b.fallthrough(body, exit);
        b.push(exit, Inst::Halt);
        b.set_entry(e);
        b.finish().unwrap()
    }

    #[test]
    fn loop_commits_correct_state_and_counts_branches() {
        let p = countdown_loop(100);
        let r = run_sim(&p, Memory::new(), &[]);
        assert_eq!(r.regs[1], 0);
        assert_eq!(r.stats.branches, 100);
        // The final exit is mispredicted (predictor learns "taken").
        assert!(r.stats.branch_mispredicts >= 1);
        assert!(r.stats.branch_mispredicts <= 5);
    }

    #[test]
    fn budgets_stop_the_run_at_exactly_the_budget_cycle() {
        // The budget bounds the pipeline batches: a run cut mid-loop
        // must stop at the budget cycle, not at the end of a batch.
        let p = countdown_loop(5000);
        for budget in [4000, 3500] {
            let mut sim = Simulator::new(
                &p,
                Memory::new(),
                MachineConfig::four_wide(),
                Box::new(Combined::ptlsim_default()),
            );
            sim.set_cycle_budget(budget);
            let r = sim.run().expect("budget-limited run");
            assert_eq!((r.stop, r.stats.cycles), (StopCause::TimedOut, budget));
        }
    }

    #[test]
    fn matches_interpreter_on_a_loop_with_memory() {
        // Store the loop counter each iteration; compare final state.
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.push(e, Inst::mov(Reg(1), Operand::Imm(50)));
        b.push(e, Inst::mov(Reg(3), Operand::Imm(0x8000)));
        b.fallthrough(e, body);
        b.push(
            body,
            Inst::alu(AluOp::Sub, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)),
        );
        b.push(body, Inst::store(Reg(1), Reg(3), 0));
        b.push(
            body,
            Inst::alu(AluOp::Add, Reg(3), Operand::Reg(Reg(3)), Operand::Imm(8)),
        );
        b.push(
            body,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(2),
                a: Reg(1),
                b: Operand::Imm(0),
            },
        );
        b.push(
            body,
            Inst::Branch {
                cond: CondKind::Nz,
                src: Reg(2),
                target: body,
            },
        );
        b.fallthrough(body, exit);
        b.push(exit, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();

        let mut interp = Interpreter::new(&p, Memory::new());
        interp.run(&mut TakenOracle::AlwaysTaken).unwrap();

        let r = run_sim(&p, Memory::new(), &[]);
        assert_eq!(&r.regs[..8], &interp.regs()[..8]);
        for i in 0..50u64 {
            let addr = 0x8000 + i * 8;
            assert_eq!(
                r.memory.read(addr),
                interp.memory().read(addr),
                "@{addr:#x}"
            );
        }
    }

    #[test]
    fn misprediction_costs_cycles() {
        // Data-dependent unpredictable branch: compare cycles against a
        // perfectly-biased branch with the same structure.
        fn hammock(pattern_addr: u64) -> Program {
            let mut b = ProgramBuilder::new();
            let e = b.block("entry");
            let head = b.block("head");
            let taken = b.block("taken");
            let join = b.block("join");
            let exit = b.block("exit");
            b.push(e, Inst::mov(Reg(1), Operand::Imm(200)));
            b.push(e, Inst::mov(Reg(3), Operand::Imm(pattern_addr as i64)));
            b.fallthrough(e, head);
            b.push(head, Inst::load(Reg(4), Reg(3), 0));
            b.push(
                head,
                Inst::alu(AluOp::Add, Reg(3), Operand::Reg(Reg(3)), Operand::Imm(8)),
            );
            b.push(
                head,
                Inst::Branch {
                    cond: CondKind::Nz,
                    src: Reg(4),
                    target: taken,
                },
            );
            b.fallthrough(head, join);
            b.push(
                taken,
                Inst::alu(AluOp::Add, Reg(5), Operand::Reg(Reg(5)), Operand::Imm(1)),
            );
            b.fallthrough(taken, join);
            b.push(
                join,
                Inst::alu(AluOp::Sub, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)),
            );
            b.push(
                join,
                Inst::Cmp {
                    kind: CmpKind::Ne,
                    dst: Reg(2),
                    a: Reg(1),
                    b: Operand::Imm(0),
                },
            );
            b.push(
                join,
                Inst::Branch {
                    cond: CondKind::Nz,
                    src: Reg(2),
                    target: head,
                },
            );
            b.fallthrough(join, exit);
            b.push(exit, Inst::Halt);
            b.set_entry(e);
            b.finish().unwrap()
        }

        // Truly pseudo-random pattern vs all-zero pattern.
        let mut mem_rand = Memory::new();
        let mut x = 0x243f6a8885a308d3u64;
        let noisy: Vec<u64> = (0..200u64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1
            })
            .collect();
        mem_rand.load_words(0x10000, &noisy);
        let mut mem_zero = Memory::new();
        mem_zero.load_words(0x10000, &vec![0u64; 200]);

        let p = hammock(0x10000);
        let r_noisy = run_sim(&p, mem_rand, &[]);
        let r_zero = run_sim(&p, mem_zero, &[]);
        assert!(
            r_noisy.stats.branch_mispredicts > 20,
            "mispredicts {}",
            r_noisy.stats.branch_mispredicts
        );
        assert!(r_zero.stats.branch_mispredicts < 10);
        assert!(
            r_noisy.stats.cycles > r_zero.stats.cycles + 100,
            "noisy {} zero {}",
            r_noisy.stats.cycles,
            r_zero.stats.cycles
        );
        // Wrong-path instructions were issued and rolled back.
        assert!(r_noisy.stats.issued_wrong_path > 0);
        // And the architectural result is identical to the interpreter's.
        let mut mem_rand2 = Memory::new();
        mem_rand2.load_words(0x10000, &noisy);
        let mut interp = Interpreter::new(&p, mem_rand2);
        interp.run(&mut TakenOracle::AlwaysNotTaken).unwrap();
        assert_eq!(r_noisy.regs[5], interp.reg(Reg(5)));
    }

    #[test]
    fn decomposed_branch_trains_and_redirects() {
        // predict/resolve hammock driven by a memory pattern; verify
        // resolve mispredicts redirect to correction code and final state
        // matches the interpreter under any oracle.
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let head = b.block("head");
        let t_res = b.block("t_resolve");
        let nt_res = b.block("nt_resolve");
        let t_join = b.block("t_join");
        let nt_join = b.block("nt_join");
        let corr_t = b.block("correct_t");
        let corr_nt = b.block("correct_nt");
        let latch = b.block("latch");
        let exit = b.block("exit");

        b.push(e, Inst::mov(Reg(1), Operand::Imm(300)));
        b.push(e, Inst::mov(Reg(3), Operand::Imm(0x10000)));
        b.fallthrough(e, head);

        // head: predict over "taken iff mem[r3] != 0".
        b.push(head, Inst::Predict { target: t_res });
        b.fallthrough(head, nt_res);

        // predicted-taken resolution block.
        b.push(t_res, Inst::load(Reg(4), Reg(3), 0));
        b.push(
            t_res,
            Inst::Cmp {
                kind: CmpKind::Eq,
                dst: Reg(5),
                a: Reg(4),
                b: Operand::Imm(0),
            },
        );
        b.push(
            t_res,
            Inst::Resolve {
                cond: CondKind::Nz,
                src: Reg(5),
                target: corr_nt,
            },
        );
        b.fallthrough(t_res, t_join);

        // predicted-not-taken resolution block.
        b.push(nt_res, Inst::load(Reg(4), Reg(3), 0));
        b.push(
            nt_res,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: Reg(5),
                a: Reg(4),
                b: Operand::Imm(0),
            },
        );
        b.push(
            nt_res,
            Inst::Resolve {
                cond: CondKind::Nz,
                src: Reg(5),
                target: corr_t,
            },
        );
        b.fallthrough(nt_res, nt_join);

        b.push(
            t_join,
            Inst::alu(AluOp::Add, Reg(6), Operand::Reg(Reg(6)), Operand::Imm(1)),
        );
        b.push(t_join, Inst::Jump { target: latch });
        b.push(
            nt_join,
            Inst::alu(AluOp::Add, Reg(7), Operand::Reg(Reg(7)), Operand::Imm(1)),
        );
        b.push(nt_join, Inst::Jump { target: latch });
        b.push(
            corr_t,
            Inst::alu(AluOp::Add, Reg(6), Operand::Reg(Reg(6)), Operand::Imm(1)),
        );
        b.push(corr_t, Inst::Jump { target: latch });
        b.push(
            corr_nt,
            Inst::alu(AluOp::Add, Reg(7), Operand::Reg(Reg(7)), Operand::Imm(1)),
        );
        b.push(corr_nt, Inst::Jump { target: latch });

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
        b.push(exit, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();

        // 80%-taken pattern with some noise.
        let pattern: Vec<u64> = (0..300u64)
            .map(|i| u64::from((i * 2654435761) % 10 < 8))
            .collect();
        let takens: u64 = pattern.iter().sum();

        let mut mem = Memory::new();
        mem.load_words(0x10000, &pattern);
        let r = run_sim(&p, mem, &[]);
        assert_eq!(r.stop, StopCause::Halted);
        assert_eq!(r.stats.resolves, 300);
        assert_eq!(r.regs[6], takens, "taken-path counter");
        assert_eq!(r.regs[7], 300 - takens, "not-taken-path counter");
        // The predictor learned the dominant direction through the DBB, so
        // resolve mispredicts are well below the 50% a static predictor
        // would see for an 80/20 branch predicted not-taken.
        assert!(
            r.stats.resolve_mispredicts < 130,
            "resolve mispredicts {}",
            r.stats.resolve_mispredicts
        );
        assert!(r.stats.resolve_mispredicts > 0);
        assert_eq!(
            r.stats.predicts,
            u64::from(r.stats.predicts > 0) * r.stats.predicts
        );
    }

    #[test]
    fn call_ret_roundtrip() {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let f = b.block("callee");
        let r = b.block("after");
        b.push(f, Inst::mov(Reg(3), Operand::Imm(9)));
        b.push(f, Inst::Ret);
        b.push(
            e,
            Inst::Call {
                callee: f,
                ret_to: r,
            },
        );
        b.push(r, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        let res = run_sim(&p, Memory::new(), &[]);
        assert_eq!(res.regs[3], 9);
    }

    #[test]
    fn committed_load_fault_is_an_error() {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        b.push(e, Inst::load(Reg(1), Reg(0), 0x5000));
        b.push(e, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        let sim = Simulator::new(
            &p,
            Memory::new(),
            MachineConfig::four_wide(),
            Box::new(Combined::ptlsim_default()),
        );
        assert!(matches!(sim.run(), Err(SimError::LoadFault { .. })));
    }

    #[test]
    fn speculative_load_to_unmapped_commits_zero() {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        b.push(e, Inst::load_spec(Reg(1), Reg(0), 0x5000));
        b.push(e, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        let r = run_sim(&p, Memory::new(), &[]);
        assert_eq!(r.regs[1], 0);
    }

    #[test]
    fn wider_machines_are_not_slower() {
        let p = independent_adds(128);
        let run_width = |cfg: MachineConfig| {
            Simulator::new(&p, Memory::new(), cfg, Box::new(Combined::ptlsim_default()))
                .run()
                .unwrap()
                .stats
                .cycles
        };
        let c2 = run_width(MachineConfig::two_wide());
        let c4 = run_width(MachineConfig::four_wide());
        let c8 = run_width(MachineConfig::eight_wide());
        // 2 INT ports bound all widths ≥ 2, so gains saturate, but wider
        // machines must never lose cycles.
        assert!(c4 <= c2, "4-wide {c4} vs 2-wide {c2}");
        assert!(c8 <= c4, "8-wide {c8} vs 4-wide {c4}");
    }

    #[test]
    fn load_latency_stalls_dependent_consumer() {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        b.push(e, Inst::mov(Reg(1), Operand::Imm(0x9000)));
        b.push(e, Inst::store(Reg(1), Reg(1), 0));
        b.push(e, Inst::load(Reg(2), Reg(1), 0));
        b.push(
            e,
            Inst::alu(AluOp::Add, Reg(3), Operand::Reg(Reg(2)), Operand::Imm(1)),
        );
        b.push(e, Inst::Halt);
        b.set_entry(e);
        let p = b.finish().unwrap();
        let r = run_sim(&p, Memory::new(), &[]);
        assert_eq!(r.regs[3], 0x9001);
        assert!(
            r.stats.operand_stall_cycles >= 3,
            "stalls {}",
            r.stats.operand_stall_cycles
        );
    }
}

#[cfg(test)]
mod fast_forward_tests {
    use super::*;
    use vanguard_bpred::{Combined, DirectionPredictor, PredMeta};
    use vanguard_isa::parse_program;

    /// Predicts every branch taken, so a branch's first fetch steers
    /// with a BTB miss: a two-cycle fetch bubble.
    #[derive(Debug)]
    struct AlwaysTaken;

    impl DirectionPredictor for AlwaysTaken {
        fn predict(&mut self, _pc: u64) -> PredMeta {
            PredMeta::taken_only(true)
        }
        fn update(&mut self, _pc: u64, _meta: &PredMeta, _taken: bool) {}
        fn name(&self) -> &'static str {
            "always-taken"
        }
        fn storage_bits(&self) -> usize {
            0
        }
        fn reset(&mut self) {}
    }

    /// Head of a four-load DRAM pointer chase (one miss per link).
    const CHASE: u64 = 0x10_0000;

    fn chase_memory() -> Memory {
        let mut mem = Memory::new();
        for link in 0..4u64 {
            mem.load_words(CHASE + link * CHASE, &[CHASE + (link + 1) * CHASE]);
        }
        mem
    }

    fn simulate(p: &Program, config: MachineConfig, fast_forward: bool) -> SimResult {
        let mut sim = Simulator::new(p, chase_memory(), config, Box::new(AlwaysTaken));
        sim.set_fast_forward(fast_forward);
        sim.run().expect("no fault")
    }

    /// Runs `p` with fast-forward on and off and requires identical
    /// results; returns the fast-forwarded one.
    fn assert_exact(p: &Program, config: MachineConfig) -> SimResult {
        let on = simulate(p, config, true);
        let off = simulate(p, config, false);
        assert_eq!(on.stop, off.stop);
        assert_eq!(on.stats, off.stats);
        assert_eq!(on.regs, off.regs);
        assert_eq!(on.memory.written_words(), off.memory.written_words());
        on
    }

    #[test]
    fn full_buffer_whose_fetch_stall_ends_during_a_head_stall() {
        // The head waits ~180 cycles on a DRAM load while fetch fills a
        // small buffer. The entry that fills it is a branch predicted
        // taken with a BTB miss: fetch stalls two cycles (each counted
        // as an I$ stall cycle) with the buffer already full. The idle
        // cycle before the stall expires bumps the I$ counter, the one
        // at expiry does not, so the skip must not start until then.
        // The filler length moves the branch across the buffer's last
        // slot.
        let mut config = MachineConfig::four_wide();
        config.fetch_buffer = 6;
        for filler in 0..8 {
            let nops = "    nop\n".repeat(filler);
            let p = parse_program(&format!(
                "bb0 <entry>:\n    mov r9, #1\n    mov r3, #{CHASE}\n    ld r4, [r3+0]\n    \
                 add r5, r4, #1\n{nops}    br.nz r9, bb2\n    ; fallthrough -> bb1\n\
                 bb1 <fall>:\n    halt\nbb2 <taken>:\n    halt\n"
            ))
            .unwrap();
            let r = assert_exact(&p, config);
            assert!(r.stats.icache_stall_cycles > 0 && r.stats.operand_stall_cycles > 100);
        }
    }

    #[test]
    fn head_becomes_front_end_ready_while_its_operand_is_blocked() {
        // A DRAM load issues, then a branch predicted taken falls
        // through, redirecting fetch to `add r5, r4, #1`, which needs the
        // load. Fetch refills, halts
        // at the `halt` after the filler, and the head's front-end
        // latency ends while the load is still in flight: the cycle the
        // head turns ready switches the stall from front-end to operand,
        // so it must be ticked. The filler length moves the fetch halt
        // relative to that cycle.
        for filler in 0..12 {
            let nops = "    nop\n".repeat(filler);
            let p = parse_program(&format!(
                "bb0 <entry>:\n    mov r9, #0\n    mov r3, #{CHASE}\n    ld r4, [r3+0]\n    \
                 br.nz r9, bb2\n    ; fallthrough -> bb1\nbb1 <fall>:\n    add r5, r4, #1\n\
                 {nops}    halt\nbb2 <taken>:\n    halt\n"
            ))
            .unwrap();
            let r = assert_exact(&p, MachineConfig::four_wide());
            assert_eq!(r.stats.branch_mispredicts, 1);
            assert!(r.stats.operand_stall_cycles > 100);
        }
    }

    #[test]
    fn budgets_inside_a_dram_chain_stop_at_exactly_the_budget_cycle() {
        // Four dependent DRAM loads idle the core for ~700 cycles; both
        // budgets fall inside that stretch, where fast-forward jumps.
        // Each budgeted run must match its per-cycle reference exactly.
        let p = parse_program(&format!(
            "bb0 <entry>:\n    mov r1, #{CHASE}\n    ld r1, [r1+0]\n    ld r1, [r1+0]\n    \
             ld r1, [r1+0]\n    ld r1, [r1+0]\n    halt\n"
        ))
        .unwrap();
        let full = assert_exact(&p, MachineConfig::four_wide());
        assert!(full.stats.cycles > 520, "cycles {}", full.stats.cycles);
        for budget in [433, 517] {
            let run = |fast_forward| {
                let mut sim = Simulator::new(
                    &p,
                    chase_memory(),
                    MachineConfig::four_wide(),
                    Box::new(Combined::ptlsim_default()),
                );
                sim.set_fast_forward(fast_forward);
                sim.set_cycle_budget(budget);
                sim.run().unwrap()
            };
            let (on, off) = (run(true), run(false));
            assert_eq!((on.stop, on.stats.cycles), (StopCause::TimedOut, budget));
            assert_eq!(on.stats, off.stats);
            assert_eq!(on.regs, off.regs);
            assert_eq!(on.memory.written_words(), off.memory.written_words());
        }
    }

    #[test]
    fn run_profiled_matches_run_and_counts_skipped_cycles() {
        let p = parse_program(&format!(
            "bb0 <entry>:\n    mov r1, #{CHASE}\n    ld r1, [r1+0]\n    ld r1, [r1+0]\n    \
             halt\n"
        ))
        .unwrap();
        let new = || {
            Simulator::new(
                &p,
                chase_memory(),
                MachineConfig::four_wide(),
                Box::new(Combined::ptlsim_default()),
            )
        };
        let plain = new().run().unwrap();
        let (profiled, prof) = new().run_profiled().unwrap();
        assert_eq!(profiled.stats, plain.stats);
        assert_eq!(prof.cycles, plain.stats.cycles);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use vanguard_bpred::Combined;
    use vanguard_isa::{parse_program, Memory};

    #[test]
    fn trace_reports_issues_in_cycle_order() {
        let p = parse_program(
            r"
bb0 <entry>:
    mov r1, #1
    add r2, r1, #2
    halt
",
        )
        .unwrap();
        let sim = Simulator::new(
            &p,
            Memory::new(),
            MachineConfig::four_wide(),
            Box::new(Combined::ptlsim_default()),
        );
        let mut events = Vec::new();
        sim.run_traced(|e| events.push(*e)).unwrap();
        let issues: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Issue {
                    cycle, mnemonic, ..
                } => Some((*cycle, *mnemonic)),
                _ => None,
            })
            .collect();
        // mov + add; halt commits at the head without an Issue event.
        assert_eq!(issues.len(), 2);
        assert_eq!(issues[0].1, "mov");
        assert_eq!(issues[1].1, "add");
        // Cycle-ordered.
        for w in issues.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn trace_reports_flushes_on_mispredicts() {
        // A data-driven branch with an unpredictable pattern.
        let p = parse_program(
            r"
bb0 <entry>:
    mov r1, #64
    mov r3, #4096
    ; fallthrough -> bb1
bb1 <head>:
    ld r4, [r3+0]
    cmp.ne r5, r4, #0
    br.nz r5, bb3
    ; fallthrough -> bb2
bb2 <fall>:
    jmp bb4
bb3 <taken>:
    ; fallthrough -> bb4
bb4 <latch>:
    add r3, r3, #8
    sub r1, r1, #1
    cmp.ne r2, r1, #0
    br.nz r2, bb1
    ; fallthrough -> bb5
bb5 <exit>:
    halt
",
        )
        .unwrap();
        let mut mem = Memory::new();
        let mut x = 0xabcdefu64;
        let conds: Vec<u64> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1
            })
            .collect();
        mem.load_words(4096, &conds);
        let sim = Simulator::new(
            &p,
            mem,
            MachineConfig::four_wide(),
            Box::new(Combined::ptlsim_default()),
        );
        let mut flushes = 0;
        let mut wrong_path_issues = 0;
        let r = sim
            .run_traced(|e| match e {
                TraceEvent::Flush { .. } => flushes += 1,
                TraceEvent::Issue {
                    wrong_path: true, ..
                } => wrong_path_issues += 1,
                _ => {}
            })
            .unwrap();
        assert_eq!(flushes as u64, r.stats.redirects);
        assert_eq!(wrong_path_issues as u64, r.stats.issued_wrong_path);
        assert!(flushes > 5, "unpredictable branch must flush: {flushes}");
    }
}
