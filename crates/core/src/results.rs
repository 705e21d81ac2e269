//! The results journal: the on-disk form of the engine's simulation
//! memo (DESIGN.md §7.11).
//!
//! With a cache directory set ([`FaultPolicy::cache_dir`], the
//! `VANGUARD_CACHE_DIR` variable), [`Engine::run_job`] reads
//! `<cache_dir>/results.vgj` once, on its first simulation-memo miss.
//! A job the journal holds is served from it without compiling or
//! simulating; a job it does not hold is simulated, and its outcome is
//! appended with [`Journal::append_new`] the moment it exists, unless
//! [`JobResult::encode`] declines it (a `Failed` outcome, which the
//! memo does not keep either, and a `MalformedImage` trap). Records
//! are keyed by [`Engine::job_key`], the key the memo itself uses,
//! which is stable across processes, so rerunning a crashed or
//! cancelled run on the same directory simulates only what the journal
//! is missing. A baseline job's key leaves the transform
//! options out, so one record serves every variant's baseline.
//!
//! The payload is the lossless codec of [`JobResult::encode`] and
//! [`JobResult::decode`]: what the memo keeps comes back bit for bit,
//! the simulate time included, so a journal hit is indistinguishable
//! from a memo hit.
//!
//! [`FaultPolicy::cache_dir`]: crate::engine::FaultPolicy::cache_dir
//! [`Engine::run_job`]: crate::engine::Engine::run_job
//! [`Engine::job_key`]: crate::engine::Engine::job_key

use crate::engine::{JobResult, JobSuccess, SimJob};
use crate::journal::Journal;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;
use vanguard_sim::{SimError, SimStats};

/// File name of the results journal inside the cache directory (its
/// compaction snapshot is `results.vgj.snap`).
pub const RESULTS_FILE: &str = "results.vgj";

/// Payload tags, one per stored [`JobResult`] variant.
const TAG_COMPLETED: u8 = b'C';
const TAG_FAULTED: u8 = b'F';
const TAG_TIMED_OUT: u8 = b'T';

/// Trap codes of a `Faulted` payload.
const TRAP_LOAD_FAULT: u8 = 0;
const TRAP_ORPHAN_RESOLVE: u8 = 1;

/// Every [`SimStats`] counter, in payload order: the 26 counters,
/// memory hierarchy included. Encoding and decoding both walk this one
/// list, so the order cannot drift between them.
fn stats_fields(s: &mut SimStats) -> [&mut u64; 26] {
    [
        &mut s.cycles,
        &mut s.issued,
        &mut s.issued_wrong_path,
        &mut s.fetched,
        &mut s.predicts,
        &mut s.branches,
        &mut s.branch_mispredicts,
        &mut s.resolves,
        &mut s.resolve_mispredicts,
        &mut s.branch_stall_cycles,
        &mut s.resolve_stall_cycles,
        &mut s.frontend_stall_cycles,
        &mut s.operand_stall_cycles,
        &mut s.fu_stall_cycles,
        &mut s.redirects,
        &mut s.icache_miss_under_mispredict,
        &mut s.icache_stall_cycles,
        &mut s.mem.l1i.hits,
        &mut s.mem.l1i.misses,
        &mut s.mem.l1d.hits,
        &mut s.mem.l1d.misses,
        &mut s.mem.l2.hits,
        &mut s.mem.l2.misses,
        &mut s.mem.l3.hits,
        &mut s.mem.l3.misses,
        &mut s.mem.memory_accesses,
    ]
}

/// Little-endian cursor over a payload; every read fails past the end.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn bytes<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes().map(u64::from_le_bytes)
    }
}

impl JobResult {
    /// The journal payload of an outcome the simulation memo keeps:
    /// `Completed` (every [`SimStats`] counter and the simulate time),
    /// `Faulted` (the trap, its pc and cycle) and `TimedOut` (its
    /// cycles). The job itself is the record's key, so it is not
    /// encoded.
    ///
    /// Returns `None` for what is never journaled: a `Failed` outcome,
    /// and a `MalformedImage` trap, whose detail is a static string
    /// naming a compiler or decoder bug that every run should report
    /// afresh.
    pub fn encode(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            JobResult::Completed(done) => {
                out.push(TAG_COMPLETED);
                let mut stats = done.stats;
                for field in stats_fields(&mut stats) {
                    out.extend_from_slice(&field.to_le_bytes());
                }
                out.extend_from_slice(&done.sim_elapsed.as_secs().to_le_bytes());
                out.extend_from_slice(&done.sim_elapsed.subsec_nanos().to_le_bytes());
            }
            JobResult::Faulted {
                trap, pc, cycle, ..
            } => {
                out.push(TAG_FAULTED);
                let (code, addr) = match *trap {
                    SimError::LoadFault { addr, .. } => (TRAP_LOAD_FAULT, addr),
                    SimError::OrphanResolve { .. } => (TRAP_ORPHAN_RESOLVE, 0),
                    SimError::MalformedImage { .. } => return None,
                };
                out.push(code);
                for word in [addr, trap.pc(), *pc, *cycle] {
                    out.extend_from_slice(&word.to_le_bytes());
                }
            }
            JobResult::TimedOut { cycles, .. } => {
                out.push(TAG_TIMED_OUT);
                out.extend_from_slice(&cycles.to_le_bytes());
            }
            JobResult::Failed { .. } => return None,
        }
        Some(out)
    }

    /// Decodes an [`encode`](JobResult::encode) payload back into the
    /// outcome of `job`. `None` when the payload
    /// is not one `encode` writes: unknown tag, unknown trap code, or a
    /// length that does not match its tag.
    pub fn decode(job: SimJob, payload: &[u8]) -> Option<JobResult> {
        let mut r = Reader(payload);
        let result = match r.u8()? {
            TAG_COMPLETED => {
                let mut stats = SimStats::default();
                for field in stats_fields(&mut stats) {
                    *field = r.u64()?;
                }
                let secs = r.u64()?;
                let nanos = r.u32().filter(|&n| n < 1_000_000_000)?;
                JobResult::Completed(Box::new(JobSuccess {
                    job,
                    stats,
                    sim_elapsed: Duration::new(secs, nanos),
                }))
            }
            TAG_FAULTED => {
                let code = r.u8()?;
                let (addr, trap_pc, pc, cycle) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
                let trap = match code {
                    TRAP_LOAD_FAULT => SimError::LoadFault { addr, pc: trap_pc },
                    TRAP_ORPHAN_RESOLVE if addr == 0 => SimError::OrphanResolve { pc: trap_pc },
                    _ => return None,
                };
                JobResult::Faulted {
                    job,
                    trap,
                    pc,
                    cycle,
                }
            }
            TAG_TIMED_OUT => JobResult::TimedOut {
                job,
                cycles: r.u64()?,
            },
            _ => return None,
        };
        r.0.is_empty().then_some(result)
    }
}

/// An engine's handle on `<cache_dir>/results.vgj`: the journal, and its
/// records read once, on first use.
#[derive(Debug)]
pub(crate) struct ResultsJournal {
    journal: Journal,
    done: OnceLock<HashMap<u64, Vec<u8>>>,
}

impl ResultsJournal {
    pub(crate) fn new(cache_dir: &Path) -> Self {
        ResultsJournal {
            journal: Journal::new(cache_dir.join(RESULTS_FILE)),
            done: OnceLock::new(),
        }
    }

    /// The recorded payload of `key`. The first call reads the journal
    /// (snapshot and tail); a journal that cannot be read at all — a
    /// missing or unreadable directory, a file that is not a journal —
    /// reads as empty, so its jobs are simulated. Records past a torn or
    /// corrupt tail were dropped by the read and are simulated too.
    pub(crate) fn get(&self, key: u64) -> Option<&[u8]> {
        let done = self.done.get_or_init(|| {
            let mut done = HashMap::new();
            for record in self.journal.read().map(|s| s.records).unwrap_or_default() {
                done.entry(record.key).or_insert(record.payload);
            }
            done
        });
        done.get(&key).map(Vec::as_slice)
    }

    /// Appends `payload` under `key` unless the journal already holds
    /// the key ([`Journal::append_new`]); `Ok(true)` when it was written.
    pub(crate) fn append(&self, key: u64, payload: &[u8]) -> io::Result<bool> {
        self.journal.append_new(key, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PredictorKind, Variant};
    use vanguard_sim::MachineConfig;

    fn job() -> SimJob {
        SimJob {
            bench: 3,
            ref_input: 1,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
            variant: Variant::Transformed,
        }
    }

    /// Every counter distinct and non-zero, so a counter missing from
    /// [`stats_fields`] would stay 0 and show in `{:?}`.
    fn busy_stats() -> SimStats {
        let mut stats = SimStats::default();
        for (i, field) in stats_fields(&mut stats).into_iter().enumerate() {
            *field = 1_000 + i as u64 * 7_919;
        }
        stats
    }

    #[test]
    fn stats_fields_cover_every_counter() {
        let debug = format!("{:?}", busy_stats());
        assert!(
            !debug.contains(": 0,") && !debug.contains(": 0 }"),
            "{debug}"
        );
    }

    #[test]
    fn every_stored_variant_roundtrips() {
        let stored = [
            JobResult::Completed(Box::new(JobSuccess {
                job: job(),
                stats: busy_stats(),
                sim_elapsed: Duration::new(3, 141_592_653),
            })),
            JobResult::Faulted {
                job: job(),
                trap: SimError::LoadFault {
                    addr: 0xdead_0000,
                    pc: 0x40,
                },
                pc: 0x40,
                cycle: 1234,
            },
            JobResult::Faulted {
                job: job(),
                trap: SimError::OrphanResolve { pc: 0x88 },
                pc: 0x88,
                cycle: 99,
            },
            JobResult::TimedOut {
                job: job(),
                cycles: 1_000_000,
            },
        ];
        for result in stored {
            let payload = result.encode().expect("stored variants encode");
            let back = JobResult::decode(job(), &payload).expect("and decode");
            // Debug covers every field, `sim_elapsed` included.
            assert_eq!(format!("{back:?}"), format!("{result:?}"));
            // Any truncation or trailing byte is rejected, never misread.
            for cut in 0..payload.len() {
                assert!(
                    JobResult::decode(job(), &payload[..cut]).is_none(),
                    "cut {cut}"
                );
            }
            let mut longer = payload.clone();
            longer.push(0);
            assert!(JobResult::decode(job(), &longer).is_none());
        }
        assert!(JobResult::decode(job(), b"X").is_none());
    }

    #[test]
    fn unstored_outcomes_do_not_encode() {
        let malformed = JobResult::Faulted {
            job: job(),
            trap: SimError::MalformedImage {
                pc: 0,
                detail: "test",
            },
            pc: 0,
            cycle: 0,
        };
        assert!(malformed.encode().is_none());
        let failed = JobResult::Failed {
            job: job(),
            error: Box::new(crate::VanguardError::new(
                crate::engine::Stage::Simulate,
                crate::ErrorKind::NoRefInputs,
            )),
        };
        assert!(failed.encode().is_none());
    }
}
