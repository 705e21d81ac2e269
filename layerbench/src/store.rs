//! `artifact-store`: the compile matrix (54 kernels x 3 widths x 4
//! transform kinds = 648 `Engine::compile_pair` ops) with no simulation,
//! run in three phases, each on a fresh engine:
//!
//! 1. memory only;
//! 2. cold, on an empty disk-cache directory, journaling every result
//!    the way a sweep worker does (`Journal::read`, then
//!    `Journal::append_new`);
//! 3. warm, on the same directory, served from disk, reading the journal
//!    back once.
//!
//! Checked by: warm pairs identical to the memory pairs, one disk hit per
//! op, no corrupt entry or failed store, one journal record per op.
//!
//! The end-to-end times cover the memory and warm phases only. Every op
//! of the cold phase waits on `fsync`; on a 2-vCPU KVM guest with a
//! shared disk that moved the op p95 by up to 55% between identical runs,
//! while the CPU-bound phases' op p50 moved by 6%. The cold phase still
//! runs and is checked on every pass, and the traced run times it as
//! `diskcache.store_s`, `journal.read_s` and `journal.append_s`.

use crate::measure::{secs, shuffled, LayerReport, Samples, Tracer, OP};
use crate::{fresh_engine, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vanguard_bench::{quick_spec, to_experiment_input, BenchScale};
use vanguard_core::engine::{
    CompiledPair, Engine, EngineStats, PredictorKind, DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::journal::DEFAULT_COMPACT_BYTES;
use vanguard_core::{fnv1a, ExperimentInput, Journal, TransformKind, TransformOptions};
use vanguard_sim::MachineConfig;
use vanguard_workloads::suite;

/// Where run directories are made, relative to the working directory.
pub const SCRATCH: &str = ".layerbench-tmp";

/// One compile op: a kernel, a machine width, a transform kind.
#[derive(Clone, Copy)]
struct Op {
    bench: usize,
    machine: MachineConfig,
    kind: TransformKind,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Memory,
    Cold,
    Warm,
}

pub struct ArtifactStore {
    seed: u64,
    /// Flip one byte of one cached pair between the cold and warm phases
    /// (the self-test of the corruption check).
    corrupt_one: bool,
    names: Vec<String>,
    engines: Vec<Engine>,
    dir: PathBuf,
}

impl ArtifactStore {
    pub fn new(seed: u64, corrupt_one: bool) -> Self {
        ArtifactStore {
            seed,
            corrupt_one,
            names: Vec::new(),
            engines: Vec::new(),
            dir: PathBuf::new(),
        }
    }

    fn ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for bench in 0..self.names.len() {
            for machine in MachineConfig::all_widths() {
                for kind in TransformKind::ALL {
                    ops.push(Op {
                        bench,
                        machine,
                        kind,
                    });
                }
            }
        }
        ops
    }

    fn key(&self, op: &Op) -> u64 {
        let id = format!("{}/{}/{}", self.names[op.bench], op.machine.width, op.kind);
        fnv1a(id.as_bytes())
    }
}

fn options(kind: TransformKind) -> TransformOptions {
    TransformOptions {
        kind,
        ..TransformOptions::default()
    }
}

/// The journal payload of one compiled pair.
fn payload(name: &str, op: &Op, pair: &CompiledPair) -> String {
    let r = &pair.report;
    format!(
        "{name} w{} {} converted={} melded={} bytes={}->{}",
        op.machine.width,
        op.kind,
        r.converted.len(),
        r.melded,
        r.code_bytes_before,
        r.code_bytes_after
    )
}

/// Total size of the cache's `.bin` entries.
fn cache_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Flips one byte in the middle of the first (by name) cached pair.
fn flip_one_pair_byte(dir: &Path) {
    let mut pairs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache directory exists after the cold phase")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("pair-") && n.ends_with(".bin"))
        })
        .collect();
    pairs.sort();
    let path = pairs.first().expect("the cold phase stored pairs");
    let mut bytes = std::fs::read(path).expect("cached pair is readable");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;
    std::fs::write(path, bytes).expect("cached pair is writable");
}

impl Workload for ArtifactStore {
    fn setup(&mut self) {
        self.engines.clear();
        let inputs: Vec<ExperimentInput> = suite::all_benchmarks()
            .into_iter()
            .map(|spec| to_experiment_input(quick_spec(spec, BenchScale::Quick).build()))
            .collect();
        self.dir = Path::new(SCRATCH).join(format!("store-{}", std::process::id()));
        let cache = self.dir.join("cache");
        self.engines = [None, Some(cache.clone()), Some(cache)]
            .into_iter()
            .map(|cache_dir| {
                let mut engine = fresh_engine(cache_dir);
                for input in &inputs {
                    engine.add_benchmark(input.clone());
                }
                engine
            })
            .collect();
        self.names = inputs.into_iter().map(|i| i.name).collect();
    }

    fn kernels(&self) -> usize {
        self.names.len()
    }

    fn pass(&mut self, tr: &mut Tracer, s: &mut Samples, layers: &mut LayerReport) -> f64 {
        let ops = self.ops();
        let order = shuffled(ops.len(), self.seed);
        let cache = self.dir.join("cache");
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&cache).expect("run directory can be created");
        let mut journal = Journal::new(self.dir.join("journal.vgj"));
        journal.set_compact_threshold(Some(DEFAULT_COMPACT_BYTES));

        let mut pairs: [Vec<Option<CompiledPair>>; 3] = Default::default();
        let mut walls = [0.0; 3];
        let mut stats = [EngineStats::default(); 3];
        let mut journal_s = [0.0; 3];
        let mut journal_errors = 0u64;
        let mut read_back = None;
        for (p, phase) in [Phase::Memory, Phase::Cold, Phase::Warm]
            .into_iter()
            .enumerate()
        {
            if phase == Phase::Warm && self.corrupt_one {
                flip_one_pair_byte(&cache);
            }
            let engine = &self.engines[p];
            let mut out: Vec<Option<CompiledPair>> = vec![None; ops.len()];
            let started = Instant::now();
            for &i in &order {
                let op = &ops[i];
                let t = Instant::now();
                let pair = tr.span(OP, |tr| {
                    if tr.enabled() {
                        let _ = tr.span("profile", |_| {
                            engine.profile(
                                op.bench,
                                PredictorKind::Combined24KB,
                                DEFAULT_MAX_PROFILE_STEPS,
                            )
                        });
                    }
                    let pair = tr
                        .span("compile", |_| {
                            engine.compile_pair(
                                op.bench,
                                PredictorKind::Combined24KB,
                                op.machine,
                                &options(op.kind),
                                DEFAULT_MAX_PROFILE_STEPS,
                            )
                        })
                        .ok();
                    if let (Phase::Cold, Some(pair)) = (phase, &pair) {
                        let key = self.key(op);
                        let j = Instant::now();
                        let seen = tr.span("journal.read", |_| journal.read());
                        let appended = match seen {
                            Ok(snap) if !snap.contains(key) => {
                                let text = payload(&self.names[op.bench], op, pair);
                                tr.span("journal.append", |_| {
                                    journal.append_new(key, text.as_bytes())
                                })
                            }
                            Ok(_) => Ok(false),
                            Err(e) => Err(e),
                        };
                        journal_s[p] += secs(j);
                        if !matches!(appended, Ok(true)) {
                            journal_errors += 1;
                        }
                    }
                    pair
                });
                if phase != Phase::Cold {
                    s.op_ms.push(secs(t) * 1e3);
                }
                out[i] = pair;
            }
            if phase == Phase::Warm {
                let j = Instant::now();
                read_back = tr.span("journal.read", |_| journal.read()).ok();
                journal_s[p] += secs(j);
            }
            walls[p] = secs(started);
            stats[p] = engine.stats();
            pairs[p] = out;
            if phase == Phase::Cold {
                layers.set("diskcache.bytes", cache_bytes(&cache) as f64);
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(SCRATCH);
        self.engines.clear();

        // Checks.
        let n = ops.len() as u64;
        let mismatched = pairs[0]
            .iter()
            .zip(&pairs[2])
            .filter(|(memory, warm)| match (memory, warm) {
                (Some(a), Some(b)) => {
                    a.baseline.disassemble() != b.baseline.disassemble()
                        || a.transformed.disassemble() != b.transformed.disassemble()
                }
                _ => true,
            })
            .count() as u64;
        let corrupt = stats[1].cache_corrupt + stats[2].cache_corrupt;
        let store_failures = stats[1].cache_store_failures + stats[2].cache_store_failures;
        let disk_misses = n.saturating_sub(stats[2].pair_disk_hits);
        let records = read_back.as_ref().map_or(0, |r| r.records.len() as u64);
        let journal_bad = read_back.as_ref().map_or(n, |r| {
            let mut bad = r.duplicate_keys().len() as u64 + r.dropped_bytes.min(1);
            for (op, pair) in ops.iter().zip(&pairs[2]) {
                let expected = pair
                    .as_ref()
                    .map(|p| payload(&self.names[op.bench], op, p).into_bytes());
                if r.get(self.key(op)) != expected.as_deref() {
                    bad += 1;
                }
            }
            bad
        });
        let failed = (mismatched
            + disk_misses.max(corrupt)
            + store_failures
            + journal_bad.max(journal_errors))
        .min(3 * n);
        if failed > 0 {
            s.correct = false;
            eprintln!(
                "artifact-store: {mismatched} mismatched pairs, {disk_misses} warm disk misses, \
                 {corrupt} corrupt entries, {store_failures} failed stores, \
                 {journal_bad} bad journal records, {journal_errors} journal errors"
            );
        }
        s.failed += failed;
        s.attempted += 3 * n;
        let wall = walls[0] + walls[2];
        s.pass_walls.push(wall);
        s.ops_per_pass = 2 * ops.len();

        if tr.enabled() {
            let misses = |f: fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
            let calls = (3 * ops.len()) as f64;
            layers.set(
                "profile.hit_ratio",
                1.0 - misses(|x| x.profile_misses) / calls,
            );
            layers.set(
                "compile.hit_ratio",
                1.0 - misses(|x| x.compile_misses) / calls,
            );
            let sites: usize = pairs[0]
                .iter()
                .flatten()
                .map(|p| p.report.converted.len() + p.report.melded)
                .sum();
            layers.set("transform.sites_converted", sites as f64);
            layers.set("diskcache.store_s", walls[1] - journal_s[1] - walls[0]);
            layers.set("diskcache.load_s", walls[2] - journal_s[2]);
            layers.set(
                "diskcache.disk_hits",
                (stats[2].pair_disk_hits + stats[2].profile_disk_hits) as f64,
            );
            layers.set("diskcache.corrupt", corrupt as f64);
            layers.set("journal.records", records as f64);
        }
        wall
    }
}
