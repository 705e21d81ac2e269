//! Host-side performance benchmark of the simulation engine.
//!
//! ```text
//! cargo run --release -p vanguard-bench --bin perfbench           # writes BENCH_sim.json
//! cargo run --release -p vanguard-bench --bin perfbench -- --check
//! cargo run --release -p vanguard-bench --bin perfbench -- --out target/BENCH_sim.json
//! cargo run --release -p vanguard-bench --bin perfbench -- --profile-hotloop
//! ```
//!
//! Two measurements, written as JSON (hand-rolled; no serde
//! dependency):
//!
//! 1. **Quick-suite throughput** — runs the full benchmark suite at
//!    quick scale (the CI figure workload) through the experiment
//!    engine in timed rounds, each on a fresh engine so every job
//!    really simulates (an engine serves a repeated job from its
//!    simulation memo); each job's timing covers its simulation alone,
//!    not the profile and compile work. The report carries per-stage
//!    wall-clock, simulated-instruction throughput (committed MIPS per
//!    worker) and the MIPS trajectory (`history`, appended across runs).
//! 2. **Memory microbenchmark** — replays one deterministic
//!    read/write sequence against the paged [`Memory`] and against
//!    [`ReferenceMemory`] (the word-granular `HashMap` store the paged
//!    implementation replaced, kept as the executable specification)
//!    and reports the speedup ratio.
//!
//! `--profile-hotloop` additionally runs a low-convergence irregular
//! kernel under [`Simulator::run_profiled`], reporting per-stage wall
//! shares (fetch / fused issue+execute / commit / batch-entry, which
//! includes idle-cycle fast-forward jumps) to stderr and a
//! `hotloop_profile` JSON section — the attribution data future perf
//! PRs cite. Its `cycles` count fast-forwarded cycles too, so they equal
//! the run's simulated cycles.
//!
//! `--check` exits non-zero unless ALL of:
//!
//! * the paged store beats the reference store by ≥ 3x;
//! * quick-suite throughput ≥ 9.4 committed MIPS per worker.

use std::fmt::Write as _;
use std::time::Instant;
use vanguard_bench::{BenchScale, SuiteEngine};
use vanguard_bpred::Combined;
use vanguard_core::engine::{EngineStats, PredictorKind, SimJob, Variant};
use vanguard_isa::{
    AluOp, CmpKind, CondKind, Inst, Memory, Operand, Program, ProgramBuilder, ReferenceMemory, Reg,
};
use vanguard_sim::{HotloopProfile, MachineConfig, Simulator};
use vanguard_workloads::suite;

/// Deterministic xorshift64* stream (no external randomness).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545f4914f6cdd1d)
    }
}

const REGIONS: usize = 8;
const REGION_WORDS: u64 = 4096; // 32 KiB per region
const OPS: usize = 2_000_000;
const ROUNDS: usize = 3;

fn region_base(i: usize) -> u64 {
    0x1_0000 + i as u64 * 0x8_0000
}

/// One pre-generated access: word-aligned address plus read/write flag.
fn access_sequence() -> Vec<(u64, bool)> {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    let mut seq = Vec::with_capacity(OPS);
    let mut region = 0usize;
    let mut cursor = 0u64;
    for _ in 0..OPS {
        let r = rng.next();
        // Occasional region switch, otherwise a local random walk —
        // the locality the simulator's own traffic exhibits.
        if r.is_multiple_of(64) {
            region = (r >> 8) as usize % REGIONS;
            cursor = (r >> 16) % REGION_WORDS;
        } else {
            cursor = (cursor + (r >> 8) % 32) % REGION_WORDS;
        }
        let addr = region_base(region) + cursor * 8;
        let is_read = !r.is_multiple_of(3); // 2:1 read:write
        seq.push((addr, is_read));
    }
    seq
}

/// Times the sequence against a store; generic over the two Memory
/// implementations via small closures to keep the loop identical.
fn time_sequence<M>(
    seq: &[(u64, bool)],
    mut fresh: impl FnMut() -> M,
    read: impl Fn(&M, u64) -> Option<u64>,
    write: impl Fn(&mut M, u64, u64),
) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for _ in 0..ROUNDS {
        let mut mem = fresh();
        let mut sum = 0u64;
        let started = Instant::now();
        for &(addr, is_read) in seq {
            if is_read {
                sum = sum.wrapping_add(read(&mem, addr).unwrap_or(0));
            } else {
                write(&mut mem, addr, addr ^ sum);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        best = best.min(elapsed);
        checksum = sum;
    }
    (best, checksum)
}

struct MemBenchResult {
    paged_secs: f64,
    reference_secs: f64,
    speedup: f64,
}

fn memory_microbench() -> MemBenchResult {
    let seq = access_sequence();
    let (paged_secs, paged_sum) = time_sequence(
        &seq,
        || {
            let mut m = Memory::new();
            for i in 0..REGIONS {
                m.map_region(region_base(i), REGION_WORDS * 8);
            }
            m
        },
        |m, a| m.read(a),
        |m, a, v| m.write(a, v),
    );
    let (reference_secs, reference_sum) = time_sequence(
        &seq,
        || {
            let mut m = ReferenceMemory::new();
            for i in 0..REGIONS {
                m.map_region(region_base(i), REGION_WORDS * 8);
            }
            m
        },
        |m, a| m.read(a),
        |m, a, v| m.write(a, v),
    );
    assert_eq!(
        paged_sum, reference_sum,
        "paged and reference stores diverged on the benchmark sequence"
    );
    MemBenchResult {
        paged_secs,
        reference_secs,
        speedup: reference_secs / paged_secs,
    }
}

struct QuickSuiteResult {
    /// Engine counters of the first timed round, with `sim_nanos`
    /// replaced by the per-job best-of-rounds sum.
    stats: EngineStats,
    benchmarks: usize,
    /// Worker-summed per-job best-of-rounds simulate seconds.
    wall: f64,
}

/// Timed sweep rounds, each on a fresh engine.
const SUITE_ROUNDS: usize = 3;

/// Runs the quick-scale suite [`SUITE_ROUNDS`] times, one job at a
/// time, each round on a fresh engine: an engine simulates each
/// distinct job once and serves repeats from its memo, so a shared
/// engine would time nothing after the first round. A job's
/// `sim_elapsed` covers its simulation alone, so the profile and
/// compile work each fresh engine redoes stays out of the timing.
/// `wall` is the worker-summed *per-job* best-of-rounds simulate time —
/// the best-of-N idiom the memory microbenchmark uses, applied per job,
/// so a burst of host noise must hit the same job in every round to
/// bias the MIPS floor.
fn quick_suite() -> QuickSuiteResult {
    let specs = suite::all_benchmarks();
    let mut best: Vec<f64> = Vec::new();
    let mut stats = EngineStats::default();
    for round in 0..SUITE_ROUNDS {
        let mut engine = SuiteEngine::new(BenchScale::Quick);
        let mut jobs: Vec<SimJob> = Vec::new();
        for spec in &specs {
            let bench = engine.bench_id(spec);
            for variant in [Variant::Baseline, Variant::Transformed] {
                jobs.push(SimJob {
                    bench,
                    ref_input: 0,
                    machine: MachineConfig::four_wide(),
                    predictor: PredictorKind::Combined24KB,
                    variant,
                });
            }
        }
        best.resize(jobs.len(), f64::INFINITY);
        for (j, job) in jobs.iter().enumerate() {
            let run = engine.run_jobs(std::slice::from_ref(job));
            best[j] = best[j].min(run[0].expect_completed().sim_elapsed.as_secs_f64());
        }
        let round_stats = engine.engine().stats();
        assert_eq!(
            (round_stats.sim_jobs, round_stats.sim_memo_hits),
            (jobs.len() as u64, 0),
            "timed round {round} must simulate every job"
        );
        if round == 0 {
            stats = round_stats;
        }
    }
    let wall: f64 = best.iter().sum();
    // The timing aggregate comes from the per-job bests, not one round.
    stats.sim_nanos = (wall * 1e9) as u64;
    QuickSuiteResult {
        stats,
        benchmarks: specs.len(),
        wall,
    }
}

// ------------------------------------------------------------------
// Hot-loop stage profiling (--profile-hotloop)
// ------------------------------------------------------------------

const IRREGULAR_ITERS: i64 = 20_000;
const IRREGULAR_BASE: i64 = 0x8_0000;

/// A low-convergence kernel for profiling: a data-driven hammock whose
/// branch direction follows a pseudo-random word stream — the branch
/// behaviour the quick suite's irregular benchmarks exhibit.
fn irregular_program() -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block("entry");
    b.set_entry(entry);
    let head = b.block("head");
    let even = b.block("even");
    let odd = b.block("odd");
    let join = b.block("join");
    let done = b.block("done");
    b.push(entry, Inst::mov(Reg(1), Operand::Imm(IRREGULAR_ITERS)));
    b.push(entry, Inst::mov(Reg(4), Operand::Imm(IRREGULAR_BASE)));
    b.fallthrough(entry, head);
    b.push(
        head,
        Inst::Load {
            dst: Reg(5),
            base: Reg(4),
            offset: 0,
            speculative: false,
        },
    );
    b.push(
        head,
        Inst::alu(AluOp::And, Reg(6), Operand::Reg(Reg(5)), Operand::Imm(1)),
    );
    b.push(
        head,
        Inst::Branch {
            cond: CondKind::Nz,
            src: Reg(6),
            target: odd,
        },
    );
    b.fallthrough(head, even);
    // Even path: accumulate the word.
    b.push(
        even,
        Inst::alu(
            AluOp::Add,
            Reg(3),
            Operand::Reg(Reg(3)),
            Operand::Reg(Reg(5)),
        ),
    );
    b.push(even, Inst::Jump { target: join });
    // Odd path: fold it in with a different operation.
    b.push(
        odd,
        Inst::alu(
            AluOp::Xor,
            Reg(3),
            Operand::Reg(Reg(3)),
            Operand::Reg(Reg(5)),
        ),
    );
    b.fallthrough(odd, join);
    b.push(
        join,
        Inst::alu(AluOp::Add, Reg(4), Operand::Reg(Reg(4)), Operand::Imm(8)),
    );
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
    b.fallthrough(join, done);
    b.push(done, Inst::Halt);
    b.finish().unwrap()
}

/// One profiled kernel run: label, per-stage nanosecond laps, wall.
struct HotloopRun {
    label: &'static str,
    prof: HotloopProfile,
    wall: f64,
}

/// Runs the irregular kernel under the instrumented pipeline loop.
fn profile_hotloop() -> Vec<HotloopRun> {
    let irregular = irregular_program();
    let mut mem = Memory::new();
    let mut rng = Rng(0xbadc0ffee0ddf00d);
    let noise: Vec<u64> = (0..IRREGULAR_ITERS).map(|_| rng.next()).collect();
    mem.load_words(IRREGULAR_BASE as u64, &noise);
    let sim = Simulator::new(
        &irregular,
        mem,
        MachineConfig::four_wide(),
        Box::new(Combined::ptlsim_default()),
    );
    let started = Instant::now();
    let (result, prof) = sim
        .run_profiled()
        .expect("irregular kernel simulates cleanly");
    assert_eq!(
        prof.cycles, result.stats.cycles,
        "the profile counts every simulated cycle, skipped ones included"
    );
    vec![HotloopRun {
        label: "irregular",
        prof,
        wall: started.elapsed().as_secs_f64(),
    }]
}

// ------------------------------------------------------------------
// MIPS history (schema v4)
// ------------------------------------------------------------------

/// Most history entries to carry forward — enough to see a trend, small
/// enough that the committed JSON stays readable.
const HISTORY_CAP: usize = 20;

/// Prior `sim_mips_per_worker` trajectory recovered from an existing
/// report at `path`: the `history` array if present (v3+), else the
/// single `sim_mips_per_worker` value (v2). String-scanned rather than
/// parsed — the file is the hand-rolled JSON this binary also writes.
fn prior_mips_history(path: &str) -> Vec<f64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    if let Some(i) = text.find("\"history\": [") {
        let rest = &text[i + "\"history\": [".len()..];
        if let Some(j) = rest.find(']') {
            return rest[..j]
                .split(',')
                .filter_map(|s| s.trim().parse::<f64>().ok())
                .collect();
        }
    }
    if let Some(i) = text.find("\"sim_mips_per_worker\": ") {
        let rest = &text[i + "\"sim_mips_per_worker\": ".len()..];
        let end = rest
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse::<f64>() {
            return vec![v];
        }
    }
    Vec::new()
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let want_hotloop = args.iter().any(|a| a == "--profile-hotloop");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_sim.json", |s| s.as_str());

    eprintln!("[perfbench] memory microbenchmark: {OPS} ops x {ROUNDS} rounds ...");
    let mem = memory_microbench();
    eprintln!(
        "[perfbench] paged {:.1} ns/op, reference {:.1} ns/op, speedup {:.2}x",
        mem.paged_secs * 1e9 / OPS as f64,
        mem.reference_secs * 1e9 / OPS as f64,
        mem.speedup
    );

    eprintln!("[perfbench] quick-suite sweep (4-wide, Combined24KB, {SUITE_ROUNDS} fresh-engine rounds) ...");
    let qs = quick_suite();
    let (stats, benchmarks) = (&qs.stats, qs.benchmarks);
    eprintln!(
        "[perfbench] {} jobs, {:.1} ms wall, {:.2} MIPS/worker",
        stats.sim_jobs,
        qs.wall * 1e3,
        stats.sim_mips()
    );

    // MIPS trajectory: append this run to whatever the report at
    // `out_path` already carried, so CI logs show the delta and the
    // committed JSON shows the trend.
    let prior = prior_mips_history(out_path);
    match prior.last() {
        Some(prev) => eprintln!(
            "[perfbench] sim MIPS/worker: {:.2} (prev {:.2}, delta {:+.2})",
            stats.sim_mips(),
            prev,
            stats.sim_mips() - prev
        ),
        None => eprintln!(
            "[perfbench] sim MIPS/worker: {:.2} (no prior history at {out_path})",
            stats.sim_mips()
        ),
    }
    let mut history = prior;
    history.push(stats.sim_mips());
    if history.len() > HISTORY_CAP {
        history.drain(..history.len() - HISTORY_CAP);
    }

    let hotloop = if want_hotloop {
        eprintln!("[perfbench] hot-loop stage profile ...");
        let runs = profile_hotloop();
        for run in &runs {
            let p = &run.prof;
            let t = p.total_ns().max(1) as f64;
            eprintln!(
                "[perfbench] hotloop {:<18} fetch {:>4.1}%  issue+exec {:>4.1}%  commit {:>4.1}%  batch-entry+skip {:>4.1}%  ({:.1} ms, {} cycles)",
                run.label,
                p.fetch_ns as f64 * 100.0 / t,
                p.issue_ns as f64 * 100.0 / t,
                p.commit_ns as f64 * 100.0 / t,
                p.other_ns as f64 * 100.0 / t,
                run.wall * 1e3,
                p.cycles,
            );
        }
        Some(runs)
    } else {
        None
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"vanguard-perfbench-v4\",");
    let _ = writeln!(json, "  \"quick_suite\": {{");
    let _ = writeln!(json, "    \"benchmarks\": {benchmarks},");
    let _ = writeln!(json, "    \"wall_clock_ms\": {},", json_f(qs.wall * 1e3));
    let _ = writeln!(json, "    \"profile_runs\": {},", stats.profile_misses);
    let _ = writeln!(
        json,
        "    \"profile_wall_ms\": {},",
        json_f(stats.profile_nanos as f64 / 1e6)
    );
    let _ = writeln!(json, "    \"compile_runs\": {},", stats.compile_misses);
    let _ = writeln!(
        json,
        "    \"compile_wall_ms\": {},",
        json_f(stats.compile_nanos as f64 / 1e6)
    );
    let _ = writeln!(json, "    \"sim_jobs\": {},", stats.sim_jobs);
    let _ = writeln!(json, "    \"sim_insts\": {},", stats.sim_insts);
    let _ = writeln!(
        json,
        "    \"sim_wall_ms_worker_summed\": {},",
        json_f(stats.sim_nanos as f64 / 1e6)
    );
    let _ = writeln!(
        json,
        "    \"sim_mips_per_worker\": {},",
        json_f(stats.sim_mips())
    );
    let history_items: Vec<String> = history.iter().map(|&v| json_f(v)).collect();
    let _ = writeln!(json, "    \"history\": [{}]", history_items.join(", "));
    let _ = writeln!(json, "  }},");
    if let Some(runs) = &hotloop {
        let _ = writeln!(json, "  \"hotloop_profile\": {{");
        for (i, run) in runs.iter().enumerate() {
            let p = &run.prof;
            let comma = if i + 1 == runs.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    \"{}\": {{\"fetch_ns\": {}, \"issue_ns\": {}, \"commit_ns\": {}, \
                 \"other_ns\": {}, \"cycles\": {}, \"wall_ms\": {}}}{comma}",
                run.label,
                p.fetch_ns,
                p.issue_ns,
                p.commit_ns,
                p.other_ns,
                p.cycles,
                json_f(run.wall * 1e3),
            );
        }
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(json, "  \"memory_microbench\": {{");
    let _ = writeln!(json, "    \"ops\": {OPS},");
    let _ = writeln!(json, "    \"rounds\": {ROUNDS},");
    let _ = writeln!(
        json,
        "    \"paged_ns_per_op\": {},",
        json_f(mem.paged_secs * 1e9 / OPS as f64)
    );
    let _ = writeln!(
        json,
        "    \"reference_ns_per_op\": {},",
        json_f(mem.reference_secs * 1e9 / OPS as f64)
    );
    let _ = writeln!(
        json,
        "    \"speedup_vs_reference\": {}",
        json_f(mem.speedup)
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(out_path, &json).expect("write BENCH_sim.json");
    eprintln!("[perfbench] wrote {out_path}");

    let mut failed = false;
    if check && mem.speedup < 3.0 {
        eprintln!(
            "[perfbench] FAIL: paged memory speedup {:.2}x below the 3x gate",
            mem.speedup
        );
        failed = true;
    }
    if check && stats.sim_mips() < 9.4 {
        eprintln!(
            "[perfbench] FAIL: quick-suite throughput {:.2} MIPS/worker below the 9.4 gate",
            stats.sim_mips()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    if check {
        eprintln!("[perfbench] check passed");
    }
}
