//! Layered host-time benchmark of the branch-vanguard reproduction.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload paper-quick --seed 1 --seconds 40 --trace 0
//! cargo run --release --manifest-path layerbench/Cargo.toml -- --self-test
//! ```
//!
//! Every workload runs in this one process on a one-worker engine. A
//! *pass* sets the workload up (timed as `setup_s`), then runs its op set
//! once, timing every op; passes repeat until `--seconds` have been
//! measured. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced passes and prints the per-layer
//! metrics derived from the traced passes' spans. The last line of
//! standard output is the result object.

mod fuzzdiff;
mod measure;
mod paper;
mod store;

use measure::{median, secs, LayerReport, Metrics, Samples, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use vanguard_core::engine::{Engine, FaultPolicy};

/// Engine workers of every workload.
const WORKERS: usize = 1;
/// Set-ups measured per run, at least (`setup_s` is their median).
const MIN_SETUPS: usize = 8;

/// One benchmark workload.
pub trait Workload {
    /// Builds the inputs of one pass in memory.
    fn setup(&mut self);
    /// Runs the op set once on what [`Workload::setup`] built, recording
    /// op latencies, the pass wall and check failures into `s`, and, when
    /// `tr` is enabled, the layer counts into `layers`. Returns the pass
    /// wall time.
    fn pass(&mut self, tr: &mut Tracer, s: &mut Samples, layers: &mut LayerReport) -> f64;
    /// Kernels one set-up generates.
    fn kernels(&self) -> usize;
}

/// A one-worker engine configured only through its public constructors:
/// the default fault policy, with an on-disk artifact cache at
/// `cache_dir` when given.
pub fn fresh_engine(cache_dir: Option<PathBuf>) -> Engine {
    let mut engine = Engine::with_workers(WORKERS);
    engine.set_fault_policy(FaultPolicy {
        cache_dir,
        ..FaultPolicy::default()
    });
    engine
}

fn timed_setup(w: &mut dyn Workload, s: &mut Samples) {
    let t = Instant::now();
    w.setup();
    s.setups.push(secs(t));
}

/// Untraced passes until `seconds` have been measured.
fn run_untraced(w: &mut dyn Workload, seconds: f64) -> Samples {
    let mut s = Samples::new();
    let mut off = Tracer::new(false);
    let mut unused = LayerReport::new();
    let start = Instant::now();
    let mut pass = 0;
    let mut last = 0.0;
    while pass == 0 || secs(start) + last / 2.0 < seconds {
        let t = Instant::now();
        timed_setup(w, &mut s);
        timed_setup(w, &mut s);
        let first = s.op_ms.len();
        let wall = w.pass(&mut off, &mut s, &mut unused);
        eprintln!(
            "pass {pass}: wall {wall:.4} s, op p95 {:.4} ms",
            measure::quantile(&s.op_ms[first..], 0.95)
        );
        last = secs(t);
        pass += 1;
    }
    while s.setups.len() < MIN_SETUPS {
        timed_setup(w, &mut s);
    }
    s
}

/// Pairs of one untraced and one traced pass until `seconds` have been
/// measured, alternating which runs first; layer metrics come from the
/// last traced pass.
fn run_traced(w: &mut dyn Workload, seconds: f64) -> (Samples, Metrics) {
    let mut s = Samples::new();
    let mut layers = LayerReport::new();
    let (mut overhead, mut coverage) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pair = 0;
    let mut last = 0.0;
    while pair == 0 || secs(start) + last / 2.0 < seconds {
        let t = Instant::now();
        let (mut plain, mut traced) = (0.0, 0.0);
        let mut tr = Tracer::new(true);
        for traced_now in [pair % 2 == 1, pair % 2 == 0] {
            timed_setup(w, &mut s);
            if traced_now {
                layers = LayerReport::new();
                traced = w.pass(&mut tr, &mut s, &mut layers);
            } else {
                plain = w.pass(&mut Tracer::new(false), &mut s, &mut LayerReport::new());
            }
        }
        let spans = tr.layers();
        let covered: f64 = spans
            .iter()
            .filter(|(name, _)| **name != measure::OP)
            .map(|(_, t)| t.self_s)
            .sum();
        overhead.push(traced / plain - 1.0);
        coverage.push(covered / tr.op_total_s());
        layers.set_spans(&spans);
        eprintln!(
            "pair {pair}: untraced wall {plain:.4} s, traced wall {traced:.4} s, {} ops, \
             {:.4} s in op spans; layer self time:",
            tr.ops(),
            tr.op_total_s()
        );
        for (name, t) in &spans {
            eprintln!("  {name:<16} {:>8} calls {:>12.6} s", t.calls, t.self_s);
        }
        last = secs(t);
        pair += 1;
    }
    layers.finish_sim();
    layers.set("workloads.build_s", median(&s.setups));
    layers.set("workloads.kernels", w.kernels() as f64);
    layers.set("trace.overhead_frac", median(&overhead));
    layers.set("trace.coverage_frac", median(&coverage));
    (s, layers.m)
}

/// Host, toolchain and run identity, recorded with every run.
fn environment(workload: &str, seed: u64, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only a checkout that is itself a git work tree has a revision; a
    // parent directory's repository would name the wrong code.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "env {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \
         \"workers\": {WORKERS}, \"nproc\": {nproc}, \"cpu\": \"{cpu}\", \
         \"rustc\": \"{}\", \"git_rev\": \"{rev}\"}}",
        u8::from(trace),
        env!("LAYERBENCH_RUSTC"),
    )
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-quick" => Box::new(paper::PaperQuick::new(seed)),
        "fuzz-diff" => Box::new(fuzzdiff::FuzzDiff::new(seed)),
        "artifact-store" => Box::new(store::ArtifactStore::new(seed, false)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Shows that each check fires: a perturbed golden line fails
/// `paper-quick`, and a flipped byte in one cached pair shows up in
/// `diskcache.corrupt` and fails `artifact-store`.
fn self_test(seed: u64) -> bool {
    let mut ok = true;
    let mut report = |name: &str, held: bool| {
        eprintln!("self-test {name}: {}", if held { "ok" } else { "FAILED" });
        ok &= held;
    };

    let golden = paper::GOLDEN.replacen("h264ref", "h264rex", 1);
    let mut w = paper::PaperQuick::with_golden(seed, golden);
    let s = run_untraced(&mut w, 0.0);
    report(
        "perturbed golden line fails its section",
        !s.correct && s.failed > 0 && s.failed < s.attempted,
    );

    let mut clean = store::ArtifactStore::new(seed, false);
    let (s, m) = run_traced(&mut clean, 0.0);
    report(
        "clean artifact-store passes",
        s.correct && s.failed == 0 && m.get("diskcache.corrupt") == 0.0,
    );
    let mut w = store::ArtifactStore::new(seed, true);
    let (s, m) = run_traced(&mut w, 0.0);
    report(
        "flipped cache byte is counted corrupt",
        !s.correct && s.failed > 0 && m.get("diskcache.corrupt") >= 1.0,
    );
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return if self_test(args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!("layerbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    println!("{}", environment(&args.workload, args.seed, args.trace));
    let (s, metrics) = if args.trace {
        run_traced(w.as_mut(), args.seconds)
    } else {
        let s = run_untraced(w.as_mut(), args.seconds);
        let m = s.end_to_end();
        (s, m)
    };
    eprintln!(
        "{}: {} passes, {} ops, {} failed\n{}",
        args.workload,
        s.pass_walls.len(),
        s.attempted,
        s.failed,
        metrics.table()
    );
    println!("{}", metrics.result_json(s.correct, s.attempted, s.failed));
    ExitCode::SUCCESS
}
