//! `vanguard-sweep`: the sharded, resumable sweep service CLI.
//!
//! ```text
//! # One-shot sharded run (merged output to stdout):
//! vanguard-sweep run --request sweep.req --shards 4
//!
//! # Resume an interrupted run off its journal:
//! vanguard-sweep resume --request sweep.req --journal sweep.vgj
//!
//! # Serial reference run (no workers, no journal):
//! vanguard-sweep run --request sweep.req --serial
//! ```
//!
//! Workers share compiled artifacts and job claims through
//! `VANGUARD_CACHE_DIR`, by default `sweep-cache/` beside the journal.
//! Shard count defaults to `VANGUARD_SHARDS` (then 1). Exit codes:
//! 0 success, 2 usage, 3 interrupted (`--fault-kill-after` tripped),
//! 4 incomplete (workers exited with jobs still unjournaled).

use std::io::Write as _;
use std::path::PathBuf;
use vanguard_bench::sweep::{self, run_sharded, ShardOptions, Sweep, SweepRequest, SHARDS_ENV};
use vanguard_core::engine::FaultPolicy;
use vanguard_core::Journal;

fn usage() -> ! {
    eprintln!(
        "usage: vanguard-sweep run    --request FILE [--journal FILE] [--out FILE] \
         [--shards N] [--serial] [--fault-kill-after N] [--fault-kill-count N] [--throttle-ms N]\n\
         \x20      vanguard-sweep resume --request FILE --journal FILE [--out FILE] [--shards N]"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn default_shards() -> usize {
    std::env::var(SHARDS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

fn main() {
    sweep::maybe_run_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else {
        usage();
    };
    let shards = flag_value(&args, "--shards")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(default_shards);
    let worker_exe = sweep::harness_worker_exe().unwrap_or_else(|e| {
        eprintln!("[sweep] cannot resolve worker executable: {e}");
        std::process::exit(1);
    });

    if mode != "run" && mode != "resume" {
        usage();
    }

    let Some(request_path) = flag_value(&args, "--request").map(PathBuf::from) else {
        usage();
    };
    let journal_path = flag_value(&args, "--journal")
        .map(PathBuf::from)
        .unwrap_or_else(|| request_path.with_extension("vgj"));
    if mode == "resume" && !journal_path.exists() {
        eprintln!(
            "[sweep] resume: journal {} does not exist (nothing to resume)",
            journal_path.display()
        );
        std::process::exit(2);
    }
    let serial = args.iter().any(|a| a == "--serial");
    let kill_after: Option<usize> =
        flag_value(&args, "--fault-kill-after").and_then(|v| v.parse().ok());
    let kill_count: Option<usize> =
        flag_value(&args, "--fault-kill-count").and_then(|v| v.parse().ok());
    let throttle_ms: Option<u64> = flag_value(&args, "--throttle-ms").and_then(|v| v.parse().ok());
    let out_path = flag_value(&args, "--out").map(PathBuf::from);

    let request_text = std::fs::read_to_string(&request_path).unwrap_or_else(|e| {
        eprintln!("[sweep] read {}: {e}", request_path.display());
        std::process::exit(1);
    });
    let request = SweepRequest::parse(&request_text).unwrap_or_else(|e| {
        eprintln!("[sweep] bad request: {e}");
        std::process::exit(2);
    });

    let mut policy = FaultPolicy::from_env();
    let cache_dir = policy.cache_dir.clone().unwrap_or_else(|| {
        journal_path
            .parent()
            .map(|p| p.to_path_buf())
            .unwrap_or_default()
            .join("sweep-cache")
    });
    policy.cache_dir = Some(cache_dir.clone());
    let sweep = Sweep::build(request, policy).unwrap_or_else(|e| {
        eprintln!("[sweep] {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[sweep] {} jobs, journal {}, {} shard(s){}",
        sweep.plan().len(),
        journal_path.display(),
        if serial { 0 } else { shards },
        if serial { " (serial)" } else { "" },
    );

    let merged = if serial {
        sweep.run_serial()
    } else {
        let journal = Journal::new(&journal_path);
        let mut opts = ShardOptions::new(worker_exe, shards, cache_dir);
        opts.kill_after = kill_after;
        opts.kill_count = kill_count;
        opts.throttle_ms = throttle_ms;
        let mut err = std::io::stderr();
        let run = run_sharded(&sweep, &journal, &opts, &mut err).unwrap_or_else(|e| {
            eprintln!("[sweep] sharded run failed: {e}");
            std::process::exit(1);
        });
        if run.killed {
            eprintln!(
                "[sweep] interrupted by --fault-kill-after: {} of {} jobs journaled; \
                 resume with: vanguard-sweep resume --request {} --journal {}",
                run.completed,
                run.total,
                request_path.display(),
                journal_path.display()
            );
            std::process::exit(3);
        }
        if !run.complete() {
            eprintln!(
                "[sweep] incomplete: {} of {} jobs journaled",
                run.completed, run.total
            );
            std::process::exit(4);
        }
        let snapshot = journal.read().unwrap_or_else(|e| {
            eprintln!("[sweep] journal read: {e}");
            std::process::exit(1);
        });
        if !snapshot.duplicate_keys().is_empty() {
            eprintln!(
                "[sweep] journal has duplicate job records: {:?}",
                snapshot.duplicate_keys()
            );
            std::process::exit(1);
        }
        sweep.merged(&snapshot).unwrap_or_else(|missing| {
            eprintln!("[sweep] merge missing {} jobs", missing.len());
            std::process::exit(4);
        })
    };

    match out_path {
        Some(path) => {
            std::fs::write(&path, &merged).unwrap_or_else(|e| {
                eprintln!("[sweep] write {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("[sweep] wrote {}", path.display());
        }
        None => {
            let mut stdout = std::io::stdout();
            stdout.write_all(merged.as_bytes()).expect("stdout");
        }
    }
}
