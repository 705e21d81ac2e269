//! `vanguard-sweep`: the resumable sweep service CLI.
//!
//! ```text
//! # One run on the engine's thread pool (merged output to stdout):
//! vanguard-sweep run --request sweep.req
//!
//! # Resume an interrupted run off its journal:
//! vanguard-sweep resume --request sweep.req --journal sweep.vgj
//!
//! # Serial reference run (no pool, no journal):
//! vanguard-sweep run --request sweep.req --serial
//! ```
//!
//! The pool has `VANGUARD_THREADS` workers. `VANGUARD_CACHE_DIR`, when
//! set, persists profiles and compiled pairs across runs, as it does for
//! `figures`. `--fault-kill-after N` aborts the process (`SIGABRT`)
//! right after its Nth journal append. Exit codes: 0 success, 1 run
//! error, 2 usage.

use std::io::Write as _;
use std::path::PathBuf;
use vanguard_bench::sweep::{Sweep, SweepRequest};
use vanguard_core::engine::FaultPolicy;
use vanguard_core::Journal;

fn usage() -> ! {
    eprintln!(
        "usage: vanguard-sweep run    --request FILE [--journal FILE] [--out FILE] \
         [--serial] [--fault-kill-after N]\n\
         \x20      vanguard-sweep resume --request FILE --journal FILE [--out FILE] \
         [--fault-kill-after N]"
    );
    std::process::exit(2);
}

/// The parsed command line.
struct Args {
    resume: bool,
    request: PathBuf,
    journal: Option<PathBuf>,
    out: Option<PathBuf>,
    serial: bool,
    kill_after: Option<usize>,
}

/// Parses the command line; `None` on an unknown mode or flag, a
/// missing or malformed value, or a missing `--request`.
fn parse_args(args: &[String]) -> Option<Args> {
    let mut it = args.iter();
    let resume = match it.next()?.as_str() {
        "run" => false,
        "resume" => true,
        _ => return None,
    };
    let (mut request, mut journal, mut out) = (None, None, None);
    let (mut serial, mut kill_after) = (false, None);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--request" => request = Some(PathBuf::from(it.next()?)),
            "--journal" => journal = Some(PathBuf::from(it.next()?)),
            "--out" => out = Some(PathBuf::from(it.next()?)),
            "--serial" if !resume => serial = true,
            "--fault-kill-after" => {
                kill_after = Some(it.next()?.parse().ok().filter(|&n: &usize| n >= 1)?)
            }
            _ => return None,
        }
    }
    Some(Args {
        resume,
        request: request?,
        journal,
        out,
        serial,
        kill_after,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&args) else {
        usage();
    };
    let journal_path = args
        .journal
        .unwrap_or_else(|| args.request.with_extension("vgj"));
    if args.resume && !journal_path.exists() {
        eprintln!(
            "[sweep] resume: journal {} does not exist (nothing to resume)",
            journal_path.display()
        );
        std::process::exit(2);
    }

    let request_text = std::fs::read_to_string(&args.request).unwrap_or_else(|e| {
        eprintln!("[sweep] read {}: {e}", args.request.display());
        std::process::exit(1);
    });
    let request = SweepRequest::parse(&request_text).unwrap_or_else(|e| {
        eprintln!("[sweep] bad request: {e}");
        std::process::exit(2);
    });
    let sweep = Sweep::build(request, FaultPolicy::from_env()).unwrap_or_else(|e| {
        eprintln!("[sweep] {e}");
        std::process::exit(1);
    });
    let merged = if args.serial {
        eprintln!("[sweep] {} jobs (serial)", sweep.plan().len());
        sweep.run_serial()
    } else {
        eprintln!(
            "[sweep] {} jobs, journal {}",
            sweep.plan().len(),
            journal_path.display()
        );
        let journal = Journal::new(&journal_path);
        sweep
            .run_journaled(&journal, args.kill_after)
            .unwrap_or_else(|e| {
                eprintln!(
                    "[sweep] {e}; resume with: vanguard-sweep resume --request {} --journal {}",
                    args.request.display(),
                    journal_path.display()
                );
                std::process::exit(1);
            })
    };

    match args.out {
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
