//! Resumable sweep service (DESIGN.md §7.11).
//!
//! A *sweep* is the paper's fig8-shaped grid — suite × widths ×
//! predictors × transform kinds — flattened to a deterministic list of
//! [`PlannedJob`]s, each keyed by the engine's content-addressed
//! [`job_key`](vanguard_core::engine::Engine::job_key). One process
//! runs that list on its engine's worker pool (`VANGUARD_THREADS`)
//! against a [`Journal`]:
//!
//! * the journal is read once, and every job it already holds is
//!   skipped — pointing a run at a partial journal *is* the resume path;
//! * every job that finishes appends one checksummed record (key →
//!   encoded outcome) with [`Journal::append_new`] the moment it ends,
//!   so a crash loses at most the jobs still in flight;
//! * jobs run through the engine's containment boundary, so a panicking
//!   job is retried and a failing one becomes a journaled outcome.
//!
//! The invariant the whole design serves: the merged result of a run —
//! at any thread count, across any crash/resume split — is
//! **byte-identical** to a serial run of the same request. The
//! `kill-and-resume` fault class and the CI `sweep-resume` job enforce
//! it.
//!
//! The module is the library behind the `vanguard-sweep` binary.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use vanguard_core::engine::{
    Engine, FaultPolicy, JobResult, PredictorKind, SimJob, SweepCell, Variant,
    DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::{Journal, JournalSnapshot, TransformKind, TransformOptions};
use vanguard_sim::{MachineConfig, SimStats};
use vanguard_workloads::suite;

use crate::{quick_spec, to_experiment_input, BenchScale};

/// First line of a sweep request file.
pub const REQUEST_MAGIC: &str = "VGS1";

/// Stable CLI name of a predictor rung.
pub fn predictor_name(p: PredictorKind) -> &'static str {
    match p {
        PredictorKind::Bimodal8K => "bimodal8k",
        PredictorKind::Combined6KB => "combined6kb",
        PredictorKind::Combined24KB => "combined24kb",
        PredictorKind::TwoLevelLocal => "twolevel-local",
        PredictorKind::Tage32KB => "tage32kb",
        PredictorKind::IslTage64KB => "isltage64kb",
    }
}

/// Parses a [`predictor_name`] back to the rung.
pub fn parse_predictor(s: &str) -> Option<PredictorKind> {
    [
        PredictorKind::Bimodal8K,
        PredictorKind::Combined6KB,
        PredictorKind::Combined24KB,
        PredictorKind::TwoLevelLocal,
        PredictorKind::Tage32KB,
        PredictorKind::IslTage64KB,
    ]
    .into_iter()
    .find(|&p| predictor_name(p) == s)
}

fn machine_for_width(width: usize) -> Option<MachineConfig> {
    match width {
        2 => Some(MachineConfig::two_wide()),
        4 => Some(MachineConfig::four_wide()),
        8 => Some(MachineConfig::eight_wide()),
        _ => None,
    }
}

/// One sweep request: the grid to run, in canonical `VGS1` text form.
///
/// ```text
/// VGS1
/// suite spec2006-int 2
/// widths 4
/// predictors combined24kb
/// transforms vanguard meld
/// scale quick
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepRequest {
    /// Benchmark suite name (`spec2006-int`, `spec2006-fp`,
    /// `spec2000-int`, `spec2000-fp`).
    pub suite: String,
    /// Number of suite benchmarks to take (0 = the whole suite).
    pub count: usize,
    /// Machine widths (2, 4, 8).
    pub widths: Vec<usize>,
    /// Predictor rungs.
    pub predictors: Vec<PredictorKind>,
    /// Transform kinds.
    pub kinds: Vec<TransformKind>,
    /// Iteration scale.
    pub scale: BenchScale,
}

impl SweepRequest {
    /// A CI-sized request: two benchmarks, one width, baseline
    /// predictor, vanguard + meld — 8 jobs, seconds of work.
    pub fn ci_quick() -> SweepRequest {
        SweepRequest {
            suite: "spec2006-int".into(),
            count: 2,
            widths: vec![4],
            predictors: vec![PredictorKind::Combined24KB],
            kinds: vec![TransformKind::Vanguard, TransformKind::Meld],
            scale: BenchScale::Quick,
        }
    }

    /// Parses the `VGS1` text form. Unknown or duplicate lines are
    /// errors; `widths`/`predictors`/`transforms`/`scale` default to
    /// `4` / `combined24kb` / `vanguard` / `quick` when absent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<SweepRequest, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some(REQUEST_MAGIC) {
            return Err(format!("request must start with `{REQUEST_MAGIC}`"));
        }
        let mut suite: Option<(String, usize)> = None;
        let mut widths: Option<Vec<usize>> = None;
        let mut predictors: Option<Vec<PredictorKind>> = None;
        let mut kinds: Option<Vec<TransformKind>> = None;
        let mut scale: Option<BenchScale> = None;
        for line in lines {
            let (tag, rest) = line
                .split_once(' ')
                .ok_or(format!("malformed line `{line}`"))?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let dup = |n: &str| format!("duplicate `{n}` line");
            match tag {
                "suite" => {
                    if suite.is_some() {
                        return Err(dup("suite"));
                    }
                    let name = fields.first().ok_or("suite line needs a name")?.to_string();
                    let count = match fields.get(1) {
                        Some(c) => c.parse().map_err(|e| format!("suite count: {e}"))?,
                        None => 0,
                    };
                    suite = Some((name, count));
                }
                "widths" => {
                    if widths.is_some() {
                        return Err(dup("widths"));
                    }
                    let parsed: Result<Vec<usize>, String> = fields
                        .iter()
                        .map(|f| {
                            let w: usize = f.parse().map_err(|e| format!("width: {e}"))?;
                            machine_for_width(w).ok_or(format!("unsupported width {w}"))?;
                            Ok(w)
                        })
                        .collect();
                    widths = Some(parsed?);
                }
                "predictors" => {
                    if predictors.is_some() {
                        return Err(dup("predictors"));
                    }
                    let parsed: Result<Vec<PredictorKind>, String> = fields
                        .iter()
                        .map(|f| parse_predictor(f).ok_or(format!("unknown predictor `{f}`")))
                        .collect();
                    predictors = Some(parsed?);
                }
                "transforms" => {
                    if kinds.is_some() {
                        return Err(dup("transforms"));
                    }
                    let parsed: Result<Vec<TransformKind>, String> = fields
                        .iter()
                        .map(|f| TransformKind::parse(f).ok_or(format!("unknown transform `{f}`")))
                        .collect();
                    kinds = Some(parsed?);
                }
                "scale" => {
                    if scale.is_some() {
                        return Err(dup("scale"));
                    }
                    scale = Some(match fields.first() {
                        Some(&"quick") => BenchScale::Quick,
                        Some(&"full") => BenchScale::Full,
                        other => return Err(format!("unknown scale {other:?}")),
                    });
                }
                other => return Err(format!("unknown request line `{other}`")),
            }
        }
        let (suite, count) = suite.ok_or("request has no `suite` line")?;
        let request = SweepRequest {
            suite,
            count,
            widths: widths.unwrap_or_else(|| vec![4]),
            predictors: predictors.unwrap_or_else(|| vec![PredictorKind::Combined24KB]),
            kinds: kinds.unwrap_or_else(|| vec![TransformKind::Vanguard]),
            scale: scale.unwrap_or(BenchScale::Quick),
        };
        if request.widths.is_empty() || request.predictors.is_empty() || request.kinds.is_empty() {
            return Err("request has an empty axis".into());
        }
        Ok(request)
    }

    /// Renders the canonical `VGS1` text form ([`SweepRequest::parse`]
    /// round-trips it).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{REQUEST_MAGIC}");
        let _ = writeln!(out, "suite {} {}", self.suite, self.count);
        let widths: Vec<String> = self.widths.iter().map(|w| w.to_string()).collect();
        let _ = writeln!(out, "widths {}", widths.join(" "));
        let preds: Vec<&str> = self.predictors.iter().map(|&p| predictor_name(p)).collect();
        let _ = writeln!(out, "predictors {}", preds.join(" "));
        let kinds: Vec<&str> = self.kinds.iter().map(|k| k.name()).collect();
        let _ = writeln!(out, "transforms {}", kinds.join(" "));
        let _ = writeln!(
            out,
            "scale {}",
            match self.scale {
                BenchScale::Quick => "quick",
                BenchScale::Full => "full",
            }
        );
        out
    }
}

/// One planned simulation of a sweep: the engine job plus the transform
/// kind that parameterizes it, keyed for the journal.
#[derive(Clone, Debug)]
pub struct PlannedJob {
    /// Deterministic content-addressed key (the journal key).
    pub key: u64,
    /// The transform kind this job runs under.
    pub kind: TransformKind,
    /// The engine job.
    pub job: SimJob,
}

fn kind_options(kind: TransformKind) -> TransformOptions {
    TransformOptions {
        kind,
        ..TransformOptions::default()
    }
}

/// A built sweep: the request resolved against real workloads, with the
/// full deterministic job plan. Construction registers the benchmarks
/// (cheap); no simulation happens until jobs run.
#[derive(Debug)]
pub struct Sweep {
    request: SweepRequest,
    engine: Engine,
    bench_names: Vec<String>,
    plan: Vec<PlannedJob>,
}

impl Sweep {
    /// Builds the sweep under a fault policy (its `cache_dir`, when set,
    /// persists profiles and compiled pairs across runs).
    ///
    /// # Errors
    ///
    /// Returns a description of an unknown suite or an internal key
    /// collision (two planned jobs hashing identically — a bug, never
    /// an input condition).
    pub fn build(request: SweepRequest, policy: FaultPolicy) -> Result<Sweep, String> {
        let specs = match request.suite.as_str() {
            "spec2006-int" => suite::spec2006_int(),
            "spec2006-fp" => suite::spec2006_fp(),
            "spec2000-int" => suite::spec2000_int(),
            "spec2000-fp" => suite::spec2000_fp(),
            other => return Err(format!("unknown suite `{other}`")),
        };
        let take = if request.count == 0 {
            specs.len()
        } else {
            request.count.min(specs.len())
        };
        let mut engine = Engine::new();
        engine.set_fault_policy(policy);
        let mut bench_ids = Vec::new();
        let mut bench_names = Vec::new();
        for spec in specs.into_iter().take(take) {
            bench_names.push(spec.name.clone());
            let input = to_experiment_input(quick_spec(spec, request.scale).build());
            bench_ids.push(engine.add_benchmark(input));
        }
        // The plan order IS the merged-output order: kind, then
        // predictor, then width, then (bench, ref, variant) exactly as
        // `jobs_for_cells` flattens them. Deterministic by construction.
        let mut plan = Vec::new();
        for &kind in &request.kinds {
            let options = kind_options(kind);
            for &predictor in &request.predictors {
                for &width in &request.widths {
                    let machine = machine_for_width(width).expect("widths validated at parse");
                    let cells: Vec<SweepCell> = bench_ids
                        .iter()
                        .map(|&bench| SweepCell {
                            bench,
                            machine,
                            predictor,
                        })
                        .collect();
                    for job in engine.jobs_for_cells(&cells) {
                        plan.push(PlannedJob {
                            key: engine.job_key(&job, &options, DEFAULT_MAX_PROFILE_STEPS),
                            kind,
                            job,
                        });
                    }
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for pj in &plan {
            if !seen.insert(pj.key) {
                return Err(format!("job key collision on {:016x}", pj.key));
            }
        }
        Ok(Sweep {
            request,
            engine,
            bench_names,
            plan,
        })
    }

    /// The deterministic job plan (merged-output order).
    pub fn plan(&self) -> &[PlannedJob] {
        &self.plan
    }

    /// Runs one planned job and encodes its outcome as a journal
    /// payload (deterministic: wall-clock and retry metadata excluded).
    pub fn run_job(&self, pj: &PlannedJob) -> String {
        let result =
            self.engine
                .run_job(&pj.job, &kind_options(pj.kind), DEFAULT_MAX_PROFILE_STEPS);
        encode_outcome(&result)
    }

    /// Renders one merged-output line from a planned job and its
    /// recorded payload.
    pub fn line(&self, pj: &PlannedJob, payload: &str) -> String {
        format!(
            "{:016x} {} {} w{} {} ref{} {} | {}",
            pj.key,
            pj.kind.name(),
            predictor_name(pj.job.predictor),
            pj.job.machine.width,
            self.bench_names
                .get(pj.job.bench)
                .map(String::as_str)
                .unwrap_or("?"),
            pj.job.ref_input,
            match pj.job.variant {
                Variant::Baseline => "base",
                Variant::Transformed => "xform",
            },
            payload
        )
    }

    /// Runs every planned job serially in-process, in plan order — the
    /// bit-identity reference for [`Sweep::run_journaled`].
    pub fn run_serial(&self) -> String {
        let mut out = String::new();
        for pj in &self.plan {
            let payload = self.run_job(pj);
            out.push_str(&self.line(pj, &payload));
            out.push('\n');
        }
        out
    }

    /// Reconstructs the merged output from a journal snapshot, in plan
    /// order. Returns the keys still missing when the sweep is
    /// incomplete.
    ///
    /// # Errors
    ///
    /// The `Err` payload lists every planned key absent from the
    /// snapshot.
    pub fn merged(&self, snapshot: &JournalSnapshot) -> Result<String, Vec<u64>> {
        let by_key: HashMap<u64, &[u8]> = snapshot
            .records
            .iter()
            .map(|r| (r.key, r.payload.as_slice()))
            .collect();
        let missing: Vec<u64> = self
            .plan
            .iter()
            .filter(|pj| !by_key.contains_key(&pj.key))
            .map(|pj| pj.key)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        let mut out = String::new();
        for pj in &self.plan {
            let payload = String::from_utf8_lossy(by_key[&pj.key]);
            out.push_str(&self.line(pj, &payload));
            out.push('\n');
        }
        Ok(out)
    }

    /// Runs every planned job that `journal` does not hold yet on the
    /// engine's pool — one pool call per transform kind — and appends
    /// each outcome with [`Journal::append_new`] as soon as its job
    /// finishes. Returns the merged output in plan order.
    ///
    /// `abort_after` is fault injection: after this call's Nth append
    /// the process dies by [`std::process::abort`], with no unwinding
    /// and other jobs possibly mid-run or mid-append, leaving a partial
    /// journal for a later call to resume.
    ///
    /// # Errors
    ///
    /// Returns the first journal read or append error (the jobs already
    /// appended stay journaled), or [`io::ErrorKind::InvalidData`] when
    /// the journal holds duplicate records or misses a planned job.
    pub fn run_journaled(
        &self,
        journal: &Journal,
        abort_after: Option<usize>,
    ) -> io::Result<String> {
        let done = journal.read()?;
        let appended = AtomicUsize::new(0);
        let first_error: Mutex<Option<io::Error>> = Mutex::new(None);
        for &kind in &self.request.kinds {
            let pending: Vec<&PlannedJob> = self
                .plan
                .iter()
                .filter(|pj| pj.kind == kind && !done.contains(pj.key))
                .collect();
            let jobs: Vec<SimJob> = pending.iter().map(|pj| pj.job).collect();
            self.engine.run_jobs_with(
                &jobs,
                &kind_options(kind),
                DEFAULT_MAX_PROFILE_STEPS,
                |i, outcome| {
                    let payload = encode_outcome(outcome);
                    match journal.append_new(pending[i].key, payload.as_bytes()) {
                        Ok(true) => {
                            if Some(appended.fetch_add(1, Ordering::SeqCst) + 1) == abort_after {
                                std::process::abort();
                            }
                        }
                        Ok(false) => {}
                        Err(e) => {
                            first_error
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .get_or_insert(e);
                        }
                    }
                },
            );
        }
        if let Some(e) = first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        let snapshot = journal.read()?;
        let duplicates = snapshot.duplicate_keys();
        if !duplicates.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal has duplicate job records: {duplicates:016x?}"),
            ));
        }
        self.merged(&snapshot).map_err(|missing| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal misses {} planned jobs", missing.len()),
            )
        })
    }
}

/// The deterministic scalar projection of a [`SimStats`] (every counter
/// including the memory hierarchy; excludes nothing that distinguishes
/// two runs).
fn stats_words(s: &SimStats) -> [u64; 26] {
    [
        s.cycles,
        s.issued,
        s.issued_wrong_path,
        s.fetched,
        s.predicts,
        s.branches,
        s.branch_mispredicts,
        s.resolves,
        s.resolve_mispredicts,
        s.branch_stall_cycles,
        s.resolve_stall_cycles,
        s.frontend_stall_cycles,
        s.operand_stall_cycles,
        s.fu_stall_cycles,
        s.redirects,
        s.icache_miss_under_mispredict,
        s.icache_stall_cycles,
        s.mem.l1i.hits,
        s.mem.l1i.misses,
        s.mem.l1d.hits,
        s.mem.l1d.misses,
        s.mem.l2.hits,
        s.mem.l2.misses,
        s.mem.l3.hits,
        s.mem.l3.misses,
        s.mem.memory_accesses,
    ]
}

fn single_line(s: String) -> String {
    s.replace('\n', " ")
}

/// Encodes a job outcome as a deterministic journal payload. Wall-clock
/// fields and the retry flag are deliberately excluded: a resumed run
/// must merge byte-identically to an uninterrupted one.
pub fn encode_outcome(result: &JobResult) -> String {
    match result {
        JobResult::Completed(s) => {
            let words: Vec<String> = stats_words(&s.stats).iter().map(u64::to_string).collect();
            format!("ok {}", words.join(" "))
        }
        JobResult::Faulted {
            trap, pc, cycle, ..
        } => single_line(format!("fault pc={pc:#x} cycle={cycle} trap={trap:?}")),
        JobResult::TimedOut { cycles, .. } => format!("timeout cycles={cycles}"),
        JobResult::Failed { error, .. } => single_line(format!("failed {error}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vanguard-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_request() -> SweepRequest {
        SweepRequest {
            count: 1,
            kinds: vec![TransformKind::Vanguard],
            ..SweepRequest::ci_quick()
        }
    }

    #[test]
    fn request_roundtrips_through_text() {
        let request = SweepRequest {
            suite: "spec2006-int".into(),
            count: 3,
            widths: vec![2, 4],
            predictors: vec![PredictorKind::Combined24KB, PredictorKind::Bimodal8K],
            kinds: vec![TransformKind::Vanguard, TransformKind::Stacked],
            scale: BenchScale::Quick,
        };
        assert_eq!(SweepRequest::parse(&request.render()), Ok(request));
    }

    #[test]
    fn request_defaults_and_errors() {
        let parsed = SweepRequest::parse("VGS1\n# comment\nsuite spec2006-int 2\n").unwrap();
        assert_eq!(parsed.widths, vec![4]);
        assert_eq!(parsed.predictors, vec![PredictorKind::Combined24KB]);
        assert_eq!(parsed.kinds, vec![TransformKind::Vanguard]);
        assert_eq!(parsed.scale, BenchScale::Quick);
        assert!(SweepRequest::parse("nope\n").is_err());
        assert!(SweepRequest::parse("VGS1\nwidths 4\n").is_err());
        assert!(SweepRequest::parse("VGS1\nsuite spec2006-int\nwidths 3\n").is_err());
        assert!(SweepRequest::parse("VGS1\nsuite a 1\nsuite a 1\n").is_err());
        // Suite names resolve at build time, not parse time.
        let mystery = SweepRequest::parse("VGS1\nsuite mystery-suite\n").unwrap();
        assert!(Sweep::build(mystery, FaultPolicy::default()).is_err());
    }

    #[test]
    fn plan_is_deterministic_with_unique_keys() {
        let a = Sweep::build(SweepRequest::ci_quick(), FaultPolicy::default()).unwrap();
        let b = Sweep::build(SweepRequest::ci_quick(), FaultPolicy::default()).unwrap();
        assert_eq!(a.plan().len(), 8); // 2 kinds x 2 benches x 2 variants
        let keys_a: Vec<u64> = a.plan().iter().map(|pj| pj.key).collect();
        let keys_b: Vec<u64> = b.plan().iter().map(|pj| pj.key).collect();
        assert_eq!(keys_a, keys_b, "job keys are process-independent");
        let mut sorted = keys_a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys_a.len(), "keys are unique");
    }

    #[test]
    fn merged_journal_matches_serial_run() {
        let dir = scratch("merge");
        let policy = FaultPolicy {
            cache_dir: Some(dir.join("cache")),
            ..FaultPolicy::default()
        };
        let sweep = Sweep::build(tiny_request(), policy).unwrap();
        let serial = sweep.run_serial();

        // Journal the jobs out of order, as pool workers may finish.
        let journal = Journal::new(dir.join("journal.vgj"));
        let mut order: Vec<&PlannedJob> = sweep.plan().iter().collect();
        order.reverse();
        for pj in order {
            journal
                .append(pj.key, sweep.run_job(pj).as_bytes())
                .unwrap();
        }
        let merged = sweep.merged(&journal.read().unwrap()).unwrap();
        assert_eq!(merged, serial, "merged output is order-independent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_run_resumes_only_the_missing_jobs() {
        let dir = scratch("resume");
        let sweep = Sweep::build(tiny_request(), FaultPolicy::default()).unwrap();
        let serial = sweep.run_serial();
        let journal = Journal::new(dir.join("journal.vgj"));
        let half = sweep.plan().len() / 2;
        for pj in &sweep.plan()[..half] {
            journal
                .append(pj.key, sweep.run_job(pj).as_bytes())
                .unwrap();
        }

        let resumed = Sweep::build(tiny_request(), FaultPolicy::default()).unwrap();
        let merged = resumed.run_journaled(&journal, None).unwrap();
        assert_eq!(
            resumed.engine.stats().sim_jobs as usize,
            resumed.plan().len() - half,
            "only the jobs missing from the journal run"
        );
        assert_eq!(merged, serial, "resumed merge is byte-identical to serial");
        assert!(journal.read().unwrap().duplicate_keys().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_reports_missing_jobs() {
        let sweep = Sweep::build(tiny_request(), FaultPolicy::default()).unwrap();
        let missing = sweep.merged(&JournalSnapshot::default()).unwrap_err();
        assert_eq!(missing.len(), sweep.plan().len());
    }

    #[test]
    fn outcome_payloads_are_deterministic_text() {
        let sweep = Sweep::build(tiny_request(), FaultPolicy::default()).unwrap();
        let pj = &sweep.plan()[0];
        let a = sweep.run_job(pj);
        let b = sweep.run_job(pj);
        assert_eq!(a, b);
        assert!(a.starts_with("ok "), "{a}");
        assert_eq!(a.split(' ').count(), 27, "tag + 26 counters");
    }

    #[test]
    fn predictor_names_roundtrip() {
        for p in [
            PredictorKind::Bimodal8K,
            PredictorKind::Combined6KB,
            PredictorKind::Combined24KB,
            PredictorKind::TwoLevelLocal,
            PredictorKind::Tage32KB,
            PredictorKind::IslTage64KB,
        ] {
            assert_eq!(parse_predictor(predictor_name(p)), Some(p));
        }
        assert_eq!(parse_predictor("perceptron"), None);
    }
}
