//! The sweep daemon's status endpoint: an atomically-published
//! `status.json` in the spool directory, for the explorer (ROADMAP
//! item 5) to poll and for `vanguard-sweep status` to pretty-print.
//!
//! The file is plain JSON, schema [`STATUS_SCHEMA`], rewritten via a
//! temp file and atomic rename so a poller never observes a torn
//! write. Everything in it
//! is either a daemon counter ([`DaemonStatus`]) or a filesystem fact
//! gathered at publish time (worker heartbeat ages, journal + cache
//! sizes, quarantine count) — the daemon holds no state a restart would
//! lose.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};
use vanguard_core::atomic_publish;

/// Schema tag of `status.json`.
pub const STATUS_SCHEMA: &str = "vanguard-sweep-status-v1";

/// File name of the status endpoint inside the spool directory.
pub const STATUS_FILE: &str = "status.json";

/// Prefix of per-worker heartbeat files in the shared cache directory:
/// `hb-<pid>`, mtime refreshed by the worker's heartbeat thread. A live
/// worker holds an OS lock on its file, so the file of a worker that
/// died without removing it is unlocked.
pub const HEARTBEAT_PREFIX: &str = "hb-";

/// Milliseconds since the Unix epoch, for `updated_ms` stamps.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One worker's liveness: its pid and how long ago it last heartbeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardBeat {
    /// Worker process id (from its `hb-<pid>` file name).
    pub pid: u64,
    /// Milliseconds since the worker last refreshed its heartbeat.
    pub heartbeat_ms: u64,
}

/// The decoded contents of `status.json`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusSnapshot {
    /// Daemon process id.
    pub pid: u64,
    /// Publish time, milliseconds since the Unix epoch.
    pub updated_ms: u64,
    /// What the daemon is doing (`idle`, `serving <stem>`).
    pub state: String,
    /// Journaled jobs of the request in flight (0 when idle).
    pub jobs_done: u64,
    /// Planned jobs of the request in flight (0 when idle).
    pub jobs_total: u64,
    /// Requests completed since the daemon started.
    pub requests_done: u64,
    /// Requests that failed (malformed or quarantined).
    pub requests_failed: u64,
    /// Current journal tail size in bytes.
    pub journal_bytes: u64,
    /// Current journal compaction-snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// Total bytes of cache entries in the shared store.
    pub cache_bytes: u64,
    /// Requests sitting in the spool quarantine.
    pub quarantined: u64,
    /// Live worker heartbeats, oldest pid first.
    pub shards: Vec<ShardBeat>,
}

impl StatusSnapshot {
    /// Renders the canonical JSON form (one key per line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{STATUS_SCHEMA}\",");
        let _ = writeln!(out, "  \"pid\": {},", self.pid);
        let _ = writeln!(out, "  \"updated_ms\": {},", self.updated_ms);
        let _ = writeln!(out, "  \"state\": \"{}\",", self.state);
        let _ = writeln!(out, "  \"jobs_done\": {},", self.jobs_done);
        let _ = writeln!(out, "  \"jobs_total\": {},", self.jobs_total);
        let _ = writeln!(out, "  \"requests_done\": {},", self.requests_done);
        let _ = writeln!(out, "  \"requests_failed\": {},", self.requests_failed);
        let _ = writeln!(out, "  \"journal_bytes\": {},", self.journal_bytes);
        let _ = writeln!(out, "  \"snapshot_bytes\": {},", self.snapshot_bytes);
        let _ = writeln!(out, "  \"cache_bytes\": {},", self.cache_bytes);
        let _ = writeln!(out, "  \"quarantined\": {},", self.quarantined);
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"pid\": {}, \"heartbeat_ms\": {}}}",
                    s.pid, s.heartbeat_ms
                )
            })
            .collect();
        let _ = writeln!(out, "  \"shards\": [{}]", shards.join(", "));
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses the JSON form produced by [`StatusSnapshot::render`].
    /// Minimal by design (flat schema, no escapes in `state`): the
    /// status file is machine-written, never hand-edited.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse(text: &str) -> Result<StatusSnapshot, String> {
        if field_str(text, "schema").as_deref() != Some(STATUS_SCHEMA) {
            return Err(format!("not a {STATUS_SCHEMA} file"));
        }
        let num = |key: &str| field_u64(text, key).ok_or_else(|| format!("missing field `{key}`"));
        let mut shards = Vec::new();
        if let Some(open) = text.find("\"shards\": [") {
            let rest = &text[open + "\"shards\": [".len()..];
            let close = rest.find(']').ok_or("unterminated shards array")?;
            for obj in rest[..close].split('}') {
                if !obj.contains("\"pid\"") {
                    continue;
                }
                shards.push(ShardBeat {
                    pid: field_u64(obj, "pid").ok_or("shard entry missing pid")?,
                    heartbeat_ms: field_u64(obj, "heartbeat_ms")
                        .ok_or("shard entry missing heartbeat_ms")?,
                });
            }
        }
        Ok(StatusSnapshot {
            pid: num("pid")?,
            updated_ms: num("updated_ms")?,
            state: field_str(text, "state").ok_or("missing field `state`")?,
            jobs_done: num("jobs_done")?,
            jobs_total: num("jobs_total")?,
            requests_done: num("requests_done")?,
            requests_failed: num("requests_failed")?,
            journal_bytes: num("journal_bytes")?,
            snapshot_bytes: num("snapshot_bytes")?,
            cache_bytes: num("cache_bytes")?,
            quarantined: num("quarantined")?,
            shards,
        })
    }

    /// Pretty-prints the status for a human, given how old the file is
    /// (`age_ms`) and the staleness cutoff. A daemon that has not
    /// republished within the cutoff is flagged prominently — its
    /// numbers describe the past.
    pub fn format_human(&self, age_ms: u64, stale_after_ms: u64) -> String {
        let mut out = String::new();
        let freshness = if age_ms > stale_after_ms {
            format!("STALE (updated {age_ms} ms ago; daemon gone?)")
        } else {
            format!("fresh (updated {age_ms} ms ago)")
        };
        let _ = writeln!(out, "daemon   : pid {} — {freshness}", self.pid);
        let _ = writeln!(out, "state    : {}", self.state);
        if self.jobs_total > 0 {
            let _ = writeln!(out, "jobs     : {} / {}", self.jobs_done, self.jobs_total);
        }
        let _ = writeln!(
            out,
            "requests : {} done, {} failed, {} quarantined",
            self.requests_done, self.requests_failed, self.quarantined
        );
        let _ = writeln!(
            out,
            "journal  : {} B tail, {} B snapshot",
            self.journal_bytes, self.snapshot_bytes
        );
        let _ = writeln!(out, "cache    : {} B", self.cache_bytes);
        if self.shards.is_empty() {
            let _ = writeln!(out, "workers  : none");
        } else {
            for s in &self.shards {
                let _ = writeln!(
                    out,
                    "worker   : pid {} heartbeat {} ms ago",
                    s.pid, s.heartbeat_ms
                );
            }
        }
        out
    }
}

/// Extracts `"key": <digits>` from a flat JSON text.
fn field_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "<value>"` (no escape handling — the writer never
/// emits escapes).
fn field_str(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The daemon's live counters plus the directories to gather filesystem
/// facts from at publish time. Shared (via `Arc`) between the daemon
/// loop and [`run_sharded`](crate::sweep::run_sharded).
#[derive(Debug)]
pub struct DaemonStatus {
    spool: PathBuf,
    cache_dir: PathBuf,
    state: Mutex<String>,
    journal: Mutex<Option<PathBuf>>,
    jobs_done: AtomicU64,
    jobs_total: AtomicU64,
    requests_done: AtomicU64,
    requests_failed: AtomicU64,
}

impl DaemonStatus {
    /// A status publisher for a daemon spooling at `spool` with workers
    /// sharing `cache_dir`.
    pub fn new(spool: impl Into<PathBuf>, cache_dir: impl Into<PathBuf>) -> DaemonStatus {
        DaemonStatus {
            spool: spool.into(),
            cache_dir: cache_dir.into(),
            state: Mutex::new("idle".into()),
            journal: Mutex::new(None),
            jobs_done: AtomicU64::new(0),
            jobs_total: AtomicU64::new(0),
            requests_done: AtomicU64::new(0),
            requests_failed: AtomicU64::new(0),
        }
    }

    /// Sets the human-readable daemon state (`idle`, `serving <stem>`).
    pub fn set_state(&self, state: &str) {
        if let Ok(mut s) = self.state.lock() {
            *s = state.into();
        }
    }

    /// Points the journal-size gauges at the request in flight (`None`
    /// when idle).
    pub fn set_journal(&self, path: Option<PathBuf>) {
        if let Ok(mut j) = self.journal.lock() {
            *j = path;
        }
    }

    /// Updates the in-flight job progress gauges.
    pub fn set_jobs(&self, done: u64, total: u64) {
        self.jobs_done.store(done, Ordering::Relaxed);
        self.jobs_total.store(total, Ordering::Relaxed);
    }

    /// Counts a completed request.
    pub fn count_request_done(&self) {
        self.requests_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a failed request (malformed or quarantined).
    pub fn count_request_failed(&self) {
        self.requests_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Gathers the current status: counters plus filesystem facts
    /// (heartbeats, sizes, quarantine population).
    pub fn snapshot(&self) -> StatusSnapshot {
        let journal = self.journal.lock().ok().and_then(|j| j.clone());
        let (journal_bytes, snapshot_bytes) = match &journal {
            Some(path) => {
                let mut snap = path.as_os_str().to_os_string();
                snap.push(".snap");
                (file_len(path), file_len(Path::new(&snap)))
            }
            None => (0, 0),
        };
        let mut shards = scan_heartbeats(&self.cache_dir);
        shards.sort_by_key(|s| s.pid);
        StatusSnapshot {
            pid: std::process::id() as u64,
            updated_ms: now_ms(),
            state: self
                .state
                .lock()
                .map(|s| s.clone())
                .unwrap_or_else(|_| "unknown".into()),
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            jobs_total: self.jobs_total.load(Ordering::Relaxed),
            requests_done: self.requests_done.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            journal_bytes,
            snapshot_bytes,
            cache_bytes: cache_bytes(&self.cache_dir),
            quarantined: quarantined_requests(&self.spool.join("quarantine")),
            shards,
        }
    }

    /// Publishes `status.json` into the spool with [`atomic_publish`],
    /// so a poller (or a crash) never leaves a torn or empty file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from writing, syncing, or renaming.
    pub fn publish(&self) -> io::Result<()> {
        fs::create_dir_all(&self.spool)?;
        atomic_publish(
            &self.spool.join(STATUS_FILE),
            self.snapshot().render().as_bytes(),
        )
    }
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Total size of cache entries (`*.bin`) in the store.
fn cache_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Number of quarantined `.req` files in a directory (0 when absent);
/// their `.repro.txt` reproducers do not inflate the count.
fn quarantined_requests(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "req"))
                .count() as u64
        })
        .unwrap_or(0)
}

/// Worker `hb-<pid>` files in the cache dir, with mtime ages. A file
/// whose lock this scan wins belongs to a dead (say `SIGKILL`ed) worker:
/// it is removed and not reported.
fn scan_heartbeats(dir: &Path) -> Vec<ShardBeat> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let now = SystemTime::now();
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            let pid: u64 = name.strip_prefix(HEARTBEAT_PREFIX)?.parse().ok()?;
            if fs::File::open(e.path()).ok()?.try_lock().is_ok() {
                let _ = fs::remove_file(e.path());
                return None;
            }
            let mtime = e.metadata().ok()?.modified().ok()?;
            let age = now.duration_since(mtime).unwrap_or_default();
            Some(ShardBeat {
                pid,
                heartbeat_ms: age.as_millis() as u64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusSnapshot {
        StatusSnapshot {
            pid: 42,
            updated_ms: 1_000_000,
            state: "serving nightly".into(),
            jobs_done: 3,
            jobs_total: 8,
            requests_done: 2,
            requests_failed: 1,
            journal_bytes: 512,
            snapshot_bytes: 2048,
            cache_bytes: 9999,
            quarantined: 1,
            shards: vec![
                ShardBeat {
                    pid: 101,
                    heartbeat_ms: 40,
                },
                ShardBeat {
                    pid: 102,
                    heartbeat_ms: 75,
                },
            ],
        }
    }

    #[test]
    fn render_parse_roundtrips() {
        let status = sample();
        assert_eq!(StatusSnapshot::parse(&status.render()), Ok(status));
        let empty = StatusSnapshot {
            shards: Vec::new(),
            ..sample()
        };
        assert_eq!(StatusSnapshot::parse(&empty.render()), Ok(empty));
    }

    #[test]
    fn parse_rejects_other_files() {
        assert!(StatusSnapshot::parse("{}").is_err());
        assert!(StatusSnapshot::parse("not json").is_err());
        let truncated = sample().render().replace("\"jobs_done\": 3,\n", "");
        assert!(StatusSnapshot::parse(&truncated).is_err());
    }

    #[test]
    fn formatter_reports_fresh_and_stale() {
        let status = sample();
        let fresh = status.format_human(500, 5_000);
        assert!(fresh.contains("fresh"), "{fresh}");
        assert!(fresh.contains("pid 42"), "{fresh}");
        assert!(fresh.contains("3 / 8"), "{fresh}");
        assert!(fresh.contains("serving nightly"), "{fresh}");
        assert!(fresh.contains("worker   : pid 101"), "{fresh}");
        let stale = status.format_human(60_000, 5_000);
        assert!(stale.contains("STALE"), "{stale}");
    }

    #[test]
    fn publisher_gathers_filesystem_facts() {
        let dir = std::env::temp_dir().join(format!("vanguard-status-pub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spool = dir.join("spool");
        let cache = spool.join("cache");
        std::fs::create_dir_all(&cache).unwrap();
        std::fs::write(cache.join("pair-0000000000000001.bin"), [0u8; 64]).unwrap();
        // A live worker holds its heartbeat file locked.
        let hb = std::fs::File::create(cache.join(format!("{HEARTBEAT_PREFIX}123"))).unwrap();
        hb.lock().unwrap();
        std::fs::create_dir_all(spool.join("quarantine")).unwrap();
        std::fs::write(spool.join("quarantine/poison.req"), b"VGS1\n").unwrap();

        let status = DaemonStatus::new(&spool, &cache);
        status.set_state("serving poison");
        status.set_jobs(1, 4);
        status.count_request_done();
        status.publish().unwrap();

        let text = std::fs::read_to_string(spool.join(STATUS_FILE)).unwrap();
        let parsed = StatusSnapshot::parse(&text).unwrap();
        assert_eq!(parsed.state, "serving poison");
        assert_eq!(parsed.cache_bytes, 64);
        assert_eq!(parsed.quarantined, 1);
        assert_eq!(parsed.requests_done, 1);
        assert_eq!(parsed.shards.len(), 1);
        assert_eq!(parsed.shards[0].pid, 123);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_workers_heartbeat_files_are_removed_not_listed() {
        let dir = std::env::temp_dir().join(format!("vanguard-status-hb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A SIGKILLed worker leaves its file behind, unlocked.
        let dead = dir.join(format!("{HEARTBEAT_PREFIX}111"));
        std::fs::write(&dead, b"hb").unwrap();
        let live = std::fs::File::create(dir.join(format!("{HEARTBEAT_PREFIX}222"))).unwrap();
        live.lock().unwrap();

        let beats = scan_heartbeats(&dir);
        assert_eq!(beats.iter().map(|b| b.pid).collect::<Vec<_>>(), [222]);
        assert!(!dead.exists(), "the dead worker's file is removed");
        assert!(dir.join(format!("{HEARTBEAT_PREFIX}222")).exists());
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
