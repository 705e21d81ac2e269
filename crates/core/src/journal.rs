//! Persistent append-only job journal: the resume backbone of the
//! results journal ([`crate::results`]).
//!
//! The engine appends one checksummed record per *simulated* job, keyed
//! by the job's content-addressed key
//! ([`Engine::job_key`](crate::engine::Engine::job_key), which also
//! keys the engine's simulation memo), the moment the job finishes. An interrupted run — crashed process, lost power,
//! cancelled CI run — resumes from the journal instead of restarting:
//! every key already present is served from its recorded payload
//! without re-running the job.
//!
//! The format is designed around the same crash-safety rules as the
//! disk cache (DESIGN.md §7.11):
//!
//! * **Append-only** — records are only ever added at the tail under an
//!   exclusive file lock, so the threads of one run — or two runs
//!   sharing one cache directory — never interleave partial records.
//! * **Checksummed** — the file opens with a `VGJ1` magic and every
//!   record carries an FNV-1a checksum over its key, length, and
//!   payload. A torn tail (the writer died mid-append) or a flipped
//!   bit anywhere in a record fails validation.
//! * **Drop-the-tail, never trust it** — [`Journal::read`] returns the
//!   longest valid prefix; anything after the first malformed record is
//!   reported as [`JournalSnapshot::dropped_bytes`] and the jobs it
//!   might have described are simply recomputed. A corrupt journal
//!   degrades a resume into extra work, never into wrong results. The
//!   next append cuts the dropped bytes off under its lock before it
//!   writes, so records appended after a torn tail stay readable.
//! * **One record per key** — the engine appends only through
//!   [`Journal::append_new`], which writes a key at most once, so the
//!   journal holds one record per distinct job and a rerun never grows
//!   it (`figures all --quick` leaves 368 records, about 89 KB).
//! * **Compaction relocates, never shrinks** — when the tail file
//!   exceeds a threshold (`VANGUARD_JOURNAL_COMPACT_BYTES`, default
//!   4 MiB; `0` disables), an append moves every record into a sibling
//!   `.snap` snapshot (same `VGJ1` format, written temp+rename) and
//!   truncates the tail back to its magic, all under the append lock.
//!   With one record per key there are no duplicates to drop, so the
//!   merged journal is as large as before, and real runs stay far below
//!   the default threshold. [`Journal::read`] transparently merges
//!   snapshot + tail; the tail is read *first*, so a compaction racing a
//!   reader can only grow the merged view, never shrink it, and a crash
//!   between the snapshot rename and the tail truncation leaves records
//!   present in both files, which the merge deduplicates (the snapshot
//!   wins — the payloads are identical by construction).

use crate::diskcache::{atomic_publish, fnv1a};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Journal file magic ("Vanguard Journal v1").
pub const JOURNAL_MAGIC: &[u8; 4] = b"VGJ1";

/// Env var: journal compaction threshold in bytes (`0` disables).
pub const COMPACT_BYTES_ENV: &str = "VANGUARD_JOURNAL_COMPACT_BYTES";

/// Default tail-size threshold that triggers compaction on append.
pub const DEFAULT_COMPACT_BYTES: u64 = 4 * 1024 * 1024;

/// Per-record header size: key (8) + payload length (4) + checksum (8).
const RECORD_HEADER: usize = 20;

/// Record checksum: FNV-1a over the key and length header bytes
/// followed by the payload, so a flipped bit *anywhere* in a record —
/// including its key — fails validation and drops the tail.
fn record_checksum(key: u64, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(12 + payload.len());
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    fnv1a(&buf)
}

/// One validated journal record: a completed job's key and its recorded
/// result payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// The job's deterministic content-addressed key.
    pub key: u64,
    /// The recorded result (the engine stores a
    /// [`JobResult::encode`](crate::engine::JobResult::encode) payload;
    /// the journal itself is payload-agnostic).
    pub payload: Vec<u8>,
}

/// The validated contents of a journal file.
#[derive(Clone, Debug, Default)]
pub struct JournalSnapshot {
    /// Every valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes discarded after the first malformed record (a torn or
    /// corrupt tail — the affected jobs are recomputed, never trusted).
    pub dropped_bytes: u64,
}

impl JournalSnapshot {
    /// Whether a record for `key` exists.
    pub fn contains(&self, key: u64) -> bool {
        self.records.iter().any(|r| r.key == key)
    }

    /// The first recorded payload for `key`.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.records
            .iter()
            .find(|r| r.key == key)
            .map(|r| r.payload.as_slice())
    }

    /// Keys that appear more than once — a completed job re-ran its
    /// side effects. The kill-and-resume fault class asserts this is
    /// empty across any kill/resume split.
    pub fn duplicate_keys(&self) -> Vec<u64> {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for r in &self.records {
            *counts.entry(r.key).or_default() += 1;
        }
        let mut dup: Vec<u64> = counts
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(k, _)| k)
            .collect();
        dup.sort_unstable();
        dup
    }
}

/// Parses the record stream after the magic into the longest valid
/// prefix; everything after the first malformed record is counted in
/// `dropped_bytes`.
fn parse_body(body: &[u8]) -> JournalSnapshot {
    let mut snapshot = JournalSnapshot::default();
    let mut at = 0;
    while at < body.len() {
        let rest = &body[at..];
        if rest.len() < RECORD_HEADER {
            break; // torn header
        }
        let key = u64::from_le_bytes(rest[0..8].try_into().unwrap());
        let len = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(rest[12..20].try_into().unwrap());
        let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + len) else {
            break; // torn payload
        };
        if record_checksum(key, payload) != checksum {
            break; // corrupt record: drop it and everything after
        }
        snapshot.records.push(JournalRecord {
            key,
            payload: payload.to_vec(),
        });
        at += RECORD_HEADER + len;
    }
    snapshot.dropped_bytes = (body.len() - at) as u64;
    snapshot
}

/// A handle on an append-only journal file. Cheap to construct; every
/// operation opens the file fresh, so any number of handles (across any
/// number of processes) can share one journal.
#[derive(Clone, Debug)]
pub struct Journal {
    path: PathBuf,
    /// Tail size (bytes) past which an append compacts; `None` disables.
    compact_threshold: Option<u64>,
}

impl Journal {
    /// A journal at `path` (the file is created on first append). The
    /// compaction threshold comes from `VANGUARD_JOURNAL_COMPACT_BYTES`
    /// (default [`DEFAULT_COMPACT_BYTES`]; `0` disables).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let threshold = match std::env::var(COMPACT_BYTES_ENV) {
            Ok(v) => v.trim().parse::<u64>().ok(),
            Err(_) => Some(DEFAULT_COMPACT_BYTES),
        };
        Journal {
            path: path.into(),
            compact_threshold: threshold.filter(|&b| b > 0),
        }
    }

    /// Overrides the compaction threshold (`None` disables).
    pub fn set_compact_threshold(&mut self, bytes: Option<u64>) {
        self.compact_threshold = bytes.filter(|&b| b > 0);
    }

    /// The journal file path (the "tail" once a snapshot exists).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The compaction snapshot path: `<path>.snap`, same `VGJ1` format.
    pub fn snapshot_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".snap");
        PathBuf::from(os)
    }

    /// Reads one VGJ1 file into the longest-valid-prefix snapshot.
    /// `strict` controls what a bad magic means: the tail is `strict`
    /// (resuming from a non-journal would be meaningless → error), the
    /// compaction snapshot is not (a corrupt snapshot degrades into
    /// recomputed work → every byte counted dropped).
    ///
    /// An empty file reads as an empty journal: the first appender
    /// creates the tail and only then writes the magic, under its lock,
    /// so a concurrent reader can see the file with no bytes yet.
    fn read_file(&self, path: &Path, strict: bool) -> io::Result<JournalSnapshot> {
        let bytes = match fs::read(path) {
            Ok(b) if b.is_empty() => return Ok(JournalSnapshot::default()),
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalSnapshot::default()),
            Err(e) => return Err(e),
        };
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            if strict {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not a VGJ1 journal", path.display()),
                ));
            }
            return Ok(JournalSnapshot {
                records: Vec::new(),
                dropped_bytes: bytes.len() as u64,
            });
        }
        Ok(parse_body(&bytes[JOURNAL_MAGIC.len()..]))
    }

    /// Merges a compaction snapshot with tail records: snapshot records
    /// first (in their original append order), then tail records whose
    /// key the snapshot does not already hold. The overlap case only
    /// arises from a crash between the snapshot rename and the tail
    /// truncation, where both files hold the same records — dropping
    /// the tail copy loses nothing.
    fn merge(snap: JournalSnapshot, tail: JournalSnapshot) -> JournalSnapshot {
        if snap.records.is_empty() && snap.dropped_bytes == 0 {
            return tail;
        }
        let seen: HashSet<u64> = snap.records.iter().map(|r| r.key).collect();
        let mut merged = snap;
        merged.dropped_bytes += tail.dropped_bytes;
        merged
            .records
            .extend(tail.records.into_iter().filter(|r| !seen.contains(&r.key)));
        merged
    }

    /// Reads and validates the journal, transparently merging the
    /// compaction snapshot (if any) with the tail. A missing or empty
    /// file is an empty snapshot (a run that has not journaled yet); a
    /// non-empty tail must open with the `VGJ1` magic.
    ///
    /// The tail is read *before* the snapshot: records only ever move
    /// tail → snapshot (under the append lock), so this ordering means
    /// a compaction racing the read can only grow the merged view.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or [`io::ErrorKind::InvalidData`] when the
    /// tail file is non-empty but does not start with the journal magic
    /// (it is not a journal — resuming from it would be meaningless).
    pub fn read(&self) -> io::Result<JournalSnapshot> {
        let tail = self.read_file(&self.path, true)?;
        let snap = self.read_file(&self.snapshot_path(), false)?;
        Ok(Self::merge(snap, tail))
    }

    /// Opens (creating if needed) and exclusively locks the tail file.
    fn open_locked(&self) -> io::Result<File> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)?;
        file.lock()?;
        Ok(file)
    }

    /// Appends one completed-job record under an exclusive file lock
    /// (creating the file with its magic on first use). The record is
    /// written with a single `write_all` and synced, so a reader — or a
    /// resume after a crash — sees either the whole record or a torn
    /// tail it will drop; a torn tail left by an earlier writer is cut
    /// back to the valid prefix first. If the tail then exceeds the
    /// compaction threshold, it is compacted (best-effort) before the
    /// lock drops.
    ///
    /// # Errors
    ///
    /// Returns the I/O error; the caller treats a failed append as "job
    /// not journaled" and the job will be re-run on resume.
    pub fn append(&self, key: u64, payload: &[u8]) -> io::Result<()> {
        let mut file = self.open_locked()?;
        let result = self
            .read_tail_locked(&mut file)
            .and_then(|_| self.append_locked(&mut file, key, payload));
        if result.is_ok() {
            self.maybe_compact_locked(&mut file);
        }
        let _ = File::unlock(&file);
        result
    }

    /// Appends a record only if no record for `key` exists in the
    /// merged (snapshot + tail) view, checked under the same exclusive
    /// lock the append itself holds, so at most one record per key ever
    /// lands: even two runs that simulate the same job on one journal
    /// cannot tear or duplicate its record.
    ///
    /// Returns whether the record was written (`false` = already
    /// journaled, nothing to do).
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or [`io::ErrorKind::InvalidData`] for a
    /// non-journal tail file — same contract as [`Journal::append`].
    pub fn append_new(&self, key: u64, payload: &[u8]) -> io::Result<bool> {
        let mut file = self.open_locked()?;
        let result = (|| {
            let journaled = self.read_tail_locked(&mut file)?.contains(key);
            if journaled || self.read_file(&self.snapshot_path(), false)?.contains(key) {
                return Ok(false);
            }
            self.append_locked(&mut file, key, payload)?;
            self.maybe_compact_locked(&mut file);
            Ok(true)
        })();
        let _ = File::unlock(&file);
        result
    }

    /// Parses the locked tail into its valid records and cuts a torn or
    /// corrupt tail back to the valid prefix (synced), so the next record
    /// lands right after the last valid one instead of after bytes every
    /// reader drops. An empty tail gets its magic and reads as an empty
    /// journal.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or [`io::ErrorKind::InvalidData`] for a
    /// non-journal tail file.
    fn read_tail_locked(&self, file: &mut File) -> io::Result<JournalSnapshot> {
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(JOURNAL_MAGIC)?;
            return Ok(JournalSnapshot::default());
        }
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a VGJ1 journal", self.path.display()),
            ));
        }
        let tail = parse_body(&bytes[JOURNAL_MAGIC.len()..]);
        if tail.dropped_bytes > 0 {
            file.set_len(bytes.len() as u64 - tail.dropped_bytes)?;
            file.sync_all()?;
        }
        Ok(tail)
    }

    /// Writes one record at the end of a tail that
    /// [`Journal::read_tail_locked`] has validated (the file is opened
    /// for append, so every write lands at its end).
    fn append_locked(&self, file: &mut File, key: u64, payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.extend_from_slice(&key.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&record_checksum(key, payload).to_le_bytes());
        record.extend_from_slice(payload);
        file.write_all(&record)?;
        file.sync_all()
    }

    /// Compacts if the tail has outgrown the threshold. Best-effort:
    /// the append that triggered this is already durable, so a failed
    /// compaction costs nothing but tail size.
    fn maybe_compact_locked(&self, file: &mut File) {
        let Some(threshold) = self.compact_threshold else {
            return;
        };
        match file.seek(SeekFrom::End(0)) {
            Ok(end) if end > threshold => {
                let _ = self.compact_locked(file);
            }
            _ => {}
        }
    }

    /// Folds every record (snapshot + tail, deduplicated first-wins by
    /// key to match [`JournalSnapshot::get`]) into the `.snap` snapshot
    /// with [`atomic_publish`], then truncates the tail back to its magic.
    /// Caller holds the tail lock. Crash-safe at every step: dying
    /// before the rename leaves the old snapshot + full tail; dying
    /// between rename and truncation leaves records in both files,
    /// which [`Journal::read`] deduplicates.
    fn compact_locked(&self, file: &mut File) -> io::Result<()> {
        let tail = self.read_tail_locked(file)?;
        let snap = self.read_file(&self.snapshot_path(), false)?;
        let merged = Self::merge(snap, tail);

        let mut out = Vec::new();
        out.extend_from_slice(JOURNAL_MAGIC);
        let mut seen: HashSet<u64> = HashSet::new();
        for r in &merged.records {
            if !seen.insert(r.key) {
                continue; // first payload wins, matching get()
            }
            out.extend_from_slice(&r.key.to_le_bytes());
            out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&record_checksum(r.key, &r.payload).to_le_bytes());
            out.extend_from_slice(&r.payload);
        }

        atomic_publish(&self.snapshot_path(), &out)?;
        // Snapshot is durable; retire the tail down to its magic.
        file.set_len(JOURNAL_MAGIC.len() as u64)?;
        file.sync_all()
    }

    /// Compacts the journal now, regardless of size. Used by tests and
    /// the property-based compaction adversary; production compaction
    /// happens automatically on append past the threshold.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or [`io::ErrorKind::InvalidData`] for a
    /// non-journal tail file.
    pub fn compact(&self) -> io::Result<()> {
        let mut file = self.open_locked()?;
        let result = self.compact_locked(&mut file);
        let _ = File::unlock(&file);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> Journal {
        let dir =
            std::env::temp_dir().join(format!("vanguard-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Journal::new(dir.join("journal.vgj"))
    }

    fn cleanup(j: &Journal) {
        if let Some(dir) = j.path().parent() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn missing_file_is_an_empty_snapshot() {
        let j = temp_journal("missing");
        let snap = j.read().unwrap();
        assert!(snap.records.is_empty());
        assert_eq!(snap.dropped_bytes, 0);
        cleanup(&j);
    }

    #[test]
    fn append_then_read_roundtrips_in_order() {
        let j = temp_journal("roundtrip");
        j.append(7, b"seven").unwrap();
        j.append(11, b"").unwrap();
        j.append(7, b"seven-again").unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.records[0].key, 7);
        assert_eq!(snap.records[0].payload, b"seven");
        assert_eq!(snap.records[1].payload, b"");
        assert_eq!(snap.get(11), Some(&b""[..]));
        assert!(snap.contains(7));
        assert!(!snap.contains(12));
        assert_eq!(snap.duplicate_keys(), vec![7]);
        assert_eq!(snap.dropped_bytes, 0);
        cleanup(&j);
    }

    #[test]
    fn torn_tail_is_dropped_not_trusted() {
        let j = temp_journal("torn");
        j.append(1, b"first").unwrap();
        j.append(2, b"second").unwrap();
        let bytes = fs::read(j.path()).unwrap();
        // Tear the last record mid-payload.
        fs::write(j.path(), &bytes[..bytes.len() - 3]).unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].key, 1);
        assert!(snap.dropped_bytes > 0);
        // The next append cuts the torn bytes off first, so its record
        // is readable right after the last valid one.
        j.append(3, b"third").unwrap();
        let snap = j.read().unwrap();
        let keys: Vec<u64> = snap.records.iter().map(|r| r.key).collect();
        assert_eq!(keys, [1, 3], "records after a torn tail stay readable");
        assert_eq!(snap.dropped_bytes, 0);
        cleanup(&j);
    }

    #[test]
    fn append_new_rewrites_a_record_its_torn_tail_lost() {
        let j = temp_journal("tornnew");
        assert!(j.append_new(1, b"first").unwrap());
        assert!(j.append_new(2, b"second").unwrap());
        let bytes = fs::read(j.path()).unwrap();
        // Tear key 2's record: it was never durably journaled.
        fs::write(j.path(), &bytes[..bytes.len() - 3]).unwrap();
        assert!(
            j.append_new(2, b"second").unwrap(),
            "torn record is rewritten"
        );
        assert!(!j.append_new(2, b"second").unwrap(), "and then journaled");
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.get(2), Some(&b"second"[..]));
        assert_eq!(snap.dropped_bytes, 0);
        cleanup(&j);
    }

    #[test]
    fn corrupt_record_drops_it_and_the_rest() {
        let j = temp_journal("corrupt");
        j.append(1, b"aaaa").unwrap();
        j.append(2, b"bbbb").unwrap();
        j.append(3, b"cccc").unwrap();
        let mut bytes = fs::read(j.path()).unwrap();
        // Flip one payload byte of the middle record.
        let mid = JOURNAL_MAGIC.len() + (RECORD_HEADER + 4) + RECORD_HEADER + 1;
        bytes[mid] ^= 0x20;
        fs::write(j.path(), &bytes).unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].key, 1);
        assert!(snap.dropped_bytes > 0);
        cleanup(&j);
    }

    #[test]
    fn flipped_key_byte_is_detected() {
        let j = temp_journal("keyflip");
        j.append(0x1111, b"aaaa").unwrap();
        j.append(0x2222, b"bbbb").unwrap();
        let mut bytes = fs::read(j.path()).unwrap();
        // Flip a byte inside the *key* field of the second record: the
        // checksum covers the header, so the key is not trusted either.
        let key_at = JOURNAL_MAGIC.len() + (RECORD_HEADER + 4) + 1;
        bytes[key_at] ^= 0x01;
        fs::write(j.path(), &bytes).unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].key, 0x1111);
        assert!(snap.dropped_bytes > 0);
        cleanup(&j);
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let j = temp_journal("badmagic");
        fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        fs::write(j.path(), b"not a journal at all").unwrap();
        assert_eq!(j.read().unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(j.append(1, b"x").is_err());
        cleanup(&j);
    }

    /// A tail created by its first appender but without its magic yet
    /// is an empty journal to a concurrent reader, not a foreign file.
    #[test]
    fn empty_tail_reads_as_an_empty_journal() {
        let j = temp_journal("emptytail");
        fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        fs::write(j.path(), b"").unwrap();
        let snap = j.read().unwrap();
        assert!(snap.records.is_empty());
        assert_eq!(snap.dropped_bytes, 0);
        j.append(1, b"x").unwrap();
        assert_eq!(j.read().unwrap().records.len(), 1);
        cleanup(&j);
    }

    #[test]
    fn compaction_roundtrips_and_truncates_the_tail() {
        let j = temp_journal("compact");
        j.append(1, b"one").unwrap();
        j.append(2, b"two").unwrap();
        j.append(3, b"three").unwrap();
        let before = j.read().unwrap();
        j.compact().unwrap();
        assert!(j.snapshot_path().exists(), "compaction writes the .snap");
        assert_eq!(
            fs::metadata(j.path()).unwrap().len(),
            JOURNAL_MAGIC.len() as u64,
            "tail retires to its magic"
        );
        let after = j.read().unwrap();
        assert_eq!(after.records, before.records, "merged view is unchanged");
        assert_eq!(after.dropped_bytes, 0);
        // Appends keep landing in the tail and merge after the snapshot.
        j.append(4, b"four").unwrap();
        let merged = j.read().unwrap();
        assert_eq!(merged.records.len(), 4);
        assert_eq!(merged.records[3].key, 4);
        assert_eq!(merged.get(2), Some(&b"two"[..]));
        cleanup(&j);
    }

    #[test]
    fn crash_overlap_between_snapshot_and_tail_deduplicates() {
        let j = temp_journal("overlap");
        j.append(1, b"one").unwrap();
        j.append(2, b"two").unwrap();
        // Simulate dying between the snapshot rename and the tail
        // truncation: compact, then restore the pre-compaction tail so
        // both files hold the same records.
        let tail_bytes = fs::read(j.path()).unwrap();
        j.compact().unwrap();
        fs::write(j.path(), &tail_bytes).unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 2, "overlapping records deduplicate");
        assert!(snap.duplicate_keys().is_empty());
        assert_eq!(snap.get(1), Some(&b"one"[..]));
        cleanup(&j);
    }

    #[test]
    fn append_new_skips_journaled_keys_across_compaction() {
        let j = temp_journal("appendnew");
        assert!(j.append_new(1, b"one").unwrap());
        assert!(!j.append_new(1, b"one-again").unwrap(), "tail dedup");
        j.compact().unwrap();
        assert!(
            !j.append_new(1, b"one-after-compact").unwrap(),
            "snapshot dedup"
        );
        assert!(j.append_new(2, b"two").unwrap());
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.get(1), Some(&b"one"[..]));
        assert!(snap.duplicate_keys().is_empty());
        cleanup(&j);
    }

    #[test]
    fn corrupt_snapshot_degrades_to_dropped_bytes() {
        let j = temp_journal("badsnap");
        j.append(1, b"one").unwrap();
        j.compact().unwrap();
        j.append(2, b"two").unwrap();
        // Flip a payload byte inside the snapshot: its records drop
        // (recomputed on resume) but the read still succeeds and the
        // tail survives.
        let mut snap_bytes = fs::read(j.snapshot_path()).unwrap();
        let at = snap_bytes.len() - 1;
        snap_bytes[at] ^= 0x20;
        fs::write(j.snapshot_path(), &snap_bytes).unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].key, 2);
        assert!(snap.dropped_bytes > 0);
        // A snapshot that is not VGJ1 at all degrades the same way.
        fs::write(j.snapshot_path(), b"junk").unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.dropped_bytes, 4);
        cleanup(&j);
    }

    #[test]
    fn appends_auto_compact_past_the_threshold() {
        let mut j = temp_journal("autocompact");
        j.set_compact_threshold(Some(64));
        for key in 0..8u64 {
            j.append(key, &[0xAB; 32]).unwrap();
        }
        assert!(j.snapshot_path().exists(), "threshold triggered compaction");
        assert!(
            fs::metadata(j.path()).unwrap().len() <= 64,
            "tail stays bounded"
        );
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 8);
        assert!(snap.duplicate_keys().is_empty());
        assert_eq!(snap.dropped_bytes, 0);
        cleanup(&j);
    }

    #[test]
    fn concurrent_appends_never_tear() {
        let j = temp_journal("concurrent");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let j = j.clone();
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let key = t * 100 + i;
                        j.append(key, format!("payload-{key}").as_bytes()).unwrap();
                    }
                });
            }
        });
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 100);
        assert_eq!(snap.dropped_bytes, 0);
        assert!(snap.duplicate_keys().is_empty());
        for r in &snap.records {
            assert_eq!(r.payload, format!("payload-{}", r.key).as_bytes());
        }
        cleanup(&j);
    }
}
