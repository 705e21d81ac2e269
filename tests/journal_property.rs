//! Property tests for the `VGJ1` journal (DESIGN.md §7.11):
//! random job sets round-trip bit-exactly, and a truncated or
//! corrupted tail is *dropped*, never trusted — every record a read
//! returns is byte-identical to one the writer appended, in append
//! order, no matter where the file was cut or which byte was flipped.

use proptest::prelude::*;
use std::collections::HashSet;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use vanguard_core::{Journal, JournalRecord};

/// Magic (4) + per-record header (key 8 + len 4 + checksum 8).
const MAGIC_LEN: usize = 4;
const RECORD_HEADER: usize = 20;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh journal in a per-case temp directory (proptest runs many
/// cases per test; each needs its own file).
fn case_journal() -> (Journal, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "vanguard-journal-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    (Journal::new(dir.join("j.vgj")), dir)
}

fn arb_jobs() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40)),
        0..12,
    )
}

/// Byte offset where record `i` starts, given the appended job set.
fn record_offsets(jobs: &[(u64, Vec<u8>)]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(jobs.len() + 1);
    let mut at = MAGIC_LEN;
    for (_, payload) in jobs {
        offsets.push(at);
        at += RECORD_HEADER + payload.len();
    }
    offsets.push(at);
    offsets
}

/// The records a snapshot must be a prefix of: exactly the appended
/// jobs, in order, byte-identical.
fn assert_valid_prefix(records: &[JournalRecord], jobs: &[(u64, Vec<u8>)]) {
    assert!(records.len() <= jobs.len());
    for (record, (key, payload)) in records.iter().zip(jobs) {
        assert_eq!(record.key, *key, "a surviving record's key was altered");
        assert_eq!(
            record.payload, *payload,
            "a surviving record's payload was altered"
        );
    }
}

/// First-wins key dedup: the engine only ever journals a key once
/// (`Journal::append_new`), and compaction's own dedup matches
/// `JournalSnapshot::get`, so the compaction properties quantify over
/// unique-key job sets.
fn unique_jobs(jobs: Vec<(u64, Vec<u8>)>) -> Vec<(u64, Vec<u8>)> {
    let mut seen = HashSet::new();
    jobs.into_iter().filter(|(k, _)| seen.insert(*k)).collect()
}

/// Every returned record is byte-identical to an appended job, appears
/// at most once, and the whole sequence is an in-order subsequence of
/// the append order — nothing duplicated, resurrected, or fabricated.
fn assert_ordered_subset(records: &[JournalRecord], jobs: &[(u64, Vec<u8>)]) {
    let mut at = 0usize;
    for record in records {
        let pos = jobs[at..]
            .iter()
            .position(|(k, p)| *k == record.key && *p == record.payload)
            .unwrap_or_else(|| {
                panic!(
                    "record {:#x} was never appended (or is duplicated/reordered)",
                    record.key
                )
            });
        at += pos + 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random job sets round-trip: every appended record comes back,
    /// in append order, byte-identical, with nothing dropped.
    #[test]
    fn random_job_sets_roundtrip(jobs in arb_jobs()) {
        let (journal, dir) = case_journal();
        for (key, payload) in &jobs {
            journal.append(*key, payload).unwrap();
        }
        let snap = journal.read().unwrap();
        assert_eq!(snap.records.len(), jobs.len());
        assert_eq!(snap.dropped_bytes, 0);
        assert_valid_prefix(&snap.records, &jobs);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncating the file at any point keeps exactly the records that
    /// fit whole before the cut; the torn tail is dropped, and the
    /// journal stays readable and appendable.
    #[test]
    fn truncation_keeps_only_whole_records(jobs in arb_jobs(), cut in any::<u64>()) {
        let (journal, dir) = case_journal();
        for (key, payload) in &jobs {
            journal.append(*key, payload).unwrap();
        }
        let bytes = if jobs.is_empty() {
            Vec::new()
        } else {
            fs::read(journal.path()).unwrap()
        };
        let offsets = record_offsets(&jobs);
        if !jobs.is_empty() {
            assert_eq!(bytes.len(), *offsets.last().unwrap());
            let cut = MAGIC_LEN + (cut as usize) % (bytes.len() - MAGIC_LEN + 1);
            fs::write(journal.path(), &bytes[..cut]).unwrap();
            let expected = offsets.iter().skip(1).filter(|&&end| end <= cut).count();
            let snap = journal.read().unwrap();
            assert_eq!(snap.records.len(), expected, "cut at byte {cut}");
            assert_eq!(snap.dropped_bytes as usize, cut - offsets[expected]);
            assert_valid_prefix(&snap.records, &jobs);
            // The truncated journal still accepts appends: the append
            // cuts the torn tail off, so the new record lands right
            // after the whole ones and is visible.
            journal.append(0xfeed, b"resumed").unwrap();
            let after = journal.read().unwrap();
            assert_eq!(after.records.len(), expected + 1, "cut at byte {cut}");
            assert_eq!(after.records.last().unwrap().key, 0xfeed);
            assert_eq!(after.dropped_bytes, 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte after the magic never lets a corrupted
    /// record through: the snapshot is a byte-identical prefix of the
    /// appended jobs that stops before the flipped record.
    #[test]
    fn corruption_is_never_trusted(jobs in arb_jobs(), at in any::<u64>(), flip in 1u8..=255) {
        let (journal, dir) = case_journal();
        if jobs.is_empty() {
            let _ = fs::remove_dir_all(&dir);
            return Ok(());
        }
        for (key, payload) in &jobs {
            journal.append(*key, payload).unwrap();
        }
        let mut bytes = fs::read(journal.path()).unwrap();
        let at = MAGIC_LEN + (at as usize) % (bytes.len() - MAGIC_LEN);
        bytes[at] ^= flip;
        fs::write(journal.path(), &bytes).unwrap();

        let offsets = record_offsets(&jobs);
        // Index of the record the flipped byte lives in.
        let hit = offsets.iter().skip(1).filter(|&&end| end <= at).count();
        let snap = journal.read().unwrap();
        assert_eq!(
            snap.records.len(),
            hit,
            "flip at byte {at} (record {hit}) must drop that record and the rest"
        );
        assert!(snap.dropped_bytes > 0);
        assert_valid_prefix(&snap.records, &jobs);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Compacting at any point is invisible to readers: the merged
    /// snapshot + tail view holds exactly the appended jobs, in append
    /// order, with nothing dropped — and `append_new` still refuses
    /// every key, including the ones that moved into the snapshot.
    #[test]
    fn compaction_at_any_point_is_invisible(jobs in arb_jobs(), split in any::<u64>()) {
        let (mut journal, dir) = case_journal();
        journal.set_compact_threshold(None);
        let jobs = unique_jobs(jobs);
        let k = if jobs.is_empty() { 0 } else { (split as usize) % (jobs.len() + 1) };
        for (key, payload) in &jobs[..k] {
            journal.append(*key, payload).unwrap();
        }
        journal.compact().unwrap();
        for (key, payload) in &jobs[k..] {
            journal.append(*key, payload).unwrap();
        }
        let snap = journal.read().unwrap();
        assert_eq!(snap.records.len(), jobs.len(), "compacted at {k}/{}", jobs.len());
        assert_eq!(snap.dropped_bytes, 0);
        for (record, (key, payload)) in snap.records.iter().zip(&jobs) {
            assert_eq!(record.key, *key, "append order changed across compaction");
            assert_eq!(record.payload, *payload);
        }
        // No key can ever be journaled twice across the boundary.
        for (key, _) in &jobs {
            assert!(!journal.append_new(*key, b"dup").unwrap(), "key {key:#x} resurrected");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The adversary after a compaction: truncating or bit-flipping
    /// either file (snapshot or tail) never duplicates, reorders, or
    /// fabricates a record — the merged view stays an in-order subset
    /// of the appended jobs, and the *undamaged* file's records all
    /// survive.
    #[test]
    fn corruption_after_compaction_never_fabricates(
        jobs in arb_jobs(),
        split in any::<u64>(),
        hit_snapshot in any::<bool>(),
        truncate in any::<bool>(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let (mut journal, dir) = case_journal();
        journal.set_compact_threshold(None);
        let jobs = unique_jobs(jobs);
        if jobs.is_empty() {
            let _ = fs::remove_dir_all(&dir);
            return Ok(());
        }
        let k = (split as usize) % (jobs.len() + 1);
        for (key, payload) in &jobs[..k] {
            journal.append(*key, payload).unwrap();
        }
        journal.compact().unwrap();
        for (key, payload) in &jobs[k..] {
            journal.append(*key, payload).unwrap();
        }
        let target = if hit_snapshot {
            journal.snapshot_path()
        } else {
            journal.path().to_path_buf()
        };
        let mut bytes = fs::read(&target).unwrap();
        if bytes.len() > MAGIC_LEN {
            if truncate {
                let cut = MAGIC_LEN + (at as usize) % (bytes.len() - MAGIC_LEN + 1);
                bytes.truncate(cut);
            } else {
                let at = MAGIC_LEN + (at as usize) % (bytes.len() - MAGIC_LEN);
                bytes[at] ^= flip;
            }
            fs::write(&target, &bytes).unwrap();
        }
        let snap = journal.read().unwrap();
        assert_ordered_subset(&snap.records, &jobs);
        let intact = if hit_snapshot { &jobs[k..] } else { &jobs[..k] };
        for (key, payload) in intact {
            assert_eq!(
                snap.get(*key),
                Some(payload.as_slice()),
                "damage to one file lost a record of the other"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
