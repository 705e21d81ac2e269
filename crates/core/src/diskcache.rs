//! Crash-safe on-disk artifact cache, and the one owner of its format.
//!
//! Expensive engine artifacts — profiles (a full TRAIN-input
//! interpretation) and compiled program pairs — can optionally persist
//! across processes in a directory named by `VANGUARD_CACHE_DIR`. This
//! module knows the whole disk layout; the engine only asks for a
//! profile ([`DiskCache::load`] / [`DiskCache::store`]) or a pair
//! ([`DiskCache::load_pair`] / [`DiskCache::store_pair`]):
//!
//! * `profile-<key>.bin` — a [`Profile`] in its own byte encoding;
//! * `pair-<key>.bin` — a compiled pair: its transformation report
//!   lines, then both programs' exact disassembly text, each behind a
//!   byte length.
//!
//! Keys are the engine's content-addressed profile and pair keys, which
//! cover the full transform option set, so two transform kinds of the
//! same (benchmark, profile, width) occupy distinct files. The cache is
//! designed to survive crashes and concurrent writers without ever
//! poisoning a run:
//!
//! * **Atomic writes** — entries are published with [`atomic_publish`]
//!   (private temp file, `fsync`, `rename`, directory `fsync`), so a
//!   reader never observes a half-written entry (at worst it misses and
//!   recomputes).
//! * **Checksummed entries** — every entry carries a magic tag, payload
//!   length, and FNV-1a checksum; [`DiskCache::load`] validates all
//!   three plus the payload structure before trusting a byte.
//! * **Evict-and-recompute** — a corrupt entry is moved into a
//!   `quarantine/` subdirectory (preserved for postmortem) and reported
//!   as [`CorruptEntry`]; the caller recomputes and re-stores. A flaky
//!   disk degrades throughput, never correctness.
//! * **Racing producers** — two processes (or two engines in one
//!   process) that miss the same entry both compute it and both store
//!   it. Nothing blocks: each store atomically publishes the same bytes,
//!   so whichever rename lands last wins and every reader sees a whole,
//!   checksummed entry.
//!
//! The store holds only what the job matrix produces, so it has no size
//! budget and never evicts. Only `profile-*.bin` and `pair-*.bin` are
//! ever read: any other `.bin` file in the directory (such as the
//! `image-*.bin` entries an older format wrote) is dead weight that can
//! be deleted by hand.

use crate::engine::CompiledPair;
use crate::report::{SiteOutcome, TransformReport};
use std::ffi::OsString;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vanguard_ir::Profile;
use vanguard_isa::{parse_program, BlockId, DecodedImage, Program};

/// Entry header magic ("Vanguard Cache v1").
const MAGIC: &[u8; 4] = b"VGC1";

/// 64-bit FNV-1a — the checksum and key hash of the disk cache (stable
/// across platforms and processes, no dependencies).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues the FNV-1a hash `h` over `bytes`:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Atomically and durably replaces `target` with `bytes`. The bytes go
/// to a private temp file beside `target`, named
/// `.tmp-<stem>-<pid>-<seq>` so that no two writers (threads or
/// processes) ever share one; the temp file is `sync_all`ed, `rename`d
/// onto `target`, and the directory is synced so the rename itself
/// survives a crash. A reader sees the old file or the new one, never a
/// torn or empty write. If writing or renaming fails, the temp file is
/// removed and `target` is left as it was.
///
/// # Errors
///
/// Returns the I/O error from creating, writing, syncing, or renaming.
/// An error from the final directory sync means `target` already holds
/// the new bytes but may not survive a crash.
pub fn atomic_publish(target: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let stem = target.file_stem().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "publish target has no file name",
        )
    })?;
    let mut name = OsString::from(".tmp-");
    name.push(stem);
    name.push(format!(
        "-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = target.with_file_name(name);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, target)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    let dir = match target.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// A cache entry that failed validation and was quarantined.
#[derive(Clone, Debug)]
pub struct CorruptEntry {
    /// Where the entry now lives (under `quarantine/`), or its original
    /// path if even the quarantine move failed.
    pub path: PathBuf,
    /// What failed to validate.
    pub detail: String,
}

/// A crash-safe, checksummed artifact cache rooted at a directory.
#[derive(Clone, Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskCache { dir: dir.into() }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The quarantine directory for poisoned entries.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    fn entry_path(&self, tag: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{tag}-{key:016x}.bin"))
    }

    /// Loads and validates the profile entry for `key`.
    ///
    /// Returns `Ok(None)` on a clean miss (no readable entry).
    ///
    /// # Errors
    ///
    /// Returns [`CorruptEntry`] when an entry exists but fails
    /// validation; the entry has already been moved to quarantine (or
    /// deleted if the move failed), so recomputing and re-storing is
    /// always safe.
    pub fn load(&self, key: u64) -> Result<Option<Profile>, CorruptEntry> {
        let Some(payload) = self.load_bytes(PROFILE_TAG, key)? else {
            return Ok(None);
        };
        match Profile::from_bytes(&payload) {
            Ok(profile) => Ok(Some(profile)),
            Err(detail) => Err(self.reject(PROFILE_TAG, key, detail)),
        }
    }

    /// Loads and validates the raw entry for `(tag, key)`, returning the
    /// checksummed payload. `Ok(None)` is a clean miss: no entry, or
    /// none that can be read.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptEntry`] when an entry exists but its envelope
    /// (magic, length, checksum) fails validation; the entry has been
    /// quarantined, so recomputing and re-storing is always safe. The
    /// caller is responsible for *structural* validation of the payload
    /// — use [`DiskCache::reject`] when that fails.
    fn load_bytes(&self, tag: &str, key: u64) -> Result<Option<Vec<u8>>, CorruptEntry> {
        let path = self.entry_path(tag, key);
        // No entry, or a directory that cannot be read at all: a miss,
        // never corruption, since no bytes were seen.
        let Ok(bytes) = fs::read(&path) else {
            return Ok(None);
        };
        match Self::validate(&bytes) {
            Ok(payload) => Ok(Some(payload.to_vec())),
            Err(detail) => Err(self.quarantine(&path, detail.to_string())),
        }
    }

    fn validate(bytes: &[u8]) -> Result<&[u8], &'static str> {
        if bytes.len() < 20 {
            return Err("shorter than the entry header");
        }
        if &bytes[..4] != MAGIC {
            return Err("bad magic");
        }
        let len = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let payload = &bytes[20..];
        if payload.len() as u64 != len {
            return Err("payload length mismatch (truncated or torn write)");
        }
        if fnv1a(payload) != checksum {
            return Err("checksum mismatch");
        }
        Ok(payload)
    }

    /// Atomically stores the profile entry for `key` ([`atomic_publish`];
    /// a concurrent reader sees either the old entry or the new one,
    /// never a torn write).
    ///
    /// # Errors
    ///
    /// Returns the I/O error; callers treat a failed store as a cache
    /// miss, never a run failure.
    pub fn store(&self, key: u64, profile: &Profile) -> io::Result<()> {
        self.store_bytes(PROFILE_TAG, key, &profile.to_bytes())
    }

    /// Loads and validates the compiled pair entry for `key`
    /// (`pair-<key>.bin`). Returns `Ok(None)` on a clean miss.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptEntry`] when the entry exists but fails
    /// validation — a damaged envelope, a malformed report line, an
    /// unparseable program, or an entry in any other format; it has been
    /// quarantined, so recompiling and re-storing is always safe.
    pub fn load_pair(&self, key: u64) -> Result<Option<CompiledPair>, CorruptEntry> {
        let Some(payload) = self.load_bytes(PAIR_TAG, key)? else {
            return Ok(None);
        };
        decode_pair(&payload)
            .map(Some)
            .map_err(|detail| self.reject(PAIR_TAG, key, detail))
    }

    /// Atomically stores the compiled pair entry for `key`: the report
    /// and both programs in one checksummed file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error; callers treat a failed store as a cache
    /// miss, never a run failure.
    pub fn store_pair(&self, key: u64, pair: &CompiledPair) -> io::Result<()> {
        self.store_bytes(PAIR_TAG, key, &encode_pair(pair))
    }

    /// Atomically stores a raw payload for `(tag, key)` under the
    /// checksummed envelope.
    ///
    /// # Errors
    ///
    /// Returns the I/O error; callers treat a failed store as a cache
    /// miss, never a run failure.
    fn store_bytes(&self, tag: &str, key: u64, payload: &[u8]) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let mut entry = Vec::with_capacity(20 + payload.len());
        entry.extend_from_slice(MAGIC);
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&fnv1a(payload).to_le_bytes());
        entry.extend_from_slice(payload);
        atomic_publish(&self.entry_path(tag, key), &entry)
    }

    /// Quarantines the entry for `(tag, key)` whose *payload* failed the
    /// caller's structural validation (the envelope was intact, so
    /// [`DiskCache::load_bytes`] returned it as a hit).
    fn reject(&self, tag: &str, key: u64, detail: impl Into<String>) -> CorruptEntry {
        self.quarantine(&self.entry_path(tag, key), detail.into())
    }

    /// Moves a poisoned entry into `quarantine/`, falling back to
    /// deletion so the corrupt bytes can never be re-read as a hit.
    /// Also sweeps the entry's orphaned `.tmp-…` files: a writer that
    /// died between `create` and `rename` leaves its private temp file
    /// behind, and a rejected entry is the natural point to reclaim
    /// them (a temp file removed under a *live* writer only fails that
    /// writer's rename, which it already treats as a cache miss).
    fn quarantine(&self, path: &Path, detail: String) -> CorruptEntry {
        let qdir = self.quarantine_dir();
        let _ = fs::create_dir_all(&qdir);
        self.sweep_orphaned_tmp(path);
        let dest = qdir.join(
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "entry".into()),
        );
        if fs::rename(path, &dest).is_ok() {
            CorruptEntry { path: dest, detail }
        } else {
            let _ = fs::remove_file(path);
            CorruptEntry {
                path: path.to_path_buf(),
                detail,
            }
        }
    }

    /// Removes `.tmp-<stem>-<pid>-<seq>` leftovers ([`atomic_publish`])
    /// for the entry at `path` (stem = file name without the `.bin`
    /// extension). Best-effort.
    fn sweep_orphaned_tmp(&self, path: &Path) {
        let Some(stem) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
            return;
        };
        let prefix = format!(".tmp-{stem}-");
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Disk-cache entry namespace for profiles.
const PROFILE_TAG: &str = "profile";

/// Disk-cache entry namespace for compiled pairs.
const PAIR_TAG: &str = "pair";

/// Serializes a compiled pair for the disk cache: the transformation
/// report as `report`/`site`/`skip` lines, then each program's exact
/// disassembly behind a `baseline <len>` / `transformed <len>` line that
/// gives its length in bytes.
fn encode_pair(pair: &CompiledPair) -> Vec<u8> {
    let r = &pair.report;
    let mut out = String::new();
    out.push_str(&format!(
        "report {} {} {} {} {}\n",
        r.forward_branches, r.code_bytes_before, r.code_bytes_after, r.melded, r.meld_added_insts
    ));
    for s in &r.converted {
        out.push_str(&format!(
            "site {} {} {} {} {} {} {}\n",
            s.block.0,
            s.hoisted_taken,
            s.hoisted_fallthrough,
            s.slice_insts,
            s.removed_from_block,
            s.commit_moves,
            s.executed
        ));
    }
    for (b, reason) in &r.skipped {
        out.push_str(&format!("skip {} {}\n", b.0, reason.replace('\n', " ")));
    }
    for (what, program) in [
        ("baseline", &pair.baseline),
        ("transformed", &pair.transformed),
    ] {
        let text = program.disassemble();
        out.push_str(&format!("{what} {}\n", text.len()));
        out.push_str(&text);
    }
    out.into_bytes()
}

/// Structurally validates and decodes a disk-cached pair. Any
/// malformation — including an entry in another format — is an error
/// (the caller quarantines the entry and recompiles).
fn decode_pair(bytes: &[u8]) -> Result<CompiledPair, String> {
    let mut rest = std::str::from_utf8(bytes).map_err(|e| format!("not utf-8: {e}"))?;
    let mut report = TransformReport::default();
    let mut saw_report = false;
    while !rest.starts_with("baseline ") {
        let (line, tail) = rest.split_once('\n').ok_or("missing baseline program")?;
        rest = tail;
        let (tag, fields) = line.split_once(' ').ok_or("malformed header line")?;
        match tag {
            "report" => {
                let f: Vec<&str> = fields.split(' ').collect();
                if f.len() != 5 {
                    return Err("malformed report line".into());
                }
                let num = |s: &str| s.parse::<u64>().map_err(|e| format!("report field: {e}"));
                report.forward_branches = num(f[0])? as usize;
                report.code_bytes_before = num(f[1])?;
                report.code_bytes_after = num(f[2])?;
                report.melded = num(f[3])? as usize;
                report.meld_added_insts = f[4]
                    .parse::<isize>()
                    .map_err(|e| format!("report field: {e}"))?;
                saw_report = true;
            }
            "site" => {
                let f: Vec<&str> = fields.split(' ').collect();
                if f.len() != 7 {
                    return Err("malformed site line".into());
                }
                let num = |s: &str| s.parse::<u64>().map_err(|e| format!("site field: {e}"));
                report.converted.push(SiteOutcome {
                    block: BlockId(f[0].parse().map_err(|e| format!("site block: {e}"))?),
                    hoisted_taken: num(f[1])? as usize,
                    hoisted_fallthrough: num(f[2])? as usize,
                    slice_insts: num(f[3])? as usize,
                    removed_from_block: num(f[4])? as usize,
                    commit_moves: num(f[5])? as usize,
                    executed: num(f[6])?,
                });
            }
            "skip" => {
                let (block, reason) = fields.split_once(' ').ok_or("malformed skip line")?;
                report.skipped.push((
                    BlockId(block.parse().map_err(|e| format!("skip block: {e}"))?),
                    reason.to_string(),
                ));
            }
            other => return Err(format!("unknown header tag `{other}`")),
        }
    }
    if !saw_report {
        return Err("missing report line".into());
    }
    let (baseline, baseline_image) = take_program(&mut rest, "baseline")?;
    let (transformed, transformed_image) = take_program(&mut rest, "transformed")?;
    if !rest.is_empty() {
        return Err("trailing bytes after the transformed program".into());
    }
    Ok(CompiledPair {
        baseline,
        transformed,
        baseline_image,
        transformed_image,
        report,
    })
}

/// Takes one `<what> <len>` line and the `len` bytes of disassembly
/// after it off the front of `rest`, and parses them back into a program
/// and its pre-decoded form.
fn take_program(rest: &mut &str, what: &str) -> Result<(Arc<Program>, Arc<DecodedImage>), String> {
    let (line, tail) = rest
        .split_once('\n')
        .ok_or_else(|| format!("missing {what} program"))?;
    let len = line
        .strip_prefix(what)
        .and_then(|l| l.strip_prefix(' '))
        .ok_or_else(|| format!("missing {what} program"))?
        .parse::<usize>()
        .map_err(|e| format!("{what} length: {e}"))?;
    let text = tail
        .get(..len)
        .ok_or_else(|| format!("{what} program truncated"))?;
    *rest = &tail[len..];
    let program = parse_program(text).map_err(|e| format!("{what}: {e}"))?;
    let image = Arc::new(DecodedImage::build(&program));
    Ok((Arc::new(program), image))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanguard_isa::BlockId;

    fn sample_profile() -> Profile {
        let mut p = Profile::new();
        p.dynamic_insts = 42_000;
        for i in 0..10u32 {
            for j in 0..20u64 {
                p.record(BlockId(i), j % 3 == 0, j % 2 == 0);
            }
        }
        p
    }

    fn temp_cache(tag: &str) -> DiskCache {
        let dir =
            std::env::temp_dir().join(format!("vanguard-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DiskCache::new(dir)
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = temp_cache("roundtrip");
        let p = sample_profile();
        cache.store(7, &p).unwrap();
        let back = cache.load(7).unwrap().expect("entry present");
        assert_eq!(back.dynamic_insts, p.dynamic_insts);
        assert_eq!(back.len(), p.len());
        assert!(cache.load(8).unwrap().is_none(), "distinct key misses");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncation_is_detected_and_quarantined() {
        let cache = temp_cache("truncate");
        cache.store(3, &sample_profile()).unwrap();
        let path = cache.entry_path(PROFILE_TAG, 3);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = cache.load(3).expect_err("truncated entry must not load");
        assert!(err.path.starts_with(cache.quarantine_dir()), "{err:?}");
        // Evicted: the next load is a clean miss, and re-storing works.
        assert!(cache.load(3).unwrap().is_none());
        cache.store(3, &sample_profile()).unwrap();
        assert!(cache.load(3).unwrap().is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bitflip_is_detected() {
        let cache = temp_cache("bitflip");
        cache.store(5, &sample_profile()).unwrap();
        let path = cache.entry_path(PROFILE_TAG, 5);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = cache.load(5).expect_err("bit-flipped entry must not load");
        assert!(err.detail.contains("checksum"), "{err:?}");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn byte_entries_roundtrip_and_tags_namespace_keys() {
        let cache = temp_cache("bytes");
        cache
            .store_bytes("pair", 11, b"compiled pair payload")
            .unwrap();
        assert_eq!(
            cache.load_bytes("pair", 11).unwrap().as_deref(),
            Some(&b"compiled pair payload"[..])
        );
        // The same key under another tag is a clean miss — tags are
        // namespaces, so a profile and a pair can never alias.
        assert!(cache.load_bytes(PROFILE_TAG, 11).unwrap().is_none());
        assert!(cache.load(11).unwrap().is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn reject_quarantines_structurally_invalid_payloads() {
        let cache = temp_cache("reject");
        cache.store_bytes("pair", 13, b"not a valid pair").unwrap();
        // Envelope validates, so load_bytes hits...
        assert!(cache.load_bytes("pair", 13).unwrap().is_some());
        // ...but the caller's structural validation fails and rejects it.
        let err = cache.reject("pair", 13, "undecodable pair");
        assert!(err.path.starts_with(cache.quarantine_dir()), "{err:?}");
        assert!(cache.load_bytes("pair", 13).unwrap().is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn reject_sweeps_orphaned_tmp_files() {
        let cache = temp_cache("tmp-orphans");
        cache.store_bytes("pair", 21, b"payload").unwrap();
        // A writer that died mid-store leaves its private temp file.
        let orphan = cache.dir().join(format!(".tmp-pair-{:016x}-99999", 21u64));
        let unrelated = cache.dir().join(format!(".tmp-pair-{:016x}-99999", 22u64));
        fs::write(&orphan, b"half-written").unwrap();
        fs::write(&unrelated, b"someone else's in-flight write").unwrap();
        cache.reject("pair", 21, "structurally invalid");
        assert!(!orphan.exists(), "orphaned .tmp swept on reject");
        assert!(
            unrelated.exists(),
            "other keys' in-flight temp files are left alone"
        );
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// A real compiled pair of the Figure 6 kernel (one converted site).
    fn sample_pair() -> CompiledPair {
        use crate::experiment::{tests::experiment_input, Experiment};
        let input = experiment_input(200);
        let exp = Experiment::new(vanguard_sim::MachineConfig::four_wide());
        let profile = exp.profile(&input).unwrap();
        let (baseline, transformed, mut report) = exp.compile_pair(&input.program, &profile);
        report
            .skipped
            .push((BlockId(99), "multi word\nreason".into()));
        CompiledPair {
            baseline_image: Arc::new(DecodedImage::build(&baseline)),
            transformed_image: Arc::new(DecodedImage::build(&transformed)),
            baseline: Arc::new(baseline),
            transformed: Arc::new(transformed),
            report,
        }
    }

    fn entry_names(cache: &DiskCache) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(cache.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.path().is_file())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn pair_entries_are_one_file_and_quarantine_any_damage() {
        let cache = temp_cache("pair");
        let pair = sample_pair();
        assert_eq!(pair.report.converted.len(), 1);
        cache.store_pair(17, &pair).unwrap();
        assert_eq!(entry_names(&cache), [format!("pair-{:016x}.bin", 17u64)]);

        // Exact round-trip: both programs, and every report line.
        let back = cache.load_pair(17).unwrap().expect("entry present");
        assert_eq!(*back.baseline, *pair.baseline);
        assert_eq!(*back.transformed, *pair.transformed);
        assert_eq!(encode_pair(&back), encode_pair(&pair));
        assert!(
            cache.load_pair(18).unwrap().is_none(),
            "distinct key misses"
        );

        let path = cache.entry_path(PAIR_TAG, 17);
        let whole = fs::read(&path).unwrap();
        let damaged = |bytes: &[u8], expect: &str| {
            fs::write(&path, bytes).unwrap();
            let err = cache
                .load_pair(17)
                .expect_err("damaged entry must not load");
            assert!(err.path.starts_with(cache.quarantine_dir()), "{err:?}");
            assert!(err.detail.contains(expect), "{err:?}");
            assert!(cache.load_pair(17).unwrap().is_none(), "quarantined");
        };
        damaged(&whole[..whole.len() - 7], "truncated");
        let mut flipped = whole.clone();
        flipped[whole.len() / 2] ^= 0x10;
        damaged(&flipped, "checksum");

        // An entry in the older header-plus-images format validates as an
        // envelope but is quarantined, never served.
        let old = format!(
            "report 1 64 96 0 0\nbaseline-image {:016x}\ntransformed-image {:016x}\n",
            1u64, 2u64
        );
        cache.store_bytes(PAIR_TAG, 17, old.as_bytes()).unwrap();
        let err = cache.load_pair(17).expect_err("old format must not load");
        assert!(err.detail.contains("baseline-image"), "{err:?}");
        assert!(err.path.starts_with(cache.quarantine_dir()), "{err:?}");
        assert!(cache.load_pair(17).unwrap().is_none());

        // Re-storing heals the slot.
        cache.store_pair(17, &pair).unwrap();
        assert!(cache.load_pair(17).unwrap().is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn atomic_publish_replaces_or_leaves_the_old_file() {
        let dir = temp_cache("publish").dir().to_path_buf();
        fs::create_dir_all(&dir).unwrap();
        let tmp_files = || {
            fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
                .count()
        };
        let target = dir.join("entry.bin");
        fs::write(&target, b"old").unwrap();
        atomic_publish(&target, b"new").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new");
        assert_eq!(tmp_files(), 0);

        // Fails at create: the temp name outgrows the file-name limit.
        let long = dir.join(format!("{}.json", "x".repeat(249)));
        fs::write(&long, b"old").unwrap();
        assert!(atomic_publish(&long, b"new").is_err());
        assert_eq!(fs::read(&long).unwrap(), b"old", "old file intact");

        // Fails at rename, after the temp file was written and synced:
        // the target is a non-empty directory.
        let occupied = dir.join("occupied.out");
        fs::create_dir_all(&occupied).unwrap();
        fs::write(occupied.join("old"), b"old").unwrap();
        assert!(atomic_publish(&occupied, b"new").is_err());
        assert_eq!(fs::read(occupied.join("old")).unwrap(), b"old");
        assert_eq!(tmp_files(), 0, "failed publishes leave no temp file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_detected() {
        let cache = temp_cache("magic");
        cache.store(9, &sample_profile()).unwrap();
        let path = cache.entry_path(PROFILE_TAG, 9);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load(9).is_err());
        let _ = fs::remove_dir_all(cache.dir());
    }
}
