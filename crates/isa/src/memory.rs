//! Sparse 64-bit data-memory image, stored as 4 KiB flat pages.
//!
//! The profiling interpreter and the cycle simulator hit this structure on
//! every load and store, so the representation is optimised for the common
//! case: a handful of contiguous regions accessed with high locality. Pages
//! are dense `[u64; 512]` arrays in a hash map keyed by page number with a
//! one-multiply hasher, so a translation costs one probe however the
//! accesses alternate between regions. This replaced the word-granular
//! `HashMap` the seed used (one hash + probe per *word*, and the words
//! scattered across the heap).
//!
//! [`ReferenceMemory`] retains the original hash-map implementation as an
//! executable specification: the proptest differential suite drives both
//! with the same operation sequences, and `perfbench` measures the paged
//! store's speedup against it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u64 = 12;
/// Bytes per page (4 KiB).
const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;
/// 64-bit words per page.
const PAGE_WORDS: usize = (PAGE_BYTES / 8) as usize;

/// One 4 KiB page: a flat word array plus the two bitmaps needed to
/// preserve the seed's exact semantics.
///
/// * `mapped` — one bit per **byte**; [`Memory::read`] returns `None` for
///   addresses whose byte is unmapped, mirroring the old half-open range
///   list (which was byte-granular, e.g. `map_region(0x1000, 64)` maps
///   0x103f but not 0x1040).
/// * `written` — one bit per **word**; counts words explicitly stored
///   (even zero-valued ones) so [`Memory::resident_words`] matches the old
///   `HashMap::len`.
#[derive(Clone, Debug)]
struct Page {
    words: [u64; PAGE_WORDS],
    mapped: [u64; PAGE_WORDS / 8],
    written: [u64; PAGE_WORDS / 64],
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page {
            words: [0; PAGE_WORDS],
            mapped: [0; PAGE_WORDS / 8],
            written: [0; PAGE_WORDS / 64],
        })
    }

    #[inline]
    fn byte_mapped(&self, byte: usize) -> bool {
        self.mapped[byte >> 6] & (1u64 << (byte & 63)) != 0
    }

    /// Stores `value` in `word`, returning whether it was unwritten.
    #[inline]
    fn store(&mut self, word: usize, value: u64) -> bool {
        let fresh = self.written[word >> 6] & (1u64 << (word & 63)) == 0;
        self.written[word >> 6] |= 1u64 << (word & 63);
        self.words[word] = value;
        fresh
    }
}

/// Sets bits `[lo, hi)` in a packed bitmap.
fn set_bits(bitmap: &mut [u64], lo: usize, hi: usize) {
    let (mut word, last) = (lo >> 6, (hi - 1) >> 6);
    let lo_mask = !0u64 << (lo & 63);
    let hi_mask = !0u64 >> (63 - ((hi - 1) & 63));
    if word == last {
        bitmap[word] |= lo_mask & hi_mask;
        return;
    }
    bitmap[word] |= lo_mask;
    word += 1;
    while word < last {
        bitmap[word] = !0;
        word += 1;
    }
    bitmap[last] |= hi_mask;
}

/// Hashes a page number with one 64×64→128-bit multiply folded to 64 bits:
/// every output bit depends on every input bit, so regions a power of two
/// apart do not share buckets, at a fraction of SipHash's cost. Keys are
/// addresses of the simulated program, so a program built to collide
/// could slow its own lookups, never change a result.
#[derive(Clone, Copy, Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// A sparse, word-granular data memory backed by 4 KiB flat pages.
///
/// Addresses are byte addresses; accesses are 8-byte words, aligned down to
/// the nearest word boundary (the hidden ISA does not require sub-word
/// accesses for the paper's workloads). The image tracks which bytes were
/// explicitly mapped so that non-speculative loads to unmapped addresses can
/// be distinguished from non-faulting speculative (`ld.s`) loads.
///
/// Pages live in a page-number → page hash map, so translating an address
/// is one hash probe; [`written_words`](Memory::written_words) sorts the
/// pages by number when it reports. Reads take `&self` and mutate
/// nothing, so the experiment engine shares input images by reference
/// across worker threads.
///
/// Each store to an *unmapped* word implicitly maps one 8-byte range, so
/// semantics match the seed's range-list implementation exactly; see
/// [`ReferenceMemory`] for the retained executable specification.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Page number → page. Boxed, so growing the table moves no page.
    pages: HashMap<u64, Box<Page>, BuildHasherDefault<PageHasher>>,
    /// Running count of explicitly written words.
    resident: usize,
}

impl Memory {
    /// Creates an empty memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds page `pn`.
    #[inline]
    fn page(&self, pn: u64) -> Option<&Page> {
        self.pages.get(&pn).map(|p| &**p)
    }

    /// Finds or inserts page `pn`.
    #[inline]
    fn page_mut(&mut self, pn: u64) -> &mut Page {
        self.pages.entry(pn).or_insert_with(Page::new)
    }

    /// Maps the half-open byte range `[start, start + len)`.
    ///
    /// Mapped-but-unwritten words read as zero.
    pub fn map_region(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let mut addr = start;
        while addr < end {
            // Bytes of the range on this page, counted so the top page of
            // the address space needs no `page_end` past `u64::MAX`.
            let lo = addr & (PAGE_BYTES - 1);
            let n = (end - addr).min(PAGE_BYTES - lo);
            let page = self.page_mut(addr >> PAGE_SHIFT);
            set_bits(&mut page.mapped, lo as usize, (lo + n) as usize);
            addr += n;
        }
    }

    /// Returns `true` if the byte address falls in a mapped region.
    #[inline]
    pub fn is_mapped(&self, addr: u64) -> bool {
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => page.byte_mapped((addr & (PAGE_BYTES - 1)) as usize),
            None => false,
        }
    }

    /// Reads the word containing `addr`. Returns `None` when `addr` is
    /// unmapped — callers decide whether that is a fault (normal load) or a
    /// zero (speculative load).
    #[inline]
    pub fn read(&self, addr: u64) -> Option<u64> {
        let page = self.page(addr >> PAGE_SHIFT)?;
        let byte = (addr & (PAGE_BYTES - 1)) as usize;
        if !page.byte_mapped(byte) {
            return None;
        }
        Some(page.words[byte >> 3])
    }

    /// Writes the word containing `addr`. Stores to unmapped addresses map
    /// the containing word implicitly (the workloads pre-map their images,
    /// so this path only services scratch data).
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let byte = (addr & (PAGE_BYTES - 1)) as usize;
        let word = byte >> 3;
        let page = self.page_mut(addr >> PAGE_SHIFT);
        if !page.byte_mapped(byte) {
            // Implicitly map exactly the containing 8-byte word.
            page.mapped[word >> 3] |= 0xffu64 << ((word << 3) & 63);
        }
        self.resident += page.store(word, value) as usize;
    }

    /// Bulk-initialises a region with 64-bit words starting at `start`
    /// (mapping it as a side effect).
    pub fn load_words(&mut self, start: u64, words: &[u64]) {
        self.map_region(start, (words.len() as u64) * 8);
        for (i, &w) in words.iter().enumerate() {
            self.write_word_raw((start & !7) + (i as u64) * 8, w);
        }
    }

    /// Stores a word without touching the mapped bitmap (used by
    /// [`load_words`](Memory::load_words), which maps byte-exactly first).
    fn write_word_raw(&mut self, word_addr: u64, value: u64) {
        let word = ((word_addr & (PAGE_BYTES - 1)) >> 3) as usize;
        let page = self.page_mut(word_addr >> PAGE_SHIFT);
        self.resident += page.store(word, value) as usize;
    }

    /// Number of explicitly stored (non-zero-default) words.
    pub fn resident_words(&self) -> usize {
        self.resident
    }

    /// All explicitly written words as sorted `(word_address, value)`
    /// pairs. Used by the differential and interp-vs-pipeline parity tests
    /// to compare committed memory state structurally.
    pub fn written_words(&self) -> Vec<(u64, u64)> {
        let mut by_page: Vec<(u64, &Page)> =
            self.pages.iter().map(|(&pn, page)| (pn, &**page)).collect();
        by_page.sort_unstable_by_key(|&(pn, _)| pn);
        let mut out = Vec::with_capacity(self.resident);
        for (pn, page) in by_page {
            let base = pn << PAGE_SHIFT;
            for (chunk, &bits) in page.written.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    let word = (chunk << 6) | bit;
                    out.push((base + ((word as u64) << 3), page.words[word]));
                    bits &= bits - 1;
                }
            }
        }
        out
    }
}

/// The seed's word-granular `HashMap` memory, retained verbatim as the
/// reference model for the paged [`Memory`].
///
/// The proptest differential suite replays random operation sequences
/// against both implementations and asserts observational equivalence;
/// `perfbench` uses it as the baseline side of the memory microbenchmark.
/// Mapping is a `Vec` of half-open ranges scanned linearly, so it is slow
/// under scattered stores — exactly the behaviour the paged store removes.
#[derive(Clone, Debug, Default)]
pub struct ReferenceMemory {
    words: std::collections::HashMap<u64, u64>,
    /// Half-open mapped ranges `[start, end)`.
    mapped: Vec<(u64, u64)>,
}

impl ReferenceMemory {
    /// Creates an empty memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps the half-open byte range `[start, start + len)`.
    pub fn map_region(&mut self, start: u64, len: u64) {
        if len > 0 {
            self.mapped.push((start, start + len));
        }
    }

    /// Returns `true` if the byte address falls in a mapped region.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.mapped.iter().any(|&(s, e)| addr >= s && addr < e)
    }

    /// Reads the word containing `addr`; `None` when `addr` is unmapped.
    pub fn read(&self, addr: u64) -> Option<u64> {
        if !self.is_mapped(addr) {
            return None;
        }
        Some(*self.words.get(&(addr & !7)).unwrap_or(&0))
    }

    /// Writes the word containing `addr`, implicitly mapping it if needed.
    pub fn write(&mut self, addr: u64, value: u64) {
        let w = addr & !7;
        if !self.is_mapped(addr) {
            self.mapped.push((w, w + 8));
        }
        self.words.insert(w, value);
    }

    /// Bulk-initialises a region with 64-bit words starting at `start`.
    pub fn load_words(&mut self, start: u64, words: &[u64]) {
        self.map_region(start, (words.len() as u64) * 8);
        for (i, &w) in words.iter().enumerate() {
            self.words.insert((start & !7) + (i as u64) * 8, w);
        }
    }

    /// Number of explicitly stored words.
    pub fn resident_words(&self) -> usize {
        self.words.len()
    }

    /// All explicitly written words as sorted `(word_address, value)` pairs.
    pub fn written_words(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.words.iter().map(|(&a, &v)| (a, v)).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_are_none() {
        let m = Memory::new();
        assert_eq!(m.read(0x1000), None);
    }

    #[test]
    fn mapped_unwritten_reads_zero() {
        let mut m = Memory::new();
        m.map_region(0x1000, 64);
        assert_eq!(m.read(0x1000), Some(0));
        assert_eq!(m.read(0x103f), Some(0));
        assert_eq!(m.read(0x1040), None);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut m = Memory::new();
        m.write(0x2000, 0xdead_beef);
        assert_eq!(m.read(0x2000), Some(0xdead_beef));
    }

    #[test]
    fn reads_are_word_aligned() {
        let mut m = Memory::new();
        m.write(0x2000, 7);
        // Any byte inside the word sees the same value.
        assert_eq!(m.read(0x2003), Some(7));
        assert_eq!(m.read(0x2007), Some(7));
    }

    #[test]
    fn load_words_maps_and_fills() {
        let mut m = Memory::new();
        m.load_words(0x3000, &[1, 2, 3]);
        assert_eq!(m.read(0x3000), Some(1));
        assert_eq!(m.read(0x3008), Some(2));
        assert_eq!(m.read(0x3010), Some(3));
        assert_eq!(m.read(0x3018), None);
        assert_eq!(m.resident_words(), 3);
    }

    #[test]
    fn store_implicitly_maps_word() {
        let mut m = Memory::new();
        m.write(0x9000, 5);
        assert!(m.is_mapped(0x9000));
        assert!(!m.is_mapped(0x9008));
    }

    #[test]
    fn map_region_spans_page_boundaries() {
        let mut m = Memory::new();
        // 3 pages' worth straddling a page boundary, byte-granular ends.
        m.map_region(0x1ffd, 0x2006);
        assert!(!m.is_mapped(0x1ffc));
        assert!(m.is_mapped(0x1ffd));
        assert!(m.is_mapped(0x2000));
        assert!(m.is_mapped(0x3fff));
        assert!(m.is_mapped(0x4002));
        assert!(!m.is_mapped(0x4003));
        m.write(0x2ff8, 42);
        assert_eq!(m.read(0x2ffb), Some(42));
    }

    #[test]
    fn map_region_reaches_the_top_of_the_address_space() {
        let mut m = Memory::new();
        m.map_region(u64::MAX - 0x1003, 0x1003);
        assert!(!m.is_mapped(u64::MAX - 0x1004));
        assert!(m.is_mapped(u64::MAX - 0x1003));
        assert!(m.is_mapped(u64::MAX - 1));
        assert!(!m.is_mapped(u64::MAX), "the range is half-open");
        assert!(!m.is_mapped(0), "mapping does not wrap to page 0");
    }

    #[test]
    fn rewrite_does_not_double_count_residency() {
        let mut m = Memory::new();
        m.write(0x2000, 1);
        m.write(0x2000, 2);
        m.write(0x2004, 3); // same word
        assert_eq!(m.resident_words(), 1);
        assert_eq!(m.read(0x2000), Some(3));
    }

    #[test]
    fn written_words_reports_sorted_pairs() {
        let mut m = Memory::new();
        m.write(0x9008, 2);
        m.write(0x1000, 1);
        m.map_region(0x4000, 64); // mapped-only words are not "written"
        m.write(0x1008, 3);
        assert_eq!(
            m.written_words(),
            vec![(0x1000, 1), (0x1008, 3), (0x9008, 2)]
        );
    }

    #[test]
    fn matches_reference_on_unaligned_load_words() {
        let mut a = Memory::new();
        let mut b = ReferenceMemory::new();
        a.load_words(0x3003, &[7, 8]);
        b.load_words(0x3003, &[7, 8]);
        for addr in 0x2ff8..0x3020 {
            assert_eq!(a.read(addr), b.read(addr), "addr {addr:#x}");
            assert_eq!(a.is_mapped(addr), b.is_mapped(addr), "addr {addr:#x}");
        }
        assert_eq!(a.resident_words(), b.resident_words());
        assert_eq!(a.written_words(), b.written_words());
    }
}
