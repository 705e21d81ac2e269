//! The Decomposed Branch Buffer (DBB) — §4 and Figure 7 of the paper.

use crate::meta::PredMeta;

/// Number of DBB entries; the paper sizes it empirically at 16 ("more than
/// sufficient" given in-order back-pressure), giving a 4-bit index carried
/// by resolution instructions.
pub const DBB_ENTRIES: usize = 16;

/// One DBB entry: the prediction made for a `predict` instruction plus the
/// predictor metadata needed for a later update.
///
/// The paper's implementation packs 24 bits per entry (16 bits of predictor
/// indices + 8 bits of metadata); this model carries the full [`PredMeta`]
/// but reports the hardware size via [`DecomposedBranchBuffer::entry_bits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbbEntry {
    /// PC of the `predict` instruction (for statistics; the hardware does
    /// not need it because the metadata already encodes the table indices).
    pub predict_pc: u64,
    /// Prediction + predictor-update metadata.
    pub meta: PredMeta,
    /// Valid bit (cleared by [`DecomposedBranchBuffer::invalidate_all`]).
    pub valid: bool,
}

/// A small circular buffer in the front end that re-associates each
/// `resolve` instruction with the prediction metadata of its `predict`
/// instruction.
///
/// Operation (Figure 7):
///
/// 1. **Insert** — when a `predict` is detected after decode, the tail
///    pointer is incremented and the prediction plus predictor metadata are
///    written at the tail ([`insert`](Self::insert)).
/// 2. **Tag** — when the corresponding `resolve` is fetched, the current
///    tail index is read and carried down the pipeline with it
///    ([`tail`](Self::tail)).
/// 3. **Update** — if the resolve detects a misprediction, the carried
///    index reads the entry back so the predictor can be trained
///    ([`get`](Self::get)); correct resolutions also train using the same
///    entry.
///
/// On a *non-decomposed* branch misprediction the tail must be recovered
/// along with branch history ([`recover_tail`](Self::recover_tail)); on
/// exceptional control flow entries may be invalidated wholesale
/// ([`invalidate_all`](Self::invalidate_all)).
#[derive(Clone, Debug)]
pub struct DecomposedBranchBuffer {
    entries: Vec<Option<DbbEntry>>,
    tail: usize,
    inserts: u64,
    spurious: u64,
}

impl Default for DecomposedBranchBuffer {
    fn default() -> Self {
        Self::new(DBB_ENTRIES)
    }
}

impl DecomposedBranchBuffer {
    /// Creates a DBB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two (the tail is a wrapping
    /// index).
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "DBB size must be a power of two");
        DecomposedBranchBuffer {
            entries: vec![None; entries],
            tail: 0,
            inserts: 0,
            spurious: 0,
        }
    }

    /// Inserts the metadata for a just-predicted `predict` instruction and
    /// returns the index it was written to (the new tail).
    pub fn insert(&mut self, predict_pc: u64, meta: PredMeta) -> usize {
        self.tail = (self.tail + 1) & (self.entries.len() - 1);
        self.entries[self.tail] = Some(DbbEntry {
            predict_pc,
            meta,
            valid: true,
        });
        self.inserts += 1;
        self.tail
    }

    /// The current tail index — read at decode of a `resolve` instruction
    /// and carried down the pipeline with it.
    pub fn tail(&self) -> usize {
        self.tail
    }

    /// Reads the entry at `index`. Returns `None` for never-written or
    /// invalidated slots (a *spurious* association, counted for the §4
    /// discussion of exceptional control flow).
    pub fn get(&mut self, index: usize) -> Option<DbbEntry> {
        match self.entries[index] {
            Some(e) if e.valid => Some(e),
            _ => {
                self.spurious += 1;
                None
            }
        }
    }

    /// Restores the tail pointer after a non-decomposed branch
    /// misprediction (younger, wrong-path `predict`s are abandoned).
    pub fn recover_tail(&mut self, tail: usize) {
        self.tail = tail & (self.entries.len() - 1);
    }

    /// Marks every entry invalid (the paper's second option for handling
    /// interrupts/exceptions/context switches, suppressing spurious
    /// predictor updates).
    pub fn invalidate_all(&mut self) {
        for e in self.entries.iter_mut().flatten() {
            e.valid = false;
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Lifetime insert count.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Lifetime count of lookups that found no valid entry.
    pub fn spurious_lookups(&self) -> u64 {
        self.spurious
    }

    /// Hardware bits per entry as budgeted by the paper: 16 bits of
    /// predictor-table indices plus 8 bits of prediction metadata.
    pub fn entry_bits(&self) -> usize {
        24
    }

    /// Index width carried by resolution instructions (4 bits for the
    /// 16-entry configuration).
    pub fn index_bits(&self) -> u32 {
        self.entries.len().trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(taken: bool) -> PredMeta {
        PredMeta::taken_only(taken)
    }

    #[test]
    fn figure7_insert_tag_update_sequence() {
        let mut dbb = DecomposedBranchBuffer::default();
        // (a) predict decoded: insert, tail advances.
        let idx = dbb.insert(0x1000, meta(true));
        assert_eq!(idx, dbb.tail());
        // (b) resolve decoded: reads the tail index.
        let carried = dbb.tail();
        // (c) resolve detects mispredict: entry read back for training.
        let e = dbb.get(carried).expect("entry present");
        assert_eq!(e.predict_pc, 0x1000);
        assert!(e.meta.taken);
    }

    #[test]
    fn resolve_associates_with_most_recent_predict() {
        let mut dbb = DecomposedBranchBuffer::default();
        dbb.insert(0xa, meta(true));
        let idx_b = dbb.insert(0xb, meta(false));
        assert_eq!(dbb.tail(), idx_b);
        assert_eq!(dbb.get(dbb.tail()).unwrap().predict_pc, 0xb);
    }

    #[test]
    fn sixteen_entries_give_four_index_bits() {
        let dbb = DecomposedBranchBuffer::default();
        assert_eq!(dbb.capacity(), 16);
        assert_eq!(dbb.index_bits(), 4);
        assert_eq!(dbb.entry_bits(), 24);
    }

    #[test]
    fn tail_wraps_circularly() {
        let mut dbb = DecomposedBranchBuffer::new(4);
        let mut last = 0;
        for i in 0..9 {
            last = dbb.insert(i, meta(false));
        }
        assert_eq!(last, 1); // 9 inserts mod 4, starting after slot 0
        assert_eq!(dbb.inserts(), 9);
    }

    #[test]
    fn recover_tail_rewinds_wrong_path_predicts() {
        let mut dbb = DecomposedBranchBuffer::default();
        dbb.insert(0x1, meta(true));
        let checkpoint = dbb.tail();
        // Wrong-path predicts fetched after a mispredicted normal branch…
        dbb.insert(0x2, meta(false));
        dbb.insert(0x3, meta(false));
        // …are abandoned by tail recovery.
        dbb.recover_tail(checkpoint);
        assert_eq!(dbb.get(dbb.tail()).unwrap().predict_pc, 0x1);
    }

    #[test]
    fn invalidate_all_suppresses_spurious_updates() {
        let mut dbb = DecomposedBranchBuffer::default();
        let idx = dbb.insert(0x9, meta(true));
        dbb.invalidate_all();
        assert_eq!(dbb.get(idx), None);
        assert_eq!(dbb.spurious_lookups(), 1);
    }

    #[test]
    fn never_written_slot_is_spurious() {
        let mut dbb = DecomposedBranchBuffer::default();
        assert_eq!(dbb.get(7), None);
        assert_eq!(dbb.spurious_lookups(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = DecomposedBranchBuffer::new(12);
    }
}
