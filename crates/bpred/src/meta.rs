//! The direction-predictor trait and shared building blocks.

use std::fmt;

/// Per-prediction metadata snapshot.
///
/// A prediction and its training are decoupled in this crate (in hardware
/// the Decomposed Branch Buffer carries this state between the `predict`
/// and `resolve` instructions, §4 of the paper). `PredMeta` packs everything
/// a predictor needs to train correctly later: the prediction itself, the
/// table indices/tags computed at prediction time, and a global-history
/// snapshot for repair after a misprediction.
///
/// The hardware DBB stores 24 bits per entry (16 bits of table indices +
/// 8 bits of metadata); this model is not bit-packed but
/// [`DirectionPredictor::meta_bits`] reports the hardware-faithful size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredMeta {
    /// The predicted direction.
    pub taken: bool,
    /// Predictor-specific packed words (indices, tags, provider info).
    pub words: [u32; 16],
    /// Global-history snapshot *before* this prediction was shifted in
    /// (up to 128 bits; predictors using longer histories fold).
    pub hist: [u64; 2],
}

impl PredMeta {
    /// Creates metadata for a prediction with no table state.
    pub fn taken_only(taken: bool) -> PredMeta {
        PredMeta {
            taken,
            ..PredMeta::default()
        }
    }
}

/// A hardware direction predictor with decoupled predict/update.
///
/// The contract mirrors the paper's front end:
///
/// 1. `predict(pc)` is called at fetch. The predictor may speculatively
///    update internal history with its own prediction.
/// 2. `update(pc, meta, taken)` is called at branch resolution, *in program
///    order*, with the metadata captured at step 1. If the prediction was
///    wrong the predictor must also repair its speculative history from the
///    snapshot in `meta`.
pub trait DirectionPredictor: fmt::Debug {
    /// Predicts the direction of the branch at `pc` and returns the
    /// training metadata.
    fn predict(&mut self, pc: u64) -> PredMeta;

    /// Trains with the actual direction, repairing history on mispredicts.
    fn update(&mut self, pc: u64, meta: &PredMeta, taken: bool);

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Total predictor storage in bits (direction state only).
    fn storage_bits(&self) -> usize;

    /// Bits of metadata a DBB entry must hold for this predictor
    /// (the paper's implementation budgets 24 bits).
    fn meta_bits(&self) -> usize {
        24
    }

    /// Resets all tables and history to power-on state.
    fn reset(&mut self);

    /// Repairs speculative global history after a pipeline flush, using
    /// the metadata captured at the mispredicted conditional's fetch and
    /// its actual direction. Called by the simulator at re-steer time —
    /// wrong-path fetches made between the misprediction's *detection*
    /// and the *flush* shift speculative history and must be discarded.
    ///
    /// Table state is untouched. The default is a no-op (history-free
    /// predictors).
    fn repair_history(&mut self, meta: &PredMeta, taken: bool) {
        let _ = (meta, taken);
    }
}

/// An n-bit saturating up/down counter (the workhorse of every table).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates an `bits`-wide counter initialised to the weakly-not-taken
    /// midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    pub fn new(bits: u32) -> Self {
        assert!((1..=7).contains(&bits), "counter width out of range");
        let max = ((1u16 << bits) - 1) as u8;
        SaturatingCounter {
            value: max / 2,
            max,
        }
    }

    /// The counter's current value.
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Predicted direction: the upper half of the range means taken.
    pub fn taken(&self) -> bool {
        u16::from(self.value) * 2 > u16::from(self.max)
    }

    /// `true` when saturated at either end (high confidence).
    pub fn is_saturated(&self) -> bool {
        self.value == 0 || self.value == self.max
    }

    /// Moves the counter toward `taken`.
    pub fn train(&mut self, taken: bool) {
        if taken {
            if self.value < self.max {
                self.value += 1;
            }
        } else if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Forces a value (used by allocation policies).
    pub fn set(&mut self, value: u8) {
        self.value = value.min(self.max);
    }
}

/// Mixes PC bits for table indexing (a cheap xor-fold hash; real hardware
/// uses similar bit-slicing).
#[inline]
pub(crate) fn fold_pc(pc: u64) -> u64 {
    let pc = pc >> 2; // instructions are >= 4-byte aligned
    pc ^ (pc >> 17) ^ (pc >> 31)
}

impl DirectionPredictor for Box<dyn DirectionPredictor> {
    fn predict(&mut self, pc: u64) -> PredMeta {
        (**self).predict(pc)
    }
    fn update(&mut self, pc: u64, meta: &PredMeta, taken: bool) {
        (**self).update(pc, meta, taken)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn storage_bits(&self) -> usize {
        (**self).storage_bits()
    }
    fn meta_bits(&self) -> usize {
        (**self).meta_bits()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn repair_history(&mut self, meta: &PredMeta, taken: bool) {
        (**self).repair_history(meta, taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_weak() {
        let c = SaturatingCounter::new(2);
        assert_eq!(c.value(), 1);
        assert!(!c.taken());
    }

    #[test]
    fn counter_saturates_high() {
        let mut c = SaturatingCounter::new(2);
        for _ in 0..10 {
            c.train(true);
        }
        assert_eq!(c.value(), 3);
        assert!(c.taken());
        assert!(c.is_saturated());
    }

    #[test]
    fn counter_saturates_low() {
        let mut c = SaturatingCounter::new(3);
        for _ in 0..20 {
            c.train(false);
        }
        assert_eq!(c.value(), 0);
        assert!(!c.taken());
    }

    #[test]
    fn counter_hysteresis() {
        let mut c = SaturatingCounter::new(2);
        c.train(true);
        c.train(true); // saturated taken (3)
        c.train(false); // 2: still predicts taken
        assert!(c.taken());
        c.train(false); // 1: now not-taken
        assert!(!c.taken());
    }

    #[test]
    #[should_panic(expected = "counter width out of range")]
    fn zero_width_counter_rejected() {
        let _ = SaturatingCounter::new(0);
    }

    #[test]
    fn fold_pc_distinguishes_nearby_pcs() {
        assert_ne!(fold_pc(0x1000), fold_pc(0x1004));
    }
}
