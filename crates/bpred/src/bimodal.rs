//! PC-indexed bimodal predictor (Smith predictor).

use crate::meta::{fold_pc, DirectionPredictor, PredMeta, SaturatingCounter};

/// A table of 2-bit saturating counters indexed by PC.
///
/// The weakest rung of the §5.3 sensitivity ladder and the base component
/// of [`crate::Combined`] and [`crate::Tage`].
#[derive(Clone, Debug)]
pub struct Bimodal {
    table: Vec<SaturatingCounter>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        Bimodal {
            table: vec![SaturatingCounter::new(2); entries],
            mask: (entries - 1) as u64,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (fold_pc(pc) & self.mask) as usize
    }

    /// Peeks the direction without producing metadata (used as a TAGE base).
    pub fn peek(&self, pc: u64) -> bool {
        self.table[self.index(pc)].taken()
    }

    /// Trains the entry for `pc` directly (used as a TAGE base).
    pub fn train(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].train(taken);
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&mut self, pc: u64) -> PredMeta {
        let i = self.index(pc);
        let mut meta = PredMeta::taken_only(self.table[i].taken());
        meta.words[0] = i as u32;
        meta
    }

    fn update(&mut self, _pc: u64, meta: &PredMeta, taken: bool) {
        self.table[meta.words[0] as usize].train(taken);
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn storage_bits(&self) -> usize {
        self.table.len() * 2
    }

    fn reset(&mut self) {
        for c in &mut self.table {
            *c = SaturatingCounter::new(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_bias_quickly() {
        let mut p = Bimodal::new(1024);
        for _ in 0..4 {
            let m = p.predict(0x100);
            p.update(0x100, &m, true);
        }
        assert!(p.predict(0x100).taken);
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut p = Bimodal::new(1024);
        for _ in 0..4 {
            let m = p.predict(0x100);
            p.update(0x100, &m, true);
        }
        // An untouched PC still starts at the weakly-not-taken default.
        assert!(!p.predict(0x900).taken);
    }

    #[test]
    fn cannot_learn_alternation() {
        // A bimodal predictor on a strict T/NT alternation converges to
        // ~50% accuracy — the motivating failure TAGE-class predictors fix.
        let mut p = Bimodal::new(64);
        let mut correct = 0;
        for i in 0..1000 {
            let taken = i % 2 == 0;
            let m = p.predict(0x40);
            correct += (m.taken == taken) as u32;
            p.update(0x40, &m, taken);
        }
        assert!(
            correct <= 600,
            "bimodal should not learn alternation, got {correct}"
        );
    }

    #[test]
    fn storage_accounting() {
        assert_eq!(Bimodal::new(4096).storage_bits(), 8192);
    }

    #[test]
    fn reset_restores_default_state() {
        let mut p = Bimodal::new(64);
        for _ in 0..4 {
            let m = p.predict(0x8);
            p.update(0x8, &m, true);
        }
        p.reset();
        assert!(!p.predict(0x8).taken);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Bimodal::new(1000);
    }
}
