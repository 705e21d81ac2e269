//! Local-history two-level (PAg-style) predictor.

use crate::meta::{fold_pc, DirectionPredictor, PredMeta, SaturatingCounter};

/// Two-level predictor with per-branch local history (PAg).
///
/// A first-level table of per-PC local history registers indexes a shared
/// second-level pattern-history table of 2-bit counters. Local history
/// captures per-branch periodic behaviour that global-history gshare can
/// miss when unrelated branches pollute the history register; it sits
/// between gshare and TAGE on the §5.3 accuracy ladder.
#[derive(Clone, Debug)]
pub struct TwoLevel {
    histories: Vec<u16>,
    pht: Vec<SaturatingCounter>,
    hist_mask: u16,
    l1_mask: u64,
    pht_mask: u64,
}

impl TwoLevel {
    /// Creates a two-level predictor.
    ///
    /// * `l1_entries` — number of local-history registers.
    /// * `hist_bits` — bits per local history (≤ 16).
    /// * `pht_entries` — pattern-history-table counters.
    ///
    /// # Panics
    ///
    /// Panics unless both table sizes are powers of two and
    /// `hist_bits <= 16`.
    pub fn new(l1_entries: usize, hist_bits: u32, pht_entries: usize) -> Self {
        assert!(
            l1_entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(
            pht_entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(hist_bits <= 16, "local history too long");
        TwoLevel {
            histories: vec![0; l1_entries],
            pht: vec![SaturatingCounter::new(2); pht_entries],
            hist_mask: ((1u32 << hist_bits) - 1) as u16,
            l1_mask: (l1_entries - 1) as u64,
            pht_mask: (pht_entries - 1) as u64,
        }
    }

    fn l1_index(&self, pc: u64) -> usize {
        (fold_pc(pc) & self.l1_mask) as usize
    }

    fn pht_index(&self, pc: u64, local: u16) -> usize {
        ((fold_pc(pc) ^ u64::from(local).rotate_left(3)) & self.pht_mask) as usize
    }
}

impl DirectionPredictor for TwoLevel {
    fn predict(&mut self, pc: u64) -> PredMeta {
        let l1 = self.l1_index(pc);
        let local = self.histories[l1];
        let pi = self.pht_index(pc, local);
        let taken = self.pht[pi].taken();
        let mut meta = PredMeta::taken_only(taken);
        meta.words[0] = l1 as u32;
        meta.words[1] = pi as u32;
        meta.words[2] = u32::from(local);
        // Local histories update non-speculatively at resolution (the
        // classic retire-time design): wrong-path fetches would otherwise
        // pollute other PCs' histories beyond what a flush can repair.
        meta
    }

    fn update(&mut self, _pc: u64, meta: &PredMeta, taken: bool) {
        self.pht[meta.words[1] as usize].train(taken);
        let l1 = meta.words[0] as usize;
        let local = meta.words[2] as u16;
        self.histories[l1] = ((local << 1) | taken as u16) & self.hist_mask;
    }

    fn name(&self) -> &'static str {
        "two-level-local"
    }

    fn storage_bits(&self) -> usize {
        self.histories.len() * (self.hist_mask.count_ones() as usize) + self.pht.len() * 2
    }

    fn reset(&mut self) {
        self.histories.fill(0);
        for c in &mut self.pht {
            *c = SaturatingCounter::new(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn late_accuracy<P: DirectionPredictor>(p: &mut P, pc: u64, pattern: &[bool], n: usize) -> f64 {
        let mut correct = 0usize;
        let tail = n - n / 4;
        for i in 0..n {
            let taken = pattern[i % pattern.len()];
            let m = p.predict(pc);
            if i >= tail && m.taken == taken {
                correct += 1;
            }
            p.update(pc, &m, taken);
        }
        correct as f64 / (n / 4) as f64
    }

    #[test]
    fn learns_periodic_local_patterns() {
        let mut p = TwoLevel::new(1024, 10, 4096);
        let acc = late_accuracy(&mut p, 0x77c, &[true, true, true, false], 4000);
        assert!(acc > 0.95, "two-level on period-4 pattern: {acc}");
    }

    #[test]
    fn immune_to_interleaved_noise_branches() {
        // A patterned branch interleaved with a 50/50 branch at another PC:
        // local history keeps the patterned branch predictable.
        let mut p = TwoLevel::new(1024, 10, 4096);
        let mut noise_state = 0x9e3779b97f4a7c15u64;
        let mut correct = 0;
        let mut total = 0;
        for i in 0..6000 {
            // Patterned branch.
            let taken = [true, false, false][i % 3];
            let m = p.predict(0x400);
            if i > 4500 {
                total += 1;
                correct += (m.taken == taken) as u32;
            }
            p.update(0x400, &m, taken);
            // Noise branch.
            noise_state ^= noise_state << 13;
            noise_state ^= noise_state >> 7;
            noise_state ^= noise_state << 17;
            let nt = noise_state & 1 == 0;
            let nm = p.predict(0x800);
            p.update(0x800, &nm, nt);
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(acc > 0.9, "two-level under noise: {acc}");
    }

    #[test]
    fn history_repair_on_mispredict() {
        let mut p = TwoLevel::new(64, 8, 256);
        let m = p.predict(0x10);
        p.update(0x10, &m, !m.taken);
        let m2 = p.predict(0x10);
        assert_eq!(m2.words[2] as u16 & 1, (!m.taken) as u16);
    }

    #[test]
    fn storage_accounting() {
        let p = TwoLevel::new(1024, 10, 4096);
        assert_eq!(p.storage_bits(), 1024 * 10 + 4096 * 2);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut p = TwoLevel::new(64, 8, 256);
        for _ in 0..32 {
            let m = p.predict(0x20);
            p.update(0x20, &m, true);
        }
        p.reset();
        assert!(!p.predict(0x20).taken);
    }
}
