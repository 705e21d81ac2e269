//! Gshare and the PTLSim-style 3-table combined predictor.

use crate::meta::{fold_pc, DirectionPredictor, PredMeta, SaturatingCounter};

/// Classic gshare: a table of 2-bit counters indexed by `PC ⊕ global
/// history`.
///
/// History is updated speculatively at prediction time and repaired from
/// the [`PredMeta`] snapshot when the resolution reports a misprediction —
/// the same recovery the paper's front end performs for branch history.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<SaturatingCounter>,
    mask: u64,
    hist_bits: u32,
    history: u64,
}

impl Gshare {
    /// Creates a gshare with `entries` counters and `hist_bits` bits of
    /// global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `hist_bits > 63`.
    pub fn new(entries: usize, hist_bits: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(hist_bits <= 63, "history too long");
        Gshare {
            table: vec![SaturatingCounter::new(2); entries],
            mask: (entries - 1) as u64,
            hist_bits,
            history: 0,
        }
    }

    fn index(&self, pc: u64, history: u64) -> usize {
        let h = history & ((1u64 << self.hist_bits) - 1);
        ((fold_pc(pc) ^ h) & self.mask) as usize
    }

    /// Current speculative global history (low bits are most recent).
    pub fn history(&self) -> u64 {
        self.history
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&mut self, pc: u64) -> PredMeta {
        let idx = self.index(pc, self.history);
        let taken = self.table[idx].taken();
        let mut meta = PredMeta::taken_only(taken);
        meta.words[0] = idx as u32;
        meta.hist[0] = self.history;
        // Speculative history update with the prediction.
        self.history = (self.history << 1) | taken as u64;
        meta
    }

    fn update(&mut self, _pc: u64, meta: &PredMeta, taken: bool) {
        self.table[meta.words[0] as usize].train(taken);
        if meta.taken != taken {
            // Repair: rebuild history as if the branch had gone the right way.
            self.history = (meta.hist[0] << 1) | taken as u64;
        }
    }

    fn name(&self) -> &'static str {
        "gshare"
    }

    fn repair_history(&mut self, meta: &PredMeta, taken: bool) {
        self.history = (meta.hist[0] << 1) | taken as u64;
    }

    fn storage_bits(&self) -> usize {
        self.table.len() * 2 + self.hist_bits as usize
    }

    fn reset(&mut self) {
        for c in &mut self.table {
            *c = SaturatingCounter::new(2);
        }
        self.history = 0;
    }
}

/// The PTLSim default direction predictor: three 8 KB tables (bimodal,
/// gshare, and a chooser), 24 KB total (Table 1 of the paper).
///
/// The chooser (meta) table selects per-PC between the bimodal and gshare
/// components and is trained only when the two disagree.
#[derive(Clone, Debug)]
pub struct Combined {
    bimodal: Vec<SaturatingCounter>,
    global: Vec<SaturatingCounter>,
    chooser: Vec<SaturatingCounter>,
    mask: u64,
    hist_bits: u32,
    history: u64,
}

impl Combined {
    /// Creates a combined predictor with `entries` counters per table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, hist_bits: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(hist_bits <= 63, "history too long");
        Combined {
            bimodal: vec![SaturatingCounter::new(2); entries],
            global: vec![SaturatingCounter::new(2); entries],
            chooser: vec![SaturatingCounter::new(2); entries],
            mask: (entries - 1) as u64,
            hist_bits,
            history: 0,
        }
    }

    /// The paper's baseline configuration: 24 KB split across three tables
    /// of 32 Ki 2-bit counters (8 KB each), 15 bits of global history.
    pub fn ptlsim_default() -> Self {
        Combined::new(32 * 1024, 15)
    }

    fn gshare_index(&self, pc: u64, history: u64) -> usize {
        let h = history & ((1u64 << self.hist_bits) - 1);
        ((fold_pc(pc) ^ h) & self.mask) as usize
    }

    fn pc_index(&self, pc: u64) -> usize {
        (fold_pc(pc) & self.mask) as usize
    }
}

impl DirectionPredictor for Combined {
    fn predict(&mut self, pc: u64) -> PredMeta {
        let bi = self.pc_index(pc);
        let gi = self.gshare_index(pc, self.history);
        let ci = self.pc_index(pc);
        let b_pred = self.bimodal[bi].taken();
        let g_pred = self.global[gi].taken();
        let use_global = self.chooser[ci].taken();
        let taken = if use_global { g_pred } else { b_pred };
        let mut meta = PredMeta::taken_only(taken);
        meta.words[0] = bi as u32;
        meta.words[1] = gi as u32;
        meta.words[2] = ci as u32;
        meta.words[3] = (b_pred as u32) | ((g_pred as u32) << 1);
        meta.hist[0] = self.history;
        self.history = (self.history << 1) | taken as u64;
        meta
    }

    fn update(&mut self, _pc: u64, meta: &PredMeta, taken: bool) {
        let bi = meta.words[0] as usize;
        let gi = meta.words[1] as usize;
        let ci = meta.words[2] as usize;
        let b_pred = meta.words[3] & 1 != 0;
        let g_pred = meta.words[3] & 2 != 0;
        self.bimodal[bi].train(taken);
        self.global[gi].train(taken);
        // Train the chooser toward whichever component was right, but only
        // when they disagreed.
        if b_pred != g_pred {
            self.chooser[ci].train(g_pred == taken);
        }
        if meta.taken != taken {
            self.history = (meta.hist[0] << 1) | taken as u64;
        }
    }

    fn name(&self) -> &'static str {
        "gshare-24KB-3table"
    }

    fn repair_history(&mut self, meta: &PredMeta, taken: bool) {
        self.history = (meta.hist[0] << 1) | taken as u64;
    }

    fn storage_bits(&self) -> usize {
        (self.bimodal.len() + self.global.len() + self.chooser.len()) * 2 + self.hist_bits as usize
    }

    fn reset(&mut self) {
        for t in [&mut self.bimodal, &mut self.global, &mut self.chooser] {
            for c in t.iter_mut() {
                *c = SaturatingCounter::new(2);
            }
        }
        self.history = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trains predictor `p` on a repeating pattern at one PC; returns the
    /// accuracy over the final quarter of `n` occurrences.
    fn late_accuracy<P: DirectionPredictor>(p: &mut P, pattern: &[bool], n: usize) -> f64 {
        let mut correct = 0usize;
        let tail_start = n - n / 4;
        for i in 0..n {
            let taken = pattern[i % pattern.len()];
            let m = p.predict(0x1234);
            if i >= tail_start && m.taken == taken {
                correct += 1;
            }
            p.update(0x1234, &m, taken);
        }
        correct as f64 / (n / 4) as f64
    }

    #[test]
    fn gshare_learns_short_patterns() {
        let mut p = Gshare::new(4096, 12);
        let acc = late_accuracy(&mut p, &[true, true, false], 2000);
        assert!(acc > 0.95, "gshare should learn a TTN pattern, got {acc}");
    }

    #[test]
    fn gshare_beats_bimodal_on_alternation() {
        let mut g = Gshare::new(4096, 12);
        let acc = late_accuracy(&mut g, &[true, false], 2000);
        assert!(acc > 0.95, "gshare accuracy on alternation: {acc}");
    }

    #[test]
    fn gshare_history_repair_on_mispredict() {
        let mut p = Gshare::new(64, 8);
        let m = p.predict(0x100);
        // The speculative history shifted in the prediction…
        assert_eq!(p.history() & 1, m.taken as u64);
        // …but resolving the other way must repair it.
        p.update(0x100, &m, !m.taken);
        assert_eq!(p.history() & 1, (!m.taken) as u64);
        assert_eq!(p.history() >> 1, m.hist[0]);
    }

    #[test]
    fn combined_ptlsim_default_is_24kb() {
        let p = Combined::ptlsim_default();
        // 3 tables × 32Ki × 2 bits = 192 Kibit = 24 KiB (+15 history bits).
        assert_eq!(p.storage_bits(), 3 * 32 * 1024 * 2 + 15);
    }

    #[test]
    fn combined_learns_biased_and_patterned_branches() {
        let mut p = Combined::new(4096, 12);
        let acc_pat = late_accuracy(&mut p, &[true, false, false, true], 4000);
        assert!(acc_pat > 0.9, "combined on pattern: {acc_pat}");
        let mut p2 = Combined::new(4096, 12);
        let acc_bias = late_accuracy(&mut p2, &[true], 400);
        assert!(acc_bias > 0.99, "combined on bias: {acc_bias}");
    }

    #[test]
    fn combined_chooser_prefers_the_better_component() {
        // Alternation: bimodal is ~50%, gshare ~100%. After training, the
        // combined predictor must reach gshare-level accuracy.
        let mut p = Combined::new(4096, 12);
        let acc = late_accuracy(&mut p, &[true, false], 4000);
        assert!(acc > 0.95, "combined on alternation: {acc}");
    }

    #[test]
    fn combined_history_repair() {
        let mut p = Combined::new(64, 8);
        let m = p.predict(0x40);
        p.update(0x40, &m, !m.taken);
        // History low bit reflects the actual outcome after repair.
        let m2 = p.predict(0x44);
        assert_eq!(m2.hist[0] & 1, (!m.taken) as u64);
    }

    #[test]
    fn reset_clears_learning() {
        let mut p = Combined::new(256, 8);
        for _ in 0..32 {
            let m = p.predict(0x10);
            p.update(0x10, &m, true);
        }
        p.reset();
        assert!(!p.predict(0x10).taken);
    }
}
