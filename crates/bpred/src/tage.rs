//! TAGE and an ISL-TAGE-style predictor (Seznec, MICRO 2011) for the
//! branch-predictor sensitivity study (§5.3 of the paper).

use crate::bimodal::Bimodal;
use crate::meta::{fold_pc, DirectionPredictor, PredMeta, SaturatingCounter};

/// Updates between two graceful useful-bit aging sweeps (`update` ages
/// when `update_count` reaches a multiple of this).
const AGING_PERIOD: u64 = 256 * 1024;

/// Configuration of a [`Tage`] predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TageConfig {
    /// Number of tagged components (≤ 6).
    pub num_tables: usize,
    /// Shortest history length (geometric series start).
    pub min_hist: u32,
    /// Longest history length (≤ 128).
    pub max_hist: u32,
    /// log2 of entries per tagged table.
    pub log_entries: u32,
    /// Tag width in bits (≤ 16).
    pub tag_bits: u32,
    /// log2 of base bimodal entries.
    pub log_base_entries: u32,
}

impl TageConfig {
    /// A ~32 KB TAGE used as the second-to-top ladder rung.
    pub fn storage_32kb() -> Self {
        TageConfig {
            num_tables: 5,
            min_hist: 4,
            max_hist: 128,
            log_entries: 11,
            tag_bits: 11,
            log_base_entries: 14,
        }
    }

    /// A ~64 KB TAGE used inside [`IslTage`] (the paper's top rung).
    pub fn storage_64kb() -> Self {
        TageConfig {
            num_tables: 6,
            min_hist: 4,
            max_hist: 128,
            log_entries: 12,
            tag_bits: 12,
            log_base_entries: 14,
        }
    }

    /// The geometric history length of table `t` (0 = shortest).
    pub fn hist_len(&self, t: usize) -> u32 {
        if self.num_tables == 1 {
            return self.min_hist;
        }
        let ratio = f64::from(self.max_hist) / f64::from(self.min_hist);
        let exp = t as f64 / (self.num_tables - 1) as f64;
        (f64::from(self.min_hist) * ratio.powf(exp)).round() as u32
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    ctr: u8,    // 3-bit signed-style counter, 0..7, >=4 means taken
    useful: u8, // 2-bit
}

const NO_PROVIDER: u32 = 0xff;

/// The TAGE predictor: a bimodal base plus tagged components with
/// geometrically increasing history lengths.
#[derive(Clone, Debug)]
pub struct Tage {
    config: TageConfig,
    base: Bimodal,
    tables: Vec<Vec<TageEntry>>,
    /// Raw speculative global history, newest outcome in bit 0 of `hist[0]`.
    hist: [u64; 2],
    /// Updates since the last graceful `useful` reset.
    update_count: u64,
    /// Allocation tie-break state (deterministic LFSR).
    alloc_seed: u32,
    /// Adaptive "use alternate prediction on newly-allocated entries"
    /// counters (real TAGE's USE_ALT_ON_NA), indexed by PC so noisy
    /// branches defer to the base while patterned ones trust providers.
    use_alt_on_na: Vec<SaturatingCounter>,
}

impl Tage {
    /// Creates a TAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration exceeds structural limits
    /// (`num_tables > 6`, `max_hist > 128`, `tag_bits > 16`).
    pub fn new(config: TageConfig) -> Self {
        assert!(config.num_tables >= 1 && config.num_tables <= 6);
        assert!(config.max_hist <= 128 && config.min_hist >= 1);
        assert!(config.tag_bits <= 16);
        let entries = 1usize << config.log_entries;
        Tage {
            config,
            base: Bimodal::new(1 << config.log_base_entries),
            tables: vec![vec![TageEntry::default(); entries]; config.num_tables],
            hist: [0; 2],
            update_count: 0,
            alloc_seed: 0xace1,
            use_alt_on_na: vec![SaturatingCounter::new(4); 128],
        }
    }

    fn use_alt_index(pc: u64) -> usize {
        (fold_pc(pc) & 127) as usize
    }

    /// The configuration in use.
    pub fn config(&self) -> &TageConfig {
        &self.config
    }

    fn fold_hist(hist: [u64; 2], len: u32, out_bits: u32) -> u64 {
        // Take the low `len` bits of the raw history and xor-fold them into
        // an `out_bits`-wide value.
        let mut bits = [0u64; 2];
        if len >= 64 {
            bits[0] = hist[0];
            let rem = len - 64;
            bits[1] = if rem == 0 {
                0
            } else if rem >= 64 {
                hist[1]
            } else {
                hist[1] & ((1u64 << rem) - 1)
            };
        } else if len > 0 {
            bits[0] = hist[0] & ((1u64 << len) - 1);
        }
        let mut acc = 0u64;
        let mask = (1u64 << out_bits) - 1;
        for mut w in bits {
            while w != 0 {
                acc ^= w & mask;
                w >>= out_bits;
            }
        }
        acc
    }

    fn index(&self, pc: u64, t: usize, hist: [u64; 2]) -> usize {
        let len = self.config.hist_len(t);
        let folded = Self::fold_hist(hist, len, self.config.log_entries);
        let mask = (1u64 << self.config.log_entries) - 1;
        ((fold_pc(pc) ^ folded ^ (t as u64).wrapping_mul(0x9e37)) & mask) as usize
    }

    fn tag(&self, pc: u64, t: usize, hist: [u64; 2]) -> u16 {
        let len = self.config.hist_len(t);
        let folded = Self::fold_hist(hist, len, self.config.tag_bits)
            ^ (Self::fold_hist(hist, len, self.config.tag_bits.saturating_sub(1).max(1)) << 1);
        let mask = (1u64 << self.config.tag_bits) - 1;
        (((fold_pc(pc) >> 3) ^ folded) & mask) as u16
    }

    fn shift_history(hist: [u64; 2], taken: bool) -> [u64; 2] {
        [
            (hist[0] << 1) | taken as u64,
            (hist[1] << 1) | (hist[0] >> 63),
        ]
    }

    fn next_alloc(&mut self) -> u32 {
        // 16-bit Galois LFSR: deterministic allocation tie-breaking.
        let lsb = self.alloc_seed & 1;
        self.alloc_seed >>= 1;
        if lsb != 0 {
            self.alloc_seed ^= 0xB400;
        }
        self.alloc_seed
    }
}

impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: u64) -> PredMeta {
        let hist = self.hist;
        let mut provider = NO_PROVIDER;
        let mut alt = NO_PROVIDER;
        let mut provider_pred = false;
        let mut alt_pred;
        let mut meta = PredMeta::default();
        // Compute and stash indices/tags for every table (needed at update
        // time since history will have moved on).
        for t in 0..self.config.num_tables {
            let idx = self.index(pc, t, hist);
            let tag = self.tag(pc, t, hist);
            meta.words[t] = idx as u32;
            meta.words[6 + t / 2] |= u32::from(tag) << (16 * (t % 2));
            let e = &self.tables[t][idx];
            if e.tag == tag && e.useful != 0xff {
                alt = provider;
                provider = t as u32;
                provider_pred = e.ctr >= 4;
            }
        }
        let base_pred = self.base.peek(pc);
        alt_pred = base_pred;
        if alt != NO_PROVIDER {
            let idx = meta.words[alt as usize] as usize;
            alt_pred = self.tables[alt as usize][idx].ctr >= 4;
        }
        let taken = if provider != NO_PROVIDER {
            let idx = meta.words[provider as usize] as usize;
            let e = &self.tables[provider as usize][idx];
            // Low-confidence entries defer to the alternate prediction
            // when the adaptive counter says fresh entries have been
            // unreliable (real TAGE's USE_ALT_ON_NA): in noisy
            // environments, chance-trained tagged entries must not
            // override the base predictor.
            let confident = e.ctr == 0 || e.ctr == 7 || e.useful > 0;
            if !confident && self.use_alt_on_na[Self::use_alt_index(pc)].taken() {
                alt_pred
            } else {
                provider_pred
            }
        } else {
            base_pred
        };
        meta.taken = taken;
        meta.words[9] = provider
            | (alt << 8)
            | ((provider_pred as u32) << 16)
            | ((alt_pred as u32) << 17)
            | ((base_pred as u32) << 18);
        meta.hist = hist;
        self.hist = Self::shift_history(hist, taken);
        meta
    }

    fn update(&mut self, pc: u64, meta: &PredMeta, taken: bool) {
        self.update_count += 1;
        let provider = meta.words[9] & 0xff;
        let alt = (meta.words[9] >> 8) & 0xff;
        let provider_pred = meta.words[9] & (1 << 16) != 0;
        let alt_pred = meta.words[9] & (1 << 17) != 0;

        if provider != NO_PROVIDER {
            let t = provider as usize;
            let idx = meta.words[t] as usize;
            let newish = {
                let e = &self.tables[t][idx];
                e.ctr >= 1 && e.ctr <= 6 && e.useful == 0
            };
            if newish && provider_pred != alt_pred {
                // "taken" for this counter means "prefer the alternate".
                self.use_alt_on_na[Self::use_alt_index(pc)].train(alt_pred == taken);
            }
            let e = &mut self.tables[t][idx];
            if taken && e.ctr < 7 {
                e.ctr += 1;
            } else if !taken && e.ctr > 0 {
                e.ctr -= 1;
            }
            // Useful bit: provider differed from alternate and was right.
            if provider_pred != alt_pred {
                if provider_pred == taken {
                    if e.useful < 3 {
                        e.useful += 1;
                    }
                } else if e.useful > 0 {
                    e.useful -= 1;
                }
            }
            // Train the alternate when the provider entry was weak.
            if (e.ctr == 3 || e.ctr == 4) && alt != NO_PROVIDER {
                let ai = meta.words[alt as usize] as usize;
                let ae = &mut self.tables[alt as usize][ai];
                if taken && ae.ctr < 7 {
                    ae.ctr += 1;
                } else if !taken && ae.ctr > 0 {
                    ae.ctr -= 1;
                }
            }
            // The base always trains: providers come and go with history
            // churn, and a stale base is what every miss falls back to.
            self.base.train(pc, taken);
        } else {
            self.base.train(pc, taken);
        }

        // Allocate on a misprediction in a longer-history table.
        if meta.taken != taken {
            let start = if provider == NO_PROVIDER {
                0
            } else {
                provider as usize + 1
            };
            if start < self.config.num_tables {
                // Pick the first allocatable (useful == 0) table at or after
                // `start`, with a random skip to avoid ping-ponging.
                let skip = (self.next_alloc() as usize) % 2;
                let mut allocated = false;
                let mut skipped = skip;
                for t in start..self.config.num_tables {
                    let idx = meta.words[t] as usize;
                    if self.tables[t][idx].useful == 0 {
                        if skipped > 0 && t + 1 < self.config.num_tables {
                            skipped -= 1;
                            continue;
                        }
                        let tag = ((meta.words[6 + t / 2] >> (16 * (t % 2))) & 0xffff) as u16;
                        self.tables[t][idx] = TageEntry {
                            tag,
                            ctr: if taken { 4 } else { 3 },
                            useful: 0,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    // Decay useful counters on allocation failure.
                    for t in start..self.config.num_tables {
                        let idx = meta.words[t] as usize;
                        let e = &mut self.tables[t][idx];
                        if e.useful > 0 {
                            e.useful -= 1;
                        }
                    }
                }
            }
            // Repair the speculative history.
            self.hist = Self::shift_history(meta.hist, taken);
        }

        // Graceful aging of useful bits.
        if self.update_count.is_multiple_of(AGING_PERIOD) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "tage"
    }

    fn repair_history(&mut self, meta: &PredMeta, taken: bool) {
        self.hist = Self::shift_history(meta.hist, taken);
    }

    fn storage_bits(&self) -> usize {
        let per_entry = 3 + 2 + self.config.tag_bits as usize;
        self.tables.len() * (1 << self.config.log_entries) * per_entry
            + self.base.storage_bits()
            + self.config.max_hist as usize
    }

    fn reset(&mut self) {
        for t in &mut self.tables {
            t.fill(TageEntry::default());
        }
        self.base.reset();
        self.hist = [0; 2];
        self.update_count = 0;
        self.alloc_seed = 0xace1;
        for c in &mut self.use_alt_on_na {
            *c = SaturatingCounter::new(4);
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct LoopEntry {
    tag: u16,
    trip: u16,
    current: u16,
    conf: u8,
}

/// An ISL-TAGE-style predictor: TAGE plus a loop predictor and a small
/// statistical corrector (the 64 KB top rung of the paper's §5.3 ladder).
#[derive(Clone, Debug)]
pub struct IslTage {
    tage: Tage,
    loops: Vec<LoopEntry>,
    corrector: Vec<SaturatingCounter>,
}

impl IslTage {
    /// The 64 KB configuration referenced by the paper.
    pub fn storage_64kb() -> Self {
        IslTage {
            tage: Tage::new(TageConfig::storage_64kb()),
            loops: vec![LoopEntry::default(); 256],
            corrector: vec![SaturatingCounter::new(5); 4096],
        }
    }

    fn loop_index(pc: u64) -> usize {
        (fold_pc(pc) & 0xff) as usize
    }

    fn loop_tag(pc: u64) -> u16 {
        ((fold_pc(pc) >> 8) & 0x3fff) as u16
    }

    fn corrector_index(&self, pc: u64, pred: bool) -> usize {
        ((fold_pc(pc).wrapping_mul(0x9e3779b1) >> 7) as usize ^ usize::from(pred))
            & (self.corrector.len() - 1)
    }
}

impl DirectionPredictor for IslTage {
    fn predict(&mut self, pc: u64) -> PredMeta {
        let mut meta = self.tage.predict(pc);
        let tage_pred = meta.taken;

        // Loop predictor: override when a confident loop entry predicts the
        // exit iteration.
        let li = Self::loop_index(pc);
        let e = self.loops[li];
        let mut used_loop = false;
        let mut final_pred = tage_pred;
        if e.tag == Self::loop_tag(pc) && e.conf >= 3 && e.trip > 0 {
            used_loop = true;
            final_pred = e.current < e.trip;
        }

        // Statistical corrector: flip low-confidence predictions that are
        // strongly anti-correlated with the outcome.
        let ci = self.corrector_index(pc, final_pred);
        let c = &self.corrector[ci];
        let mut used_corrector = false;
        if c.is_saturated() && c.taken() != final_pred {
            used_corrector = true;
            final_pred = c.taken();
        }

        meta.taken = final_pred;
        meta.words[10] = (used_loop as u32)
            | ((used_corrector as u32) << 1)
            | ((tage_pred as u32) << 2)
            | ((li as u32) << 8)
            | ((ci as u32) << 16);
        // The TAGE speculative history shifted in `tage_pred`; keep it
        // consistent with the final prediction.
        if final_pred != tage_pred {
            self.tage.hist = Tage::shift_history(meta.hist, final_pred);
        }
        meta
    }

    fn update(&mut self, pc: u64, meta: &PredMeta, taken: bool) {
        let tage_pred = meta.words[10] & 4 != 0;
        // Train TAGE with a meta whose `taken` is the TAGE prediction so its
        // own mispredict/allocation logic sees its own outcome, then repair
        // the history against the *final* outcome.
        let mut tage_meta = *meta;
        tage_meta.taken = tage_pred;
        self.tage.update(pc, &tage_meta, taken);
        if meta.taken != taken || tage_pred != taken {
            self.tage.hist = Tage::shift_history(meta.hist, taken);
        }

        // Loop predictor training.
        let li = ((meta.words[10] >> 8) & 0xff) as usize;
        let e = &mut self.loops[li];
        let tag = Self::loop_tag(pc);
        if e.tag != tag {
            // Adopt the slot when it has no confidence.
            if e.conf == 0 {
                *e = LoopEntry {
                    tag,
                    trip: 0,
                    current: 0,
                    conf: 0,
                };
            }
        }
        if e.tag == tag {
            if taken {
                e.current = e.current.saturating_add(1);
            } else {
                if e.trip == e.current && e.trip > 0 {
                    if e.conf < 3 {
                        e.conf += 1;
                    }
                } else {
                    e.trip = e.current;
                    e.conf = if e.trip > 0 { 1 } else { 0 };
                }
                e.current = 0;
            }
        }

        // Corrector training.
        let ci = ((meta.words[10] >> 16) & 0xffff) as usize;
        self.corrector[ci].train(taken);
    }

    fn name(&self) -> &'static str {
        "isl-tage-64KB"
    }

    fn repair_history(&mut self, meta: &PredMeta, taken: bool) {
        self.tage.hist = Tage::shift_history(meta.hist, taken);
    }

    fn storage_bits(&self) -> usize {
        self.tage.storage_bits() + self.loops.len() * (14 + 16 + 16 + 2) + self.corrector.len() * 5
    }

    fn reset(&mut self) {
        self.tage.reset();
        self.loops.fill(LoopEntry::default());
        for c in &mut self.corrector {
            *c = SaturatingCounter::new(5);
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
    fn hist_lengths_are_geometric_and_bounded() {
        let c = TageConfig::storage_32kb();
        assert_eq!(c.hist_len(0), c.min_hist);
        assert_eq!(c.hist_len(c.num_tables - 1), c.max_hist);
        for t in 1..c.num_tables {
            assert!(c.hist_len(t) > c.hist_len(t - 1));
        }
    }

    #[test]
    fn fold_hist_respects_length() {
        // Bits beyond `len` must not affect the fold.
        let h1 = [0b1010u64, 0];
        let h2 = [0b1111_1010u64, 0];
        assert_eq!(Tage::fold_hist(h1, 4, 8), Tage::fold_hist(h2, 4, 8));
        assert_ne!(Tage::fold_hist(h1, 8, 8), Tage::fold_hist(h2, 8, 8));
    }

    #[test]
    fn fold_hist_uses_high_word() {
        let mut h1 = [u64::MAX, 0];
        let h2 = [u64::MAX, 1];
        assert_ne!(Tage::fold_hist(h1, 128, 10), Tage::fold_hist(h2, 128, 10));
        h1[1] = 1;
        assert_eq!(Tage::fold_hist(h1, 128, 10), Tage::fold_hist(h2, 128, 10));
    }

    #[test]
    fn tage_learns_long_patterns_gshare_cannot() {
        // Period-24 pattern needs long history correlation.
        let mut pattern = vec![true; 23];
        pattern.push(false);
        let mut tage = Tage::new(TageConfig::storage_32kb());
        let acc = late_accuracy(&mut tage, 0x4000, &pattern, 30_000);
        assert!(acc > 0.97, "tage on period-24: {acc}");
    }

    #[test]
    fn tage_learns_biased_branches() {
        let mut tage = Tage::new(TageConfig::storage_32kb());
        let acc = late_accuracy(&mut tage, 0x4000, &[true], 2000);
        assert!(acc > 0.99, "tage on bias: {acc}");
    }

    #[test]
    fn isl_tage_loop_predictor_catches_fixed_trip_loops() {
        // A loop that runs exactly 37 iterations: TAGE with 128-bit history
        // can also catch this, so instead verify the loop table itself
        // converges (confidence saturates and trip count is learned).
        let mut p = IslTage::storage_64kb();
        let pc = 0x7700;
        for _ in 0..50 {
            for i in 0..37 {
                let taken = i < 36; // exit on iteration 37
                let m = p.predict(pc);
                p.update(pc, &m, taken);
            }
        }
        let e = p.loops[IslTage::loop_index(pc)];
        assert_eq!(e.trip, 36);
        assert!(e.conf >= 3);
        // And the final prediction stream should be essentially perfect.
        let mut correct = 0;
        for i in 0..370 {
            let taken = i % 37 < 36;
            let m = p.predict(pc);
            correct += (m.taken == taken) as u32;
            p.update(pc, &m, taken);
        }
        assert!(correct >= 365, "loop accuracy {correct}/370");
    }

    #[test]
    fn ladder_is_monotone_on_a_mixed_stream() {
        // A workload with a patterned branch + biased branch + loop exit:
        // accuracy must not decrease up the ladder.
        fn run(p: &mut dyn DirectionPredictor) -> f64 {
            let mut correct = 0u32;
            let mut total = 0u32;
            let mut lfsr = 0xdeadbeefu64;
            for i in 0..40_000u64 {
                // patterned
                let t1 = [true, false, false, true, true, false][i as usize % 6];
                let m1 = p.predict(0x100);
                correct += (m1.taken == t1) as u32;
                p.update(0x100, &m1, t1);
                // biased 90/10 (pseudo-random)
                lfsr ^= lfsr << 13;
                lfsr ^= lfsr >> 7;
                lfsr ^= lfsr << 17;
                let t2 = !lfsr.is_multiple_of(10);
                let m2 = p.predict(0x200);
                correct += (m2.taken == t2) as u32;
                p.update(0x200, &m2, t2);
                // loop of trip 12
                let t3 = i % 12 != 11;
                let m3 = p.predict(0x300);
                correct += (m3.taken == t3) as u32;
                p.update(0x300, &m3, t3);
                total += 3;
            }
            f64::from(correct) / f64::from(total)
        }
        let mut bimodal = crate::Bimodal::new(4096);
        let mut gshare = crate::Gshare::new(4096, 12);
        let mut tage = Tage::new(TageConfig::storage_32kb());
        let mut isl = IslTage::storage_64kb();
        let a_bi = run(&mut bimodal);
        let a_gs = run(&mut gshare);
        let a_tage = run(&mut tage);
        let a_isl = run(&mut isl);
        assert!(a_gs > a_bi, "gshare {a_gs} vs bimodal {a_bi}");
        assert!(a_tage >= a_gs - 0.005, "tage {a_tage} vs gshare {a_gs}");
        assert!(a_isl >= a_tage - 0.005, "isl {a_isl} vs tage {a_tage}");
        // Theoretical ceiling ≈ 0.967: the 90/10 branch is genuinely random.
        assert!(a_isl > 0.95, "isl-tage absolute accuracy {a_isl}");
    }

    #[test]
    fn storage_budgets_are_close_to_nominal() {
        let t32 = Tage::new(TageConfig::storage_32kb());
        let bits = t32.storage_bits();
        assert!(
            (24 * 8192..=40 * 8192).contains(&bits),
            "32KB TAGE actual bits: {bits}"
        );
        let isl = IslTage::storage_64kb();
        let bits = isl.storage_bits();
        assert!(
            (48 * 8192..=80 * 8192).contains(&bits),
            "64KB ISL-TAGE actual bits: {bits}"
        );
    }

    #[test]
    fn tage_history_repair_keeps_determinism() {
        // Two identical TAGEs fed the same stream, one with forced wrong
        // speculative updates (prediction differs), must converge to the
        // same history after repair.
        let mut a = Tage::new(TageConfig::storage_32kb());
        let outcomes = [true, false, true, true, false, false, true];
        for &t in &outcomes {
            let m = a.predict(0x500);
            a.update(0x500, &m, t);
        }
        // After in-order updates, history low bits must equal the outcome
        // stream regardless of prediction correctness.
        let want = outcomes.iter().fold(0u64, |acc, &t| (acc << 1) | t as u64);
        assert_eq!(a.hist[0] & 0x7f, want);
    }

    #[test]
    fn reset_restores_power_on() {
        let mut p = IslTage::storage_64kb();
        for _ in 0..100 {
            let m = p.predict(0x9);
            p.update(0x9, &m, true);
        }
        p.reset();
        let m = p.predict(0x9);
        assert!(!m.taken); // power-on state predicts not-taken
    }
}
