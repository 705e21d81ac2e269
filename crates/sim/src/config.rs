//! Machine configurations (Table 1 of the paper).

use vanguard_mem::MemConfig;

/// Configuration of the simulated in-order superscalar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Fetch/decode/dispatch width (the paper varies 2/4/8).
    pub width: usize,
    /// Fetch-buffer entries (Table 1: 32).
    pub fetch_buffer: usize,
    /// Front-end depth in stages (Table 1: 5). An instruction fetched at
    /// cycle *c* is issue-eligible at *c + fe_depth − 1*.
    pub fe_depth: u32,
    /// Integer/SIMD-permute issue ports per cycle (Table 1: 2).
    pub fu_int: usize,
    /// Load/store issue ports per cycle (Table 1: 2).
    pub fu_ldst: usize,
    /// SIMD/FP issue ports per cycle (Table 1: 4).
    pub fu_fp: usize,
    /// Extra cycles between a mispredicting conditional's issue and the
    /// front-end re-steer (branch resolution latency).
    pub redirect_latency: u32,
    /// Decomposed Branch Buffer entries (§4: 16).
    pub dbb_entries: usize,
    /// Memory hierarchy.
    pub mem: MemConfig,
}

impl MachineConfig {
    fn base(width: usize) -> Self {
        MachineConfig {
            width,
            fetch_buffer: 32,
            fe_depth: 5,
            fu_int: 2,
            fu_ldst: 2,
            fu_fp: 4,
            redirect_latency: 1,
            dbb_entries: 16,
            mem: MemConfig::table1_default(),
        }
    }

    /// The 2-wide configuration.
    pub fn two_wide() -> Self {
        Self::base(2)
    }

    /// The 4-wide configuration (the paper's primary evaluation point).
    pub fn four_wide() -> Self {
        Self::base(4)
    }

    /// The 8-wide configuration.
    pub fn eight_wide() -> Self {
        Self::base(8)
    }

    /// All three evaluated widths, narrowest first.
    pub fn all_widths() -> [Self; 3] {
        [Self::two_wide(), Self::four_wide(), Self::eight_wide()]
    }

    /// The §6.1 ablation with the 24 KB instruction cache.
    pub fn with_reduced_icache(mut self) -> Self {
        self.mem = MemConfig::reduced_icache();
        self
    }

    /// Cycles between fetch and issue eligibility.
    pub fn fe_latency(&self) -> u64 {
        u64::from(self.fe_depth - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_table1() {
        assert_eq!(MachineConfig::two_wide().width, 2);
        assert_eq!(MachineConfig::four_wide().width, 4);
        assert_eq!(MachineConfig::eight_wide().width, 8);
    }

    #[test]
    fn shared_structure_sizes() {
        let c = MachineConfig::four_wide();
        assert_eq!(c.fetch_buffer, 32);
        assert_eq!(c.fe_depth, 5);
        assert_eq!((c.fu_ldst, c.fu_int, c.fu_fp), (2, 2, 4));
        assert_eq!(c.dbb_entries, 16);
    }

    #[test]
    fn fe_latency_is_depth_minus_one() {
        assert_eq!(MachineConfig::four_wide().fe_latency(), 4);
    }

    #[test]
    fn reduced_icache_ablation() {
        let c = MachineConfig::four_wide().with_reduced_icache();
        assert_eq!(c.mem.l1i.size_bytes, 24 * 1024);
    }
}
