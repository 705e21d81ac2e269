//! Simulation statistics.

use vanguard_mem::MemStats;

/// Counters collected over a simulation, sufficient to regenerate every
/// per-benchmark metric of the paper's Table 2 and Figures 8–14.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions issued to the back end, including wrong-path issues.
    pub issued: u64,
    /// Wrong-path instructions issued (flushed before commit).
    pub issued_wrong_path: u64,
    /// Instructions fetched (including `predict`s and other front-end-only
    /// instructions, and wrong-path fetches).
    pub fetched: u64,
    /// `predict` instructions fetched on the committed path.
    pub predicts: u64,
    /// Conventional conditional branches committed.
    pub branches: u64,
    /// Of those, mispredicted.
    pub branch_mispredicts: u64,
    /// `resolve` instructions committed.
    pub resolves: u64,
    /// Of those, detecting a misprediction (resolve taken).
    pub resolve_mispredicts: u64,
    /// Cycles the issue head was a conventional branch waiting on its
    /// condition (the baseline's branch-resolution serialization).
    pub branch_stall_cycles: u64,
    /// Cycles the issue head was a `resolve` waiting on its condition
    /// (feeds the paper's ASPCB metric).
    pub resolve_stall_cycles: u64,
    /// Cycles nothing issued because the fetch buffer was empty or the
    /// head was not yet through the front end.
    pub frontend_stall_cycles: u64,
    /// Cycles nothing issued because the head waited on an operand.
    pub operand_stall_cycles: u64,
    /// Cycles nothing issued because the head's FU port was exhausted.
    pub fu_stall_cycles: u64,
    /// Front-end re-steers due to mispredictions (normal + resolve).
    pub redirects: u64,
    /// I$ misses that occurred while a misprediction redirect was in
    /// flight (the §6.1 conjunction discussion).
    pub icache_miss_under_mispredict: u64,
    /// Cycles fetch was blocked: I$ line-fill misses plus decode-stage
    /// steer bubbles (BTB-miss redirects share the same stall mechanism).
    pub icache_stall_cycles: u64,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
}

impl SimStats {
    /// Committed (correct-path) instructions issued.
    pub fn committed(&self) -> u64 {
        self.issued - self.issued_wrong_path
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.committed() as f64 / self.cycles as f64
    }

    /// Branch mispredictions (both kinds) per thousand committed
    /// instructions — the paper's MPPKI.
    pub fn mppki(&self) -> f64 {
        let committed = self.committed();
        if committed == 0 {
            return 0.0;
        }
        (self.branch_mispredicts + self.resolve_mispredicts) as f64 * 1000.0 / committed as f64
    }

    /// Fraction of issued instructions that were wrong-path (Figure 14's
    /// "% increase in instructions issued" comes from comparing this
    /// between configurations).
    pub fn wrong_path_fraction(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.issued_wrong_path as f64 / self.issued as f64
    }

    /// Average stall cycles per committed `resolve` (the paper's ASPCB is
    /// average stall cycles per converted branch).
    pub fn stalls_per_resolve(&self) -> f64 {
        if self.resolves == 0 {
            return 0.0;
        }
        self.resolve_stall_cycles as f64 / self.resolves as f64
    }

    /// Host-side simulation throughput: millions of committed simulated
    /// instructions per wall-clock second of `elapsed`.
    pub fn mips(&self, elapsed: std::time::Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed() as f64 / 1e6 / secs
    }

    /// The six counters an idle cycle can bump, in a fixed order: I$,
    /// front-end, operand, branch, resolve, and FU stall cycles.
    pub(crate) fn stall_counters(&self) -> [u64; 6] {
        [
            self.icache_stall_cycles,
            self.frontend_stall_cycles,
            self.operand_stall_cycles,
            self.branch_stall_cycles,
            self.resolve_stall_cycles,
            self.fu_stall_cycles,
        ]
    }

    /// Repeats `times` more the stall-counter increments made since the
    /// counters read `before` (one idle cycle's worth), as if that many
    /// further identical idle cycles had been ticked.
    pub(crate) fn repeat_stalls(&mut self, before: [u64; 6], times: u64) {
        let now = self.stall_counters();
        let counters = [
            &mut self.icache_stall_cycles,
            &mut self.frontend_stall_cycles,
            &mut self.operand_stall_cycles,
            &mut self.branch_stall_cycles,
            &mut self.resolve_stall_cycles,
            &mut self.fu_stall_cycles,
        ];
        for ((c, n), b) in counters.into_iter().zip(now).zip(before) {
            *c += (n - b) * times;
        }
    }

    /// Overall conditional-prediction accuracy on the committed path.
    pub fn prediction_accuracy(&self) -> f64 {
        let total = self.branches + self.resolves;
        if total == 0 {
            return 1.0;
        }
        1.0 - (self.branch_mispredicts + self.resolve_mispredicts) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 1000,
            issued: 2200,
            issued_wrong_path: 200,
            branches: 100,
            branch_mispredicts: 5,
            resolves: 50,
            resolve_mispredicts: 5,
            resolve_stall_cycles: 150,
            ..SimStats::default()
        };
        assert_eq!(s.committed(), 2000);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.mppki() - 5.0).abs() < 1e-12);
        assert!((s.wrong_path_fraction() - 200.0 / 2200.0).abs() < 1e-12);
        assert!((s.stalls_per_resolve() - 3.0).abs() < 1e-12);
        assert!((s.prediction_accuracy() - (1.0 - 10.0 / 150.0)).abs() < 1e-12);
        let mips = s.mips(std::time::Duration::from_millis(500));
        assert!((mips - 2000.0 / 1e6 / 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mppki(), 0.0);
        assert_eq!(s.wrong_path_fraction(), 0.0);
        assert_eq!(s.stalls_per_resolve(), 0.0);
        assert_eq!(s.prediction_accuracy(), 1.0);
        assert_eq!(s.mips(std::time::Duration::ZERO), 0.0);
    }
}
