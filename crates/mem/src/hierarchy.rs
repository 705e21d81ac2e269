//! The full Table 1 memory hierarchy.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::outstanding::OutstandingQueue;

/// What kind of access is being made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (probes L1-I).
    InstFetch,
    /// Data load (probes L1-D; occupies the load-fill-request queue on a
    /// miss).
    Load,
    /// Data store (write-allocate into L1-D; completion never blocks the
    /// pipeline — the store buffer owns it).
    Store,
}

/// The level that serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// First-level cache (I or D).
    L1,
    /// Unified second-level cache.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory.
    Memory,
}

/// Result of a timed access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the data is available to consumers.
    pub complete: u64,
    /// The level that had the line.
    pub level: Level,
}

/// Hierarchy configuration (defaults to Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// L3 / LLC.
    pub l3: CacheConfig,
    /// Main-memory latency in cycles.
    pub memory_latency: u32,
    /// Miss-buffer entries.
    pub miss_buffer: usize,
    /// Load-fill-request-queue entries.
    pub lfrq: usize,
}

impl MemConfig {
    /// The paper's Table 1 configuration.
    pub fn table1_default() -> Self {
        MemConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                line_bytes: 64,
                latency: 4,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 16,
                line_bytes: 64,
                latency: 12,
            },
            l3: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                ways: 32,
                line_bytes: 64,
                latency: 25,
            },
            memory_latency: 140,
            miss_buffer: 64,
            lfrq: 64,
        }
    }

    /// The §6.1 ablation: the I$ capacity reduced by 25% to 24 KB
    /// (associativity drops to 3 ways to keep the set count).
    pub fn reduced_icache() -> Self {
        let mut c = Self::table1_default();
        c.l1i.size_bytes = 24 * 1024;
        c.l1i.ways = 3;
        c
    }
}

/// Aggregate statistics for the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1-I stats.
    pub l1i: CacheStats,
    /// L1-D stats.
    pub l1d: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// L3 stats.
    pub l3: CacheStats,
    /// Accesses that went all the way to memory.
    pub memory_accesses: u64,
}

/// The timed memory system: L1-I + L1-D over a unified L2, an L3, and main
/// memory, with bounded miss tracking.
#[derive(Clone, Debug)]
pub struct MemSystem {
    config: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    miss_buffer: OutstandingQueue,
    lfrq: OutstandingQueue,
    memory_accesses: u64,
}

impl MemSystem {
    /// Builds the hierarchy from a configuration.
    pub fn new(config: MemConfig) -> Self {
        MemSystem {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            miss_buffer: OutstandingQueue::new(config.miss_buffer),
            lfrq: OutstandingQueue::new(config.lfrq),
            memory_accesses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Performs a timed access at `cycle`; returns completion time and the
    /// servicing level.
    pub fn access(&mut self, cycle: u64, addr: u64, kind: AccessKind) -> Access {
        let l1 = match kind {
            AccessKind::InstFetch => &mut self.l1i,
            AccessKind::Load | AccessKind::Store => &mut self.l1d,
        };
        let l1_latency = u64::from(l1.config().latency);
        if l1.access(addr) {
            return Access {
                complete: cycle + l1_latency,
                level: Level::L1,
            };
        }
        // L1 miss: walk the outer levels, filling on the way back.
        let (level, latency) = if self.l2.access(addr) {
            (Level::L2, u64::from(self.config.l2.latency))
        } else if self.l3.access(addr) {
            (Level::L3, u64::from(self.config.l3.latency))
        } else {
            self.memory_accesses += 1;
            (Level::Memory, u64::from(self.config.memory_latency))
        };
        let line = addr & !(self.config.l1d.line_bytes as u64 - 1);
        let complete = self.miss_buffer.request(cycle, line, latency);
        let complete = if kind == AccessKind::Load {
            // Loads also occupy the load-fill-request queue.
            self.lfrq.request(cycle, line, complete - cycle)
        } else {
            complete
        };
        Access { complete, level }
    }

    /// Snapshot of statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            memory_accesses: self.memory_accesses,
        }
    }

    /// Resets statistics (contents persist — used for warmup windows).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.memory_accesses = 0;
    }

    /// Current in-flight misses (for occupancy statistics).
    pub fn inflight(&mut self, cycle: u64) -> usize {
        self.miss_buffer.occupancy(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_walks_to_memory() {
        let mut m = MemSystem::new(MemConfig::table1_default());
        let a = m.access(0, 0x4_0000, AccessKind::Load);
        assert_eq!(a.level, Level::Memory);
        assert_eq!(a.complete, 140);
        assert_eq!(m.stats().memory_accesses, 1);
    }

    #[test]
    fn fill_path_makes_later_accesses_hits() {
        let mut m = MemSystem::new(MemConfig::table1_default());
        m.access(0, 0x4_0000, AccessKind::Load);
        let a = m.access(200, 0x4_0000, AccessKind::Load);
        assert_eq!(a.level, Level::L1);
        assert_eq!(a.complete, 204);
    }

    #[test]
    fn inst_and_data_use_separate_l1s() {
        let mut m = MemSystem::new(MemConfig::table1_default());
        m.access(0, 0x4_0000, AccessKind::Load);
        // Same address as an instruction fetch still misses L1-I but hits L2.
        let a = m.access(200, 0x4_0000, AccessKind::InstFetch);
        assert_eq!(a.level, Level::L2);
        assert_eq!(m.stats().l1i.misses, 1);
    }

    #[test]
    fn l2_eviction_falls_back_to_l3() {
        let mut m = MemSystem::new(MemConfig::table1_default());
        // Touch > 256 KB of distinct lines to overflow L2, then re-touch the
        // first line: L1/L2 evicted it, L3 (4 MB) still has it.
        for i in 0..(512 * 1024 / 64) as u64 {
            m.access(i, 0x10_0000 + i * 64, AccessKind::Load);
        }
        let a = m.access(1_000_000, 0x10_0000, AccessKind::Load);
        assert_eq!(a.level, Level::L3);
    }

    #[test]
    fn overlapping_misses_expose_mlp() {
        let mut m = MemSystem::new(MemConfig::table1_default());
        let a = m.access(0, 0x100_0000, AccessKind::Load);
        let b = m.access(1, 0x200_0000, AccessKind::Load);
        // Both complete ~140 cycles after issue — parallel, not serial.
        assert_eq!(a.complete, 140);
        assert_eq!(b.complete, 141);
    }

    #[test]
    fn reduced_icache_config_shrinks_capacity() {
        let c = MemConfig::reduced_icache();
        assert_eq!(c.l1i.size_bytes, 24 * 1024);
        assert_eq!(c.l1i.num_sets(), MemConfig::table1_default().l1i.num_sets());
    }

    #[test]
    fn stores_do_not_consume_lfrq() {
        let mut m = MemSystem::new(MemConfig::table1_default());
        let a = m.access(0, 0x300_0000, AccessKind::Store);
        assert_eq!(a.level, Level::Memory);
        // A subsequent load to a different line shows no LFRQ interference.
        let b = m.access(1, 0x400_0000, AccessKind::Load);
        assert_eq!(b.complete, 141);
    }
}
