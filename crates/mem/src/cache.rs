//! A single set-associative cache with true-LRU replacement.

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Load-to-use latency for a hit at this level, in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two sets).
    pub fn num_sets(&self) -> usize {
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(sets.is_power_of_two() && sets > 0, "invalid cache geometry");
        sets
    }
}

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and filled).
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.misses as f64 / total as f64
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    last_use: u64,
}

/// A set-associative, true-LRU, write-allocate cache (timing only — data
/// values live in the architectural memory image).
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    line_shift: u32,
    use_clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        Cache {
            config,
            sets: vec![Vec::with_capacity(config.ways); sets],
            set_mask: (sets - 1) as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Accesses `addr`; returns `true` on hit. A miss allocates the line,
    /// evicting the LRU way if the set is full.
    pub fn access(&mut self, addr: u64) -> bool {
        self.use_clock += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.last_use = self.use_clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set.len() < self.config.ways {
            set.push(Line {
                tag,
                last_use: self.use_clock,
            });
        } else {
            let lru = set
                .iter_mut()
                .min_by_key(|l| l.last_use)
                .expect("non-empty set");
            *lru = Line {
                tag,
                last_use: self.use_clock,
            };
        }
        false
    }

    /// Invalidates all contents (keeps statistics).
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            latency: 4,
        })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 8);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f)); // same 64-byte line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets * line = 512).
        c.access(0x0000);
        c.access(0x0200);
        c.access(0x0000); // refresh line 0
        c.access(0x0400); // evicts 0x0200 (LRU)
        assert!(c.access(0x0000));
        assert!(c.access(0x0400));
        assert!(!c.access(0x0200));
    }

    #[test]
    fn flush_invalidates_contents() {
        let mut c = small();
        c.access(0x1000);
        c.flush();
        assert!(!c.access(0x1000));
    }

    #[test]
    fn miss_rate_math() {
        let s = CacheStats {
            hits: 75,
            misses: 25,
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small(); // 1 KB
                             // 4 KB working set, repeatedly streamed: everything misses after
                             // the first pass too (LRU streaming pathology).
        for _ in 0..3 {
            for i in 0..64u64 {
                c.access(i * 64);
            }
        }
        assert!(c.stats().miss_rate() > 0.9);
    }

    #[test]
    fn working_set_within_cache_stays_resident() {
        let mut c = small();
        for _ in 0..10 {
            for i in 0..16u64 {
                c.access(i * 64); // exactly 1 KB
            }
        }
        // Only the 16 cold misses.
        assert_eq!(c.stats().misses, 16);
    }
}
