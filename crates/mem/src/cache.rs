//! A generic set-associative cache with true-LRU replacement.

/// Geometry of a [`Cache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Access latency in cycles (hit latency).
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two sets/line,
    /// or capacity not divisible by `ways * line_bytes`).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let set_bytes = self.ways * self.line_bytes;
        assert!(
            set_bytes > 0 && self.size_bytes.is_multiple_of(set_bytes),
            "capacity {} not divisible by ways*line {}",
            self.size_bytes,
            set_bytes
        );
        let sets = self.size_bytes / set_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss counters for a cache.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and filled).
    pub misses: u64,
    /// Non-filling lookups. Always 0: wrong-path loads access and fill
    /// like demand loads, so nothing probes. Kept because the journal
    /// layout and the golden fingerprints include it.
    pub probes: u64,
}

impl CacheStats {
    /// Total filling accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio over filling accesses (0 when no accesses).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    lru: u64,
}

/// A set-associative, true-LRU, write-allocate cache tag array.
///
/// Only tags are stored — data always comes from the simulator's
/// architectural memory; the cache exists purely for timing.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    set_shift: u32,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.num_sets();
        Cache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.ways); sets],
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    /// Accesses `addr`: returns `true` on a hit. Misses allocate the line
    /// (write-allocate; evicting true-LRU).
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.cfg.ways;
        let (set, tag) = self.set_and_tag(addr);
        let set_vec = &mut self.sets[set];
        if let Some(line) = set_vec.iter_mut().find(|l| l.tag == tag) {
            line.lru = tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set_vec.len() < ways {
            set_vec.push(Line { tag, lru: tick });
        } else {
            let victim = set_vec
                .iter_mut()
                .min_by_key(|l| l.lru)
                .expect("set is non-empty");
            *victim = Line { tag, lru: tick };
        }
        false
    }

    /// Pure presence check: no statistics, no LRU update, no allocation.
    /// The non-blocking hierarchy uses it to route an access (hit, coalesce,
    /// MSHR allocate, or refuse) *before* committing any state change, so a
    /// refused access (`MshrFull`) can be retried without perturbing
    /// counters or replacement state.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|l| l.tag == tag)
    }

    /// Demand lookup for the non-blocking hierarchy: counts a hit or a
    /// miss and refreshes LRU on a hit, but — unlike [`Cache::access`] —
    /// never allocates. On a miss the line arrives later via
    /// [`Cache::install`] when its MSHR fill completes.
    pub fn lookup(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            self.tick += 1;
            line.lru = self.tick;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Installs the line holding `addr` (MSHR fill completion). Does not
    /// count as an access; idempotent if the line is already present
    /// (refreshes its LRU position, as a fill would).
    pub fn install(&mut self, addr: u64) {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.cfg.ways;
        let (set, tag) = self.set_and_tag(addr);
        let set_vec = &mut self.sets[set];
        if let Some(line) = set_vec.iter_mut().find(|l| l.tag == tag) {
            line.lru = tick;
        } else if set_vec.len() < ways {
            set_vec.push(Line { tag, lru: tick });
        } else {
            let victim = set_vec
                .iter_mut()
                .min_by_key(|l| l.lru)
                .expect("set is non-empty");
            *victim = Line { tag, lru: tick };
        }
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> usize {
        self.cfg.line_bytes
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            latency: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit_same_line() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f)); // same 64B line
        assert!(!c.access(0x140)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with (addr >> 6) even.
        c.access(0x000); // line A
        c.access(0x080); // line B (set 0, 2 sets × 64B → stride 128)
        c.access(0x000); // touch A; B is LRU
        c.access(0x100); // line C evicts B
        assert!(c.access(0x000), "A should survive");
        assert!(!c.access(0x080), "B was evicted");
    }

    #[test]
    fn stats_miss_ratio() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 192,
            ways: 1,
            line_bytes: 64,
            latency: 1,
        });
    }
}
