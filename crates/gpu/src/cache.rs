//! Set-associative cache model with LRU replacement.
//!
//! Caches are *presence trackers*: data is always consistent in the
//! functional backing store, and the cache answers hit/miss so the
//! simulator knows which accesses reach the NoC/L2 and which lines fill.
//! L1D follows the GPU policy the paper relies on for the VS coder
//! (§4.2.2-A): **write-no-allocate, write-evict** — a store invalidates any
//! L1 copy and is forwarded to L2.

use serde::{Deserialize, Serialize};

/// Static cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    bytes: u64,
    line_bytes: u32,
    assoc: u32,
}

impl CacheConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is a positive multiple of `line_bytes × assoc`
    /// and the resulting set count is a power of two.
    pub fn new(bytes: u64, line_bytes: u32, assoc: u32) -> Self {
        assert!(line_bytes > 0 && assoc > 0 && bytes > 0, "zero-sized cache");
        let lines = bytes / u64::from(line_bytes);
        assert_eq!(
            lines * u64::from(line_bytes),
            bytes,
            "capacity not a multiple of the line size"
        );
        let sets = lines / u64::from(assoc);
        assert!(
            sets > 0 && sets * u64::from(assoc) == lines,
            "capacity must split evenly into at least one set (got {sets} sets)"
        );
        Self {
            bytes,
            line_bytes,
            assoc,
        }
    }

    /// Total capacity in bytes.
    pub fn bytes(self) -> u64 {
        self.bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(self) -> u32 {
        self.line_bytes
    }

    /// Associativity.
    pub fn assoc(self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(self) -> u64 {
        // Floor division composes (⌊⌊x/a⌋/b⌋ = ⌊x/(ab)⌋), so the combined
        // divisor can be tested for the shift form once. Every shipped
        // config is power-of-two sized; the hot set lookup runs per issue
        // (L1I) and per line (L1D/L2), where a hardware divide is
        // measurable.
        let per_set = u64::from(self.line_bytes) * u64::from(self.assoc);
        if per_set.is_power_of_two() {
            self.bytes >> per_set.trailing_zeros()
        } else {
            self.bytes / per_set
        }
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line was present.
    Hit,
    /// Line was absent; if a victim line was evicted its address is carried.
    Miss {
        /// Evicted line base address, if the fill displaced a valid line.
        evicted: Option<u64>,
    },
}

/// One cache instance (tags + LRU state only).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × assoc` entries of (tag, valid); LRU order per set tracked by
    /// a logical timestamp.
    tags: Vec<Option<u64>>,
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let entries = (config.sets() * u64::from(config.assoc)) as usize;
        Self {
            config,
            tags: vec![None; entries],
            stamps: vec![0; entries],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Return to the all-invalid state of [`Cache::new`] with zeroed
    /// counters, keeping the tag and stamp allocations. A launch builds its
    /// caches once and resets them for every SM it simulates.
    pub fn reset(&mut self) {
        self.tags.fill(None);
        self.stamps.fill(0);
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// The cache configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Base address of the line containing `addr`.
    pub fn line_base(&self, addr: u64) -> u64 {
        let lb = u64::from(self.config.line_bytes);
        if lb.is_power_of_two() {
            addr & !(lb - 1)
        } else {
            addr - addr % lb
        }
    }

    /// Look up `addr`; on a miss the line is filled (allocated, possibly
    /// evicting the set's LRU line).
    pub fn access_allocate(&mut self, addr: u64) -> Access {
        let line = self.line_base(addr);
        let (set_start, set_end) = self.set_range(line);
        self.tick += 1;

        // Hit?
        for i in set_start..set_end {
            if self.tags[i] == Some(line) {
                self.stamps[i] = self.tick;
                self.hits += 1;
                return Access::Hit;
            }
        }
        self.misses += 1;
        // Fill into invalid way or LRU victim.
        let victim = (set_start..set_end)
            .min_by_key(|&i| (self.tags[i].is_some(), self.stamps[i]))
            .expect("set is non-empty");
        let evicted = self.tags[victim];
        self.tags[victim] = Some(line);
        self.stamps[victim] = self.tick;
        Access::Miss { evicted }
    }

    /// Look up `addr` without allocating on miss (write-no-allocate probes).
    pub fn probe(&mut self, addr: u64) -> bool {
        let line = self.line_base(addr);
        let (s, e) = self.set_range(line);
        self.tick += 1;
        for i in s..e {
            if self.tags[i] == Some(line) {
                self.stamps[i] = self.tick;
                return true;
            }
        }
        false
    }

    /// Invalidate the line containing `addr` if present (write-evict).
    /// Returns `true` if a line was invalidated.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = self.line_base(addr);
        let (s, e) = self.set_range(line);
        for i in s..e {
            if self.tags[i] == Some(line) {
                self.tags[i] = None;
                return true;
            }
        }
        false
    }

    fn set_range(&self, line: u64) -> (usize, usize) {
        let lb = u64::from(self.config.line_bytes);
        let line_idx = if lb.is_power_of_two() {
            line >> lb.trailing_zeros()
        } else {
            line / lb
        };
        let sets = self.config.sets();
        let set = if sets.is_power_of_two() {
            (line_idx & (sets - 1)) as usize
        } else {
            (line_idx % sets) as usize
        };
        let assoc = self.config.assoc as usize;
        (set * assoc, set * assoc + assoc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 128B lines = 1KB
        Cache::new(CacheConfig::new(1024, 128, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(matches!(c.access_allocate(0x1000), Access::Miss { .. }));
        assert_eq!(c.access_allocate(0x1000), Access::Hit);
        assert_eq!(c.access_allocate(0x1040), Access::Hit); // same line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to the same set (set = (addr/128) % 4 = 0).
        let a = 0; // set 0, tag 0
        let b = a + 4 * 128;
        let d = b + 4 * 128;
        c.access_allocate(a);
        c.access_allocate(b);
        c.access_allocate(a); // a is now MRU
        match c.access_allocate(d) {
            Access::Miss { evicted } => assert_eq!(evicted, Some(c.line_base(b))),
            Access::Hit => panic!("expected miss"),
        }
        assert_eq!(c.access_allocate(a), Access::Hit);
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = small();
        assert!(!c.probe(0x2000));
        assert!(!c.probe(0x2000), "probe must not fill the line");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access_allocate(0x3000);
        assert!(c.invalidate(0x3000));
        assert!(!c.invalidate(0x3000));
        assert!(matches!(c.access_allocate(0x3000), Access::Miss { .. }));
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = small();
        assert_eq!(c.hit_rate(), 0.0);
        c.access_allocate(0);
        c.access_allocate(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "multiple of the line size")]
    fn bad_geometry_rejected() {
        let _ = CacheConfig::new(1000, 128, 1);
    }

    #[test]
    fn non_power_of_two_sets_allowed() {
        // A 12KB 4-way texture cache has 24 sets; real odd-capacity L1s exist.
        let cfg = CacheConfig::new(12 << 10, 128, 4);
        assert_eq!(cfg.sets(), 24);
        let mut c = Cache::new(cfg);
        assert!(matches!(c.access_allocate(0), Access::Miss { .. }));
        assert_eq!(c.access_allocate(0), Access::Hit);
    }

    proptest! {
        /// A reset cache is indistinguishable from a new one: after any
        /// access history, reset, then the same random access sequence on
        /// both gives the same outcomes, counters and internal state.
        #[test]
        fn reset_behaves_like_new(
            history in proptest::collection::vec((0u64..64, 0u8..3), 0..200),
            ops in proptest::collection::vec((0u64..64, 0u8..3), 0..200),
        ) {
            let apply = |c: &mut Cache, ops: &[(u64, u8)]| -> Vec<(Option<Access>, bool)> {
                ops.iter()
                    .map(|&(line, op)| {
                        let addr = line * 128 + 4;
                        match op {
                            0 => (Some(c.access_allocate(addr)), false),
                            1 => (None, c.probe(addr)),
                            _ => (None, c.invalidate(addr)),
                        }
                    })
                    .collect()
            };
            let mut reused = small();
            apply(&mut reused, &history);
            reused.reset();
            let mut fresh = small();
            prop_assert_eq!(&reused, &fresh);
            prop_assert_eq!(apply(&mut reused, &ops), apply(&mut fresh, &ops));
            prop_assert_eq!(reused.hits(), fresh.hits());
            prop_assert_eq!(reused.misses(), fresh.misses());
            prop_assert_eq!(&reused, &fresh);
        }
    }

    #[test]
    fn config_accessors() {
        let cfg = CacheConfig::new(16 << 10, 128, 4);
        assert_eq!(cfg.sets(), 32);
        assert_eq!(cfg.bytes(), 16 << 10);
    }
}
