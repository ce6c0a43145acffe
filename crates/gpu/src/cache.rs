//! Set-associative cache model with LRU replacement.
//!
//! Caches are *presence trackers*: data is always consistent in the
//! functional backing store, and the cache answers hit/miss so the
//! simulator knows which accesses reach the NoC/L2 and which lines fill.
//! L1D follows the GPU policy the paper relies on for the VS coder
//! (§4.2.2-A): **write-no-allocate, write-evict** — a store invalidates any
//! L1 copy and is forwarded to L2.

/// Static cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// and a line holds at least two bytes. The set count need not be a
    /// power of two.
    pub fn new(bytes: u64, line_bytes: u32, assoc: u32) -> Self {
        assert!(line_bytes > 0 && assoc > 0 && bytes > 0, "zero-sized cache");
        assert!(line_bytes >= 2, "a line must hold at least two bytes");
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
        self.bytes / (u64::from(self.line_bytes) * u64::from(self.assoc))
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

/// Tag of an invalid way. Tags are line indices (`addr / line_bytes`); with
/// lines of at least two bytes no index reaches `u64::MAX`.
const INVALID: u64 = u64::MAX;

/// One cache instance (tags + LRU state only).
///
/// Each set carries the generation it was last cleared in. [`Cache::reset`]
/// only advances the cache's generation, and a set from an older one is
/// cleared on its first touch, so a reset costs O(1) however large the
/// cache. Equality compares what an access can observe: the configuration,
/// the counters, and each set's valid lines in LRU order.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: u64,
    /// `sets × assoc` line indices, [`INVALID`] for an empty way; LRU order
    /// per set tracked by a logical timestamp.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    /// Per set, the generation whose contents `tags`/`stamps` hold.
    set_generations: Vec<u32>,
    generation: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let entries = (sets * u64::from(config.assoc)) as usize;
        Self {
            config,
            sets,
            tags: vec![INVALID; entries],
            stamps: vec![0; entries],
            set_generations: vec![0; sets as usize],
            generation: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Return to the all-invalid state of [`Cache::new`] with zeroed
    /// counters, keeping the allocations. A launch builds its caches once
    /// and resets them for every SM it simulates. O(1): every set is left
    /// a generation behind and clears itself on first touch. When the
    /// generation counter wraps, a set untouched for 2^32 resets could
    /// look current again, so that one reset clears every set eagerly.
    pub fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.tags.fill(INVALID);
            self.stamps.fill(0);
            self.set_generations.fill(0);
        }
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
        let line = self.line_index(addr);
        let ways = self.set_ways(line);
        self.tick += 1;
        let tick = self.tick;
        let tags = &mut self.tags[ways.clone()];
        let stamps = &mut self.stamps[ways];
        // One pass finds the hit or the victim: the minimum of
        // (valid, stamp), the first one on ties as `min_by_key` picks. The
        // pair packs into one key with the valid flag above the stamp,
        // which a per-reset tick never reaches.
        let mut victim = 0;
        let mut victim_key = u64::MAX;
        for w in 0..tags.len() {
            if tags[w] == line {
                stamps[w] = tick;
                self.hits += 1;
                return Access::Hit;
            }
            let key = stamps[w] | u64::from(tags[w] != INVALID) << 63;
            if key < victim_key {
                victim_key = key;
                victim = w;
            }
        }
        self.misses += 1;
        let evicted = tags[victim];
        tags[victim] = line;
        stamps[victim] = tick;
        Access::Miss {
            evicted: (evicted != INVALID).then(|| self.line_address(evicted)),
        }
    }

    /// Look up `addr` without allocating on miss (write-no-allocate probes).
    pub fn probe(&mut self, addr: u64) -> bool {
        let line = self.line_index(addr);
        let ways = self.set_ways(line);
        self.tick += 1;
        match self.tags[ways.clone()].iter().position(|&t| t == line) {
            Some(w) => {
                self.stamps[ways.start + w] = self.tick;
                true
            }
            None => false,
        }
    }

    /// Invalidate the line containing `addr` if present (write-evict).
    /// Returns `true` if a line was invalidated.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = self.line_index(addr);
        let ways = self.set_ways(line);
        match self.tags[ways].iter_mut().find(|t| **t == line) {
            Some(t) => {
                *t = INVALID;
                true
            }
            None => false,
        }
    }

    fn line_index(&self, addr: u64) -> u64 {
        let lb = u64::from(self.config.line_bytes);
        if lb.is_power_of_two() {
            addr >> lb.trailing_zeros()
        } else {
            addr / lb
        }
    }

    fn line_address(&self, line: u64) -> u64 {
        line * u64::from(self.config.line_bytes)
    }

    fn set_of(&self, line: u64) -> usize {
        if self.sets.is_power_of_two() {
            (line & (self.sets - 1)) as usize
        } else {
            (line % self.sets) as usize
        }
    }

    /// The way range of the set holding `line`, cleared first if the cache
    /// was reset since the set was last touched.
    fn set_ways(&mut self, line: u64) -> core::ops::Range<usize> {
        let set = self.set_of(line);
        let assoc = self.config.assoc as usize;
        let ways = set * assoc..set * assoc + assoc;
        if self.set_generations[set] != self.generation {
            self.set_generations[set] = self.generation;
            self.tags[ways.clone()].fill(INVALID);
            self.stamps[ways.clone()].fill(0);
        }
        ways
    }

    /// One set's valid line addresses, least recently used first; empty for
    /// a set a reset has left behind.
    fn resident_lines(&self, set: usize) -> Vec<u64> {
        if self.set_generations[set] != self.generation {
            return Vec::new();
        }
        let assoc = self.config.assoc as usize;
        let mut ways: Vec<usize> = (set * assoc..set * assoc + assoc)
            .filter(|&w| self.tags[w] != INVALID)
            .collect();
        ways.sort_by_key(|&w| self.stamps[w]);
        ways.into_iter()
            .map(|w| self.line_address(self.tags[w]))
            .collect()
    }

    /// Relabel the current generation as `to`, keeping every set's
    /// contents, so tests reach the wraparound without 2^32 resets.
    #[cfg(test)]
    fn jump_generation(&mut self, to: u32) {
        assert!(to >= self.generation, "generations only move forward");
        for g in &mut self.set_generations {
            if *g == self.generation {
                *g = to;
            }
        }
        self.generation = to;
    }
}

impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.hits == other.hits
            && self.misses == other.misses
            && (0..self.sets as usize).all(|s| self.resident_lines(s) == other.resident_lines(s))
    }
}

impl Eq for Cache {}

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

    /// The cache as it was before per-set generations and the one-pass
    /// scan: `Option` tags, an eager clear on reset and a `min_by_key`
    /// victim search. `matches_reference_model` holds [`Cache`] to it.
    struct Reference {
        config: CacheConfig,
        tags: Vec<Option<u64>>,
        stamps: Vec<u64>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn new(config: CacheConfig) -> Self {
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

        fn reset(&mut self) {
            self.tags.fill(None);
            self.stamps.fill(0);
            self.tick = 0;
            self.hits = 0;
            self.misses = 0;
        }

        fn line_base(&self, addr: u64) -> u64 {
            addr - addr % u64::from(self.config.line_bytes)
        }

        fn set_range(&self, line: u64) -> (usize, usize) {
            let set = (line / u64::from(self.config.line_bytes) % self.config.sets()) as usize;
            let assoc = self.config.assoc as usize;
            (set * assoc, set * assoc + assoc)
        }

        fn access_allocate(&mut self, addr: u64) -> Access {
            let line = self.line_base(addr);
            let (s, e) = self.set_range(line);
            self.tick += 1;
            for i in s..e {
                if self.tags[i] == Some(line) {
                    self.stamps[i] = self.tick;
                    self.hits += 1;
                    return Access::Hit;
                }
            }
            self.misses += 1;
            let victim = (s..e)
                .min_by_key(|&i| (self.tags[i].is_some(), self.stamps[i]))
                .expect("set is non-empty");
            let evicted = self.tags[victim];
            self.tags[victim] = Some(line);
            self.stamps[victim] = self.tick;
            Access::Miss { evicted }
        }

        fn probe(&mut self, addr: u64) -> bool {
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

        fn invalidate(&mut self, addr: u64) -> bool {
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

        fn resident_lines(&self, set: usize) -> Vec<u64> {
            let assoc = self.config.assoc as usize;
            let mut ways: Vec<usize> = (set * assoc..set * assoc + assoc)
                .filter(|&w| self.tags[w].is_some())
                .collect();
            ways.sort_by_key(|&w| self.stamps[w]);
            ways.into_iter().filter_map(|w| self.tags[w]).collect()
        }
    }

    /// `(bytes, line_bytes, assoc)`: direct-mapped, 4-way, the 6-way L1D,
    /// the 16-way L2 bank, 3 sets, and 96-byte lines in 5 sets.
    const GEOMETRIES: [(u64, u32, u32); 6] = [
        (8 * 128, 128, 1),
        (4 * 4 * 128, 128, 4),
        (4 * 6 * 128, 128, 6),
        (2 * 16 * 128, 128, 16),
        (3 * 4 * 128, 128, 4),
        (5 * 2 * 96, 96, 2),
    ];

    proptest! {
        /// Over random sequences of accesses, probes, invalidations and
        /// resets, with the generation counter pushed to its wraparound at
        /// random points, every result, counter and set's LRU contents
        /// equal the reference model's.
        #[test]
        fn matches_reference_model(
            geometry in 0usize..GEOMETRIES.len(),
            ops in proptest::collection::vec((0u8..9, 0u64..64, any::<u32>()), 0..400),
        ) {
            let (bytes, line_bytes, assoc) = GEOMETRIES[geometry];
            let config = CacheConfig::new(bytes, line_bytes, assoc);
            let mut cache = Cache::new(config);
            let mut reference = Reference::new(config);
            let lines = config.sets() * u64::from(assoc) * 2;
            for (kind, line, offset) in ops {
                let addr = if line == 63 {
                    u64::MAX - u64::from(offset)
                } else {
                    line % lines * u64::from(line_bytes) + u64::from(offset % line_bytes)
                };
                match kind {
                    0..=3 => prop_assert_eq!(cache.access_allocate(addr), reference.access_allocate(addr)),
                    4 => prop_assert_eq!(cache.probe(addr), reference.probe(addr)),
                    5 => prop_assert_eq!(cache.invalidate(addr), reference.invalidate(addr)),
                    6 => {
                        cache.reset();
                        reference.reset();
                    }
                    7 => cache.jump_generation(cache.generation.max(u32::MAX - offset % 3)),
                    _ => {
                        cache.jump_generation(u32::MAX);
                        cache.reset();
                        reference.reset();
                        prop_assert_eq!(cache.generation, 0);
                    }
                }
                prop_assert_eq!(cache.hits(), reference.hits);
                prop_assert_eq!(cache.misses(), reference.misses);
                for set in 0..config.sets() as usize {
                    prop_assert_eq!(cache.resident_lines(set), reference.resident_lines(set));
                }
            }
        }
    }

    #[test]
    fn config_accessors() {
        let cfg = CacheConfig::new(16 << 10, 128, 4);
        assert_eq!(cfg.sets(), 32);
        assert_eq!(cfg.bytes(), 16 << 10);
    }
}
