//! [`ResultStore`]: the campaign-level face of the result cache.
//!
//! A campaign consults the store before simulating each application. The
//! content address of an entry is an FNV-1a hash over the deterministic
//! encoding of everything the simulation result is a function of:
//!
//! ```text
//! key = fnv1a( STORE_FORMAT_VERSION
//!            ‖ GpuConfig (every simulated field, caches as (bytes, line, assoc))
//!            ‖ Architecture tag ‖ derived ISA mask
//!            ‖ application code )
//! ```
//!
//! Anything that changes the simulated outcome therefore changes the key:
//! a different SM count, scheduler, cache geometry, ISA generation, suite
//! mask, or application misses cleanly and re-simulates. What the key can
//! **not** see is the simulator's own code; that is what
//! [`STORE_FORMAT_VERSION`] is for — bump it whenever a change alters
//! simulated counters or any persisted layout, and every old entry becomes
//! unreachable. As a guard against forgetting the bump, `--cache-verify N`
//! re-simulates a deterministic pseudo-random-by-index sample of cache
//! hits and asserts the stored summary is bit-identical to a fresh run.
//!
//! The payload is the application code (an echo, guarding FNV collisions
//! and hand-edited records) plus the [`TraceSummary`] via its [`Persist`]
//! encoding. Corrupt or stale entries fall back to simulation — the store
//! can make a run faster, never wrong or failed.
//!
//! The store holds merged whole-app summaries only, one entry per key at
//! every shard count: a sharded campaign merges an application's shards
//! before saving it, so an interrupted run resumes per application. A
//! store lives on disk ([`ResultStore::open`], kept across runs) or in
//! memory ([`ResultStore::in_memory`], this process's summaries, each
//! `Arc`-shared with the campaign result that holds it, so reuse within
//! one run costs no copy).

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use bvf_gpu::{GpuConfig, TraceSummary};
use bvf_isa::Architecture;
use bvf_store::{fnv1a, DiskStore, Persist, Reader, StoreStats, Writer};

/// Version of the key/payload format. Bump on ANY change to the simulated
/// counters, the key preimage, or a persisted type's layout: old entries
/// then re-key to misses instead of serving stale or misparsed results.
///
/// v2: per-SM isolation inside `Gpu::launch_shard` (fresh L2 slice,
/// memory image, and sampling phase per SM), per-(SM, bank) NoC reply
/// channels, and the launch-global DRAM drain moving into `merge_shards`
/// (shards log their off-chip traffic; the merge replays it) changed
/// several simulated counters. v2 also added per-shard entries under
/// sub-keys, since retired: a store written before their retirement may
/// still hold shard records, which no key reaches.
///
/// v3: the key preimage no longer carries `GpuConfig::name` (a display
/// label no simulated counter reads), and `NarrowValueProfile` dropped its
/// `non_negative_words` counter from the persisted summary.
pub const STORE_FORMAT_VERSION: u32 = 3;

/// A content-addressed store of per-application simulation results.
///
/// All methods take `&self`: one handle (behind an `Arc`) is shared by
/// every campaign worker.
#[derive(Debug)]
pub struct ResultStore {
    backend: Backend,
    verify_sample: usize,
}

/// Where a [`ResultStore`]'s entries live.
#[derive(Debug)]
enum Backend {
    Disk(DiskStore),
    Memory(Mutex<Memory>),
}

/// The in-memory backend: merged whole-app summaries under their content
/// address (with the app-code echo), and the same counters a disk store
/// keeps.
#[derive(Debug, Default)]
struct Memory {
    entries: HashMap<u64, (Box<str>, Arc<TraceSummary>)>,
    stats: StoreStats,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            backend: Backend::Disk(DiskStore::open(dir.as_ref())?),
            verify_sample: 0,
        })
    }

    /// An empty store in this process's memory. It dedupes repeated
    /// (config, ISA, app) keys within one run.
    pub fn in_memory() -> Self {
        Self {
            backend: Backend::Memory(Mutex::default()),
            verify_sample: 0,
        }
    }

    /// Re-simulate the cache hits of up to `n` apps per campaign and assert
    /// the stored entries are bit-identical (the `--cache-verify N`
    /// behavior).
    pub fn with_verify_sample(mut self, n: usize) -> Self {
        self.verify_sample = n;
        self
    }

    /// The directory entries live under; `None` for an in-memory store.
    pub fn root(&self) -> Option<&Path> {
        match &self.backend {
            Backend::Disk(disk) => Some(disk.root()),
            Backend::Memory(_) => None,
        }
    }

    fn memory(m: &Mutex<Memory>) -> std::sync::MutexGuard<'_, Memory> {
        m.lock().expect("no store user panics holding the lock")
    }

    /// The content address for one `(config, arch, mask, app)` simulation.
    pub fn key(config: &GpuConfig, arch: Architecture, isa_mask: u64, app_code: &str) -> u64 {
        let mut w = Writer::new();
        w.u32(STORE_FORMAT_VERSION);
        encode_config(&mut w, config);
        w.u8(arch_tag(arch));
        w.u64(isa_mask);
        w.str(app_code);
        fnv1a(w.bytes())
    }

    /// Load the cached summary for `key`, or `None` on any miss (absent,
    /// corrupt, foreign format, or an app-code echo mismatch).
    pub fn load(&self, key: u64, app_code: &str) -> Option<TraceSummary> {
        self.load_shared(key, app_code).map(Arc::unwrap_or_clone)
    }

    /// [`ResultStore::load`] as a shared handle: an in-memory hit is the
    /// very summary that was saved, not a copy.
    pub(crate) fn load_shared(&self, key: u64, app_code: &str) -> Option<Arc<TraceSummary>> {
        let disk = match &self.backend {
            Backend::Disk(disk) => disk,
            Backend::Memory(m) => {
                let mut m = Self::memory(m);
                let hit = match m.entries.get(&key) {
                    Some((echo, summary)) if **echo == *app_code => Some(Arc::clone(summary)),
                    _ => None,
                };
                if hit.is_some() {
                    m.stats.hits += 1;
                } else {
                    m.stats.misses += 1;
                }
                return hit;
            }
        };
        let payload = disk.load(key)?;
        let mut r = Reader::new(&payload);
        let echo = r.str().ok()?;
        if echo != app_code {
            return None;
        }
        let summary = TraceSummary::restore(&mut r).ok()?;
        r.finish().ok()?;
        Some(Arc::new(summary))
    }

    /// Store `summary` under `key`. Write failures are swallowed — a
    /// read-only or full cache directory degrades to plain simulation.
    pub fn save(&self, key: u64, app_code: &str, summary: &TraceSummary) {
        match &self.backend {
            Backend::Disk(disk) => {
                let mut w = Writer::new();
                w.str(app_code);
                summary.persist(&mut w);
                let _ = disk.save(key, w.bytes());
            }
            Backend::Memory(_) => self.save_shared(key, app_code, Arc::new(summary.clone())),
        }
    }

    /// [`ResultStore::save`] from a shared handle: an in-memory store keeps
    /// the handle itself.
    pub(crate) fn save_shared(&self, key: u64, app_code: &str, summary: Arc<TraceSummary>) {
        match &self.backend {
            Backend::Disk(_) => self.save(key, app_code, &summary),
            Backend::Memory(m) => {
                let mut m = Self::memory(m);
                m.stats.writes += 1;
                m.entries.insert(key, (app_code.into(), summary));
            }
        }
    }

    /// Which of `apps` application indices this campaign should re-verify
    /// on a hit: a deterministic pseudo-random-by-index sample of as many
    /// indices as [`Self::with_verify_sample`] set (rank every index by
    /// the FNV-1a hash of its bytes and take the smallest — no RNG state,
    /// identical across runs and worker counts).
    pub fn verify_selection(&self, apps: usize) -> Vec<bool> {
        let mut selected = vec![false; apps];
        if self.verify_sample == 0 || apps == 0 {
            return selected;
        }
        let mut ranked: Vec<(u64, usize)> = (0..apps)
            .map(|i| (fnv1a(&(i as u64).to_le_bytes()), i))
            .collect();
        ranked.sort_unstable();
        for &(_, i) in ranked.iter().take(self.verify_sample) {
            selected[i] = true;
        }
        selected
    }

    /// Counter snapshot: the disk store's, or the in-memory store's loads
    /// and writes.
    pub fn stats(&self) -> StoreStats {
        match &self.backend {
            Backend::Disk(disk) => disk.stats(),
            Backend::Memory(m) => Self::memory(m).stats,
        }
    }
}

/// Stable tag for an ISA generation (part of the store format).
fn arch_tag(arch: Architecture) -> u8 {
    Architecture::ALL
        .iter()
        .position(|&a| a == arch)
        .expect("every architecture is in Architecture::ALL") as u8
}

/// Encode every simulated field of a [`GpuConfig`] (the simulation's
/// entire configuration-space identity) into the key preimage. The display
/// `name` is left out: configurations that differ only in their label
/// (`gtx480()` is `baseline()` renamed) simulate identically and share
/// entries.
fn encode_config(w: &mut Writer, c: &GpuConfig) {
    w.u32(c.sms);
    w.u32(c.warps_per_sm);
    w.u32(c.reg_bytes_per_sm);
    w.u32(c.smem_bytes_per_sm);
    w.u32(c.smem_banks);
    for cache in [c.l1d, c.l1i, c.l1c, c.l1t, c.l2_bank] {
        w.u64(cache.bytes());
        w.u32(cache.line_bytes());
        w.u32(cache.assoc());
    }
    w.u32(c.l2_banks);
    w.usize(c.noc_flit_bytes);
    w.u32(c.mshrs);
    w.u32(c.reg_banks);
    w.u8(match c.scheduler {
        bvf_gpu::SchedulerKind::Gto => 0,
        bvf_gpu::SchedulerKind::Lrr => 1,
        bvf_gpu::SchedulerKind::TwoLevel => 2,
    });
    w.u32(c.miss_latency);
}

/// Helpers for tests that damage a disk store the way an interrupted run
/// or bit rot does. They read the record framing `bvf_store::DiskStore`
/// documents: a 32-byte header (magic, format version, key, payload
/// length, checksum) and the payload.
#[cfg(test)]
pub(crate) mod testing {
    use std::ops::Range;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A temporary directory under the system temp dir, unique to the
    /// process and the call, and removed on drop — a failing test's too.
    pub struct TempDir(PathBuf);

    impl TempDir {
        /// A fresh path (not yet created) named after `tag`.
        pub fn new(tag: &str) -> Self {
            static DIRS: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "bvf_sim_test_{}_{tag}_{}",
                std::process::id(),
                DIRS.fetch_add(1, Ordering::Relaxed),
            ));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TempDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The segment files in a store directory, in name order.
    pub fn segments(dir: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("store dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "bvfl"))
            .collect();
        paths.sort();
        paths
    }

    /// Every whole record of a segment: its key and byte range, header
    /// included.
    pub fn records(segment: &[u8]) -> Vec<(u64, Range<usize>)> {
        let mut out = Vec::new();
        let mut at = 0;
        while let Some(header) = segment.get(at..at + 32) {
            let field = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().expect("8"));
            let end = at + 32 + field(16) as usize;
            if end > segment.len() {
                break;
            }
            out.push((field(8), at..end));
            at = end;
        }
        out
    }

    /// Flip the last payload byte of every record whose key `damage`
    /// selects, in every segment of `dir`; returns how many it flipped.
    pub fn corrupt_records(dir: &Path, damage: impl Fn(u64) -> bool) -> usize {
        let mut flipped = 0;
        for path in segments(dir) {
            let mut bytes = std::fs::read(&path).expect("read segment");
            for (key, range) in records(&bytes) {
                if damage(key) {
                    bytes[range.end - 1] ^= 0xFF;
                    flipped += 1;
                }
            }
            std::fs::write(&path, &bytes).expect("rewrite segment");
        }
        flipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use testing::TempDir;

    #[test]
    fn keys_separate_every_configuration_axis() {
        let base = GpuConfig::baseline();
        let key = |c: &GpuConfig, arch, mask, app| ResultStore::key(c, arch, mask, app);
        let k0 = key(&base, Architecture::Pascal, 0xff, "VAD");

        let mut sms = base.clone();
        sms.sms = 14;
        let mut sched = base.clone();
        sched.scheduler = bvf_gpu::SchedulerKind::Lrr;

        let variants = [
            key(&sms, Architecture::Pascal, 0xff, "VAD"),
            key(&sched, Architecture::Pascal, 0xff, "VAD"),
            key(&base, Architecture::Kepler, 0xff, "VAD"),
            key(&base, Architecture::Pascal, 0xfe, "VAD"),
            key(&base, Architecture::Pascal, 0xff, "BFS"),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, k0, "axis {i} did not change the key");
        }
        // And the key is a pure function: same inputs, same address.
        assert_eq!(key(&base, Architecture::Pascal, 0xff, "VAD"), k0);
        // The display name is not an axis: the GTX-480 capacity point is
        // the baseline under another label, so it reuses the entries.
        assert_eq!(
            key(&GpuConfig::gtx480(), Architecture::Pascal, 0xff, "VAD"),
            k0
        );
    }

    #[test]
    fn verify_selection_is_deterministic_and_sized() {
        let dir = TempDir::new("verify");
        let store = ResultStore::open(&dir).expect("open").with_verify_sample(3);
        let a = store.verify_selection(10);
        let b = store.verify_selection(10);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&s| s).count(), 3);
        // More samples than apps: everything is verified, nothing panics.
        assert_eq!(store.verify_selection(2), vec![true, true]);
        // No sampling configured: nothing is selected.
        let dir = TempDir::new("verify_none");
        let none = ResultStore::open(&dir).expect("open");
        assert_eq!(none.verify_selection(5), vec![false; 5]);
    }

    /// The key and on-disk record of one valid whole-app entry (VAD on a
    /// 2-SM GPU), made once per test binary.
    fn valid_entry() -> &'static (u64, Vec<u8>) {
        static ENTRY: std::sync::OnceLock<(u64, Vec<u8>)> = std::sync::OnceLock::new();
        ENTRY.get_or_init(|| {
            let dir = TempDir::new("valid_entry");
            let store = ResultStore::open(&dir).expect("open");
            let app = bvf_workloads::Application::by_code("VAD").expect("app");
            let mut config = GpuConfig::baseline();
            config.sms = 2;
            let views = vec![bvf_gpu::CodingView::baseline()];
            let summary = app.run(&mut bvf_gpu::Gpu::new(config.clone(), views));
            let key = ResultStore::key(&config, Architecture::Pascal, 0, "VAD");
            store.save(key, "VAD", &summary);
            assert!(store.load(key, "VAD").is_some());
            let [segment] = &testing::segments(&dir)[..] else {
                panic!("one handle writes one segment")
            };
            let bytes = std::fs::read(segment).expect("segment");
            let [(stored, range)] = &testing::records(&bytes)[..] else {
                panic!("one save writes one record")
            };
            assert_eq!(*stored, key);
            (key, bytes[range.clone()].to_vec())
        })
    }

    /// Plant `bytes` as the only segment of a fresh store under `tag` and
    /// load [`valid_entry`]'s key back.
    fn load_planted(tag: &str, bytes: &[u8]) -> bool {
        let dir = TempDir::new(tag);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("planted.bvfl"), bytes).expect("plant segment");
        let store = ResultStore::open(&dir).expect("open");
        store.load(valid_entry().0, "VAD").is_some()
    }

    #[test]
    fn every_truncated_entry_loads_as_a_miss() {
        let bytes = &valid_entry().1;
        assert!(load_planted("truncated", bytes), "the intact entry loads");
        for len in 0..bytes.len() {
            assert!(
                !load_planted("truncated", &bytes[..len]),
                "entry truncated to {len} of {} bytes loaded",
                bytes.len()
            );
        }
    }

    proptest::proptest! {
        /// A single flipped bit anywhere in a valid entry — header, key,
        /// checksum or payload — is a miss, never a panic or a wrong hit.
        #[test]
        fn a_single_bit_flip_loads_as_a_miss(bit in proptest::prelude::any::<u64>()) {
            let mut bytes = valid_entry().1.clone();
            let bit = (bit % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            proptest::prop_assert!(!load_planted("bit_flip", &bytes), "bit {} flipped", bit);
        }
    }

    #[test]
    fn in_memory_store_shares_whole_app_summaries_and_keeps_no_shards() {
        let store = ResultStore::in_memory();
        assert!(store.root().is_none());
        let app = bvf_workloads::Application::by_code("VAD").expect("app");
        let mut config = GpuConfig::baseline();
        config.sms = 2;
        let views = vec![bvf_gpu::CodingView::baseline()];
        let summary = Arc::new(app.run(&mut bvf_gpu::Gpu::new(config.clone(), views)));
        let key = ResultStore::key(&config, Architecture::Pascal, 0, "VAD");
        assert!(store.load_shared(key, "VAD").is_none());
        store.save_shared(key, "VAD", Arc::clone(&summary));
        let hit = store.load_shared(key, "VAD").expect("saved");
        assert!(Arc::ptr_eq(&hit, &summary), "a hit is the saved summary");
        assert_eq!(store.load(key, "VAD").as_ref(), Some(&*summary));
        // The echo guards a colliding key here too.
        assert!(store.load_shared(key, "BFS").is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes), (2, 2, 1));
    }

    #[test]
    fn app_code_echo_guards_collisions() {
        let dir = TempDir::new("echo");
        let store = ResultStore::open(&dir).expect("open");
        // Craft a payload for "VAD" and try to read it back as "BFS" under
        // the same (hypothetically colliding) key.
        let mut w = Writer::new();
        w.str("VAD");
        // A truncated summary would also fail, but the echo check must
        // reject first.
        let key = 42;
        let Backend::Disk(disk) = &store.backend else {
            unreachable!("opened on disk")
        };
        let _ = disk.save(key, w.bytes());
        assert!(store.load(key, "BFS").is_none());
    }
}
