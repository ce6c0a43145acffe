//! [`DiskStore`]: an append-only log of content-addressed, checksummed
//! records.
//!
//! Layout: `root/<id>.bvfl`, one **segment** per store handle that saved
//! anything. A handle creates its segment (`create_new`, a name no other
//! handle can hold) on its first save and appends every later save to it;
//! a handle that only loads writes nothing. A segment is a sequence of
//! records:
//!
//! ```text
//! magic "BVFS" | format u32 | key u64 | payload_len u64 | payload fnv u64 | payload
//! ```
//!
//! all little-endian via the [`crate::codec`] writer. A save is one
//! `write_all` of one record under the handle's lock; a failed append
//! truncates the segment back to its last good length (or, failing that,
//! abandons it for a fresh one), so a short write never hides the records
//! after it. Nothing is fsynced: the store is a cache.
//!
//! **Index.** [`DiskStore::open`] scans every segment's record headers
//! through a bounded buffer into a `key -> (segment, offset, length)` map,
//! skipping over payloads, so no segment is ever held in memory. A later
//! record of a key wins over an earlier one, and segments are scanned in
//! name (creation) order. A header cut short, or one whose length runs
//! past the end of the file, ends that segment's scan for now: a writer
//! may be mid-append, and the next refresh resumes at that offset. A
//! header with a foreign magic or format version ends the segment's scan
//! for good, since nothing after it can be framed. A miss in the index
//! first refreshes it: segments other handles (in this process or
//! another) created or extended since are scanned, so their saves stay
//! visible. When nothing changed that costs one `metadata` call on the
//! directory plus one per other handle's segment. File timestamps can be
//! too coarse to tell two creations in the same tick apart, so a segment
//! created in the tick of the directory's last change this handle saw
//! is picked up once that change is a few seconds old.
//!
//! **Loads** read one record with a positional read and re-check it in
//! full: magic, format version, key echo, length, and payload checksum.
//! Every failure mode on the read path — absent key, a record that no
//! longer reads, any header mismatch, a bad checksum — is a **miss**,
//! never an error: the store may only ever make a run faster, it must not
//! be able to fail or poison one. A corrupt record is additionally
//! **quarantined**: dropped from this handle's index, so a long-running
//! warm server does not re-read and re-checksum the same bad bytes on
//! every identical request; the next save of the key appends a fresh
//! record that wins over it. Entries of the older one-file-per-entry
//! layout (`<kk>/<key>.bvfs`) are not segments and read as misses.

use std::collections::HashMap;
use std::ffi::OsString;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, SystemTime};

use crate::codec::{Reader, Writer};
use crate::fnv::fnv1a;

/// Record magic: identifies a BVF store record.
const MAGIC: &[u8; 4] = b"BVFS";
/// On-disk container format version (the *payload* format is versioned by
/// the caller inside its key preimage). v2: records appended to per-handle
/// segments instead of one file per entry.
const CONTAINER_VERSION: u32 = 2;
/// Segment filename extension.
const EXT: &str = "bvfl";
/// Bytes of a record header: magic, version, key, length, checksum.
const HEADER_LEN: usize = 32;
/// Bytes the index scan reads at a time.
const SCAN_CHUNK: usize = 16 * 1024;
/// How long after the directory's last modification its timestamp is
/// final: a segment created in the same timestamp tick leaves it
/// unchanged, so the first refresh after this long lists the directory
/// once more. Covers the coarsest common file-timestamp granularity (2 s)
/// with room to spare for steps between the system clock and the file
/// system's.
const SETTLE: Duration = Duration::from_secs(3);

/// Cumulative counters for one store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful loads.
    pub hits: u64,
    /// Loads that found no entry.
    pub misses: u64,
    /// Loads that found an entry but rejected it (bad header, checksum,
    /// key echo, or length) — counted as misses too.
    pub corrupt: u64,
    /// Corrupt records dropped from the handle's index so they are not
    /// re-read and re-checksummed on every subsequent identical request.
    /// Every corrupt record is dropped, so this equals `corrupt`.
    pub quarantined: u64,
    /// Entries written.
    pub writes: u64,
}

/// A directory-backed `u64 key -> bytes` store. All methods take `&self`;
/// a store handle is shared freely across campaign workers.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
    writes: AtomicU64,
}

/// Where one record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    /// Index into [`State::segments`].
    segment: usize,
    /// Byte offset of the record's header.
    offset: u64,
    /// Payload length.
    len: u64,
}

/// One segment file this handle has seen.
#[derive(Debug)]
struct Segment {
    name: OsString,
    file: Arc<File>,
    /// Offset of the first record not yet indexed (for this handle's own
    /// segment: its length).
    next: u64,
    /// File length when last scanned; an unchanged length skips the scan.
    seen_len: u64,
    /// A header that cannot be framed ended the scan for good.
    dead: bool,
}

/// A handle's index and segments, behind its lock.
#[derive(Debug, Default)]
struct State {
    segments: Vec<Segment>,
    /// The segment this handle appends to, once its first save made one.
    own: Option<usize>,
    index: HashMap<u64, Loc>,
    /// The directory's modification time at the last listing.
    dir_mtime: Option<SystemTime>,
    /// Whether that time was older than [`SETTLE`] when listed, so that
    /// no segment created since can share its timestamp.
    dir_settled: bool,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`, indexing every
    /// record already there.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let store = Self {
            root,
            state: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        };
        store.lock().refresh(&store.root);
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no store operation panics holding the lock")
    }

    /// Load the payload stored under `key`, or `None` on a miss (including
    /// every corruption mode — see the module docs).
    pub fn load(&self, key: u64) -> Option<Vec<u8>> {
        let found = {
            let mut state = self.lock();
            if !state.index.contains_key(&key) {
                state.refresh(&self.root);
            }
            state
                .index
                .get(&key)
                .map(|&loc| (Arc::clone(&state.segments[loc.segment].file), loc))
        };
        let Some((file, loc)) = found else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if let Some(payload) = read_record(&file, key, loc) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(payload);
        }
        // Quarantine: unless a save replaced it meanwhile, forget the bad
        // record so later loads of the key are cheap plain misses.
        let mut state = self.lock();
        if state.index.get(&key) == Some(&loc) {
            state.index.remove(&key);
        }
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store `payload` under `key`: append one record to this handle's
    /// segment, which then serves the key over any earlier record.
    pub fn save(&self, key: u64, payload: &[u8]) -> std::io::Result<()> {
        let mut w = Writer::new();
        for &b in MAGIC {
            w.u8(b);
        }
        w.u32(CONTAINER_VERSION);
        w.u64(key);
        w.u64(payload.len() as u64);
        w.u64(fnv1a(payload));
        let mut record = w.into_bytes();
        record.extend_from_slice(payload);

        let mut state = self.lock();
        let own = match state.own {
            Some(own) => own,
            None => {
                let (name, file) = create_segment(&self.root)?;
                state.segments.push(Segment {
                    name,
                    file: Arc::new(file),
                    next: 0,
                    seen_len: 0,
                    dead: false,
                });
                let own = state.segments.len() - 1;
                state.own = Some(own);
                own
            }
        };
        let segment = &mut state.segments[own];
        let offset = segment.next;
        if let Err(e) = (&*segment.file).write_all(&record) {
            // Cut the partial record off so the next append lands on a
            // record boundary; if even that fails, start a new segment
            // and leave this one to be scanned like any other.
            if segment.file.set_len(offset).is_err() {
                state.own = None;
            }
            return Err(e);
        }
        segment.next += record.len() as u64;
        segment.seen_len = segment.next;
        state.index.insert(
            key,
            Loc {
                segment: own,
                offset,
                len: payload.len() as u64,
            },
        );
        drop(state);
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Snapshot of this handle's counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

impl State {
    /// Index what other handles appended since the last refresh: new
    /// segments when the directory changed, and the tail of every other
    /// segment that grew. I/O errors leave the index as it was.
    fn refresh(&mut self, root: &Path) {
        let mtime = std::fs::metadata(root).and_then(|m| m.modified()).ok();
        let settled = mtime.is_some_and(|m| {
            SystemTime::now()
                .duration_since(m)
                .is_ok_and(|age| age > SETTLE)
        });
        if mtime != self.dir_mtime || (settled && !self.dir_settled) {
            self.dir_mtime = mtime;
            self.dir_settled = settled;
            self.list_segments(root);
        }
        for id in 0..self.segments.len() {
            if Some(id) != self.own && !self.segments[id].dead {
                scan(&mut self.segments[id], id, &mut self.index);
            }
        }
    }

    /// Open every segment in `root` not seen before, in name order.
    fn list_segments(&mut self, root: &Path) {
        let Ok(entries) = std::fs::read_dir(root) else {
            return;
        };
        let mut fresh: Vec<(OsString, PathBuf)> = entries
            .filter_map(Result::ok)
            .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
            .map(|e| (e.file_name(), e.path()))
            .filter(|(name, path)| {
                path.extension().is_some_and(|ext| ext == EXT)
                    && !self.segments.iter().any(|s| s.name == *name)
            })
            .collect();
        fresh.sort_unstable();
        for (name, path) in fresh {
            // One that cannot be opened is retried by the next listing.
            if let Ok(file) = File::open(&path) {
                self.segments.push(Segment {
                    name,
                    file: Arc::new(file),
                    next: 0,
                    seen_len: 0,
                    dead: false,
                });
            }
        }
    }
}

/// Create this handle's segment under a name no other handle can hold:
/// creation time, process id, and an attempt counter for the rare clash.
fn create_segment(root: &Path) -> std::io::Result<(OsString, File)> {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut attempt = 0u32;
    loop {
        let name = format!("{nanos:016x}-{:08x}-{attempt}.{EXT}", std::process::id());
        match OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(root.join(&name))
        {
            Ok(file) => return Ok((name.into(), file)),
            Err(e) if e.kind() == ErrorKind::AlreadyExists && attempt < 64 => attempt += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Index the records of `segment` (number `id`) from its first unindexed
/// one, reading at most [`SCAN_CHUNK`] bytes at a time and never reading a
/// payload. Stops at the end of the file, at a torn record (resumed by a
/// later scan), or for good at a header that cannot be framed.
fn scan(segment: &mut Segment, id: usize, index: &mut HashMap<u64, Loc>) {
    let Ok(len) = segment.file.metadata().map(|m| m.len()) else {
        return;
    };
    if len == segment.seen_len {
        return;
    }
    segment.seen_len = len;
    let unscanned = len.saturating_sub(segment.next);
    let mut chunk = vec![0u8; unscanned.min(SCAN_CHUNK as u64) as usize];
    while len.saturating_sub(segment.next) >= HEADER_LEN as u64 {
        let start = segment.next;
        let want = (len - start).min(SCAN_CHUNK as u64) as usize;
        if read_at(&segment.file, &mut chunk[..want], start).is_err() {
            return;
        }
        // Every header wholly inside the chunk; the outer loop re-reads
        // from the first one that is not.
        let mut at = 0;
        while let Some(header) = chunk[..want].get(at..at + HEADER_LEN) {
            let Some((key, payload_len, _)) = parse_header(header) else {
                segment.dead = true;
                return;
            };
            let end = (segment.next + HEADER_LEN as u64)
                .checked_add(payload_len)
                .filter(|&end| end <= len);
            let Some(end) = end else {
                return; // torn: the rest of this record is not written yet
            };
            index.insert(
                key,
                Loc {
                    segment: id,
                    offset: segment.next,
                    len: payload_len,
                },
            );
            segment.next = end;
            at = (end - start).min(want as u64) as usize;
        }
    }
}

/// Decode a record header: `(key, payload length, payload checksum)`, or
/// `None` for a foreign magic or format version.
fn parse_header(header: &[u8]) -> Option<(u64, u64, u64)> {
    let mut r = Reader::new(header);
    let magic = [r.u8().ok()?, r.u8().ok()?, r.u8().ok()?, r.u8().ok()?];
    if &magic != MAGIC || r.u32().ok()? != CONTAINER_VERSION {
        return None;
    }
    Some((r.u64().ok()?, r.u64().ok()?, r.u64().ok()?))
}

/// Read the record at `loc` and return its payload if every check passes:
/// framing, the key echo, the indexed length, and the checksum.
fn read_record(file: &File, key: u64, loc: Loc) -> Option<Vec<u8>> {
    let mut bytes = vec![0u8; HEADER_LEN + usize::try_from(loc.len).ok()?];
    read_at(file, &mut bytes, loc.offset).ok()?;
    let (echo, len, checksum) = parse_header(&bytes[..HEADER_LEN])?;
    bytes.drain(..HEADER_LEN);
    (echo == key && len == loc.len && fnv1a(&bytes) == checksum).then_some(bytes)
}

/// Fill `buf` from `offset` without moving the file's cursor, so loads
/// never contend with each other or with appends.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fill `buf` from `offset` (Windows: `seek_read` may return short).
#[cfg(windows)]
fn read_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset)? {
            0 => return Err(ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    static DIRS: AtomicU64 = AtomicU64::new(0);

    /// A fresh, empty directory for one test's store, removed on drop.
    struct TempDir(PathBuf);

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

    fn temp_dir(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "bvf_store_test_{}_{tag}_{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn open(dir: &Path) -> DiskStore {
        DiskStore::open(dir).expect("open store")
    }

    /// The segment files in `dir`, in name order.
    fn segments(dir: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("store dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == EXT))
            .collect();
        paths.sort();
        paths
    }

    /// The one segment in `dir`.
    fn segment(dir: &Path) -> PathBuf {
        let paths = segments(dir);
        assert_eq!(paths.len(), 1, "one segment in {}", dir.display());
        paths[0].clone()
    }

    /// A key shaped like the callers' content addresses, so one flipped
    /// bit never turns it into another test key.
    fn key(i: u64) -> u64 {
        fnv1a(&i.to_le_bytes())
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("payload {i};")
            .repeat(1 + i as usize % 5)
            .into_bytes()
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let s = open(&dir);
        assert_eq!(s.load(7), None, "empty store misses");
        assert!(segments(&dir).is_empty(), "a load creates no segment");
        s.save(7, b"payload bytes").expect("save");
        assert_eq!(s.load(7).as_deref(), Some(&b"payload bytes"[..]));
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.writes, st.corrupt), (1, 1, 1, 0));
        // A fresh handle indexes the record from disk.
        assert_eq!(open(&dir).load(7).as_deref(), Some(&b"payload bytes"[..]));
    }

    #[test]
    fn a_later_save_of_a_key_wins() {
        let dir = temp_dir("overwrite");
        let s = open(&dir);
        s.save(9, b"old").expect("save");
        s.save(9, b"new").expect("save");
        assert_eq!(s.load(9).as_deref(), Some(&b"new"[..]));
        assert_eq!(open(&dir).load(9).as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn each_writing_handle_appends_to_one_segment_of_its_own() {
        let dir = temp_dir("segments");
        let writer = open(&dir);
        for i in 0..10 {
            writer.save(key(i), &payload(i)).expect("save");
        }
        let first = segment(&dir);
        // A handle that only loads, hits and misses alike, adds no file.
        let reader = open(&dir);
        assert!((0..10).all(|i| reader.load(key(i)) == Some(payload(i))));
        assert_eq!(reader.load(key(10)), None);
        assert_eq!(segment(&dir), first);
        // Its first save makes a second segment; a fresh handle reads both.
        reader.save(key(10), &payload(10)).expect("save");
        assert_eq!(segments(&dir).len(), 2);
        let fresh = open(&dir);
        assert!((0..=10).all(|i| fresh.load(key(i)) == Some(payload(i))));
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = temp_dir("corrupt");
        let s = open(&dir);
        for i in 0..3 {
            s.save(key(i), &payload(i)).expect("save");
        }
        let path = segment(&dir);
        let mut bytes = std::fs::read(&path).expect("read segment");
        let offset = |i: u64| -> usize { (0..i).map(|j| HEADER_LEN + payload(j).len()).sum() };
        // Record 0: a flipped payload byte (checksum mismatch). Record 1: a
        // changed length field (length mismatch). Record 2: garbage magic.
        bytes[offset(1) - 1] ^= 0xFF;
        bytes[offset(1) + 16] ^= 0x01;
        bytes[offset(2)..offset(2) + 4].copy_from_slice(b"JUNK");
        std::fs::write(&path, &bytes).expect("rewrite");
        for i in 0..3 {
            assert_eq!(s.load(key(i)), None, "record {i}");
        }
        let st = s.stats();
        assert_eq!((st.corrupt, st.quarantined, st.hits), (3, 3, 0));
    }

    #[test]
    fn corrupt_entries_are_quarantined() {
        let dir = temp_dir("quarantine");
        let s = open(&dir);
        s.save(5, b"payload five").expect("save");
        s.save(6, b"payload six").expect("save");
        // Flip the last payload byte of the first record: a checksum
        // mismatch.
        let path = segment(&dir);
        let mut bytes = std::fs::read(&path).expect("read segment");
        bytes[HEADER_LEN + b"payload five".len() - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");

        assert_eq!(s.load(5), None, "corrupt record is a miss");
        let st = s.stats();
        assert_eq!((st.corrupt, st.quarantined), (1, 1));
        // The next load of the key is a plain miss: nothing left to read,
        // re-checksum, or count as corrupt again.
        assert_eq!(s.load(5), None);
        let st = s.stats();
        assert_eq!((st.corrupt, st.quarantined, st.misses), (1, 1, 2));
        // Its neighbour is untouched, and a fresh save serves the key.
        assert_eq!(s.load(6).as_deref(), Some(&b"payload six"[..]));
        s.save(5, b"payload five").expect("save");
        assert_eq!(s.load(5).as_deref(), Some(&b"payload five"[..]));
        // A fresh handle finds the corrupt record first and the good one
        // after it: the later record wins.
        assert_eq!(open(&dir).load(5).as_deref(), Some(&b"payload five"[..]));
    }

    #[test]
    fn key_echo_rejects_a_record_rewritten_under_the_index() {
        let dir = temp_dir("echo");
        let s = open(&dir);
        s.save(1, b"belongs to key 1").expect("save");
        let path = segment(&dir);
        let mut bytes = std::fs::read(&path).expect("read segment");
        bytes[8..16].copy_from_slice(&2u64.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        assert_eq!(s.load(1), None, "a record for key 2 must not serve key 1");
        assert_eq!(s.stats().corrupt, 1);
    }

    #[test]
    fn a_store_in_the_one_file_per_entry_layout_reads_as_empty() {
        let dir = temp_dir("old_layout");
        let old = dir
            .join("ab")
            .join(format!("{:016x}.bvfs", 0xAB00_0000_0000_0001u64));
        std::fs::create_dir_all(old.parent().expect("fan-out dir")).expect("mkdir");
        std::fs::write(&old, b"BVFS an entry of the old layout").expect("plant");
        let s = open(&dir);
        assert_eq!(s.load(0xAB00_0000_0000_0001), None);
        assert_eq!(s.stats().corrupt, 0, "not a segment, so not corrupt");
    }

    #[test]
    fn every_cut_of_a_two_record_segment_keeps_the_records_before_it() {
        let dir = temp_dir("cut_source");
        let s = open(&dir);
        s.save(key(1), &payload(1)).expect("save");
        s.save(key(2), &payload(2)).expect("save");
        let bytes = std::fs::read(segment(&dir)).expect("read segment");
        let first_end = HEADER_LEN + payload(1).len();
        assert_eq!(bytes.len(), first_end + HEADER_LEN + payload(2).len());
        for cut in 0..=bytes.len() {
            let dir = temp_dir("cut");
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join(format!("cut.{EXT}")), &bytes[..cut]).expect("plant");
            let s = open(&dir);
            let hit = |i: u64| match s.load(key(i)) {
                Some(p) => {
                    assert_eq!(p, payload(i), "a hit is the saved payload");
                    true
                }
                None => false,
            };
            assert_eq!(hit(1), cut >= first_end, "first record, cut at {cut}");
            assert_eq!(hit(2), cut == bytes.len(), "second record, cut at {cut}");
            assert_eq!(s.stats().corrupt, 0, "a torn tail is not corrupt");
            // A later save through a fresh handle still loads, here and
            // through the next handle.
            let next = open(&dir);
            next.save(key(3), &payload(3)).expect("save");
            assert_eq!(next.load(key(3)), Some(payload(3)));
            assert_eq!(open(&dir).load(key(3)), Some(payload(3)), "cut at {cut}");
        }
    }

    #[test]
    fn a_torn_tail_is_indexed_once_its_writer_finishes_it() {
        let source = temp_dir("torn_source");
        let s = open(&source);
        s.save(key(1), &payload(1)).expect("save");
        s.save(key(2), &payload(2)).expect("save");
        let bytes = std::fs::read(segment(&source)).expect("read segment");
        // Another writer's segment, caught mid-append of its second record.
        let dir = temp_dir("torn");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("writer.{EXT}"));
        let torn = HEADER_LEN + payload(1).len() + HEADER_LEN + 3;
        std::fs::write(&path, &bytes[..torn]).expect("plant");
        let reader = open(&dir);
        assert_eq!(reader.load(key(1)), Some(payload(1)));
        assert_eq!(reader.load(key(2)), None, "not written yet");
        // The writer finishes; the same handle's next miss resumes the
        // scan at the torn offset.
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(&bytes[torn..]).expect("finish the record");
        assert_eq!(reader.load(key(2)), Some(payload(2)));
        assert_eq!(reader.stats().corrupt, 0);
    }

    #[test]
    fn two_handles_on_one_directory_see_each_others_saves() {
        // Like a server and a `reproduce` run sharing one `--cache`. The
        // directory's timestamp is backdated so the segments created
        // below cannot share its tick on a coarse-timestamp file system.
        let dir = temp_dir("two_handles");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let hour_ago = SystemTime::now() - Duration::from_secs(3600);
        File::open(&dir)
            .and_then(|d| d.set_modified(hour_ago))
            .expect("backdate the directory");
        let server = open(&dir);
        let run = open(&dir);
        server.save(key(1), &payload(1)).expect("save");
        assert_eq!(run.load(key(1)), Some(payload(1)), "a new segment");
        server.save(key(2), &payload(2)).expect("save");
        assert_eq!(run.load(key(2)), Some(payload(2)), "an extended segment");
        run.save(key(3), &payload(3)).expect("save");
        assert_eq!(server.load(key(3)), Some(payload(3)));
        assert_eq!(segments(&dir).len(), 2);
        assert_eq!(run.stats().misses + server.stats().misses, 0);
    }

    #[test]
    fn concurrent_saves_through_one_handle_all_load_back() {
        let dir = temp_dir("threads");
        let s = open(&dir);
        // All four threads start saving together, the first save of each
        // racing to create the handle's segment.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in (t * 16)..(t + 1) * 16 {
                        s.save(key(i), &payload(i)).expect("save");
                    }
                });
            }
        });
        assert_eq!(s.stats().writes, 64);
        assert_eq!(segments(&dir).len(), 1, "one handle, one segment");
        let fresh = open(&dir);
        for i in 0..64 {
            assert_eq!(fresh.load(key(i)), Some(payload(i)), "key {i}");
        }
    }

    proptest::proptest! {
        /// Random bytes, bit flips, or a `u64::MAX` length field anywhere
        /// in a segment never panic or allocate that length: every load
        /// is a miss or a hit on exactly the payload that was saved.
        #[test]
        fn a_damaged_segment_loads_only_verified_hits(
            damage in 0u8..4,
            at in proptest::prelude::any::<u64>(),
            noise in proptest::prelude::any::<u64>(),
            count in 1u64..6,
        ) {
            let dir = temp_dir("damage");
            let s = open(&dir);
            for i in 0..count {
                s.save(key(i), &payload(i)).expect("save");
            }
            let path = segment(&dir);
            let mut bytes = std::fs::read(&path).expect("read segment");
            let victim = at % count;
            match damage {
                0 => {
                    // Overwrite up to 8 bytes with noise.
                    let start = (at % bytes.len() as u64) as usize;
                    let end = (start + 8).min(bytes.len());
                    bytes[start..end].copy_from_slice(&noise.to_le_bytes()[..end - start]);
                }
                1 => {
                    // Append noise: a garbage tail.
                    for _ in 0..=at % 8 {
                        bytes.extend_from_slice(&noise.to_le_bytes());
                    }
                }
                2 => {
                    let bit = (at % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                _ => {
                    let offset: usize = (0..victim)
                        .map(|i| HEADER_LEN + payload(i).len())
                        .sum();
                    bytes[offset + 16..offset + 24].copy_from_slice(&u64::MAX.to_le_bytes());
                }
            }
            std::fs::write(&path, &bytes).expect("rewrite");
            let fresh = open(&dir);
            for i in 0..count {
                let loaded = fresh.load(key(i));
                if let Some(p) = &loaded {
                    proptest::prop_assert_eq!(p, &payload(i), "damage {} at {}", damage, at);
                }
                if damage == 3 {
                    // Records before the huge length load; it and every
                    // record after it are past the end of the file.
                    proptest::prop_assert_eq!(loaded.is_some(), i < victim);
                }
            }
        }
    }
}
