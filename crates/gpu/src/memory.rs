//! Global, constant and texture memory backing stores.
//!
//! The simulator is functional: data always lives in [`GlobalMemory`] and
//! caches only track presence (for hit/miss behavior) and statistics. Each
//! named buffer occupies a disjoint region of a flat byte-address space so
//! cache indexing and L2 bank hashing see realistic addresses.
//!
//! Buffer contents are reference-counted and copy-on-write: cloning a
//! [`GlobalMemory`] shares every buffer, and the first store into a shared
//! buffer copies that one buffer. Each SM of a launch simulates against its
//! own clone of the prepared image, so an SM that never stores costs a
//! refcount bump per buffer instead of a copy of the whole image.

use std::collections::BTreeMap;
use std::sync::Arc;

use bvf_isa::ir::BufferId;

/// Buffer base addresses are aligned to this boundary (1 MiB) so distinct
/// buffers never share a cache line.
const BUFFER_ALIGN: u64 = 1 << 20;

/// The flat global-memory model: a set of word-addressed named buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalMemory {
    buffers: BTreeMap<BufferId, Buffer>,
    next_base: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Buffer {
    base: u64,
    words: Arc<Vec<u32>>,
}

impl Buffer {
    /// The words, unshared first if another image still references them.
    fn words_mut(&mut self) -> &mut [u32] {
        Arc::make_mut(&mut self.words).as_mut_slice()
    }
}

impl GlobalMemory {
    /// Empty memory.
    pub fn new() -> Self {
        Self {
            buffers: BTreeMap::new(),
            next_base: BUFFER_ALIGN, // keep address 0 unmapped
        }
    }

    /// Register a buffer with initial contents. Returns its base address.
    ///
    /// # Panics
    ///
    /// Panics if the id is already in use or the buffer is empty.
    pub fn add_buffer(&mut self, id: BufferId, words: Vec<u32>) -> u64 {
        assert!(!words.is_empty(), "buffer {id:?} must be non-empty");
        assert!(
            !self.buffers.contains_key(&id),
            "buffer {id:?} already registered"
        );
        let base = self.next_base;
        let bytes = words.len() as u64 * 4;
        self.next_base += bytes.div_ceil(BUFFER_ALIGN).max(1) * BUFFER_ALIGN;
        self.buffers.insert(
            id,
            Buffer {
                base,
                words: Arc::new(words),
            },
        );
        base
    }

    /// The buffer's contents, if registered.
    pub fn buffer(&self, id: BufferId) -> Option<&[u32]> {
        self.buffers.get(&id).map(|b| b.words.as_slice())
    }

    /// Base byte address of a buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not registered.
    pub fn base_of(&self, id: BufferId) -> u64 {
        self.expect(id).base
    }

    /// Byte address of word `idx` in buffer `id`, clamping the index into
    /// range (out-of-range indices wrap, mimicking the defensive clamping
    /// workload kernels perform).
    pub fn addr_of(&self, id: BufferId, idx: u32) -> u64 {
        let b = self.expect(id);
        let n = b.words.len() as u64;
        b.base + (u64::from(idx) % n) * 4
    }

    /// Load the word at `idx` (wrapping) from buffer `id`.
    pub fn load(&self, id: BufferId, idx: u32) -> u32 {
        let b = self.expect(id);
        b.words[idx as usize % b.words.len()]
    }

    /// Resolve a buffer once for a warp-wide access: its base byte address
    /// and word contents. Per-lane [`GlobalMemory::load`] calls pay the
    /// buffer lookup 32 times per instruction; warp loops resolve the view
    /// once instead.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not registered.
    pub fn buffer_view(&self, id: BufferId) -> (u64, &[u32]) {
        let b = self.expect(id);
        (b.base, &b.words)
    }

    /// Mutable form of [`GlobalMemory::buffer_view`] for warp-wide stores.
    /// Copies the buffer first if another clone of this memory shares it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not registered.
    pub fn buffer_view_mut(&mut self, id: BufferId) -> (u64, &mut [u32]) {
        let b = self
            .buffers
            .get_mut(&id)
            .unwrap_or_else(|| panic!("buffer {id:?} not registered"));
        (b.base, b.words_mut())
    }

    /// Store `value` at `idx` (wrapping) in buffer `id`, copying the buffer
    /// first if another clone of this memory shares it.
    pub fn store(&mut self, id: BufferId, idx: u32, value: u32) {
        let b = self
            .buffers
            .get_mut(&id)
            .unwrap_or_else(|| panic!("buffer {id:?} not registered"));
        let words = b.words_mut();
        let n = words.len();
        words[idx as usize % n] = value;
    }

    /// Read a whole cache line (`line_bytes` long) containing byte address
    /// `addr`, zero-filling any bytes outside registered buffers.
    pub fn read_line(&self, addr: u64, line_bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_line_into(addr, line_bytes, &mut out);
        out
    }

    /// [`GlobalMemory::read_line`] into a caller-owned buffer, so hot paths
    /// can reuse one allocation across lines. `out` is resized to
    /// `line_bytes`; bytes outside registered buffers read as zero.
    pub fn read_line_into(&self, addr: u64, line_bytes: usize, out: &mut Vec<u8>) {
        let line_base = addr - addr % line_bytes as u64;
        let line_end = line_base + line_bytes as u64;
        out.clear();
        out.resize(line_bytes, 0);
        // Buffers are disjoint, so each contributes its overlap independently.
        for b in self.buffers.values() {
            let b_end = b.base + b.words.len() as u64 * 4;
            let start = line_base.max(b.base);
            let end = line_end.min(b_end);
            if start >= end {
                continue;
            }
            let mut o = (start - line_base) as usize;
            if start.is_multiple_of(4) && end.is_multiple_of(4) {
                // Word-aligned overlap (the common case: line and buffer
                // bounds are all word-aligned) — copy whole words.
                let w0 = ((start - b.base) / 4) as usize;
                let w1 = ((end - b.base) / 4) as usize;
                for w in &b.words[w0..w1] {
                    out[o..o + 4].copy_from_slice(&w.to_le_bytes());
                    o += 4;
                }
            } else {
                for a in start..end {
                    let off = (a - b.base) as usize;
                    out[o] = b.words[off / 4].to_le_bytes()[off % 4];
                    o += 1;
                }
            }
        }
    }

    fn expect(&self, id: BufferId) -> &Buffer {
        self.buffers
            .get(&id)
            .unwrap_or_else(|| panic!("buffer {id:?} not registered"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_get_disjoint_lines() {
        let mut m = GlobalMemory::new();
        let a = m.add_buffer(BufferId(0), vec![1; 100]);
        let b = m.add_buffer(BufferId(1), vec![2; 100]);
        assert_ne!(a / 128, b / 128, "buffers share a cache line");
        assert_eq!(m.base_of(BufferId(0)), a);
    }

    #[test]
    fn load_store_roundtrip_with_wrapping() {
        let mut m = GlobalMemory::new();
        m.add_buffer(BufferId(3), vec![0; 8]);
        m.store(BufferId(3), 2, 42);
        assert_eq!(m.load(BufferId(3), 2), 42);
        // Index 10 wraps to 2.
        assert_eq!(m.load(BufferId(3), 10), 42);
        m.store(BufferId(3), 9, 7); // wraps to 1
        assert_eq!(m.buffer(BufferId(3)).unwrap()[1], 7);
    }

    #[test]
    fn read_line_reflects_stores() {
        let mut m = GlobalMemory::new();
        m.add_buffer(BufferId(0), (0..64).collect());
        let addr = m.addr_of(BufferId(0), 5);
        m.store(BufferId(0), 5, 0xdead_beef);
        let line = m.read_line(addr, 128);
        let off = (addr % 128) as usize;
        let w = u32::from_le_bytes(line[off..off + 4].try_into().unwrap());
        assert_eq!(w, 0xdead_beef);
    }

    #[test]
    fn unmapped_addresses_read_zero() {
        let m = GlobalMemory::new();
        assert_eq!(m.read_line(0, 128), vec![0u8; 128]);
    }

    #[test]
    fn read_line_into_matches_bytewise_reference() {
        let mut m = GlobalMemory::new();
        // A buffer whose end (92 bytes) falls mid-line, so lines straddle
        // the mapped/unmapped boundary.
        m.add_buffer(
            BufferId(0),
            (0..23u32).map(|i| i.wrapping_mul(0x9e37)).collect(),
        );
        m.add_buffer(BufferId(1), vec![0xffff_ffff; 40]);
        let bases = [m.base_of(BufferId(0)), m.base_of(BufferId(1))];
        let mut out = Vec::new();
        for base in bases {
            for addr in [
                base,
                base + 64,
                base + 80,
                base + 128,
                base.saturating_sub(128),
            ] {
                m.read_line_into(addr, 128, &mut out);
                // Byte-at-a-time reference via single-word lines.
                let line_base = addr - addr % 128;
                let reference: Vec<u8> = (0..32)
                    .flat_map(|w| m.read_line(line_base + w * 4, 4))
                    .collect();
                assert_eq!(out, reference, "line at {addr:#x}");
            }
        }
    }

    #[test]
    fn clones_share_buffers_until_stored_to() {
        let mut original = GlobalMemory::new();
        original.add_buffer(BufferId(0), vec![1; 16]);
        original.add_buffer(BufferId(1), vec![2; 16]);
        let mut copy = original.clone();
        let shares = |a: &GlobalMemory, b: &GlobalMemory, id| {
            Arc::ptr_eq(&a.buffers[&id].words, &b.buffers[&id].words)
        };
        assert!(shares(&original, &copy, BufferId(0)));
        copy.store(BufferId(0), 3, 99);
        copy.buffer_view_mut(BufferId(0)).1[4] = 98;
        // Only the stored-to buffer was copied, and the original kept its
        // contents.
        assert!(!shares(&original, &copy, BufferId(0)));
        assert!(shares(&original, &copy, BufferId(1)));
        assert_eq!(original.buffer(BufferId(0)).unwrap(), &[1; 16]);
        assert_eq!(copy.load(BufferId(0), 3), 99);
        assert_eq!(copy.load(BufferId(0), 4), 98);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_id_rejected() {
        let mut m = GlobalMemory::new();
        m.add_buffer(BufferId(0), vec![0; 4]);
        m.add_buffer(BufferId(0), vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn missing_buffer_panics() {
        let m = GlobalMemory::new();
        let _ = m.load(BufferId(9), 0);
    }
}
