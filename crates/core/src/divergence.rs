//! Divergence handling for the value-similarity coder (§4.2.2).
//!
//! VS coding extracts correlation *across* data elements, so it must cope
//! with the three ways a GPU access can be irregular:
//!
//! * **Memory divergence** (A): a warp's loads span several cache lines, so
//!   the cache-line pivot (element 0) differs from the register pivot
//!   (lane 21). Data is decoded at L1 before lanes are gathered and
//!   re-encoded against the register pivot; the paper argues this adds no
//!   critical-path delay (the pivot is available on fills, and L1 is
//!   write-evict so the pivot is accessed on writes regardless).
//! * **Branch divergence** (B): a partial-warp *write* that includes the
//!   pivot lane would strand the other lanes' encodings. The fix is a dummy
//!   `mov` that decodes the stale lanes against the old pivot and re-encodes
//!   them against the new one.
//! * **Shared-memory divergence** (C): scratchpad access patterns are
//!   arbitrary, so the VS space simply excludes SME.
//!
//! [`DivergencePolicy`] implements the bookkeeping and counts the overhead
//! events so the evaluation can charge them.

use crate::vs::{VsCoder, WARP_LANES};

/// Stateful divergence handler + overhead counters for one register file's
/// VS space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergencePolicy {
    line_coder: VsCoder,
    reg_coder: VsCoder,
    /// Dummy `mov` re-encode instructions injected for branch divergence.
    pub dummy_movs: u64,
    /// L1-boundary repivot operations performed for memory divergence.
    pub repivots: u64,
}

impl DivergencePolicy {
    /// Policy using the paper's defaults (line pivot = element 0, register
    /// pivot = lane 21).
    pub fn new() -> Self {
        Self::with_coders(VsCoder::for_cache_lines(), VsCoder::for_registers())
    }

    /// Policy with explicit coders (for pivot sweeps).
    pub fn with_coders(line_coder: VsCoder, reg_coder: VsCoder) -> Self {
        Self {
            line_coder,
            reg_coder,
            dummy_movs: 0,
            repivots: 0,
        }
    }

    /// The register-space coder.
    pub fn reg_coder(&self) -> VsCoder {
        self.reg_coder
    }

    /// The cache-line-space coder.
    pub fn line_coder(&self) -> VsCoder {
        self.line_coder
    }

    /// Handle memory divergence (case A): data arriving from the cache-line
    /// BVF space is repivoted into the register BVF space before lanes are
    /// gathered. `words` is line-encoded on entry, register-encoded on exit.
    pub fn gather_into_registers(&mut self, words: &mut [u32]) {
        self.line_coder.repivot(&self.reg_coder, words);
        self.repivots += 1;
    }

    /// Handle a register write under branch divergence (case B).
    ///
    /// `lanes` holds the *encoded* register contents; `active` is the
    /// write's lane mask; `new_values` are the raw (decoded) values the
    /// active lanes are writing. If the pivot lane is written, the inactive
    /// lanes are re-encoded against the new pivot via an injected dummy
    /// `mov` (counted in [`DivergencePolicy::dummy_movs`]).
    pub fn write_registers(
        &mut self,
        lanes: &mut [u32; WARP_LANES],
        active: u32,
        new_values: &[u32; WARP_LANES],
    ) {
        let pivot = self.reg_coder.pivot();
        let pivot_written = active >> pivot & 1 == 1;
        if pivot_written && active != u32::MAX {
            // Dummy mov: decode every lane with the old pivot...
            self.reg_coder.decode_warp(lanes);
            // ...apply the partial write in plain space...
            for i in 0..WARP_LANES {
                if active >> i & 1 == 1 {
                    lanes[i] = new_values[i];
                }
            }
            // ...and re-encode against the new pivot value.
            self.reg_coder.encode_warp(lanes);
            self.dummy_movs += 1;
        } else if active == u32::MAX {
            // Full-warp write: simply encode the new values.
            *lanes = *new_values;
            self.reg_coder.encode_warp(lanes);
        } else {
            // Partial write that misses the pivot: the pivot reference is
            // unchanged, so active lanes are encoded independently.
            let p = self.read_pivot(lanes);
            for i in 0..WARP_LANES {
                if active >> i & 1 == 1 {
                    lanes[i] = if i == pivot {
                        new_values[i]
                    } else {
                        !(new_values[i] ^ p)
                    };
                }
            }
        }
    }

    /// Decode the full warp (e.g. operands entering the execution units).
    pub fn read_registers(&self, lanes: &[u32; WARP_LANES]) -> [u32; WARP_LANES] {
        let mut out = *lanes;
        self.reg_coder.decode_warp(&mut out);
        out
    }

    fn read_pivot(&self, lanes: &[u32; WARP_LANES]) -> u32 {
        lanes[self.reg_coder.pivot()]
    }
}

impl Default for DivergencePolicy {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn warp(f: impl FnMut(usize) -> u32) -> [u32; WARP_LANES] {
        core::array::from_fn(f)
    }

    #[test]
    fn full_write_then_read_roundtrips() {
        let mut p = DivergencePolicy::new();
        let values = warp(|i| i as u32 * 7 + 1);
        let mut regs = [0u32; WARP_LANES];
        p.write_registers(&mut regs, u32::MAX, &values);
        assert_eq!(p.read_registers(&regs), values);
        assert_eq!(p.dummy_movs, 0);
    }

    #[test]
    fn partial_write_missing_pivot_needs_no_dummy_mov() {
        let mut p = DivergencePolicy::new();
        let initial = warp(|i| i as u32);
        let mut regs = [0u32; WARP_LANES];
        p.write_registers(&mut regs, u32::MAX, &initial);

        // Write lanes 0..8 only; pivot (21) untouched.
        let updated = warp(|i| if i < 8 { 1000 + i as u32 } else { initial[i] });
        p.write_registers(&mut regs, 0x0000_00ff, &updated);
        assert_eq!(p.read_registers(&regs), updated);
        assert_eq!(p.dummy_movs, 0);
    }

    #[test]
    fn partial_write_hitting_pivot_injects_dummy_mov() {
        let mut p = DivergencePolicy::new();
        let initial = warp(|i| i as u32 + 100);
        let mut regs = [0u32; WARP_LANES];
        p.write_registers(&mut regs, u32::MAX, &initial);

        // A divergent branch writes only the pivot lane.
        let mut updated = initial;
        updated[21] = 0xdead_beef;
        p.write_registers(&mut regs, 1 << 21, &updated);
        assert_eq!(p.read_registers(&regs), updated);
        assert_eq!(p.dummy_movs, 1);
    }

    #[test]
    fn gather_repivots_line_data() {
        let mut p = DivergencePolicy::new();
        let original: Vec<u32> = (0..32).map(|i| 0x40 + i).collect();
        let mut data = original.clone();
        p.line_coder().encode_block(&mut data); // as stored in L1/L2/NoC
        p.gather_into_registers(&mut data); // crosses into the register space
        p.reg_coder().decode_block(&mut data);
        assert_eq!(data, original);
        assert_eq!(p.repivots, 1);
    }

    proptest! {
        #[test]
        fn arbitrary_write_sequences_always_decode(
            writes in proptest::collection::vec((any::<u32>(), any::<u64>()), 1..12)
        ) {
            let mut p = DivergencePolicy::new();
            let mut regs = [0u32; WARP_LANES];
            // Establish a defined initial state.
            let mut truth = warp(|i| i as u32);
            p.write_registers(&mut regs, u32::MAX, &truth);

            for (mask, seed) in writes {
                let mut x = seed;
                let vals = warp(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                    (x >> 32) as u32
                });
                let merged = warp(|i| if mask >> i & 1 == 1 { vals[i] } else { truth[i] });
                p.write_registers(&mut regs, mask, &merged);
                truth = merged;
                prop_assert_eq!(p.read_registers(&regs), truth);
            }
        }
    }
}
