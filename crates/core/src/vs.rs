//! Coder II — Value Similarity (§4.2).
//!
//! Neighboring SIMD lanes hold similar values (small Hamming distance), so
//! XNORing every non-pivot lane with a pivot lane turns the agreeing bits —
//! the common case — into 1s. Two design points from the paper:
//!
//! * **Pivot choice.** Prior work pivots on lane 0, but lane 0 suffers most
//!   from branch divergence; profiling 58 applications shows **lane 21** has
//!   the smallest mean Hamming distance to the other lanes (Fig. 11), ~20%
//!   smaller than lane 0. The pivot is configurable here so the Fig. 11/12
//!   sweep (and the per-application optimum) can be reproduced.
//! * **Cache-line pivot.** Register lane structure is invisible at the
//!   cache/NoC level, so those BVF spaces pivot on **element 0** of the
//!   cache line instead.

use crate::coder::transform_bytes;

/// Lanes per warp (fixed at 32 for every evaluated GPU generation).
pub const WARP_LANES: usize = 32;

/// The empirically optimal pivot lane found by the paper (Fig. 11).
pub const PAPER_PIVOT_LANE: usize = 21;

/// The value-similarity coder, parameterized by its pivot index.
///
/// The transformation for the block `B` with pivot `P` is `E = B XNOR P`
/// element-wise, with the pivot element stored verbatim (XNORing the pivot
/// with itself would yield all-1s and lose the reference). XNOR against a
/// fixed reference is an involution, so decode re-applies the same gates.
///
/// # Example
///
/// ```
/// use bvf_core::VsCoder;
///
/// let vs = VsCoder::for_cache_lines(); // pivot = element 0
/// let mut line = vec![7u32, 7, 7, 6];
/// vs.encode_block(&mut line);
/// assert_eq!(line, vec![7, u32::MAX, u32::MAX, u32::MAX - 1]);
/// vs.decode_block(&mut line);
/// assert_eq!(line, vec![7, 7, 7, 6]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VsCoder {
    pivot: usize,
}

impl VsCoder {
    /// Coder for register files: pivot on lane 21 per the paper's profiling.
    pub fn for_registers() -> Self {
        Self {
            pivot: PAPER_PIVOT_LANE,
        }
    }

    /// Coder for cache lines, NoC and L2: pivot on element 0 (the lane
    /// structure is not visible at line granularity, §4.2.1).
    pub fn for_cache_lines() -> Self {
        Self { pivot: 0 }
    }

    /// Coder with an explicit pivot index (for the Fig. 11/12 design-space
    /// sweep).
    ///
    /// # Panics
    ///
    /// Panics if `pivot >= WARP_LANES` — no GPU warp has more than 32 lanes
    /// and cache-line pivots are indices into 32-word lines.
    pub fn with_pivot(pivot: usize) -> Self {
        assert!(pivot < WARP_LANES, "pivot {pivot} out of 0..{WARP_LANES}");
        Self { pivot }
    }

    /// The pivot index.
    pub fn pivot(&self) -> usize {
        self.pivot
    }

    /// Encode a block in place. The pivot element is left verbatim; every
    /// other element is XNORed with it. Blocks shorter than or equal to the
    /// pivot index are left unchanged (no pivot available — e.g. a partial
    /// tail line).
    pub fn encode_block(&self, words: &mut [u32]) {
        if self.pivot >= words.len() {
            return;
        }
        let p = words[self.pivot];
        for (i, w) in words.iter_mut().enumerate() {
            if i != self.pivot {
                *w = !(*w ^ p);
            }
        }
    }

    /// Decode a block in place (same gates as encode).
    pub fn decode_block(&self, words: &mut [u32]) {
        self.encode_block(words);
    }

    /// Encode a full warp's 32 lane values in place.
    pub fn encode_warp(&self, lanes: &mut [u32; WARP_LANES]) {
        self.encode_block(lanes);
    }

    /// Decode a full warp's 32 lane values in place.
    pub fn decode_warp(&self, lanes: &mut [u32; WARP_LANES]) {
        self.decode_block(lanes);
    }

    /// Encode a full warp in bit-plane form: in plane `b`, "XNOR every lane
    /// with the pivot lane" becomes one XNOR against the splat of the pivot
    /// lane's bit, with the pivot lane's own bit restored verbatim — 32
    /// lanes per word op, per bit position.
    ///
    /// Bit-identical to [`VsCoder::encode_warp`] on the lane form.
    #[inline]
    pub fn encode_warp_planes(&self, planes: &mut bvf_bits::BitPlanes) {
        let pivot = self.pivot as u32;
        let pmask = 1u32 << pivot;
        for plane in planes.planes_mut() {
            let q = *plane;
            let e = !(q ^ bvf_bits::splat_bit(q, pivot));
            *plane = (e & !pmask) | (q & pmask);
        }
    }

    /// Decode a full warp in bit-plane form (same gates as encode).
    #[inline]
    pub fn decode_warp_planes(&self, planes: &mut bvf_bits::BitPlanes) {
        self.encode_warp_planes(planes);
    }

    /// Encode a byte buffer in place as consecutive little-endian 32-bit
    /// words with the pivot at word index [`VsCoder::pivot`] (cache-line
    /// view of §4.2.2-A).
    ///
    /// # Panics
    ///
    /// Panics if the length is not word-aligned.
    pub fn encode_line_bytes(&self, bytes: &mut [u8]) {
        self.line_bytes(bytes);
    }

    /// Decode a byte buffer in place (same transformation).
    ///
    /// # Panics
    ///
    /// Panics if the length is not word-aligned.
    pub fn decode_line_bytes(&self, bytes: &mut [u8]) {
        self.line_bytes(bytes);
    }

    fn line_bytes(&self, bytes: &mut [u8]) {
        assert!(
            bytes.len().is_multiple_of(4),
            "payload length {} is not word-aligned",
            bytes.len()
        );
        let n_words = bytes.len() / 4;
        if self.pivot >= n_words {
            return;
        }
        let ps = self.pivot * 4;
        let p = u32::from_le_bytes(bytes[ps..ps + 4].try_into().expect("pivot word"));
        let pivot = self.pivot;
        let mut idx = 0;
        transform_bytes(bytes, |w| {
            let out = if idx == pivot { w } else { !(w ^ p) };
            idx += 1;
            out
        });
    }

    /// Re-encode data when the pivot reference changes (e.g. data moving
    /// from the cache-line BVF space, pivoted on element 0, into the
    /// register BVF space, pivoted on lane 21): decode with `self`, encode
    /// with `new`.
    pub fn repivot(&self, new: &VsCoder, words: &mut [u32]) {
        self.decode_block(words);
        new.encode_block(words);
    }
}

impl Default for VsCoder {
    /// The register-file configuration (pivot lane 21).
    fn default() -> Self {
        Self::for_registers()
    }
}

/// Mean Hamming distance from each lane to the other lanes, over a set of
/// warp-value samples — the Fig. 11 profile. Entry `i` is lane `i`'s mean
/// distance in bits, averaged over all samples and partner lanes.
///
/// Returns all-zeros when `samples` is empty.
pub fn lane_hamming_profile(samples: &[[u32; WARP_LANES]]) -> [f64; WARP_LANES] {
    let mut sums = [0u64; WARP_LANES];
    for warp in samples {
        for i in 0..WARP_LANES {
            for j in 0..WARP_LANES {
                if i != j {
                    sums[i] += u64::from((warp[i] ^ warp[j]).count_ones());
                }
            }
        }
    }
    let mut out = [0.0; WARP_LANES];
    if samples.is_empty() {
        return out;
    }
    let denom = (samples.len() * (WARP_LANES - 1)) as f64;
    for (o, s) in out.iter_mut().zip(&sums) {
        *o = *s as f64 / denom;
    }
    out
}

/// The lane with the minimal mean Hamming distance to its peers — the
/// per-application "optimal lane" of Fig. 12. Ties break toward the lower
/// index. Returns 0 for an empty sample set.
pub fn optimal_pivot(samples: &[[u32; WARP_LANES]]) -> usize {
    let profile = lane_hamming_profile(samples);
    profile
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("profile values are finite"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_bits::BitCounts;
    use proptest::prelude::*;

    #[test]
    fn identical_lanes_encode_to_all_ones() {
        let vs = VsCoder::for_registers();
        let mut lanes = [0xdead_beefu32; WARP_LANES];
        vs.encode_warp(&mut lanes);
        for (i, l) in lanes.iter().enumerate() {
            if i == PAPER_PIVOT_LANE {
                assert_eq!(*l, 0xdead_beef);
            } else {
                assert_eq!(*l, u32::MAX);
            }
        }
    }

    #[test]
    fn similar_lanes_gain_weight() {
        let vs = VsCoder::for_registers();
        let original: [u32; WARP_LANES] = core::array::from_fn(|i| 0x3f80_0000 + i as u32);
        let mut lanes = original;
        vs.encode_warp(&mut lanes);
        assert!(BitCounts::of_words(&lanes).ones > BitCounts::of_words(&original).ones);
        vs.decode_warp(&mut lanes);
        assert_eq!(lanes, original);
    }

    #[test]
    fn short_blocks_without_pivot_pass_through() {
        let vs = VsCoder::for_registers(); // pivot 21
        let mut block = vec![1u32, 2, 3]; // no element 21
        let orig = block.clone();
        vs.encode_block(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn line_bytes_matches_block_words() {
        let vs = VsCoder::for_cache_lines();
        let words: Vec<u32> = (0..32).map(|i| i * 0x0101_0101).collect();
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut block = words.clone();
        vs.encode_line_bytes(&mut bytes);
        vs.encode_block(&mut block);
        let roundtrip: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(roundtrip, block);
    }

    #[test]
    fn repivot_preserves_data() {
        let line = VsCoder::for_cache_lines();
        let reg = VsCoder::for_registers();
        let original: Vec<u32> = (100..132).collect();
        let mut data = original.clone();
        line.encode_block(&mut data); // encoded for the cache space
        line.repivot(&reg, &mut data); // move into the register space
        reg.decode_block(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    #[should_panic(expected = "out of 0..32")]
    fn pivot_out_of_range_rejected() {
        let _ = VsCoder::with_pivot(32);
    }

    #[test]
    fn profile_finds_planted_pivot() {
        // Every lane deviates from a shared base in its own private bit,
        // except lane 5, which matches the base exactly. With disjoint
        // deviation masks, d(i, j) = w_i + w_j, so the zero-weight lane has
        // the strictly smallest mean distance.
        let base = 0xabcd_1234u32;
        let warp: [u32; WARP_LANES] =
            core::array::from_fn(|i| if i == 5 { base } else { base ^ (1 << i) });
        let samples = vec![warp; 10];
        assert_eq!(optimal_pivot(&samples), 5);
        let profile = lane_hamming_profile(&samples);
        for (i, &d) in profile.iter().enumerate() {
            if i != 5 {
                assert!(d > profile[5]);
            }
        }
    }

    #[test]
    fn profile_of_empty_is_zero() {
        let p = lane_hamming_profile(&[]);
        assert!(p.iter().all(|&x| x == 0.0));
        assert_eq!(optimal_pivot(&[]), 0);
    }

    proptest! {
        #[test]
        fn warp_roundtrip(seed: u64, pivot in 0usize..WARP_LANES) {
            let mut x = seed;
            let original: [u32; WARP_LANES] = core::array::from_fn(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 32) as u32
            });
            let vs = VsCoder::with_pivot(pivot);
            let mut lanes = original;
            vs.encode_warp(&mut lanes);
            prop_assert_eq!(lanes[pivot], original[pivot]);
            vs.decode_warp(&mut lanes);
            prop_assert_eq!(lanes, original);
        }

        #[test]
        fn plane_form_matches_lane_form(seed: u64, pivot in 0usize..WARP_LANES) {
            let mut x = seed;
            let lanes: [u32; WARP_LANES] = core::array::from_fn(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 32) as u32
            });
            let vs = VsCoder::with_pivot(pivot);
            let mut scalar = lanes;
            vs.encode_warp(&mut scalar);
            let mut planes = bvf_bits::BitPlanes::from_lanes(&lanes);
            vs.encode_warp_planes(&mut planes);
            prop_assert_eq!(planes.to_lanes(), scalar);
            vs.decode_warp_planes(&mut planes);
            prop_assert_eq!(planes.to_lanes(), lanes);
        }

        #[test]
        fn block_roundtrip(words: Vec<u32>, pivot in 0usize..WARP_LANES) {
            let vs = VsCoder::with_pivot(pivot);
            let original = words.clone();
            let mut block = words;
            vs.encode_block(&mut block);
            vs.decode_block(&mut block);
            prop_assert_eq!(block, original);
        }

        #[test]
        fn line_bytes_roundtrip(words: Vec<u32>) {
            let vs = VsCoder::for_cache_lines();
            let original: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let mut bytes = original.clone();
            vs.encode_line_bytes(&mut bytes);
            vs.decode_line_bytes(&mut bytes);
            prop_assert_eq!(bytes, original);
        }
    }
}
