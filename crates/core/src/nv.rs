//! Coder I — Narrow Value (§4.1).
//!
//! GPU data words average ~9 leading sign-equal bits and ~22 zero bits out
//! of 32 (paper Fig. 8/9). Flipping positive words turns that 0-dominance
//! into 1-dominance. The encoder XNORs every bit with the word's leading
//! (sign) bit:
//!
//! * sign bit 1 (negative): XNOR with 1 is identity → word unchanged;
//! * sign bit 0 (positive): XNOR with 0 inverts → every non-sign bit flips.
//!
//! The sign bit itself is XNORed with itself and would always become 1,
//! destroying the information needed for decoding — so, exactly as in the
//! paper's formula (`e₀ = b₀`), the leading bit is stored verbatim and only
//! bits 1..n are XNORed. The transformation is an involution, so the decoder
//! is identical hardware.

use crate::coder::Coder;

/// The narrow-value coder. A zero-sized, pure-combinational transformation
/// (one XNOR gate per non-sign bit).
///
/// # Example
///
/// ```
/// use bvf_core::{Coder, NvCoder};
///
/// // Small positive value: 31 low bits flip → mostly ones.
/// assert_eq!(NvCoder.encode_u32(0x0000_0005), 0x7fff_fffa);
/// // Negative value: unchanged.
/// assert_eq!(NvCoder.encode_u32(0xffff_fff0), 0xffff_fff0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NvCoder;

impl NvCoder {
    /// Number of XNOR gates per 32-bit coded word (bits 1..=31).
    pub const GATES_PER_WORD: u32 = 31;

    /// Create the coder (equivalent to the unit-struct literal).
    pub fn new() -> Self {
        NvCoder
    }

    /// The transformation: keep bit 31 (the leading bit in MSB-first order),
    /// XNOR bits 30..0 with it.
    #[inline]
    fn transform(w: u32) -> u32 {
        if w & 0x8000_0000 != 0 {
            // XNOR with 1 = identity.
            w
        } else {
            // XNOR with 0 = NOT, sign bit kept.
            w ^ 0x7fff_ffff
        }
    }

    /// Encode a whole warp at once in bit-plane form: every non-sign plane
    /// is XNORed with the sign plane, and the sign plane passes through
    /// verbatim — the per-bit-position statement of `eᵢ = bᵢ XNOR b₀`,
    /// `e₀ = b₀`, applied to 32 lanes per word op.
    ///
    /// Bit-identical to [`Coder::encode_words`] on the lane form (the
    /// transpose commutes with any per-bit-position gate network).
    #[inline]
    pub fn encode_planes(&self, planes: &mut bvf_bits::BitPlanes) {
        let p = planes.planes_mut();
        let sign = p[31];
        for plane in &mut p[..31] {
            *plane = !(*plane ^ sign);
        }
    }

    /// Decode in bit-plane form (involution: same gates as encode).
    #[inline]
    pub fn decode_planes(&self, planes: &mut bvf_bits::BitPlanes) {
        self.encode_planes(planes);
    }
}

impl Coder for NvCoder {
    #[inline]
    fn encode_u32(&self, w: u32) -> u32 {
        Self::transform(w)
    }

    #[inline]
    fn decode_u32(&self, w: u32) -> u32 {
        Self::transform(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_bits::BitCounts;
    use proptest::prelude::*;

    #[test]
    fn zero_becomes_mostly_ones() {
        // Value 0 is the most frequent value in application data; it encodes
        // to 31 ones (only the sign bit stays 0).
        assert_eq!(NvCoder.encode_u32(0), 0x7fff_ffff);
        assert_eq!(NvCoder.encode_u32(0).count_ones(), 31);
    }

    #[test]
    fn negative_values_pass_through() {
        for v in [-1i32, -2, i32::MIN, -123_456] {
            let w = v as u32;
            assert_eq!(NvCoder.encode_u32(w), w);
        }
    }

    #[test]
    fn small_positives_gain_weight() {
        for v in 0u32..1024 {
            let e = NvCoder.encode_u32(v);
            assert!(
                e.count_ones() >= v.count_ones(),
                "{v:#x} lost weight: {e:#x}"
            );
        }
    }

    #[test]
    fn float_data_gains_weight() {
        // Positive f32s have sign 0 and small exponents → 0-heavy; NV helps.
        let mut before = BitCounts::default();
        let mut after = BitCounts::default();
        for i in 1..1000u32 {
            let w = (i as f32 * 0.25).to_bits();
            before.record_u32(w);
            after.record_u32(NvCoder.encode_u32(w));
        }
        assert!(after.ones > before.ones);
    }

    #[test]
    fn involution_on_boundary_values() {
        for w in [0u32, 1, 0x7fff_ffff, 0x8000_0000, u32::MAX] {
            assert_eq!(NvCoder.decode_u32(NvCoder.encode_u32(w)), w);
            assert_eq!(NvCoder.encode_u32(NvCoder.encode_u32(w)), w);
        }
    }

    proptest! {
        #[test]
        fn roundtrip(w: u32) {
            prop_assert_eq!(NvCoder.decode_u32(NvCoder.encode_u32(w)), w);
        }

        #[test]
        fn encoder_equals_decoder(w: u32) {
            prop_assert_eq!(NvCoder.encode_u32(w), NvCoder.decode_u32(w));
        }

        #[test]
        fn sign_bit_preserved(w: u32) {
            let e = NvCoder.encode_u32(w);
            prop_assert_eq!(e & 0x8000_0000, w & 0x8000_0000);
        }

        #[test]
        fn plane_form_matches_lane_form(seed: u64) {
            let mut x = seed;
            let lanes: [u32; 32] = core::array::from_fn(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 32) as u32
            });
            let mut scalar = lanes;
            NvCoder.encode_words(&mut scalar);
            let mut planes = bvf_bits::BitPlanes::from_lanes(&lanes);
            NvCoder.encode_planes(&mut planes);
            prop_assert_eq!(planes.to_lanes(), scalar);
            NvCoder.decode_planes(&mut planes);
            prop_assert_eq!(planes.to_lanes(), lanes);
        }

        #[test]
        fn bytes_roundtrip(words: Vec<u32>) {
            let original: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let mut buf = original.clone();
            NvCoder.encode_bytes(&mut buf);
            NvCoder.decode_bytes(&mut buf);
            prop_assert_eq!(buf, original);
        }
    }
}
