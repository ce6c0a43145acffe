//! Narrow-value profiling (the paper's Fig. 8 measurement).
//!
//! A *narrow value* is a small value stored in a wide data type — e.g. a
//! boolean in an `i32`, or an 8-bit pixel promoted to `f32`. Narrow values
//! manifest as long runs of leading sign bits. The paper measures, with the
//! PTX `clz` instruction, the average number of leading 0s per 32-bit word
//! (bit-inverting negative values first) and finds ≈9 leading bits on
//! average across 58 GPU applications.

/// Count the leading *sign-equal* bits of a 32-bit word exactly as the
/// paper's profiling does: leading zeros for non-negative values, leading
/// zeros of the bitwise inverse for negative values (i.e. leading ones).
///
/// # Example
///
/// ```
/// use bvf_bits::signed_leading_bits_u32;
///
/// assert_eq!(signed_leading_bits_u32(0x0000_00ff), 24);
/// assert_eq!(signed_leading_bits_u32((-1i32) as u32), 32); // all sign bits
/// assert_eq!(signed_leading_bits_u32(0x8000_0000), 1);     // -2^31: one sign bit
/// assert_eq!(signed_leading_bits_u32(0), 32);
/// ```
#[inline]
pub fn signed_leading_bits_u32(w: u32) -> u32 {
    if w & 0x8000_0000 != 0 {
        (!w).leading_zeros()
    } else {
        w.leading_zeros()
    }
}

/// Accumulator for the per-application narrow-value profile.
///
/// Records the leading-bit count of every 32-bit value loaded/stored and the
/// frequency of the all-zero word (value locality of 0 — the paper cites 18%
/// of CPU loads and up to 62% for GPU deep-learning data).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NarrowValueProfile {
    /// Number of words profiled.
    pub words: u64,
    /// Sum of leading sign-equal bits over all words.
    pub leading_bits_sum: u64,
    /// Number of words equal to zero.
    pub zero_words: u64,
}

impl NarrowValueProfile {
    /// New, empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Profile one 32-bit word.
    #[inline]
    pub fn record(&mut self, w: u32) {
        self.words += 1;
        self.leading_bits_sum += u64::from(signed_leading_bits_u32(w));
        if w == 0 {
            self.zero_words += 1;
        }
    }

    /// Profile a slice of words.
    pub fn record_words(&mut self, words: &[u32]) {
        for &w in words {
            self.record(w);
        }
    }

    /// Profile a little-endian byte stream as consecutive 32-bit words.
    /// Trailing bytes that do not fill a word are ignored.
    pub fn record_bytes(&mut self, bytes: &[u8]) {
        for c in bytes.chunks_exact(4) {
            self.record(u32::from_le_bytes(c.try_into().expect("chunk of 4")));
        }
    }

    /// Mean leading sign-equal bits per word (the Fig. 8 metric); 0.0 when empty.
    pub fn mean_leading_bits(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.leading_bits_sum as f64 / self.words as f64
        }
    }

    /// Fraction of words equal to zero.
    pub fn zero_word_fraction(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.zero_words as f64 / self.words as f64
        }
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &Self) {
        self.words += other.words;
        self.leading_bits_sum += other.leading_bits_sum;
        self.zero_words += other.zero_words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn leading_bits_small_positive() {
        assert_eq!(signed_leading_bits_u32(1), 31);
        assert_eq!(signed_leading_bits_u32(255), 24);
        assert_eq!(signed_leading_bits_u32(0x7fff_ffff), 1);
    }

    #[test]
    fn leading_bits_small_negative() {
        // -1 = all ones → 32 leading sign bits
        assert_eq!(signed_leading_bits_u32((-1i32) as u32), 32);
        // -256 = 0xffff_ff00 → !w = 0x0000_00ff → 24
        assert_eq!(signed_leading_bits_u32((-256i32) as u32), 24);
    }

    #[test]
    fn profile_means() {
        let mut p = NarrowValueProfile::new();
        p.record_words(&[0, 1, 0x0000_ffff, (-1i32) as u32]);
        assert_eq!(p.words, 4);
        assert_eq!(p.zero_words, 1);
        let expected = (32 + 31 + 16 + 32) as f64 / 4.0;
        assert!((p.mean_leading_bits() - expected).abs() < 1e-12);
    }

    #[test]
    fn record_bytes_ignores_tail() {
        let mut p = NarrowValueProfile::new();
        p.record_bytes(&[0, 0, 0, 0, 0xff]); // one word + 1 stray byte
        assert_eq!(p.words, 1);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = NarrowValueProfile::new();
        a.record_words(&[0, 7]);
        let mut b = NarrowValueProfile::new();
        b.record_words(&[u32::MAX]);
        let mut m = a;
        m.merge(&b);
        let mut whole = NarrowValueProfile::new();
        whole.record_words(&[0, 7, u32::MAX]);
        assert_eq!(m, whole);
    }

    proptest! {
        #[test]
        fn leading_bits_in_range(w: u32) {
            let n = signed_leading_bits_u32(w);
            prop_assert!(n >= 1 || w == 0x7fff_ffff || w.leading_zeros() == 0);
            prop_assert!(n <= 32);
        }

        #[test]
        fn negation_symmetry(v in i32::MIN+1..=i32::MAX) {
            // x and !x (≈ -x-1) have the same leading-bit count by construction
            let w = v as u32;
            prop_assert_eq!(signed_leading_bits_u32(w), signed_leading_bits_u32(!w));
        }
    }
}
