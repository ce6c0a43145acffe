//! Per-bit-position 0/1 occurrence histograms (the paper's Fig. 14).
//!
//! The ISA-preference coder is derived from a statistical analysis of
//! instruction binaries: for each of the 64 bit positions, count how often
//! the bit is 1 across every instruction of a corpus, then build a mask whose
//! bit is 1 wherever 1s dominate and 0 elsewhere. XNORing instructions with
//! this mask maximizes the expected Hamming weight.

/// Histogram of 1-bit occurrences per bit position over a stream of words.
///
/// Positions are numbered from bit 0 (LSB) to `width - 1` (MSB).
///
/// # Example
///
/// ```
/// use bvf_bits::PositionHistogram;
///
/// let mut h = PositionHistogram::new(8);
/// h.record_u64(0b0000_0001);
/// h.record_u64(0b0000_0011);
/// h.record_u64(0b0000_0010);
/// assert_eq!(h.one_probability(0), 2.0 / 3.0);
/// assert_eq!(h.one_probability(7), 0.0);
/// // bit 0 and bit 1 both appear in 2/3 of words → majority 1
/// assert_eq!(h.majority_mask(), 0b0000_0011);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionHistogram {
    ones: Vec<u64>,
    samples: u64,
}

impl PositionHistogram {
    /// Create a histogram over `width` bit positions (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    pub fn new(width: u32) -> Self {
        assert!(
            (1..=64).contains(&width),
            "width must be in 1..=64, got {width}"
        );
        Self {
            ones: vec![0; width as usize],
            samples: 0,
        }
    }

    /// Histogram width in bits.
    pub fn width(&self) -> u32 {
        self.ones.len() as u32
    }

    /// Number of words recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Record a word; bits above `width` are ignored.
    pub fn record_u64(&mut self, w: u64) {
        self.samples += 1;
        let mut rest = w;
        while rest != 0 {
            let pos = rest.trailing_zeros() as usize;
            if pos >= self.ones.len() {
                break;
            }
            self.ones[pos] += 1;
            rest &= rest - 1; // clear lowest set bit
        }
    }

    /// Record every word of a slice.
    pub fn record_all(&mut self, words: &[u64]) {
        for &w in words {
            self.record_u64(w);
        }
    }

    /// Probability that the bit at `pos` is 1; 0.0 when no samples.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= width`.
    pub fn one_probability(&self, pos: u32) -> f64 {
        assert!(pos < self.width(), "bit position {pos} out of range");
        if self.samples == 0 {
            0.0
        } else {
            self.ones[pos as usize] as f64 / self.samples as f64
        }
    }

    /// Per-position 1-probabilities, LSB first.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.width()).map(|p| self.one_probability(p)).collect()
    }

    /// The majority mask: bit = 1 where 1s are *strictly* more frequent than
    /// 0s, bit = 0 otherwise (ties prefer 0, matching the paper's "if a bit
    /// position generally prefers 0, the mask bit is 0").
    pub fn majority_mask(&self) -> u64 {
        let mut mask = 0u64;
        if self.samples == 0 {
            return mask;
        }
        for (pos, &ones) in self.ones.iter().enumerate() {
            if ones * 2 > self.samples {
                mask |= 1 << pos;
            }
        }
        mask
    }

    /// Expected Hamming weight per word after XNOR with `mask`.
    ///
    /// For each position, XNOR with a mask bit of 1 keeps the bit, and with a
    /// mask bit of 0 inverts it; the expectation follows directly from the
    /// per-position 1-probabilities.
    pub fn expected_weight_after_xnor(&self, mask: u64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        (0..self.width())
            .map(|pos| {
                let p1 = self.one_probability(pos);
                if mask >> pos & 1 == 1 {
                    p1
                } else {
                    1.0 - p1
                }
            })
            .sum()
    }

    /// Merge another histogram of the same width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "histogram widths differ");
        for (a, b) in self.ones.iter_mut().zip(&other.ones) {
            *a += b;
        }
        self.samples += other.samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_each_position() {
        let mut h = PositionHistogram::new(64);
        h.record_u64(u64::MAX);
        for pos in 0..64 {
            assert_eq!(h.one_probability(pos), 1.0);
        }
        assert_eq!(h.majority_mask(), u64::MAX);
    }

    #[test]
    fn ignores_bits_above_width() {
        let mut h = PositionHistogram::new(8);
        h.record_u64(0xffff_ff00); // nothing below bit 8
        assert_eq!(h.majority_mask(), 0);
    }

    #[test]
    fn ties_prefer_zero() {
        let mut h = PositionHistogram::new(4);
        h.record_u64(0b1111);
        h.record_u64(0b0000);
        assert_eq!(h.majority_mask(), 0);
    }

    #[test]
    fn majority_mask_maximizes_expected_weight() {
        let mut h = PositionHistogram::new(16);
        // Skewed corpus: low byte mostly 1s, high byte mostly 0s.
        for i in 0..100u64 {
            h.record_u64(if i % 10 < 8 { 0x00ff } else { 0xff00 });
        }
        let best = h.majority_mask();
        let w_best = h.expected_weight_after_xnor(best);
        for candidate in [0u64, 0xffff, 0x00ff, 0xff00, 0x0f0f] {
            assert!(w_best + 1e-9 >= h.expected_weight_after_xnor(candidate));
        }
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_rejected() {
        let _ = PositionHistogram::new(0);
    }

    proptest! {
        #[test]
        fn expected_weight_bounded_by_width(words: Vec<u64>, mask: u64) {
            let mut h = PositionHistogram::new(64);
            h.record_all(&words);
            let w = h.expected_weight_after_xnor(mask);
            prop_assert!((0.0..=64.0 + 1e-9).contains(&w));
        }

        #[test]
        fn majority_is_optimal(words: Vec<u64>, other_mask: u64) {
            let mut h = PositionHistogram::new(64);
            h.record_all(&words);
            let best = h.expected_weight_after_xnor(h.majority_mask());
            prop_assert!(best + 1e-9 >= h.expected_weight_after_xnor(other_mask));
        }

        #[test]
        fn merge_equals_concat(a: Vec<u64>, b: Vec<u64>) {
            let mut ha = PositionHistogram::new(32);
            ha.record_all(&a);
            let mut hb = PositionHistogram::new(32);
            hb.record_all(&b);
            ha.merge(&hb);
            let mut hc = PositionHistogram::new(32);
            hc.record_all(&a);
            hc.record_all(&b);
            prop_assert_eq!(ha, hc);
        }
    }
}
