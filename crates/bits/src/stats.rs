//! Accumulators for 0/1 bit-volume statistics (the paper's Fig. 9 metric).

use crate::word::BitWord;

/// Counts of 0-bits and 1-bits observed in a stream of words.
///
/// The BVF energy model charges every read/written bit an energy that depends
/// on its value, so the fundamental accounting unit for a storage structure
/// is simply the pair (zeros seen, ones seen).
///
/// # Example
///
/// ```
/// use bvf_bits::BitCounts;
///
/// let mut c = BitCounts::default();
/// c.record_u32(0x0000_000f); // 4 ones, 28 zeros
/// c.record_u32(0);           // 32 zeros
/// assert_eq!(c.ones, 4);
/// assert_eq!(c.zeros, 60);
/// assert!((c.one_fraction() - 4.0 / 64.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitCounts {
    /// Number of 1-bits observed.
    pub ones: u64,
    /// Number of 0-bits observed.
    pub zeros: u64,
}

impl BitCounts {
    /// An empty accumulator; identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts for a single word.
    pub fn of_word<W: BitWord>(w: W) -> Self {
        let mut c = Self::default();
        c.record(w);
        c
    }

    /// Counts over a slice of words.
    pub fn of_words<W: BitWord>(words: &[W]) -> Self {
        let mut c = Self::default();
        for &w in words {
            c.record(w);
        }
        c
    }

    /// Counts over a byte slice.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let ones = crate::hamming::weight_bytes(bytes);
        Self {
            ones,
            zeros: bytes.len() as u64 * 8 - ones,
        }
    }

    /// Record one word: one popcount, the zeros being the rest of the
    /// word.
    #[inline]
    pub fn record<W: BitWord>(&mut self, w: W) {
        let ones = w.count_ones();
        self.ones += u64::from(ones);
        self.zeros += u64::from(W::BITS - ones);
    }

    /// Record one `u32` (convenience for the dominant GPU data width).
    #[inline]
    pub fn record_u32(&mut self, w: u32) {
        self.record(w);
    }

    /// Record a byte slice.
    pub fn record_bytes(&mut self, bytes: &[u8]) {
        let other = Self::of_bytes(bytes);
        *self += other;
    }

    /// Total bits observed.
    #[inline]
    pub fn total(&self) -> u64 {
        self.ones + self.zeros
    }

    /// Fraction of observed bits that are 1; 0.0 when empty.
    pub fn one_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.ones as f64 / self.total() as f64
        }
    }

    /// Fraction of observed bits that are 0; 0.0 when empty.
    pub fn zero_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.zeros as f64 / self.total() as f64
        }
    }

    /// Average zero-bits per 32-bit word (the paper reports ≈22/32 for GPU
    /// application data).
    pub fn zeros_per_32b_word(&self) -> f64 {
        self.zero_fraction() * 32.0
    }
}

impl core::ops::Add for BitCounts {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            ones: self.ones + rhs.ones,
            zeros: self.zeros + rhs.zeros,
        }
    }
}

impl core::ops::AddAssign for BitCounts {
    fn add_assign(&mut self, rhs: Self) {
        self.ones += rhs.ones;
        self.zeros += rhs.zeros;
    }
}

impl core::iter::Sum for BitCounts {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

impl core::fmt::Display for BitCounts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ones / {} zeros ({:.1}% ones)",
            self.ones,
            self.zeros,
            self.one_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn of_bytes_matches_of_words() {
        let words = [0xdead_beefu32, 0, u32::MAX, 0x1234_5678];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(BitCounts::of_words(&words), BitCounts::of_bytes(&bytes));
    }

    #[test]
    fn empty_fractions_are_zero() {
        let c = BitCounts::default();
        assert_eq!(c.one_fraction(), 0.0);
        assert_eq!(c.zero_fraction(), 0.0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", BitCounts::default()).is_empty());
    }

    proptest! {
        #[test]
        fn total_is_width_times_count(words: Vec<u64>) {
            let c = BitCounts::of_words(&words);
            prop_assert_eq!(c.total(), words.len() as u64 * 64);
        }

        #[test]
        fn sum_equals_fold(a: Vec<u32>, b: Vec<u32>) {
            let s = BitCounts::of_words(&a) + BitCounts::of_words(&b);
            let mut all = a.clone();
            all.extend(&b);
            prop_assert_eq!(s, BitCounts::of_words(&all));
        }

        #[test]
        fn fractions_sum_to_one_when_nonempty(w: u32) {
            let c = BitCounts::of_word(w);
            prop_assert!((c.one_fraction() + c.zero_fraction() - 1.0).abs() < 1e-12);
        }
    }
}
