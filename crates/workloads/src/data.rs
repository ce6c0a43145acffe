//! Seeded data generators reproducing the value distributions the paper
//! measures on real GPU applications.
//!
//! The generators are deterministic (seeded per application) so that every
//! simulation, test and benchmark sees identical data. Spatial correlation
//! matters as much as the marginal distribution: consecutive elements land
//! in consecutive warp lanes, so smooth sequences are what produce the
//! inter-lane value similarity the VS coder exploits.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A value-distribution family for one buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataProfile {
    /// Mostly exact zeros with occasional small integers — activation-style
    /// data (`p_zero` in percent).
    ZeroHeavy {
        /// Percentage of exact-zero words (0-100).
        zero_pct: u8,
    },
    /// Uniform small integers in `0..max` stored in full 32-bit words — the
    /// classic narrow-value case (flags, counters, 8/16-bit values).
    NarrowInt {
        /// Exclusive upper bound of the values.
        max: u32,
    },
    /// 8-bit pixels promoted to 32-bit words, spatially smooth.
    Pixels,
    /// Four 8-bit pixels packed per 32-bit word (RGBA/compressed-texture
    /// style): every byte carries signal, so words are bit-dense but
    /// neighboring words stay correlated.
    PackedPixels,
    /// Positive single-precision physics quantities: a smooth base signal
    /// with small relative noise (oceanFFT/simulation-style data).
    SmoothF32 {
        /// Base magnitude of the signal.
        scale: f32,
    },
    /// Signed integers centred on zero (deltas, displacements); mostly
    /// small magnitude, both signs.
    SignedSmall {
        /// Typical magnitude bound.
        magnitude: i32,
    },
    /// Indices into a structure of `n` nodes with locality (graph CSR-style
    /// neighbor lists).
    Indices {
        /// Number of indexable nodes.
        n: u32,
    },
    /// Full-entropy random words — compressed/encrypted-style data, the
    /// worst case for every coder.
    DenseRandom,
}

impl DataProfile {
    /// Generate `len` words with the deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero (buffers must be non-empty) or a profile
    /// parameter is degenerate (`NarrowInt { max: 0 }`, `Indices { n: 0 }`).
    pub fn generate(self, seed: u64, len: usize) -> Vec<u32> {
        assert!(len > 0, "cannot generate an empty buffer");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        match self {
            DataProfile::ZeroHeavy { zero_pct } => {
                let p = u32::from(zero_pct.min(100));
                (0..len)
                    .map(|_| {
                        if rng.gen_range(0..100u32) < p {
                            0
                        } else {
                            rng.gen_range(1..64u32)
                        }
                    })
                    .collect()
            }
            DataProfile::NarrowInt { max } => {
                assert!(max > 0, "NarrowInt max must be positive");
                (0..len).map(|_| rng.gen_range(0..max)).collect()
            }
            DataProfile::Pixels => {
                // A smooth scanline: neighboring pixels differ slightly.
                let mut v = rng.gen_range(0..256i32);
                (0..len)
                    .map(|_| {
                        v = (v + rng.gen_range(-6..=6)).clamp(0, 255);
                        v as u32
                    })
                    .collect()
            }
            DataProfile::PackedPixels => {
                let mut v = [128i32; 4];
                (0..len)
                    .map(|_| {
                        let mut w = 0u32;
                        for (c, ch) in v.iter_mut().enumerate() {
                            *ch = (*ch + rng.gen_range(-9..=9)).clamp(0, 255);
                            w |= (*ch as u32) << (c * 8);
                        }
                        w
                    })
                    .collect()
            }
            DataProfile::SmoothF32 { scale } => {
                let mut phase = rng.gen_range(0.0f32..core::f32::consts::TAU);
                (0..len)
                    .map(|i| {
                        phase += 0.01;
                        let noise = rng.gen_range(-0.01f32..0.01);
                        let v = scale * (1.5 + (phase + i as f32 * 1e-4).sin() + noise);
                        v.max(0.0).to_bits()
                    })
                    .collect()
            }
            DataProfile::SignedSmall { magnitude } => {
                let m = magnitude.max(1);
                (0..len).map(|_| rng.gen_range(-m..=m) as u32).collect()
            }
            DataProfile::Indices { n } => {
                assert!(n > 0, "Indices n must be positive");
                // Locality: indices cluster around a slowly moving cursor.
                let mut cursor = rng.gen_range(0..n);
                (0..len)
                    .map(|_| {
                        if rng.gen_range(0..8u32) == 0 {
                            cursor = rng.gen_range(0..n); // long jump
                        }
                        let jitter = rng.gen_range(0..16u32);
                        (cursor.wrapping_add(jitter)) % n
                    })
                    .collect()
            }
            DataProfile::DenseRandom => (0..len).map(|_| rng.gen::<u32>()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_bits::{BitCounts, NarrowValueProfile};

    #[test]
    fn generation_is_deterministic() {
        for p in [
            DataProfile::ZeroHeavy { zero_pct: 40 },
            DataProfile::Pixels,
            DataProfile::SmoothF32 { scale: 3.0 },
            DataProfile::DenseRandom,
        ] {
            assert_eq!(p.generate(42, 128), p.generate(42, 128));
            assert_ne!(p.generate(1, 128), p.generate(2, 128));
        }
    }

    #[test]
    fn zero_heavy_hits_its_rate() {
        let v = DataProfile::ZeroHeavy { zero_pct: 60 }.generate(7, 10_000);
        let zeros = v.iter().filter(|&&x| x == 0).count();
        assert!((5_200..6_800).contains(&zeros), "{zeros}");
    }

    #[test]
    fn narrow_ints_have_many_leading_zeros() {
        let v = DataProfile::NarrowInt { max: 256 }.generate(3, 4_096);
        let mut p = NarrowValueProfile::new();
        p.record_words(&v);
        assert!(p.mean_leading_bits() >= 24.0);
    }

    #[test]
    fn smooth_f32_is_positive_and_zero_dominated() {
        let v = DataProfile::SmoothF32 { scale: 2.0 }.generate(11, 4_096);
        for &w in &v {
            assert!(f32::from_bits(w) >= 0.0);
        }
        let c = BitCounts::of_words(&v);
        assert!(c.zero_fraction() > 0.5);
    }

    #[test]
    fn pixels_are_bytes_and_smooth() {
        let v = DataProfile::Pixels.generate(5, 4_096);
        assert!(v.iter().all(|&x| x < 256));
        // Smoothness: neighbors within ±6.
        for w in v.windows(2) {
            assert!((w[0] as i32 - w[1] as i32).abs() <= 6);
        }
    }

    #[test]
    fn indices_stay_in_range() {
        let v = DataProfile::Indices { n: 1000 }.generate(9, 4_096);
        assert!(v.iter().all(|&x| x < 1000));
    }

    #[test]
    fn dense_random_is_balanced() {
        let c = BitCounts::of_words(&DataProfile::DenseRandom.generate(13, 8_192));
        assert!((c.one_fraction() - 0.5).abs() < 0.02);
    }

    #[test]
    fn signed_small_covers_both_signs() {
        let v = DataProfile::SignedSmall { magnitude: 100 }.generate(17, 4_096);
        assert!(v.iter().any(|&x| (x as i32) < 0));
        assert!(v.iter().any(|&x| (x as i32) > 0));
        assert!(v.iter().all(|&x| (x as i32).abs() <= 100));
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn empty_generation_rejected() {
        let _ = DataProfile::Pixels.generate(0, 0);
    }
}
