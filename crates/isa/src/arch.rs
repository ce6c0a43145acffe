//! GPU architecture generations and their published ISA-preference masks.
//!
//! NVIDIA's machine ISA changes with every architecture generation, so the
//! bit-position statistics — and therefore the ISA coder mask — are
//! per-generation. Table 2 of the paper lists the masks the authors derived
//! from real binaries; we carry them as reference constants and also derive
//! our own masks from our synthetic encodings (see [`crate::mask`]).

/// A GPU architecture generation with its own 64-bit instruction encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Architecture {
    /// Fermi-like (compute capability 2.0).
    Fermi,
    /// Kepler-like (compute capability 3.7).
    Kepler,
    /// Maxwell-like (compute capability 5.0).
    Maxwell,
    /// Pascal-like (compute capability 6.0) — the paper's default target.
    Pascal,
}

impl Architecture {
    /// All generations, oldest first (Table 2 order).
    pub const ALL: [Architecture; 4] = [
        Architecture::Fermi,
        Architecture::Kepler,
        Architecture::Maxwell,
        Architecture::Pascal,
    ];

    /// Compute-capability label used in the paper's Table 2.
    pub fn compute_capability(self) -> &'static str {
        match self {
            Architecture::Fermi => "2.0",
            Architecture::Kepler => "3.7",
            Architecture::Maxwell => "5.0",
            Architecture::Pascal => "6.0",
        }
    }

    /// The ISA-preference mask published in Table 2 of the paper, derived
    /// by the authors from >130,000 instruction lines of 58 applications.
    pub fn published_mask(self) -> u64 {
        match self {
            Architecture::Fermi => 0x4000_0000_0001_9c03,
            Architecture::Kepler => 0xe080_0000_001c_0012,
            Architecture::Maxwell => 0x4818_0000_0007_0205,
            Architecture::Pascal => 0x4818_0000_0007_0201,
        }
    }
}

impl core::fmt::Display for Architecture {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Architecture::Fermi => "Fermi",
            Architecture::Kepler => "Kepler",
            Architecture::Maxwell => "Maxwell",
            Architecture::Pascal => "Pascal",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_masks_match_table2() {
        assert_eq!(Architecture::Pascal.published_mask(), 0x4818_0000_0007_0201);
        assert_eq!(Architecture::Fermi.published_mask(), 0x4000_0000_0001_9c03);
    }

    #[test]
    fn published_masks_are_mostly_zero() {
        // Fig. 14: "most positions prefer 0" — every published mask has far
        // fewer than 32 set bits.
        for arch in Architecture::ALL {
            assert!(
                arch.published_mask().count_ones() < 16,
                "{arch} mask unexpectedly dense"
            );
        }
    }

    #[test]
    fn masks_differ_across_generations() {
        for (i, a) in Architecture::ALL.iter().enumerate() {
            for b in &Architecture::ALL[i + 1..] {
                assert_ne!(a.published_mask(), b.published_mask());
            }
        }
    }

    #[test]
    fn display_and_cc() {
        assert_eq!(Architecture::Pascal.to_string(), "Pascal");
        assert_eq!(Architecture::Kepler.compute_capability(), "3.7");
    }
}
