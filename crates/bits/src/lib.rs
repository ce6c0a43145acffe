//! Bit-level statistics underpinning the BVF (Bit-Value-Favor) study.
//!
//! Every evaluated quantity in the BVF paper is a statistic over the bits of
//! on-chip data and instruction streams:
//!
//! * **Hamming weight** — the count of 1-bits in a word; the BVF objective
//!   function maximizes it (more 1s → cheaper reads/writes on BVF SRAM).
//! * **Hamming distance** — the number of differing bit positions between two
//!   words; the value-similarity coder minimizes lane-to-pivot distance.
//! * **Toggle counting** — bit transitions between consecutive flits on a NoC
//!   channel; proportional to interconnect dynamic energy.
//! * **Leading-bit profiling** — the `clz`-style narrow-value measurement of
//!   the paper's Fig. 8 (leading 0s for non-negative words, leading 1s for
//!   negative words).
//! * **Bit-position histograms** — per-position 0/1 occurrence probabilities
//!   over instruction binaries, from which the ISA-preference mask is derived.
//! * **Bit-planes** — the 32×32 transpose of a warp's lane words, so that
//!   per-bit-column statistics (and the XNOR coder transforms) run as a few
//!   wide word ops instead of per-value scalar loops.
//!
//! The crate is dependency-light and deterministic so that the statistics it
//! produces are exactly reproducible across runs.
//!
//! # Example
//!
//! ```
//! use bvf_bits::{BitCounts, hamming};
//!
//! let words = [0x0000_00ffu32, 0x0000_0001];
//! let counts = BitCounts::of_words(&words);
//! assert_eq!(counts.ones, 9);
//! assert_eq!(counts.zeros, 55);
//! assert_eq!(hamming::distance_u32(words[0], words[1]), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hamming;
pub mod persist;
pub mod plane;
pub mod position;
pub mod profile;
pub mod stats;
pub mod toggle;
pub mod word;

pub use hamming::{
    distance_to_splat, distance_u32, distance_u64, weight_bytes, weight_u32, weight_u64,
};
pub use plane::{splat_bit, transpose32, BitPlanes};
pub use position::PositionHistogram;
pub use profile::{signed_leading_bits_u32, NarrowValueProfile};
pub use stats::BitCounts;
pub use toggle::{ChannelToggles, ToggleStats};
pub use word::BitWord;
