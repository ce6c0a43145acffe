//! The BVF paper's architectural contribution: three invertible XNOR-based
//! coders and the BVF-space rules that govern where they apply.
//!
//! A *BVF space* (§3.3) is a region of on-chip storage and interconnect
//! built from BVF memory (cells that prefer bit-1) sharing one coding
//! format. The *BVF optimization* is a transformation `f: B → E` that
//! maximizes `Σ eᵢ` — the Hamming weight of the encoded stream — subject to
//! invertibility (`f⁻¹(f(B)) = B`). The paper instantiates three such
//! transformations, all built from a single XNOR gate per bit:
//!
//! * [`NvCoder`] — **narrow value** (§4.1): XNOR every bit of a data word
//!   with its leading (sign) bit. Positive words, whose ~9 leading bits and
//!   0-heavy payloads dominate GPU data, flip to mostly-1; negative words
//!   pass through unchanged.
//! * [`VsCoder`] — **value similarity** (§4.2): XNOR every non-pivot warp
//!   lane (or cache-line element) with a pivot. Bits matching the pivot —
//!   the common case given inter-lane similarity — become 1. The pivot
//!   defaults to **lane 21**, the empirically best choice across the 58
//!   profiled applications (Fig. 11).
//! * [`IsaCoder`] — **ISA preference** (§4.3): XNOR each 64-bit instruction
//!   with a per-architecture majority mask so the 0-dominated encoding
//!   becomes 1-dominated.
//!
//! Because XNOR with a fixed reference is an involution, every coder is its
//! own inverse — decoders are the same hardware as encoders, and a shared
//! R/W port needs only one coder instance.
//!
//! # Example
//!
//! ```
//! use bvf_core::{Coder, NvCoder, VsCoder};
//!
//! let nv = NvCoder;
//! assert_eq!(nv.decode_u32(nv.encode_u32(0x0000_002a)), 0x0000_002a);
//!
//! // A warp of similar values encodes to mostly-1s.
//! let vs = VsCoder::for_registers();
//! let mut lanes = [0x1000_0040u32; 32];
//! lanes[3] = 0x1000_0041;
//! vs.encode_warp(&mut lanes);
//! assert_eq!(lanes[21], 0x1000_0040);      // pivot is stored verbatim
//! assert_eq!(lanes[0], u32::MAX);          // identical lane → all ones
//! assert_eq!(lanes[3], u32::MAX - 1);      // 1-bit difference → one zero
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus_invert;
pub mod coder;
pub mod divergence;
pub mod isa_coder;
pub mod nv;
pub mod overhead;
pub mod persist;
pub mod space;
pub mod vs;

pub use bus_invert::BusInvertChannel;
pub use coder::Coder;
pub use divergence::DivergencePolicy;
pub use isa_coder::IsaCoder;
pub use nv::NvCoder;
pub use overhead::{CoderOverhead, PAPER_TOTAL_XNOR_GATES};
pub use space::{coders_for, BvfSpace, CoderKind, Unit};
pub use vs::{lane_hamming_profile, optimal_pivot, VsCoder, PAPER_PIVOT_LANE, WARP_LANES};
