//! Coder III — ISA Preference (§4.3).
//!
//! Instruction words are dictated by the ISA encoding, so their per-bit
//! 0/1 biases are static — fixed at compile time, independent of runtime
//! context. The ISA coder XNORs every 64-bit instruction with a
//! per-architecture mask whose bit is 1 where the encoding statistically
//! prefers 1 and 0 where it prefers 0, turning the (heavily 0-dominated)
//! instruction stream into a 1-dominated one.
//!
//! Both implementation variants from the paper are supported:
//!
//! * the **static** design — one mask per architecture generation, baked
//!   into the coder at the BVF-space interface ([`IsaCoder::new`] with a
//!   published or derived generation mask);
//! * the **dynamic** design — a per-application mask produced by the
//!   assembler at compile time and loaded into a mask register at kernel
//!   launch ([`IsaCoder::new`] with a per-application mask; the extra mask
//!   register is charged by the overhead model).

/// The ISA-preference coder: XNOR with a fixed 64-bit mask.
///
/// # Example
///
/// ```
/// use bvf_core::IsaCoder;
///
/// let coder = IsaCoder::new(0x4818_0000_0007_0201); // the paper's Pascal mask
/// let instr = 0x0212_3400_0000_8040u64;
/// assert_eq!(coder.decode_instr(coder.encode_instr(instr)), instr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsaCoder {
    mask: u64,
}

impl IsaCoder {
    /// Number of XNOR gates per coded 64-bit instruction word.
    pub const GATES_PER_INSTR: u32 = 64;

    /// Create a coder for the given preference mask.
    pub fn new(mask: u64) -> Self {
        Self { mask }
    }

    /// The mask in use.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Encode one 64-bit instruction: `E = B XNOR M`.
    #[inline]
    pub fn encode_instr(&self, instr: u64) -> u64 {
        !(instr ^ self.mask)
    }

    /// Decode one 64-bit instruction (same gates; XNOR is an involution).
    #[inline]
    pub fn decode_instr(&self, instr: u64) -> u64 {
        self.encode_instr(instr)
    }

    /// Encode a stream of instructions in place.
    pub fn encode_stream(&self, instrs: &mut [u64]) {
        for i in instrs {
            *i = self.encode_instr(*i);
        }
    }

    /// Decode a stream of instructions in place.
    pub fn decode_stream(&self, instrs: &mut [u64]) {
        for i in instrs {
            *i = self.decode_instr(*i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matching_instruction_becomes_all_ones() {
        let mask = 0x4818_0000_0007_0201;
        let coder = IsaCoder::new(mask);
        assert_eq!(coder.encode_instr(mask), u64::MAX);
    }

    #[test]
    fn zero_mask_inverts() {
        let coder = IsaCoder::new(0);
        assert_eq!(coder.encode_instr(0), u64::MAX);
        assert_eq!(coder.encode_instr(u64::MAX), 0);
    }

    #[test]
    fn stream_roundtrip() {
        let coder = IsaCoder::new(0xe080_0000_001c_0012);
        let original: Vec<u64> = (0..100).map(|i| i * 0x0101_0101_0101).collect();
        let mut stream = original.clone();
        coder.encode_stream(&mut stream);
        assert_ne!(stream, original);
        coder.decode_stream(&mut stream);
        assert_eq!(stream, original);
    }

    proptest! {
        #[test]
        fn involution(mask: u64, instr: u64) {
            let coder = IsaCoder::new(mask);
            prop_assert_eq!(coder.encode_instr(coder.encode_instr(instr)), instr);
        }

        #[test]
        fn weight_conserved_pairwise(mask: u64, instr: u64) {
            // XNOR with a mask maps each bit independently; the encoded and
            // re-encoded words always partition 64 bits consistently.
            let coder = IsaCoder::new(mask);
            let e = coder.encode_instr(instr);
            // positions where mask=1 keep their value; mask=0 invert
            let kept = instr & mask;
            prop_assert_eq!(e & mask, kept);
        }
    }
}
