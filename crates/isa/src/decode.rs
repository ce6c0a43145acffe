//! Instruction-word decoding: recover the architectural fields from a
//! 64-bit encoded instruction.
//!
//! The decoder exists for debugging, trace inspection and tests — the
//! simulator executes the structured IR directly. Each generation's field
//! layout (documented in [`crate::encode`]) is inverted exactly; the only
//! lossy parts are inherent to the encodings themselves (operand fields are
//! 18 bits wide, wide immediates spill one shared high half, and Fermi
//! truncates the `c` operand to 12 bits).

use crate::arch::Architecture;

/// A decoded operand field: kind tag plus 16-bit payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldOperand {
    /// Register index.
    Reg(u8),
    /// Low 16 bits of an immediate.
    Imm(u16),
    /// Special-value selector.
    Special(u8),
    /// Reserved/unknown kind tag.
    Unknown,
}

impl FieldOperand {
    fn from_raw(raw: u32) -> Self {
        let payload = (raw & 0xffff) as u16;
        match raw >> 16 & 0x3 {
            0 => FieldOperand::Reg(payload as u8),
            1 => FieldOperand::Imm(payload),
            2 => FieldOperand::Special(payload as u8),
            _ => FieldOperand::Unknown,
        }
    }
}

/// The architectural fields recovered from one instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Numeric opcode (see `crate::encode`'s opcode table).
    pub opcode: u8,
    /// Destination register.
    pub dst: u8,
    /// First source operand.
    pub a: FieldOperand,
    /// Second source operand.
    pub b: FieldOperand,
    /// Memory-space/buffer field (0 for non-memory ops).
    pub space: u8,
}

/// Decode an instruction word encoded for `arch`.
///
/// # Example
///
/// ```
/// use bvf_isa::ir::{Instr, Op, Operand};
/// use bvf_isa::{decode_instruction, encode_instruction, Architecture};
/// use bvf_isa::decode::FieldOperand;
///
/// let i = Instr::new(Op::IAdd, 3, Operand::Reg(1), Operand::Imm(40));
/// let w = encode_instruction(&i, Architecture::Pascal);
/// let d = decode_instruction(w, Architecture::Pascal);
/// assert_eq!(d.dst, 3);
/// assert_eq!(d.a, FieldOperand::Reg(1));
/// assert_eq!(d.b, FieldOperand::Imm(40));
/// ```
pub fn decode_instruction(word: u64, arch: Architecture) -> Decoded {
    match arch {
        Architecture::Fermi => Decoded {
            opcode: (word >> 58) as u8,
            dst: (word >> 52 & 0x3f) as u8,
            a: FieldOperand::from_raw((word >> 34 & 0x3ffff) as u32),
            b: FieldOperand::from_raw((word >> 16 & 0x3ffff) as u32),
            space: (word >> 12 & 0xf) as u8,
        },
        Architecture::Kepler => {
            let top = (word >> 56) as u8;
            Decoded {
                opcode: top & 0x3f,
                dst: (word >> 13 & 0x3f) as u8,
                a: FieldOperand::from_raw((word >> 19 & 0x3ffff) as u32),
                b: FieldOperand::from_raw((word >> 37 & 0x3ffff) as u32),
                space: top >> 6 & 0x3,
            }
        }
        Architecture::Maxwell => Decoded {
            opcode: (word >> 56) as u8,
            dst: (word >> 6 & 0x3f) as u8,
            a: FieldOperand::from_raw((word >> 30 & 0x3ffff) as u32),
            b: FieldOperand::from_raw((word >> 12 & 0x3ffff) as u32),
            space: (word & 0x3f) as u8,
        },
        Architecture::Pascal => Decoded {
            opcode: (word >> 56) as u8,
            dst: (word >> 6 & 0x3f) as u8,
            a: FieldOperand::from_raw((word >> 30 & 0x3ffff) as u32),
            b: FieldOperand::from_raw((word >> 12 & 0x3ffff) as u32),
            space: (word >> 2 & 0xf) as u8,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_instruction;
    use crate::ir::{BufferId, Instr, Op, Operand, Special};
    use proptest::prelude::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Mov,
            Op::IAdd,
            Op::IMul,
            Op::FFma,
            Op::Shl,
            Op::Clz,
            Op::LdGlobal(BufferId(3)),
            Op::StGlobal(BufferId(7)),
            Op::LdShared,
            Op::Bar,
        ]
    }

    #[test]
    fn dst_and_operands_roundtrip_everywhere() {
        for arch in Architecture::ALL {
            for op in sample_ops() {
                let i = Instr::new(op, 17, Operand::Reg(5), Operand::Imm(1234));
                let d = decode_instruction(encode_instruction(&i, arch), arch);
                assert_eq!(d.dst, 17, "{arch}: dst");
                assert_eq!(d.a, FieldOperand::Reg(5), "{arch}: a");
                assert_eq!(d.b, FieldOperand::Imm(1234), "{arch}: b");
            }
        }
    }

    #[test]
    fn special_operands_decode() {
        for arch in Architecture::ALL {
            let i = Instr::new(
                Op::Mov,
                0,
                Operand::Special(Special::GlobalTid),
                Operand::Imm(0),
            );
            let d = decode_instruction(encode_instruction(&i, arch), arch);
            assert_eq!(d.a, FieldOperand::Special(Special::GlobalTid as u8));
        }
    }

    #[test]
    fn memory_space_decodes_on_non_fermi() {
        // Fermi truncates c to 12 bits but keeps space at [15:12]; all
        // layouts carry 4 bits of buffer id (Kepler carries 2).
        for arch in [
            Architecture::Fermi,
            Architecture::Maxwell,
            Architecture::Pascal,
        ] {
            let i = Instr::new(
                Op::LdGlobal(BufferId(5)),
                1,
                Operand::Reg(0),
                Operand::Imm(0),
            );
            let d = decode_instruction(encode_instruction(&i, arch), arch);
            assert_eq!(d.space & 0x7, 5, "{arch}");
        }
    }

    #[test]
    fn opcodes_distinguish_instructions() {
        for arch in Architecture::ALL {
            let add = Instr::new(Op::IAdd, 0, Operand::Reg(0), Operand::Reg(1));
            let sub = Instr::new(Op::ISub, 0, Operand::Reg(0), Operand::Reg(1));
            let da = decode_instruction(encode_instruction(&add, arch), arch);
            let ds = decode_instruction(encode_instruction(&sub, arch), arch);
            assert_ne!(da.opcode & 0x3f, ds.opcode & 0x3f, "{arch}");
        }
    }

    proptest! {
        #[test]
        fn register_fields_always_roundtrip(
            dst in 0u8..64,
            ra in 0u8..64,
            rb in 0u8..64,
        ) {
            for arch in Architecture::ALL {
                let i = Instr::new(Op::Xor, dst, Operand::Reg(ra), Operand::Reg(rb));
                let d = decode_instruction(encode_instruction(&i, arch), arch);
                prop_assert_eq!(d.dst, dst);
                prop_assert_eq!(d.a, FieldOperand::Reg(ra));
                prop_assert_eq!(d.b, FieldOperand::Reg(rb));
            }
        }

        #[test]
        fn short_immediates_roundtrip(imm in 0u32..0x10000) {
            for arch in Architecture::ALL {
                let i = Instr::new(Op::IAdd, 1, Operand::Reg(2), Operand::Imm(imm));
                let d = decode_instruction(encode_instruction(&i, arch), arch);
                prop_assert_eq!(d.b, FieldOperand::Imm(imm as u16));
            }
        }
    }
}
