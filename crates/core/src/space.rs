//! BVF spaces: which on-chip units each coder covers (Table 1).
//!
//! A BVF space is a set of physical units (SRAM structures plus the
//! interconnect between them) sharing one coding format. Data crossing the
//! space boundary is encoded/decoded at the ports; inside the space it flows
//! without extra bit-lines or metadata. Two rules (§3.3):
//!
//! 1. every port of a space uses the same encoder/decoder pair;
//! 2. overlapping spaces must not disturb each other's decodability — which
//!    holds here because all three coders are bitwise XNORs with references
//!    that survive composition (see the `composition_*` tests).

/// On-chip hardware units that can belong to a BVF space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Unit {
    /// Register files.
    Reg,
    /// Shared (scratchpad) memory.
    Sme,
    /// L1 data cache.
    L1d,
    /// L1 texture cache.
    L1t,
    /// L1 constant cache.
    L1c,
    /// L1 instruction cache.
    L1i,
    /// Instruction fetch buffer.
    Ifb,
    /// Network-on-chip between SMs and L2 banks.
    Noc,
    /// Unified L2 cache.
    L2,
}

impl Unit {
    /// Every unit, in the paper's presentation order.
    pub const ALL: [Unit; 9] = [
        Unit::Reg,
        Unit::Sme,
        Unit::L1d,
        Unit::L1t,
        Unit::L1c,
        Unit::L1i,
        Unit::Ifb,
        Unit::Noc,
        Unit::L2,
    ];

    /// Does this unit carry the instruction stream (rather than data)?
    pub fn is_instruction_side(self) -> bool {
        matches!(self, Unit::L1i | Unit::Ifb)
    }
}

impl core::fmt::Display for Unit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Unit::Reg => "REG",
            Unit::Sme => "SME",
            Unit::L1d => "L1D",
            Unit::L1t => "L1T",
            Unit::L1c => "L1C",
            Unit::L1i => "L1I",
            Unit::Ifb => "IFB",
            Unit::Noc => "NoC",
            Unit::L2 => "L2",
        };
        f.write_str(s)
    }
}

/// The three coder families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoderKind {
    /// Narrow-value coder (§4.1).
    Nv,
    /// Value-similarity coder (§4.2).
    Vs,
    /// ISA-preference coder (§4.3).
    Isa,
}

impl CoderKind {
    /// All coder kinds in Table 1 order.
    pub const ALL: [CoderKind; 3] = [CoderKind::Nv, CoderKind::Vs, CoderKind::Isa];

    /// Short name used in tables ("NV", "VS", "ISA").
    pub fn abbr(self) -> &'static str {
        match self {
            CoderKind::Nv => "NV",
            CoderKind::Vs => "VS",
            CoderKind::Isa => "ISA",
        }
    }
}

impl core::fmt::Display for CoderKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.abbr())
    }
}

/// A BVF space: a coder kind plus the units it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BvfSpace {
    /// The coder applied at this space's ports.
    pub coder: CoderKind,
    /// The covered units.
    pub units: Vec<Unit>,
}

impl BvfSpace {
    /// The paper's Table 1 space for a coder kind:
    ///
    /// | coder | space |
    /// |-------|-------|
    /// | NV    | REG, SME, L1D, L1T, L1C, NoC, L2 |
    /// | VS    | REG, L1D, L1T, L1C, NoC, L2 (no SME — §4.2.2-C) |
    /// | ISA   | IFB, L1I, NoC, L2 |
    pub fn table1(coder: CoderKind) -> Self {
        let units = match coder {
            CoderKind::Nv => vec![
                Unit::Reg,
                Unit::Sme,
                Unit::L1d,
                Unit::L1t,
                Unit::L1c,
                Unit::Noc,
                Unit::L2,
            ],
            CoderKind::Vs => vec![
                Unit::Reg,
                Unit::L1d,
                Unit::L1t,
                Unit::L1c,
                Unit::Noc,
                Unit::L2,
            ],
            CoderKind::Isa => vec![Unit::Ifb, Unit::L1i, Unit::Noc, Unit::L2],
        };
        Self { coder, units }
    }

    /// All three Table 1 spaces.
    pub fn all_table1() -> Vec<Self> {
        CoderKind::ALL.iter().map(|&c| Self::table1(c)).collect()
    }

    /// Does the space cover `unit`?
    pub fn covers(&self, unit: Unit) -> bool {
        self.units.contains(&unit)
    }
}

/// The coders that apply to a given unit's *data* or *instruction* payloads
/// under the full Table 1 configuration. For shared units (NoC, L2), data
/// payloads get NV+VS and instruction payloads get ISA — the streams are
/// distinguished by what they carry, not by extra metadata.
pub fn coders_for(unit: Unit, instruction_payload: bool) -> Vec<CoderKind> {
    BvfSpace::all_table1()
        .into_iter()
        .filter(|s| s.covers(unit))
        .map(|s| s.coder)
        .filter(|&c| {
            if instruction_payload {
                c == CoderKind::Isa
            } else {
                c != CoderKind::Isa
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coder, IsaCoder, NvCoder, VsCoder};

    #[test]
    fn table1_matches_paper() {
        let nv = BvfSpace::table1(CoderKind::Nv);
        assert!(nv.covers(Unit::Sme));
        assert!(!nv.covers(Unit::L1i));
        assert!(!nv.covers(Unit::Ifb));

        let vs = BvfSpace::table1(CoderKind::Vs);
        assert!(!vs.covers(Unit::Sme), "VS must exclude shared memory");
        assert!(vs.covers(Unit::Reg));

        let isa = BvfSpace::table1(CoderKind::Isa);
        assert_eq!(isa.units, vec![Unit::Ifb, Unit::L1i, Unit::Noc, Unit::L2]);
    }

    #[test]
    fn data_units_get_nv_and_vs() {
        assert_eq!(
            coders_for(Unit::Reg, false),
            vec![CoderKind::Nv, CoderKind::Vs]
        );
        assert_eq!(coders_for(Unit::Sme, false), vec![CoderKind::Nv]);
        assert_eq!(coders_for(Unit::L1i, true), vec![CoderKind::Isa]);
        // L2 carries both streams; each sees only its own coders.
        assert_eq!(
            coders_for(Unit::L2, false),
            vec![CoderKind::Nv, CoderKind::Vs]
        );
        assert_eq!(coders_for(Unit::L2, true), vec![CoderKind::Isa]);
    }

    #[test]
    fn composition_nv_then_vs_is_invertible() {
        // Property II of §3.3: overlapping spaces must reconstruct exactly.
        // Apply NV per word, then VS over the block; invert in reverse order.
        let nv = NvCoder;
        let vs = VsCoder::for_cache_lines();
        let original: Vec<u32> = (0..32).map(|i| i * 31 + 5).collect();
        let mut data = original.clone();
        nv.encode_words(&mut data);
        vs.encode_block(&mut data);
        vs.decode_block(&mut data);
        nv.decode_words(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn composition_isa_is_independent_of_data_coders() {
        // Instruction words through NoC/L2 only ever see the ISA coder.
        let isa = IsaCoder::new(0x4818_0000_0007_0201);
        let instr = 0x0123_4567_89ab_cdefu64;
        assert_eq!(isa.decode_instr(isa.encode_instr(instr)), instr);
    }

    #[test]
    fn unit_display_is_stable() {
        let names: Vec<String> = Unit::ALL.iter().map(|u| u.to_string()).collect();
        assert_eq!(
            names,
            ["REG", "SME", "L1D", "L1T", "L1C", "L1I", "IFB", "NoC", "L2"]
        );
    }

    #[test]
    fn instruction_side_classification() {
        assert!(Unit::L1i.is_instruction_side());
        assert!(Unit::Ifb.is_instruction_side());
        assert!(!Unit::L2.is_instruction_side());
    }
}
