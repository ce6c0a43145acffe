//! Per-bit, value-dependent access energies for the four memory cell kinds.
//!
//! The energy of one bit access is dominated by the charge moved on the
//! bitline(s): `E = C_bl · V_dd · ΔV`, with full-swing discharges costing
//! `C_bl · V_dd²`. What differs between the cells is *which* bitlines swing
//! for which data values:
//!
//! | cell       | read 0        | read 1        | write 0       | write 1       |
//! |------------|---------------|---------------|---------------|---------------|
//! | 6T         | 1 BL swings   | 1 BL swings   | 1 BL swings   | 1 BL swings   |
//! | conv. 8T   | RBL swings    | RBL held      | 1 WBL swings  | 1 WBL swings  |
//! | BVF 8T     | RBL swings    | RBL held      | 2 WBL swing   | none swings   |
//! | eDRAM 3T   | RBL swings    | RBL held      | WBL swings    | WBL held      |

use crate::process::{ProcessNode, Supply};

/// Fraction of a full bitline swing consumed when the bitline is *held*
/// (precharge keeper ripple, sense-amp evaluation, partial droop).
const HELD_BITLINE_FRACTION: f64 = 0.05;

/// Extra swing fraction on a BVF-8T write miss beyond the two full bitline
/// swings already counted (driver crowbar while overpowering the speculative
/// precharge). Keeps write-0 ≈ 2x a conventional write, matching §3.1.
const BVF_WRITE_MISS_CROWBAR: f64 = 0.08;

/// The memory cell designs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Conventional differential 6T SRAM.
    Sram6T,
    /// Conventional 8T SRAM (decoupled 2T read port, differential write).
    ConvSram8T,
    /// The paper's BVF 8T SRAM (asymmetric precharge on the write port).
    BvfSram8T,
    /// 3T PMOS gain-cell embedded DRAM (§7.2).
    Edram3T,
}

impl CellKind {
    /// All cell kinds, 6T first as the reference design.
    pub const ALL: [CellKind; 4] = [
        CellKind::Sram6T,
        CellKind::ConvSram8T,
        CellKind::BvfSram8T,
        CellKind::Edram3T,
    ];

    /// Can the cell operate at the given supply? 6T fails below ~0.9V.
    pub fn operates_at(self, supply: Supply) -> bool {
        match self {
            CellKind::Sram6T => supply.supports_6t(),
            _ => true,
        }
    }
}

impl core::fmt::Display for CellKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CellKind::Sram6T => "6T",
            CellKind::ConvSram8T => "Conv-8T",
            CellKind::BvfSram8T => "BVF-8T",
            CellKind::Edram3T => "eDRAM-3T",
        };
        f.write_str(s)
    }
}

/// Per-bit access energies (femtojoules) for one cell kind at one operating
/// point, for a given column height (cells sharing a bitline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessEnergy {
    /// Energy to read a stored 0.
    pub read0: f64,
    /// Energy to read a stored 1.
    pub read1: f64,
    /// Energy to write a 0.
    pub write0: f64,
    /// Energy to write a 1.
    pub write1: f64,
}

impl AccessEnergy {
    /// Compute the per-bit access energies for `kind` at (`node`, `supply`)
    /// with `cells_per_bitline` cells sharing each bitline (the paper's
    /// Fig. 5/6 use "Set=32").
    ///
    /// # Panics
    ///
    /// Panics if `cells_per_bitline` is zero, or if the cell cannot operate
    /// at the requested supply (6T below 0.9V).
    pub fn of(kind: CellKind, node: ProcessNode, supply: Supply, cells_per_bitline: u32) -> Self {
        assert!(cells_per_bitline > 0, "bitline must host at least one cell");
        assert!(
            kind.operates_at(supply),
            "{kind} cannot operate at {supply}"
        );
        let c_bl = node.bitline_cap_per_cell_ff() * f64::from(cells_per_bitline)
            + node.bitline_fixed_cap_ff();
        // Full-swing bitline energy in fJ: C[fF] * V².
        let full = c_bl * supply.volts() * supply.volts();
        let held = full * HELD_BITLINE_FRACTION;

        match kind {
            CellKind::Sram6T => Self {
                // Differential pair: exactly one bitline discharges on every
                // access regardless of the value.
                read0: full,
                read1: full,
                write0: full,
                write1: full,
            },
            CellKind::ConvSram8T => Self {
                read0: full,
                read1: held,
                // Differential write port, PMOS precharge on both: one side
                // discharges either way.
                write0: full,
                write1: full,
            },
            CellKind::BvfSram8T => Self {
                read0: full,
                read1: held,
                // Speculative precharge (WBL→Vdd, ~WBL→gnd): a miss swings
                // both bitlines plus crowbar; a hit swings neither.
                write0: 2.0 * full * (1.0 + BVF_WRITE_MISS_CROWBAR),
                write1: held,
            },
            CellKind::Edram3T => Self {
                read0: full,
                read1: held,
                // Single-ended write: WBL precharged to Vdd; writing 0
                // discharges it, writing 1 keeps it.
                write0: full,
                write1: held,
            },
        }
    }

    /// Mean of the 0/1 read energies — the "Avg" bar of Fig. 5/6 (the
    /// conventional simulator assumption of value-independent energy).
    pub fn read_avg(&self) -> f64 {
        0.5 * (self.read0 + self.read1)
    }

    /// Mean of the 0/1 write energies.
    pub fn write_avg(&self) -> f64 {
        0.5 * (self.write0 + self.write1)
    }

    /// Energy to read a word with `ones` 1-bits and `zeros` 0-bits.
    pub fn read_word(&self, ones: u64, zeros: u64) -> f64 {
        self.read1 * ones as f64 + self.read0 * zeros as f64
    }

    /// Energy to write a word with `ones` 1-bits and `zeros` 0-bits.
    pub fn write_word(&self, ones: u64, zeros: u64) -> f64 {
        self.write1 * ones as f64 + self.write0 * zeros as f64
    }

    /// Refresh energy per bit for a given value (dummy read + write-back,
    /// meaningful for eDRAM; for SRAM it is never invoked but well-defined).
    pub fn refresh(&self, bit: bool) -> f64 {
        if bit {
            self.read1 + self.write1
        } else {
            self.read0 + self.write0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_points() -> Vec<(CellKind, ProcessNode, Supply)> {
        let mut v = Vec::new();
        for kind in CellKind::ALL {
            for node in ProcessNode::ALL {
                for supply in [Supply::NOMINAL, Supply::MID, Supply::NEAR_THRESHOLD] {
                    if kind.operates_at(supply) {
                        v.push((kind, node, supply));
                    }
                }
            }
        }
        v
    }

    #[test]
    fn six_t_is_symmetric_everywhere() {
        for node in ProcessNode::ALL {
            let e = AccessEnergy::of(CellKind::Sram6T, node, Supply::NOMINAL, 32);
            assert_eq!(e.read0, e.read1);
            assert_eq!(e.write0, e.write1);
        }
    }

    #[test]
    fn conv8t_favors_read_but_not_write() {
        let e = AccessEnergy::of(CellKind::ConvSram8T, ProcessNode::N40, Supply::NOMINAL, 32);
        assert!(e.read1 < e.read0);
        assert_eq!(e.write0, e.write1);
    }

    #[test]
    fn bvf8t_write_miss_costs_about_double() {
        for node in ProcessNode::ALL {
            let bvf = AccessEnergy::of(CellKind::BvfSram8T, node, Supply::NOMINAL, 32);
            let conv = AccessEnergy::of(CellKind::ConvSram8T, node, Supply::NOMINAL, 32);
            let ratio = bvf.write0 / conv.write0;
            assert!(
                (1.9..=2.3).contains(&ratio),
                "write-miss ratio {ratio} out of the ~2x band"
            );
            assert!(bvf.write1 < 0.2 * conv.write1);
        }
    }

    #[test]
    fn asymmetry_consistent_across_voltage_and_node() {
        // The paper stresses the read/write-1 benefit is consistent across
        // 28/40nm and 1.2V..0.6V.
        for node in ProcessNode::ALL {
            for supply in [Supply::NOMINAL, Supply::NEAR_THRESHOLD] {
                let e = AccessEnergy::of(CellKind::BvfSram8T, node, supply, 32);
                assert!(e.read1 < 0.2 * e.read0);
                assert!(e.write1 < 0.1 * e.write0);
            }
        }
    }

    #[test]
    fn voltage_scaling_is_quadratic() {
        let hi = AccessEnergy::of(CellKind::BvfSram8T, ProcessNode::N28, Supply::NOMINAL, 32);
        let lo = AccessEnergy::of(
            CellKind::BvfSram8T,
            ProcessNode::N28,
            Supply::NEAR_THRESHOLD,
            32,
        );
        let expected = (0.6f64 / 1.2).powi(2);
        assert!((lo.read0 / hi.read0 - expected).abs() < 1e-9);
    }

    #[test]
    fn longer_bitlines_cost_more() {
        let short = AccessEnergy::of(CellKind::ConvSram8T, ProcessNode::N28, Supply::NOMINAL, 16);
        let long = AccessEnergy::of(CellKind::ConvSram8T, ProcessNode::N28, Supply::NOMINAL, 256);
        assert!(long.read0 > short.read0);
    }

    #[test]
    fn all_energies_positive() {
        for (kind, node, supply) in all_points() {
            let e = AccessEnergy::of(kind, node, supply, 32);
            for v in [e.read0, e.read1, e.write0, e.write1] {
                assert!(v > 0.0, "{kind} {node} {supply}: non-positive energy");
            }
        }
    }

    #[test]
    fn word_energy_is_linear() {
        let e = AccessEnergy::of(CellKind::BvfSram8T, ProcessNode::N28, Supply::NOMINAL, 32);
        assert!((e.read_word(32, 0) - 32.0 * e.read1).abs() < 1e-9);
        assert!((e.write_word(10, 22) - (10.0 * e.write1 + 22.0 * e.write0)).abs() < 1e-9);
    }

    #[test]
    fn edram_favors_one_on_read_write_refresh() {
        let e = AccessEnergy::of(CellKind::Edram3T, ProcessNode::N28, Supply::NOMINAL, 32);
        assert!(e.read1 < e.read0);
        assert!(e.write1 < e.write0);
        assert!(e.refresh(true) < e.refresh(false));
    }

    #[test]
    #[should_panic(expected = "cannot operate")]
    fn six_t_rejects_near_threshold() {
        let _ = AccessEnergy::of(
            CellKind::Sram6T,
            ProcessNode::N28,
            Supply::NEAR_THRESHOLD,
            32,
        );
    }
}
