//! Value-dependent standby (leakage) power models.
//!
//! §3.1 of the paper reports three leakage facts for the BVF 8T SRAM:
//!
//! 1. storing 1 costs **9.61% less** standby power than storing 0;
//! 2. vs the conventional 8T cell, BVF-8T leaks **0.43% less** when storing
//!    0 and **3.01% less** when storing 1 (one fewer V_dd-connected
//!    precharge leakage path);
//! 3. therefore arrays should be *initialized to all-1s* so first-time
//!    writes and unallocated capacity sit in the cheap state.

use crate::cell::CellKind;
use crate::process::{ProcessNode, Supply};

/// Paper constant: storing 1 leaks 9.61% less than storing 0 (BVF-8T).
pub const BVF_STORE1_SAVING: f64 = 0.0961;
/// Paper constant: BVF-8T storing 0 leaks 0.43% less than conventional 8T.
pub const BVF_VS_CONV_STORE0_SAVING: f64 = 0.0043;
/// Paper constant: BVF-8T storing 1 leaks 3.01% less than conventional 8T.
pub const BVF_VS_CONV_STORE1_SAVING: f64 = 0.0301;

/// Per-bit standby power (nanowatts) for each stored value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakagePower {
    /// Standby power of a cell storing 0.
    pub store0: f64,
    /// Standby power of a cell storing 1.
    pub store1: f64,
}

impl LeakagePower {
    /// Per-bit leakage for `kind` at (`node`, `supply`).
    ///
    /// The 6T cell is taken as the per-transistor-count reference; 8T adds
    /// one-third more devices, and the gain cell has only 3 transistors plus
    /// negligible storage-node leakage (its cost is refresh, not standby).
    ///
    /// # Panics
    ///
    /// Panics if the cell cannot operate at the requested supply.
    pub fn of(kind: CellKind, node: ProcessNode, supply: Supply) -> Self {
        assert!(
            kind.operates_at(supply),
            "{kind} cannot operate at {supply}"
        );
        let base = node.cell_leakage_nw() * supply.leakage_scale();
        match kind {
            CellKind::Sram6T => Self {
                // Symmetric cross-coupled pair: value-independent to first
                // order.
                store0: base,
                store1: base,
            },
            CellKind::ConvSram8T => {
                // 8 devices vs 6, plus the read-buffer stack whose leakage
                // depends weakly on the stored value.
                let store0 = base * 8.0 / 6.0;
                Self {
                    store0,
                    store1: store0 * (1.0 - BVF_STORE1_SAVING) / (1.0 - BVF_VS_CONV_STORE1_SAVING)
                        * (1.0 - BVF_VS_CONV_STORE0_SAVING),
                }
            }
            CellKind::BvfSram8T => {
                let conv = Self::of(CellKind::ConvSram8T, node, supply);
                let store0 = conv.store0 * (1.0 - BVF_VS_CONV_STORE0_SAVING);
                Self {
                    store0,
                    store1: store0 * (1.0 - BVF_STORE1_SAVING),
                }
            }
            CellKind::Edram3T => {
                let store0 = base * 3.0 / 6.0;
                Self {
                    store0,
                    store1: store0 * (1.0 - BVF_STORE1_SAVING),
                }
            }
        }
    }

    /// Standby power of an array holding `ones` 1-bits and `zeros` 0-bits,
    /// in nanowatts.
    pub fn array_power(&self, ones: u64, zeros: u64) -> f64 {
        self.store1 * ones as f64 + self.store0 * zeros as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bvf_store1_saves_9_61_percent() {
        let l = LeakagePower::of(CellKind::BvfSram8T, ProcessNode::N28, Supply::NOMINAL);
        let saving = 1.0 - l.store1 / l.store0;
        assert!((saving - BVF_STORE1_SAVING).abs() < 1e-9, "got {saving}");
    }

    #[test]
    fn bvf_vs_conventional_8t_matches_paper() {
        for node in ProcessNode::ALL {
            let conv = LeakagePower::of(CellKind::ConvSram8T, node, Supply::NOMINAL);
            let bvf = LeakagePower::of(CellKind::BvfSram8T, node, Supply::NOMINAL);
            let s0 = 1.0 - bvf.store0 / conv.store0;
            let s1 = 1.0 - bvf.store1 / conv.store1;
            assert!(
                (s0 - BVF_VS_CONV_STORE0_SAVING).abs() < 1e-6,
                "store0: {s0}"
            );
            assert!(
                (s1 - BVF_VS_CONV_STORE1_SAVING).abs() < 1e-6,
                "store1: {s1}"
            );
        }
    }

    #[test]
    fn six_t_is_value_independent() {
        let l = LeakagePower::of(CellKind::Sram6T, ProcessNode::N40, Supply::NOMINAL);
        assert_eq!(l.store0, l.store1);
    }

    #[test]
    fn eight_t_leaks_more_than_six_t() {
        let l6 = LeakagePower::of(CellKind::Sram6T, ProcessNode::N28, Supply::NOMINAL);
        let l8 = LeakagePower::of(CellKind::ConvSram8T, ProcessNode::N28, Supply::NOMINAL);
        assert!(l8.store0 > l6.store0);
    }

    #[test]
    fn voltage_scaling_reduces_leakage_superlinearly() {
        let hi = LeakagePower::of(CellKind::BvfSram8T, ProcessNode::N28, Supply::NOMINAL);
        let lo = LeakagePower::of(
            CellKind::BvfSram8T,
            ProcessNode::N28,
            Supply::NEAR_THRESHOLD,
        );
        let ratio = hi.store0 / lo.store0;
        // Halving voltage should cut leakage far more than 2x.
        assert!(ratio > 10.0, "got {ratio}");
    }

    #[test]
    fn array_power_is_linear() {
        let l = LeakagePower::of(CellKind::BvfSram8T, ProcessNode::N28, Supply::NOMINAL);
        let p = l.array_power(100, 50);
        assert!((p - (100.0 * l.store1 + 50.0 * l.store0)).abs() < 1e-9);
    }

    #[test]
    fn all_ones_array_is_cheapest() {
        let l = LeakagePower::of(CellKind::BvfSram8T, ProcessNode::N40, Supply::NOMINAL);
        let total = 1 << 20;
        assert!(l.array_power(total, 0) < l.array_power(0, total));
        assert!(l.array_power(total, 0) < l.array_power(total / 2, total / 2));
    }
}
