//! DVFS P-states used by the paper's sensitivity study (§6.2-A).
//!
//! The paper evaluates three voltage/frequency points: 700MHz @ 1.2V,
//! 500MHz @ 0.9V and 300MHz @ 0.6V. [`PState`] bundles a [`Supply`] with a
//! clock frequency and exposes the energy scale factors the power model
//! needs.

use crate::process::Supply;

/// A DVFS operating point: supply voltage plus core clock frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    supply: Supply,
    freq_mhz: f64,
}

impl PState {
    /// 700MHz @ 1.2V — the baseline of Table 3.
    pub const P0: PState = PState {
        supply: Supply::NOMINAL,
        freq_mhz: 700.0,
    };
    /// 500MHz @ 0.9V.
    pub const P1: PState = PState {
        supply: Supply::MID,
        freq_mhz: 500.0,
    };
    /// 300MHz @ 0.6V (near-threshold; 8T designs only).
    pub const P2: PState = PState {
        supply: Supply::NEAR_THRESHOLD,
        freq_mhz: 300.0,
    };

    /// The three P-states of the paper's DVFS study, fastest first.
    pub const ALL: [PState; 3] = [PState::P0, PState::P1, PState::P2];

    /// Supply voltage of this P-state.
    pub fn supply(self) -> Supply {
        self.supply
    }

    /// Clock frequency in MHz.
    pub fn freq_mhz(self) -> f64 {
        self.freq_mhz
    }

    /// Clock frequency in Hz.
    pub fn freq_hz(self) -> f64 {
        self.freq_mhz * 1.0e6
    }

    /// Short name ("P0", "P1", "P2").
    pub fn name(self) -> &'static str {
        if self == PState::P0 {
            "P0"
        } else if self == PState::P1 {
            "P1"
        } else if self == PState::P2 {
            "P2"
        } else {
            "Px"
        }
    }

    /// Dynamic-energy scale relative to P0 (per access; `∝ V²`).
    pub fn dynamic_energy_scale(self) -> f64 {
        self.supply.dynamic_scale() / Supply::NOMINAL.dynamic_scale()
    }

    /// Leakage-*energy* scale relative to P0 for a fixed amount of work.
    ///
    /// Leakage power shrinks with voltage but the run lengthens as the clock
    /// slows, so the energy scale is `leak_power_scale / freq_scale`.
    pub fn leakage_energy_scale(self) -> f64 {
        (self.supply.leakage_scale() / Supply::NOMINAL.leakage_scale())
            / (self.freq_mhz / PState::P0.freq_mhz)
    }
}

impl core::fmt::Display for PState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ({:.0}MHz @ {})",
            self.name(),
            self.freq_mhz,
            self.supply
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p0_is_identity() {
        assert!((PState::P0.dynamic_energy_scale() - 1.0).abs() < 1e-12);
        assert!((PState::P0.leakage_energy_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_pstates_save_dynamic_energy() {
        assert!(PState::P1.dynamic_energy_scale() < 1.0);
        assert!(PState::P2.dynamic_energy_scale() < PState::P1.dynamic_energy_scale());
        // 0.6V vs 1.2V → 4x dynamic saving.
        assert!((PState::P2.dynamic_energy_scale() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn leakage_energy_still_falls_despite_longer_runtime() {
        // Leakage power drops ~24x at 0.6V while runtime grows only 2.33x,
        // so leakage energy per unit of work must fall.
        assert!(PState::P2.leakage_energy_scale() < 1.0);
        assert!(PState::P1.leakage_energy_scale() < 1.0);
    }

    #[test]
    fn display_names() {
        assert!(PState::P0.to_string().contains("700MHz"));
        assert_eq!(PState::ALL.len(), 3);
    }
}
