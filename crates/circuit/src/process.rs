//! Process-technology and supply-voltage parameters.
//!
//! The paper evaluates two commercial CMOS nodes (28nm and 40nm) at supply
//! voltages from the nominal 1.2V down to the near-threshold 0.6V (the 8T
//! designs only — 6T fails below ~0.9V per §2.1). Parameters here are
//! representative planar-CMOS values; only the relative relationships matter
//! for reproducing the paper's normalized results.

/// A CMOS process technology node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessNode {
    /// 28nm planar CMOS.
    N28,
    /// 40nm planar CMOS.
    N40,
}

impl ProcessNode {
    /// Both evaluated nodes, in the order the paper presents them.
    pub const ALL: [ProcessNode; 2] = [ProcessNode::N28, ProcessNode::N40];

    /// Feature size in nanometres.
    pub fn nanometres(self) -> u32 {
        match self {
            ProcessNode::N28 => 28,
            ProcessNode::N40 => 40,
        }
    }

    /// Per-cell bitline capacitance contribution in femtofarads (drain
    /// junction + wire per cell pitch). Larger geometry → more capacitance.
    pub fn bitline_cap_per_cell_ff(self) -> f64 {
        match self {
            ProcessNode::N28 => 0.080,
            ProcessNode::N40 => 0.115,
        }
    }

    /// Fixed bitline overhead (sense amp input, precharge devices, column
    /// mux) in femtofarads.
    pub fn bitline_fixed_cap_ff(self) -> f64 {
        match self {
            ProcessNode::N28 => 0.55,
            ProcessNode::N40 => 0.80,
        }
    }

    /// Wordline + decoder energy overhead per accessed word, in femtojoules
    /// at 1.0V (scaled quadratically with the supply by callers).
    pub fn wordline_energy_fj_at_1v(self) -> f64 {
        match self {
            ProcessNode::N28 => 1.9,
            ProcessNode::N40 => 2.8,
        }
    }

    /// Reference per-cell leakage power in nanowatts at nominal voltage for
    /// a conventional 6T cell storing 0.
    ///
    /// Calibrated (together with the non-BVF constants in `bvf-power`) to
    /// the activity level of the trace simulator — one warp instruction per
    /// SM per cycle — so that SRAM standby energy lands at the published
    /// ~20-30% share of SRAM energy. See `DESIGN.md` §5.
    pub fn cell_leakage_nw(self) -> f64 {
        match self {
            // Smaller node leaks more per transistor at the same V_dd.
            ProcessNode::N28 => 0.24,
            ProcessNode::N40 => 0.17,
        }
    }

    /// Energy of one XNOR gate evaluation in femtojoules at nominal voltage
    /// (used by the coder overhead model, §6.3).
    pub fn xnor_energy_fj(self) -> f64 {
        match self {
            ProcessNode::N28 => 0.35,
            ProcessNode::N40 => 0.52,
        }
    }

    /// Area of one XNOR gate in square micrometres (§6.3 reports a total
    /// coder area of 0.207mm²/0.294mm² for 133,920 gates including wiring).
    pub fn xnor_area_um2(self) -> f64 {
        match self {
            ProcessNode::N28 => 1.55,
            ProcessNode::N40 => 2.20,
        }
    }
}

impl core::fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}nm", self.nanometres())
    }
}

/// A supply-voltage operating point.
///
/// Voltage is the dominant knob for CMOS energy: dynamic energy scales with
/// `V_dd²` and leakage roughly with `V_dd · exp(V_dd)` in the short-channel
/// regime (we use a calibrated polynomial surrogate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supply {
    volts: f64,
}

impl Supply {
    /// The nominal 1.2V supply used for Fig. 5/6 and the main evaluation.
    pub const NOMINAL: Supply = Supply { volts: 1.2 };
    /// The 0.9V mid P-state of the DVFS study.
    pub const MID: Supply = Supply { volts: 0.9 };
    /// The near-threshold 0.6V point (8T only; 6T cannot operate).
    pub const NEAR_THRESHOLD: Supply = Supply { volts: 0.6 };

    /// Create a supply at `volts`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.3 <= volts <= 1.5` (outside the modeled regime).
    pub fn new(volts: f64) -> Self {
        assert!(
            (0.3..=1.5).contains(&volts),
            "supply {volts}V outside the modeled 0.3-1.5V range"
        );
        Self { volts }
    }

    /// Supply voltage in volts.
    pub fn volts(self) -> f64 {
        self.volts
    }

    /// Dynamic-energy scale factor relative to 1.0V: `V²`.
    pub fn dynamic_scale(self) -> f64 {
        self.volts * self.volts
    }

    /// Leakage-power scale factor relative to the nominal 1.2V point.
    ///
    /// Short-channel leakage falls super-linearly with voltage (DIBL); the
    /// paper cites >60x leakage reduction for a 1.2V→0.41V scaling. We use
    /// `(V/1.2)^4.6`, which gives ~61x at 0.41V and ~24x at 0.6V.
    pub fn leakage_scale(self) -> f64 {
        (self.volts / 1.2).powf(4.6)
    }

    /// Whether a 6T cell can operate reliably at this supply (6T read
    /// stability collapses below ~0.9V, §2.1/§2.2).
    pub fn supports_6t(self) -> bool {
        self.volts >= 0.9
    }
}

impl core::fmt::Display for Supply {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.2}V", self.volts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_parameters_scale_with_geometry() {
        let n28 = ProcessNode::N28;
        let n40 = ProcessNode::N40;
        assert!(n40.bitline_cap_per_cell_ff() > n28.bitline_cap_per_cell_ff());
        assert!(n40.wordline_energy_fj_at_1v() > n28.wordline_energy_fj_at_1v());
        assert!(n40.xnor_energy_fj() > n28.xnor_energy_fj());
        // Leakage per cell goes the other way: finer node leaks more.
        assert!(n28.cell_leakage_nw() > n40.cell_leakage_nw());
    }

    #[test]
    fn dynamic_scale_is_quadratic() {
        assert!((Supply::NOMINAL.dynamic_scale() - 1.44).abs() < 1e-12);
        assert!((Supply::NEAR_THRESHOLD.dynamic_scale() - 0.36).abs() < 1e-12);
    }

    #[test]
    fn leakage_scale_matches_cited_60x() {
        // Paper cites >60x leakage reduction from 1.2V to 0.41V.
        let ratio = 1.0 / Supply::new(0.41).leakage_scale();
        assert!(ratio > 60.0 && ratio < 180.0, "got {ratio}");
    }

    #[test]
    fn near_threshold_excludes_6t() {
        assert!(Supply::NOMINAL.supports_6t());
        assert!(Supply::MID.supports_6t());
        assert!(!Supply::NEAR_THRESHOLD.supports_6t());
    }

    #[test]
    #[should_panic(expected = "outside the modeled")]
    fn out_of_range_supply_panics() {
        let _ = Supply::new(2.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProcessNode::N28.to_string(), "28nm");
        assert_eq!(Supply::NOMINAL.to_string(), "1.20V");
    }
}
