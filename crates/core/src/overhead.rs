//! Coder design-overhead model (§6.3).
//!
//! Each coder is one XNOR gate per coded bit at each BVF-space port; the
//! paper counts **133,920 XNOR gates** for the whole baseline GPU and
//! reports 46.5mW/60.5mW dynamic, 18.7µW/24.2µW static power and
//! 0.207mm²/0.294mm² area at 28nm/40nm — ~0.056% of the die. This module
//! rebuilds the gate count from the port inventory and turns per-gate
//! energy/area parameters (supplied by `bvf-circuit` or the caller) into
//! the same aggregate figures.

/// The paper's total XNOR gate count for the baseline 15-SM GPU.
pub const PAPER_TOTAL_XNOR_GATES: u64 = 133_920;

/// Port inventory of coder gates for one GPU configuration.
///
/// Every coded interface contributes `width_bits` gates (invertible coders
/// let a shared R/W port reuse a single coder instance, which this model
/// assumes, matching §6.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoderOverhead {
    ports: Vec<(String, u64)>,
}

impl CoderOverhead {
    /// Empty inventory.
    pub fn new() -> Self {
        Self { ports: Vec::new() }
    }

    /// Add `count` ports of `width_bits` coder gates each under a label.
    pub fn add_ports(
        &mut self,
        label: impl Into<String>,
        count: u64,
        width_bits: u64,
    ) -> &mut Self {
        self.ports.push((label.into(), count * width_bits));
        self
    }

    /// The gate inventory for the paper's baseline GPU (Table 3: 15 SMs,
    /// 6 L2 banks / memory channels, 32-lane warps, 128B cache lines).
    ///
    /// Interfaces counted per SM:
    /// * register read ports (operand collector): 3 operands × 32 lanes × 32b,
    /// * register writeback port: 32 × 32b,
    /// * L1D/L1T/L1C fill+access ports: 3 × 128B line width,
    /// * shared-memory port: 32 banks × 32b,
    /// * instruction fetch (IFB/L1I): 2 × 64b;
    ///
    /// and per memory channel: the MC-side NV/VS/ISA interfaces at one
    /// 128B line width each.
    pub fn baseline(sms: u64, mem_channels: u64) -> Self {
        let mut o = Self::new();
        let lane_port = 32 * 32; // one full-warp 32-bit port
        let line_port = 128 * 8; // one 128B line-wide port
        o.add_ports("REG operand collectors", sms * 3, lane_port);
        o.add_ports("REG writeback", sms, lane_port);
        o.add_ports("L1D/L1T/L1C line ports", sms * 3, line_port);
        o.add_ports("SME bank ports", sms, lane_port);
        o.add_ports("IFB + L1I fetch", sms * 2, 64);
        o.add_ports("MC-side NV interfaces", mem_channels, line_port);
        o.add_ports("MC-side VS interfaces", mem_channels, line_port);
        o.add_ports("MC-side ISA interfaces", mem_channels, 64);
        o
    }

    /// Total XNOR gates in the inventory.
    pub fn total_gates(&self) -> u64 {
        self.ports.iter().map(|(_, g)| g).sum()
    }

    /// Itemized inventory (label, gates).
    pub fn items(&self) -> &[(String, u64)] {
        &self.ports
    }

    /// Worst-case dynamic power in milliwatts if every gate toggles each
    /// cycle: `gates × E_gate × f`. The paper calls its corresponding figure
    /// "very conservative" for the same reason.
    pub fn dynamic_power_mw(&self, gate_energy_fj: f64, freq_hz: f64) -> f64 {
        // fJ × Hz = 1e-15 J/s = 1e-12 mW... careful: 1 fJ * 1 Hz = 1e-15 W = 1e-12 mW
        self.total_gates() as f64 * gate_energy_fj * freq_hz * 1.0e-12
    }

    /// Static power in microwatts given per-gate leakage in nanowatts.
    pub fn static_power_uw(&self, gate_leakage_nw: f64) -> f64 {
        self.total_gates() as f64 * gate_leakage_nw * 1.0e-3
    }

    /// Total area in mm² given per-gate area in µm² and a wiring factor
    /// (≥1.0; the paper's totals include wiring overhead).
    pub fn area_mm2(&self, gate_area_um2: f64, wiring_factor: f64) -> f64 {
        self.total_gates() as f64 * gate_area_um2 * wiring_factor * 1.0e-6
    }
}

impl Default for CoderOverhead {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_gate_count_matches_papers_magnitude() {
        let o = CoderOverhead::baseline(15, 6);
        let gates = o.total_gates();
        // We reconstruct the inventory from first principles; it must land
        // in the same ballpark as the paper's 133,920.
        assert!(
            (100_000..=250_000).contains(&gates),
            "gate count {gates} not within 0.75x-1.9x of the paper's {PAPER_TOTAL_XNOR_GATES}"
        );
    }

    #[test]
    fn dynamic_power_is_tens_of_milliwatts() {
        // With ~0.35-0.5 fJ per gate at 700MHz, the conservative bound lands
        // in the tens of mW, matching §6.3's 46.5/60.5 mW.
        let o = CoderOverhead::baseline(15, 6);
        let p28 = o.dynamic_power_mw(0.35, 700.0e6);
        let p40 = o.dynamic_power_mw(0.52, 700.0e6);
        assert!((10.0..=120.0).contains(&p28), "28nm: {p28} mW");
        assert!((20.0..=160.0).contains(&p40), "40nm: {p40} mW");
        assert!(p40 > p28);
    }

    #[test]
    fn static_power_is_tens_of_microwatts() {
        let o = CoderOverhead::baseline(15, 6);
        // ~0.1-0.15 nW of leakage per gate.
        let s = o.static_power_uw(0.12);
        assert!((5.0..=60.0).contains(&s), "{s} µW");
    }

    #[test]
    fn area_is_fraction_of_a_square_millimetre() {
        let o = CoderOverhead::baseline(15, 6);
        let a28 = o.area_mm2(1.55, 1.15);
        let a40 = o.area_mm2(2.20, 1.15);
        assert!((0.1..=0.5).contains(&a28), "28nm: {a28} mm²");
        assert!(a40 > a28);
    }

    #[test]
    fn inventory_is_itemized() {
        let o = CoderOverhead::baseline(15, 6);
        assert!(!o.items().is_empty());
        let sum: u64 = o.items().iter().map(|(_, g)| g).sum();
        assert_eq!(sum, o.total_gates());
    }

    #[test]
    fn empty_inventory_is_zero() {
        let o = CoderOverhead::new();
        assert_eq!(o.total_gates(), 0);
        assert_eq!(o.dynamic_power_mw(1.0, 1.0e9), 0.0);
    }
}
