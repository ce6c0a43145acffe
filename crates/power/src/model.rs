//! The core power model: per-unit energies from bit statistics.

use bvf_circuit::{AccessEnergy, CellKind, LeakagePower, PState, ProcessNode};
use bvf_core::Unit;
use bvf_gpu::{GpuConfig, UnitStats};

/// Cells per bitline assumed for the production-sized on-chip arrays
/// (§2.3 notes bitlines shared by up to 128-256 cells; we use 128).
pub const ARRAY_CELLS_PER_BITLINE: u32 = 128;

/// Gain-cell eDRAM retention interval in cycles at the nominal clock
/// (~3µs at 700MHz): every resident bit pays one dummy-read + write-back
/// per interval (§7.2 — the refresh also favors 1).
pub const EDRAM_REFRESH_INTERVAL_CYCLES: u64 = 2048;

/// NoC wire capacitance per channel bit, femtofarads (global on-chip wire
/// segment through the crossbar, per node).
fn noc_wire_cap_ff(node: ProcessNode) -> f64 {
    match node {
        ProcessNode::N28 => 60.0,
        ProcessNode::N40 => 82.0,
    }
}

/// Calibrated non-BVF component parameters.
///
/// These two constants place the BVF-coverable units at ≈48% of chip energy
/// and the NoC at ≈5.6% for a representative application mix, matching the
/// breakdowns the paper cites (its refs. 30 and 32). They are the only free
/// parameters in the chip-level composition; everything inside the BVF
/// units comes from measured bit statistics and the circuit model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonBvfParams {
    /// Dynamic energy per issued warp instruction spent in execution units,
    /// operand routing and pipeline control, in femtojoules (at 1.2V; scaled
    /// by the P-state).
    pub exe_energy_per_instr_fj: f64,
    /// Static + clock energy of all non-BVF logic (execution units, memory
    /// controllers, schedulers) per simulated cycle at the nominal P-state,
    /// in femtojoules. Expressed per cycle — not in watts — because the
    /// simulator's activity (one warp instruction per SM-cycle) defines the
    /// time base; see `DESIGN.md` §5.
    pub nonbvf_static_fj_per_cycle: f64,
}

impl Default for NonBvfParams {
    fn default() -> Self {
        Self {
            exe_energy_per_instr_fj: 24_000.0, // 24 pJ per warp instruction
            nonbvf_static_fj_per_cycle: 20_000.0,
        }
    }
}

/// A fully-specified power model: process node, P-state, GPU geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Process technology node.
    pub node: ProcessNode,
    /// DVFS operating point.
    pub pstate: PState,
    /// GPU configuration (capacities, SM/bank counts).
    pub config: GpuConfig,
    /// Non-BVF calibration constants.
    pub nonbvf: NonBvfParams,
}

/// Dynamic + leakage split of one unit's energy, in femtojoules.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct UnitEnergy {
    /// Access (dynamic) energy.
    pub dynamic_fj: f64,
    /// Standby (leakage) energy.
    pub leakage_fj: f64,
}

impl UnitEnergy {
    /// Total energy in femtojoules.
    pub fn total_fj(&self) -> f64 {
        self.dynamic_fj + self.leakage_fj
    }
}

impl PowerModel {
    /// Model at the baseline operating point (28nm or 40nm, P0, Table 3).
    pub fn new(node: ProcessNode, pstate: PState, config: GpuConfig) -> Self {
        Self {
            node,
            pstate,
            config,
            nonbvf: NonBvfParams::default(),
        }
    }

    /// Total capacity of `unit` across the chip, in bits.
    pub fn unit_capacity_bits(&self, unit: Unit) -> u64 {
        let c = &self.config;
        let sms = u64::from(c.sms);
        8 * match unit {
            Unit::Reg => u64::from(c.reg_bytes_per_sm) * sms,
            Unit::Sme => u64::from(c.smem_bytes_per_sm) * sms,
            Unit::L1d => c.l1d.bytes() * sms,
            Unit::L1i => c.l1i.bytes() * sms,
            Unit::L1c => c.l1c.bytes() * sms,
            Unit::L1t => c.l1t.bytes() * sms,
            Unit::L2 => c.l2_bank.bytes() * u64::from(c.l2_banks),
            // The fetch buffer is tiny: 2 instruction words per warp slot.
            Unit::Ifb => u64::from(c.warps_per_sm) * 16 * sms,
            Unit::Noc => 0,
        }
    }

    /// Energy of one unit over the run, from its access statistics.
    ///
    /// * `stats` — the unit's per-view counters;
    /// * `cell` — the memory cell implementing the unit;
    /// * `utilization` — fraction of capacity holding live data;
    /// * `init_ones` — 1-fraction of the *unused* capacity (1.0 for the BVF
    ///   initialize-to-1 policy, 0.5 for uninitialized baseline arrays);
    /// * `cycles` — run length for leakage integration.
    pub fn unit_energy(
        &self,
        unit: Unit,
        stats: &UnitStats,
        cell: CellKind,
        utilization: f64,
        init_ones: f64,
        cycles: u64,
    ) -> UnitEnergy {
        let supply = self.pstate.supply();
        let access = AccessEnergy::of(cell, self.node, supply, ARRAY_CELLS_PER_BITLINE);
        let dynamic_fj = access.read_word(stats.read_bits.ones, stats.read_bits.zeros)
            + access.write_word(stats.write_bits.ones, stats.write_bits.zeros)
            + access.write_word(stats.fill_bits.ones, stats.fill_bits.zeros);

        // Leakage: live capacity leaks at the measured stored-data
        // 1-fraction; the rest leaks at the initialization value.
        let cap = self.unit_capacity_bits(unit) as f64;
        let stored = stats.stored_bits();
        let live_one_frac = if stored.total() == 0 {
            init_ones
        } else {
            stored.one_fraction()
        };
        let ones = cap * (utilization * live_one_frac + (1.0 - utilization) * init_ones);
        let zeros = cap - ones;
        let leak = LeakagePower::of(cell, self.node, supply);
        let seconds = cycles as f64 / self.pstate.freq_hz();
        // nW × s = nJ = 1e6 fJ
        let mut leakage_fj =
            leak.array_power(ones.round() as u64, zeros.round() as u64) * seconds * 1.0e6;
        if cell == CellKind::Edram3T {
            // Gain cells trade leakage for refresh: every resident bit pays
            // a dummy read + write-back each retention interval, at the
            // value-dependent cost of §7.2 (refresh-1 ≪ refresh-0).
            let refreshes = cycles as f64 / EDRAM_REFRESH_INTERVAL_CYCLES as f64;
            leakage_fj += refreshes * (ones * access.refresh(true) + zeros * access.refresh(false));
        }
        UnitEnergy {
            dynamic_fj,
            leakage_fj,
        }
    }

    /// NoC dynamic energy from wire-toggle counts, in femtojoules.
    pub fn noc_energy_fj(&self, bit_toggles: u64) -> f64 {
        let supply = self.pstate.supply();
        bit_toggles as f64 * noc_wire_cap_ff(self.node) * supply.volts() * supply.volts()
    }

    /// Non-BVF (execution, MC, control) energy in femtojoules.
    pub fn nonbvf_energy_fj(&self, dynamic_instructions: u64, cycles: u64) -> f64 {
        let dynamic = dynamic_instructions as f64
            * self.nonbvf.exe_energy_per_instr_fj
            * self.pstate.dynamic_energy_scale();
        // Per-cycle static energy scales like leakage energy with DVFS.
        let static_fj = self.nonbvf.nonbvf_static_fj_per_cycle
            * self.pstate.leakage_energy_scale()
            * cycles as f64;
        dynamic + static_fj
    }

    /// Conservative coder-overhead energy (§6.3): every coder gate charged
    /// once per *coded bit actually processed* — far below the paper's
    /// every-cycle bound, but still an overestimate of real toggling.
    pub fn coder_overhead_fj(&self, coded_bits: u64) -> f64 {
        coded_bits as f64 * self.node.xnor_energy_fj() * self.pstate.dynamic_energy_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_bits::BitCounts;

    fn model() -> PowerModel {
        PowerModel::new(ProcessNode::N28, PState::P0, GpuConfig::baseline())
    }

    fn stats(read1: u64, read0: u64) -> UnitStats {
        UnitStats {
            reads: 1,
            writes: 0,
            fills: 0,
            read_bits: BitCounts {
                ones: read1,
                zeros: read0,
            },
            write_bits: BitCounts::default(),
            fill_bits: BitCounts::default(),
        }
    }

    #[test]
    fn ones_cost_less_on_bvf_cell() {
        let m = model();
        let ones = m.unit_energy(
            Unit::Reg,
            &stats(32_000, 0),
            CellKind::BvfSram8T,
            0.5,
            1.0,
            1000,
        );
        let zeros = m.unit_energy(
            Unit::Reg,
            &stats(0, 32_000),
            CellKind::BvfSram8T,
            0.5,
            1.0,
            1000,
        );
        assert!(ones.dynamic_fj < zeros.dynamic_fj);
    }

    #[test]
    fn six_t_is_data_independent() {
        let m = model();
        let a = m.unit_energy(Unit::L1d, &stats(1000, 0), CellKind::Sram6T, 0.5, 0.5, 100);
        let b = m.unit_energy(Unit::L1d, &stats(0, 1000), CellKind::Sram6T, 0.5, 0.5, 100);
        assert!((a.dynamic_fj - b.dynamic_fj).abs() < 1e-9);
    }

    #[test]
    fn leakage_scales_with_cycles_and_capacity() {
        let m = model();
        let s = stats(0, 0);
        let short = m.unit_energy(Unit::Reg, &s, CellKind::BvfSram8T, 0.0, 1.0, 1_000);
        let long = m.unit_energy(Unit::Reg, &s, CellKind::BvfSram8T, 0.0, 1.0, 10_000);
        assert!((long.leakage_fj / short.leakage_fj - 10.0).abs() < 1e-6);
        let small = m.unit_energy(Unit::L1c, &s, CellKind::BvfSram8T, 0.0, 1.0, 1_000);
        assert!(
            small.leakage_fj < short.leakage_fj,
            "L1C is far smaller than REG"
        );
    }

    #[test]
    fn init_to_ones_reduces_bvf_leakage() {
        let m = model();
        let s = stats(0, 0);
        let ones = m.unit_energy(Unit::Sme, &s, CellKind::BvfSram8T, 0.0, 1.0, 1_000);
        let random = m.unit_energy(Unit::Sme, &s, CellKind::BvfSram8T, 0.0, 0.5, 1_000);
        assert!(ones.leakage_fj < random.leakage_fj);
    }

    #[test]
    fn noc_energy_proportional_to_toggles() {
        let m = model();
        assert!((m.noc_energy_fj(2000) / m.noc_energy_fj(1000) - 2.0).abs() < 1e-12);
        assert_eq!(m.noc_energy_fj(0), 0.0);
    }

    #[test]
    fn capacities_match_config() {
        let m = model();
        assert_eq!(m.unit_capacity_bits(Unit::Reg), 15 * 128 * 1024 * 8);
        assert_eq!(m.unit_capacity_bits(Unit::L2), 768 * 1024 * 8);
        assert_eq!(m.unit_capacity_bits(Unit::Noc), 0);
    }

    #[test]
    fn lower_pstate_cuts_dynamic_energy() {
        let cfg = GpuConfig::baseline();
        let p0 = PowerModel::new(ProcessNode::N40, PState::P0, cfg.clone());
        let p2 = PowerModel::new(ProcessNode::N40, PState::P2, cfg);
        let s = stats(16_000, 16_000);
        let e0 = p0.unit_energy(Unit::Reg, &s, CellKind::BvfSram8T, 0.5, 1.0, 1000);
        let e2 = p2.unit_energy(Unit::Reg, &s, CellKind::BvfSram8T, 0.5, 1.0, 1000);
        assert!((e2.dynamic_fj / e0.dynamic_fj - 0.25).abs() < 1e-9);
        let n0 = p0.nonbvf_energy_fj(1000, 1000);
        let n2 = p2.nonbvf_energy_fj(1000, 1000);
        assert!(n2 < n0);
    }
}
