//! Chip-level energy composition for design points.

use bvf_circuit::CellKind;
use bvf_core::Unit;
use bvf_gpu::TraceSummary;
use std::collections::BTreeMap;

use crate::model::{PowerModel, UnitEnergy};

/// A design point: which cell implements the SRAM, which coding view the
/// data streams follow, and how unused arrays are initialized.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Display name of the point.
    pub name: String,
    /// Memory cell kind implementing every on-chip SRAM unit.
    pub cell: CellKind,
    /// Coding view name (must exist in the trace summary).
    pub view: String,
    /// 1-fraction of unused array capacity (0.5 = uninitialized garbage;
    /// 1.0 = the BVF initialize-to-1 policy of §3.1).
    pub init_ones: f64,
    /// Whether coder-overhead energy is charged (coders present).
    pub has_coders: bool,
}

impl DesignPoint {
    /// The conventional-8T, no-coders baseline of Figs. 16-19.
    pub fn baseline() -> Self {
        Self {
            name: "baseline".into(),
            cell: CellKind::ConvSram8T,
            view: "baseline".into(),
            init_ones: 0.5,
            has_coders: false,
        }
    }

    /// The full BVF design: BVF-8T cell, all coders, init-to-1.
    pub fn bvf() -> Self {
        Self {
            name: "bvf".into(),
            cell: CellKind::BvfSram8T,
            view: "bvf".into(),
            init_ones: 1.0,
            has_coders: true,
        }
    }

    /// A single-coder design point on the BVF cell (for Fig. 16/17's
    /// per-coder bars).
    pub fn single_coder(view: &str) -> Self {
        Self {
            name: view.to_string(),
            cell: CellKind::BvfSram8T,
            view: view.to_string(),
            init_ones: 1.0,
            has_coders: true,
        }
    }

    /// BVF hardware *without* coders: the reference point for isolating
    /// each coder's architectural contribution (Fig. 16/17 normalizes each
    /// component to its own before-coders scenario).
    pub fn uncoded_bvf_hardware() -> Self {
        Self {
            name: "bvf-hw".into(),
            cell: CellKind::BvfSram8T,
            view: "baseline".into(),
            init_ones: 1.0,
            has_coders: false,
        }
    }
}

/// Chip energy breakdown for one design point, all values in femtojoules.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipEnergy {
    /// Design point evaluated.
    pub point: DesignPoint,
    /// Per-unit dynamic + leakage energies.
    pub units: BTreeMap<Unit, UnitEnergy>,
    /// NoC dynamic energy.
    pub noc_fj: f64,
    /// Non-BVF components (execution, MC, control).
    pub nonbvf_fj: f64,
    /// Coder overhead (0 when the point has no coders).
    pub overhead_fj: f64,
}

impl ChipEnergy {
    /// Total energy of the BVF-coverable units (SRAM units + NoC).
    pub fn bvf_units_fj(&self) -> f64 {
        self.units.values().map(|u| u.total_fj()).sum::<f64>() + self.noc_fj
    }

    /// Total chip energy.
    pub fn total_fj(&self) -> f64 {
        self.bvf_units_fj() + self.nonbvf_fj + self.overhead_fj
    }

    /// One unit's total energy (0 if absent).
    pub fn unit_fj(&self, unit: Unit) -> f64 {
        if unit == Unit::Noc {
            return self.noc_fj;
        }
        self.units.get(&unit).map(|u| u.total_fj()).unwrap_or(0.0)
    }
}

/// Evaluate a design point against a trace summary.
///
/// # Panics
///
/// Panics if the design point's view is missing from the summary, or if the
/// cell cannot operate at the model's P-state (6T at 0.6V).
pub fn evaluate(model: &PowerModel, summary: &TraceSummary, point: &DesignPoint) -> ChipEnergy {
    let view = summary.view(&point.view);
    let mut units = BTreeMap::new();
    let mut coded_bits = 0u64;
    for unit in Unit::ALL {
        if unit == Unit::Noc {
            continue;
        }
        let stats = view.unit(unit);
        let utilization = summary.utilization.get(&unit).copied().unwrap_or(0.0);
        let e = model.unit_energy(
            unit,
            &stats,
            point.cell,
            utilization,
            point.init_ones,
            summary.cycles,
        );
        coded_bits += stats.read_bits.total() + stats.write_bits.total();
        units.insert(unit, e);
    }
    let noc_fj = model.noc_energy_fj(view.noc.bit_toggles);
    let nonbvf_fj = model.nonbvf_energy_fj(summary.dynamic_instructions, summary.cycles);
    let overhead_fj = if point.has_coders {
        // Each coded bit passes one encode and one decode gate; dummy-mov
        // re-encodes add a full warp-register's worth of gates each.
        model.coder_overhead_fj(coded_bits * 2 + view.dummy_movs * 32 * 32 * 2)
    } else {
        0.0
    };
    ChipEnergy {
        point: point.clone(),
        units,
        noc_fj,
        nonbvf_fj,
        overhead_fj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_circuit::{PState, ProcessNode};
    use bvf_gpu::{CodingView, Gpu, GpuConfig};
    use bvf_isa::ir::{BufferId, Kernel, LaunchConfig, Op, Operand, Special, Stmt};

    fn run_summary() -> TraceSummary {
        let mut k = Kernel::new("copy", 4);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::GlobalTid),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op3(
            Op::LdGlobal(BufferId(0)),
            1,
            Operand::Reg(0),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op4(
            Op::StGlobal(BufferId(1)),
            0,
            Operand::Reg(0),
            Operand::Imm(0),
            Operand::Reg(1),
        ));
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 2;
        let mut gpu = Gpu::new(cfg, CodingView::standard_set(0));
        // 0-heavy small positive integers: the BVF sweet spot.
        gpu.memory_mut()
            .add_buffer(BufferId(0), (0..512u32).map(|i| i % 17).collect());
        gpu.memory_mut().add_buffer(BufferId(1), vec![0; 512]);
        gpu.launch(&k, LaunchConfig::new(16, 32))
    }

    fn model() -> PowerModel {
        PowerModel::new(ProcessNode::N28, PState::P0, {
            let mut c = GpuConfig::baseline();
            c.sms = 2;
            c
        })
    }

    #[test]
    fn bvf_design_beats_baseline_on_zero_heavy_data() {
        let summary = run_summary();
        let m = model();
        let base = evaluate(&m, &summary, &DesignPoint::baseline());
        let bvf = evaluate(&m, &summary, &DesignPoint::bvf());
        assert!(
            bvf.bvf_units_fj() < base.bvf_units_fj(),
            "bvf units {} !< baseline {}",
            bvf.bvf_units_fj(),
            base.bvf_units_fj()
        );
        assert!(bvf.total_fj() < base.total_fj());
    }

    #[test]
    fn nonbvf_energy_is_design_independent() {
        let summary = run_summary();
        let m = model();
        let base = evaluate(&m, &summary, &DesignPoint::baseline());
        let bvf = evaluate(&m, &summary, &DesignPoint::bvf());
        assert_eq!(base.nonbvf_fj, bvf.nonbvf_fj);
    }

    #[test]
    fn overhead_is_small_but_positive_with_coders() {
        let summary = run_summary();
        let m = model();
        let bvf = evaluate(&m, &summary, &DesignPoint::bvf());
        assert!(bvf.overhead_fj > 0.0);
        assert!(
            bvf.overhead_fj < 0.02 * bvf.total_fj(),
            "overhead {} not negligible vs total {}",
            bvf.overhead_fj,
            bvf.total_fj()
        );
        let base = evaluate(&m, &summary, &DesignPoint::baseline());
        assert_eq!(base.overhead_fj, 0.0);
    }

    #[test]
    fn unit_accessor_covers_noc() {
        let summary = run_summary();
        let m = model();
        let e = evaluate(&m, &summary, &DesignPoint::baseline());
        assert!(e.unit_fj(Unit::Noc) > 0.0);
        assert!(e.unit_fj(Unit::Reg) > 0.0);
        let sum: f64 = Unit::ALL.iter().map(|&u| e.unit_fj(u)).sum();
        assert!((sum - e.bvf_units_fj()).abs() < 1e-6 * sum);
    }

    #[test]
    fn single_coder_points_lie_between() {
        let summary = run_summary();
        let m = model();
        let base = evaluate(&m, &summary, &DesignPoint::baseline()).bvf_units_fj();
        let nv = evaluate(&m, &summary, &DesignPoint::single_coder("nv")).bvf_units_fj();
        let all = evaluate(&m, &summary, &DesignPoint::bvf()).bvf_units_fj();
        assert!(nv < base, "NV alone must already help on zero-heavy data");
        assert!(
            all <= nv * 1.05,
            "full BVF should not be much worse than NV alone"
        );
    }
}
