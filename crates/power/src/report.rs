//! Energy reports: reductions per unit and chip-wide, plus table printing.

use bvf_core::Unit;
use bvf_gpu::TraceSummary;

use crate::chip::{evaluate, ChipEnergy, DesignPoint};
use crate::model::PowerModel;

/// A full evaluation of several design points over one trace summary.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// One chip-energy breakdown per design point, in evaluation order.
    pub points: Vec<ChipEnergy>,
}

impl EnergyReport {
    /// Evaluate `points` against `summary` under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or a view is missing from the summary.
    pub fn evaluate(model: &PowerModel, summary: &TraceSummary, points: &[DesignPoint]) -> Self {
        assert!(!points.is_empty(), "at least one design point required");
        Self {
            points: points.iter().map(|p| evaluate(model, summary, p)).collect(),
        }
    }

    /// The standard Figs. 16-19 comparison: the conventional baseline, the
    /// BVF hardware without coders (the Fig. 16/17 per-component reference),
    /// each single coder, and the full BVF design.
    pub fn standard(model: &PowerModel, summary: &TraceSummary) -> Self {
        Self::evaluate(
            model,
            summary,
            &[
                DesignPoint::baseline(),
                DesignPoint::uncoded_bvf_hardware(),
                DesignPoint::single_coder("nv"),
                DesignPoint::single_coder("vs"),
                DesignPoint::single_coder("isa"),
                DesignPoint::bvf(),
            ],
        )
    }

    /// The breakdown for a named design point.
    ///
    /// # Panics
    ///
    /// Panics if no point has that name.
    pub fn point(&self, name: &str) -> &ChipEnergy {
        self.points
            .iter()
            .find(|p| p.point.name == name)
            .unwrap_or_else(|| panic!("no design point named {name:?}"))
    }

    /// Fractional energy reduction of `against` relative to `baseline` for
    /// one unit (`1 - E_new/E_old`); 0 when the unit consumed nothing.
    pub fn unit_reduction(&self, baseline: &str, against: &str, unit: Unit) -> f64 {
        let old = self.point(baseline).unit_fj(unit);
        let new = self.point(against).unit_fj(unit);
        if old <= 0.0 {
            0.0
        } else {
            1.0 - new / old
        }
    }

    /// Fractional reduction over all BVF-coverable units.
    pub fn bvf_units_reduction(&self, baseline: &str, against: &str) -> f64 {
        1.0 - self.point(against).bvf_units_fj() / self.point(baseline).bvf_units_fj()
    }

    /// Fractional chip-level reduction.
    pub fn chip_reduction(&self, baseline: &str, against: &str) -> f64 {
        1.0 - self.point(against).total_fj() / self.point(baseline).total_fj()
    }

    /// Render a fixed-width table of per-point totals (fJ) and reductions
    /// vs the first point.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let base = self.points[0].total_fj();
        out.push_str(&format!(
            "{:<12} {:>16} {:>16} {:>10}\n",
            "design", "bvf-units [fJ]", "chip [fJ]", "vs base"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:<12} {:>16.3e} {:>16.3e} {:>9.1}%\n",
                p.point.name,
                p.bvf_units_fj(),
                p.total_fj(),
                (1.0 - p.total_fj() / base) * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_circuit::{PState, ProcessNode};
    use bvf_gpu::{CodingView, Gpu, GpuConfig};
    use bvf_isa::ir::{BufferId, Kernel, LaunchConfig, Op, Operand, Special, Stmt};

    fn summary() -> TraceSummary {
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
        gpu.memory_mut()
            .add_buffer(BufferId(0), (0..512u32).map(|i| i % 23).collect());
        gpu.memory_mut().add_buffer(BufferId(1), vec![0; 512]);
        gpu.launch(&k, LaunchConfig::new(16, 32))
    }

    fn model() -> PowerModel {
        let mut c = GpuConfig::baseline();
        c.sms = 2;
        PowerModel::new(ProcessNode::N40, PState::P0, c)
    }

    #[test]
    fn standard_report_shows_positive_reductions() {
        let r = EnergyReport::standard(&model(), &summary());
        assert!(r.chip_reduction("baseline", "bvf") > 0.0);
        assert!(r.bvf_units_reduction("baseline", "bvf") > 0.0);
        assert!(r.unit_reduction("baseline", "bvf", Unit::Reg) > 0.0);
    }

    #[test]
    fn isa_coder_reduces_instruction_units_only() {
        let r = EnergyReport::standard(&model(), &summary());
        // The derived mask is 0 in this test, which still flips 0-dominated
        // instruction words toward ones.
        let l1i = r.unit_reduction("baseline", "isa", Unit::L1i);
        let reg = r.unit_reduction("baseline", "isa", Unit::Reg);
        assert!(l1i > 0.0, "ISA should cut L1I energy (got {l1i})");
        // ISA leaves data units at the cell-change level only; the register
        // reduction must be far below the L1I reduction.
        assert!(l1i > reg + 0.05, "l1i {l1i} vs reg {reg}");
    }

    #[test]
    fn table_renders_every_point() {
        let r = EnergyReport::standard(&model(), &summary());
        let t = r.to_table();
        for name in ["baseline", "nv", "vs", "isa", "bvf"] {
            assert!(t.contains(name), "table missing {name}:\n{t}");
        }
    }

    #[test]
    #[should_panic(expected = "no design point named")]
    fn missing_point_panics() {
        let r = EnergyReport::standard(&model(), &summary());
        let _ = r.point("nope");
    }
}
