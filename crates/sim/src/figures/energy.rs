//! Energy exhibits: Figs. 16/17 (component level) and 18/19 (chip level).

use bvf_circuit::{PState, ProcessNode};
use bvf_core::Unit;
use bvf_power::{DesignPoint, EnergyReport, PowerModel};

use crate::campaign::Campaign;
use crate::table::Table;

/// Evaluate the standard five design points for one application result.
fn standard_report(campaign: &Campaign, node: ProcessNode, idx: usize) -> EnergyReport {
    let model = PowerModel::new(node, PState::P0, campaign.config.clone());
    EnergyReport::standard(&model, &campaign.results[idx].summary)
}

/// Fig. 16 (28nm) / Fig. 17 (40nm): average normalized energy of each BVF
/// unit under each coder, aggregated over the campaign's applications
/// (energy-weighted: Σ E_coder / Σ E_reference per unit). Following the
/// paper's normalization ("to individual component's baseline scenario,
/// before applying any BVF coder"), the reference is the BVF hardware
/// without coders, so the bars isolate each coder's architectural effect.
pub fn fig16_17(campaign: &Campaign, node: ProcessNode) -> Table {
    let id = match node {
        ProcessNode::N28 => "fig16",
        ProcessNode::N40 => "fig17",
    };
    let designs = ["nv", "vs", "isa", "bvf"];
    let mut t = Table::new(
        id,
        format!("average normalized component energy under each coder, {node}"),
        designs.iter().map(|s| s.to_string()).collect(),
    );
    // Accumulate absolute energies across apps.
    let mut base_sum: std::collections::BTreeMap<Unit, f64> = Default::default();
    let mut design_sum: std::collections::BTreeMap<(usize, Unit), f64> = Default::default();
    for idx in 0..campaign.results.len() {
        let report = standard_report(campaign, node, idx);
        for unit in Unit::ALL {
            *base_sum.entry(unit).or_default() += report.point("bvf-hw").unit_fj(unit);
            for (d, name) in designs.iter().enumerate() {
                *design_sum.entry((d, unit)).or_default() += report.point(name).unit_fj(unit);
            }
        }
    }
    for unit in Unit::ALL {
        let base = base_sum[&unit];
        let values = (0..designs.len())
            .map(|d| {
                if base <= 0.0 {
                    1.0
                } else {
                    design_sum[&(d, unit)] / base
                }
            })
            .collect();
        t.push(unit.to_string(), values);
    }
    t
}

/// Fig. 18 (28nm) / Fig. 19 (40nm): per-application chip-level energy of
/// the BVF design normalized to the baseline, the BVF-unit subtotal
/// reduction, and the chip reduction percentage; final "AVG" row.
pub fn fig18_19(campaign: &Campaign, node: ProcessNode) -> Table {
    let id = match node {
        ProcessNode::N28 => "fig18",
        ProcessNode::N40 => "fig19",
    };
    let mut t = Table::new(
        id,
        format!("chip-level energy reduction under the full BVF design, {node}"),
        vec![
            "chip norm".into(),
            "chip red %".into(),
            "bvf-units red %".into(),
        ],
    );
    let mut base_total = 0.0;
    let mut bvf_total = 0.0;
    let mut base_units = 0.0;
    let mut bvf_units = 0.0;
    for idx in 0..campaign.results.len() {
        let model = PowerModel::new(node, PState::P0, campaign.config.clone());
        let report = EnergyReport::evaluate(
            &model,
            &campaign.results[idx].summary,
            &[DesignPoint::baseline(), DesignPoint::bvf()],
        );
        let b = report.point("baseline");
        let v = report.point("bvf");
        t.push(
            campaign.results[idx].app.code,
            vec![
                v.total_fj() / b.total_fj(),
                report.chip_reduction("baseline", "bvf") * 100.0,
                report.bvf_units_reduction("baseline", "bvf") * 100.0,
            ],
        );
        base_total += b.total_fj();
        bvf_total += v.total_fj();
        base_units += b.bvf_units_fj();
        bvf_units += v.bvf_units_fj();
    }
    t.push(
        "AVG",
        vec![
            bvf_total / base_total,
            (1.0 - bvf_total / base_total) * 100.0,
            (1.0 - bvf_units / base_units) * 100.0,
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignOptions;

    #[test]
    fn fig16_units_mostly_improve() {
        let c = Campaign::smoke(&CampaignOptions::default());
        let t = fig16_17(&c, ProcessNode::N28);
        // The combined design must cut register energy substantially.
        let reg = t.get("REG", "bvf").unwrap();
        assert!(reg < 0.9, "REG normalized energy {reg} not reduced");
        // NV does not cover the instruction cache.
        let l1i_nv = t.get("L1I", "nv").unwrap();
        let l1i_isa = t.get("L1I", "isa").unwrap();
        assert!(l1i_isa < l1i_nv, "ISA must beat NV on L1I");
    }

    #[test]
    fn fig18_has_avg_row_with_positive_reduction() {
        let c = Campaign::smoke(&CampaignOptions::default());
        let t = fig18_19(&c, ProcessNode::N40);
        let red = t.get("AVG", "chip red %").unwrap();
        assert!(red > 0.0, "average chip reduction {red}% not positive");
        let units = t.get("AVG", "bvf-units red %").unwrap();
        assert!(units > red, "unit-level reduction must exceed chip-level");
    }

    #[test]
    fn memory_intensive_apps_save_more() {
        let c = Campaign::smoke(&CampaignOptions::default());
        let t = fig18_19(&c, ProcessNode::N40);
        let mem = t.get("BFS", "chip red %").unwrap();
        let comp = t.get("BLA", "chip red %").unwrap();
        assert!(
            mem > comp,
            "memory-intensive BFS ({mem}%) must save more than compute-bound BLA ({comp}%)"
        );
    }
}
