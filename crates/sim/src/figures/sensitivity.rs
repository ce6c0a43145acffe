//! Sensitivity exhibits: Fig. 20 (DVFS), Fig. 21 (schedulers), Fig. 22
//! (SRAM capacity), Fig. 23 (cell comparison).

use bvf_circuit::{CellKind, PState, ProcessNode};
use bvf_power::{DesignPoint, EnergyReport, PowerModel};

use crate::campaign::Campaign;
use crate::table::Table;

/// Sum baseline and BVF chip (and BVF-unit) energies over a campaign at
/// one (node, pstate) operating point.
fn totals(campaign: &Campaign, node: ProcessNode, pstate: PState) -> (f64, f64, f64, f64) {
    let model = PowerModel::new(node, pstate, campaign.config.clone());
    let mut base_chip = 0.0;
    let mut bvf_chip = 0.0;
    let mut base_units = 0.0;
    let mut bvf_units = 0.0;
    for r in &campaign.results {
        let report = EnergyReport::evaluate(
            &model,
            &r.summary,
            &[DesignPoint::baseline(), DesignPoint::bvf()],
        );
        base_chip += report.point("baseline").total_fj();
        bvf_chip += report.point("bvf").total_fj();
        base_units += report.point("baseline").bvf_units_fj();
        bvf_units += report.point("bvf").bvf_units_fj();
    }
    (base_chip, bvf_chip, base_units, bvf_units)
}

/// Fig. 20: average on-chip energy under DVFS for both nodes, normalized to
/// the 40nm 1.2V baseline, with the per-point BVF reduction percentage (the
/// paper's claim: the reduction ratio is consistent across P-states).
pub fn fig20(campaign: &Campaign) -> Table {
    let mut t = Table::new(
        "fig20",
        "normalized average energy under DVFS (reference: 40nm P0 baseline)",
        vec!["baseline".into(), "bvf".into(), "reduction %".into()],
    );
    let (ref_chip, _, _, _) = totals(campaign, ProcessNode::N40, PState::P0);
    for node in ProcessNode::ALL {
        for pstate in PState::ALL {
            let (b, v, _, _) = totals(campaign, node, pstate);
            t.push(
                format!("{node} {pstate}"),
                vec![b / ref_chip, v / ref_chip, (1.0 - v / b) * 100.0],
            );
        }
    }
    t
}

/// Fig. 21: normalized average chip energy per warp scheduler (requires one
/// campaign per scheduler, passed in Table 3 order: GTO, LRR, two-level).
/// Values are normalized to the first campaign's baseline at each node.
///
/// # Panics
///
/// Panics if `campaigns` is empty.
pub fn fig21(campaigns: &[(&str, &Campaign)]) -> Table {
    assert!(!campaigns.is_empty(), "at least one campaign required");
    let mut t = Table::new(
        "fig21",
        "normalized average energy per warp scheduler",
        vec![
            "28nm baseline".into(),
            "28nm bvf".into(),
            "28nm red %".into(),
            "40nm baseline".into(),
            "40nm bvf".into(),
            "40nm red %".into(),
        ],
    );
    let (ref28, _, _, _) = totals(campaigns[0].1, ProcessNode::N28, PState::P0);
    let (ref40, _, _, _) = totals(campaigns[0].1, ProcessNode::N40, PState::P0);
    for (name, c) in campaigns {
        let (b28, v28, _, _) = totals(c, ProcessNode::N28, PState::P0);
        let (b40, v40, _, _) = totals(c, ProcessNode::N40, PState::P0);
        t.push(
            *name,
            vec![
                b28 / ref28,
                v28 / ref28,
                (1.0 - v28 / b28) * 100.0,
                b40 / ref40,
                v40 / ref40,
                (1.0 - v40 / b40) * 100.0,
            ],
        );
    }
    t
}

/// Fig. 22: BVF-unit energy reduction under different SRAM capacity
/// configurations (one campaign per Table 4 preset).
///
/// # Panics
///
/// Panics if `campaigns` is empty.
pub fn fig22(campaigns: &[(&str, &Campaign)]) -> Table {
    assert!(!campaigns.is_empty(), "at least one campaign required");
    let mut t = Table::new(
        "fig22",
        "SRAM (BVF-unit) energy reduction vs capacity configuration",
        vec!["28nm red %".into(), "40nm red %".into()],
    );
    for (name, c) in campaigns {
        let (_, _, bu28, vu28) = totals(c, ProcessNode::N28, PState::P0);
        let (_, _, bu40, vu40) = totals(c, ProcessNode::N40, PState::P0);
        t.push(
            *name,
            vec![(1.0 - vu28 / bu28) * 100.0, (1.0 - vu40 / bu40) * 100.0],
        );
    }
    t
}

/// Fig. 23: chip energy of 6T / conventional 8T / BVF-8T designs at nominal
/// voltage, plus the 8T designs at near-threshold, normalized to the 40nm
/// 1.2V 6T design.
pub fn fig23(campaign: &Campaign) -> Table {
    let mut t = Table::new(
        "fig23",
        "normalized chip energy: 6T vs Conv-8T vs BVF-8T (reference: 40nm 1.2V 6T)",
        vec!["28nm".into(), "40nm".into()],
    );
    let point = |cell: CellKind, bvf: bool| -> DesignPoint {
        if bvf {
            DesignPoint::bvf()
        } else {
            DesignPoint {
                name: format!("{cell}"),
                cell,
                view: "baseline".into(),
                init_ones: 0.5,
                has_coders: false,
            }
        }
    };
    let chip = |node: ProcessNode, pstate: PState, p: &DesignPoint| -> f64 {
        let model = PowerModel::new(node, pstate, campaign.config.clone());
        campaign
            .results
            .iter()
            .map(|r| {
                EnergyReport::evaluate(&model, &r.summary, std::slice::from_ref(p)).points[0]
                    .total_fj()
            })
            .sum()
    };
    let reference = chip(
        ProcessNode::N40,
        PState::P0,
        &point(CellKind::Sram6T, false),
    );
    for (label, pstate, cell, bvf) in [
        ("6T @1.2V", PState::P0, CellKind::Sram6T, false),
        ("Conv-8T @1.2V", PState::P0, CellKind::ConvSram8T, false),
        ("BVF-8T @1.2V", PState::P0, CellKind::BvfSram8T, true),
        ("Conv-8T @0.6V", PState::P2, CellKind::ConvSram8T, false),
        ("BVF-8T @0.6V", PState::P2, CellKind::BvfSram8T, true),
    ] {
        let p = point(cell, bvf);
        t.push(
            label,
            vec![
                chip(ProcessNode::N28, pstate, &p) / reference,
                chip(ProcessNode::N40, pstate, &p) / reference,
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignOptions;

    #[test]
    fn fig20_reduction_consistent_across_pstates() {
        let c = Campaign::smoke(&CampaignOptions::default());
        let t = fig20(&c);
        let reds: Vec<f64> = t.rows.iter().map(|r| r.values[2]).collect();
        let (min, max) = reds
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
        assert!(min > 0.0, "some P-state lost the BVF benefit: {reds:?}");
        assert!(
            max - min < 15.0,
            "reduction should be roughly consistent under DVFS: {reds:?}"
        );
        // Lower P-states consume less energy in absolute terms.
        let p0 = t.get("40nm P0 (700MHz @ 1.20V)", "baseline").unwrap();
        let p2 = t.get("40nm P2 (300MHz @ 0.60V)", "baseline").unwrap();
        assert!(p2 < p0);
    }

    #[test]
    fn fig23_bvf_beats_6t_and_near_threshold_wins() {
        let c = Campaign::smoke(&CampaignOptions::default());
        let t = fig23(&c);
        let sixt = t.get("6T @1.2V", "40nm").unwrap();
        let bvf = t.get("BVF-8T @1.2V", "40nm").unwrap();
        assert!(bvf < sixt, "BVF-8T ({bvf}) must beat 6T ({sixt})");
        let bvf_nt = t.get("BVF-8T @0.6V", "40nm").unwrap();
        assert!(bvf_nt < bvf, "deep DVFS must add savings");
    }
}
