//! Profiling exhibits over trace data: Figs. 8, 9, 11, 12, 14 and Table 2.

use bvf_bits::PositionHistogram;
use bvf_isa::{assemble_kernel, derive_mask_for, Architecture};
use bvf_workloads::Application;

use crate::campaign::Campaign;
use crate::table::Table;

/// Fig. 8: average leading sign-equal bits per 32-bit word of the global
/// data stream, per application (the paper measures ≈9 on average with the
/// PTX `clz` method).
pub fn fig08(campaign: &Campaign) -> Table {
    let mut t = Table::new(
        "fig08",
        "narrow-value profiling: mean leading sign-equal bits per 32-bit word",
        vec!["leading bits".into(), "zero-word %".into()],
    );
    let mut sum = 0.0;
    for r in &campaign.results {
        let lead = r.summary.narrow.mean_leading_bits();
        t.push(
            r.app.code,
            vec![lead, r.summary.narrow.zero_word_fraction() * 100.0],
        );
        sum += lead;
    }
    t.push(
        "AVG",
        vec![
            sum / campaign.results.len() as f64,
            campaign
                .results
                .iter()
                .map(|r| r.summary.narrow.zero_word_fraction() * 100.0)
                .sum::<f64>()
                / campaign.results.len() as f64,
        ],
    );
    t
}

/// Fig. 9: 0/1 bit ratio in the raw data stream per application (the paper
/// finds ≈22 of 32 bits are 0 on average).
pub fn fig09(campaign: &Campaign) -> Table {
    let mut t = Table::new(
        "fig09",
        "0 and 1 ratio in data values (bits per 32-bit word)",
        vec!["zero bits".into(), "one bits".into()],
    );
    let mut zsum = 0.0;
    for r in &campaign.results {
        let z = r.summary.data_bits.zeros_per_32b_word();
        t.push(r.app.code, vec![z, 32.0 - z]);
        zsum += z;
    }
    let n = campaign.results.len() as f64;
    t.push("AVG", vec![zsum / n, 32.0 - zsum / n]);
    t
}

/// Fig. 11: normalized mean inter-lane Hamming distance per lane, averaged
/// over applications (each application's profile normalized to its own
/// mean before averaging so heavy apps don't dominate).
pub fn fig11(campaign: &Campaign) -> Table {
    let mut t = Table::new(
        "fig11",
        "normalized relative Hamming distance per lane (register writes)",
        vec!["distance".into()],
    );
    let mut acc = [0.0f64; 32];
    let mut napps = 0usize;
    for r in &campaign.results {
        let p = r.summary.lane_profile;
        let mean: f64 = p.iter().sum::<f64>() / 32.0;
        if mean <= 0.0 {
            continue;
        }
        for (a, v) in acc.iter_mut().zip(&p) {
            *a += v / mean;
        }
        napps += 1;
    }
    for (lane, a) in acc.iter().enumerate() {
        t.push(
            format!("lane-{lane:02}"),
            vec![if napps == 0 { 0.0 } else { a / napps as f64 }],
        );
    }
    t
}

/// Fig. 12: per application, the mean Hamming distance of lane 21 relative
/// to the per-app optimal lane (1.0 = lane 21 *is* optimal).
pub fn fig12(campaign: &Campaign) -> Table {
    let mut t = Table::new(
        "fig12",
        "Hamming distance of lane-21 relative to the optimal lane",
        vec!["lane21/optimal".into(), "optimal lane".into()],
    );
    for r in &campaign.results {
        let p = r.summary.lane_profile;
        let opt = r.summary.optimal_lane;
        let ratio = if p[opt] > 0.0 { p[21] / p[opt] } else { 1.0 };
        t.push(r.app.code, vec![ratio, opt as f64]);
    }
    t
}

/// Fig. 14: per-bit-position 1-probability over the assembled instruction
/// binaries of every application (64 rows, LSB first).
pub fn fig14(apps: &[Application], arch: Architecture) -> Table {
    let mut h = PositionHistogram::new(64);
    for app in apps {
        for w in assemble_kernel(&app.kernel(), arch) {
            h.record_u64(w);
        }
    }
    let mut t = Table::new(
        "fig14",
        format!("1-occurrence probability per instruction bit position ({arch})"),
        vec!["P(bit=1)".into()],
    );
    for (pos, p) in h.probabilities().iter().enumerate() {
        t.push(format!("bit-{pos:02}"), vec![*p]);
    }
    t
}

/// Table 2: the ISA-preference masks — both the paper's published values
/// (derived from real NVIDIA binaries) and the masks derived from our
/// synthetic encodings with the same majority procedure. Columns carry the
/// set-bit counts (the mask values are printed in the row labels).
pub fn table2(apps: &[Application]) -> Table {
    let kernels: Vec<_> = apps.iter().map(|a| a.kernel()).collect();
    let mut t = Table::new(
        "table2",
        "ISA preference masks per architecture generation",
        vec!["published ones".into(), "derived ones".into()],
    );
    for arch in Architecture::ALL {
        let derived = derive_mask_for(arch, &kernels);
        let published = arch.published_mask();
        t.push(
            format!("{arch} pub={published:#018x} drv={derived:#018x}"),
            vec![
                f64::from(published.count_ones()),
                f64::from(derived.count_ones()),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignOptions;

    fn campaign() -> Campaign {
        Campaign::smoke(&CampaignOptions::default())
    }

    #[test]
    fn fig08_has_avg_row_with_substantial_leading_bits() {
        let t = fig08(&campaign());
        let avg = t.get("AVG", "leading bits").unwrap();
        // Synthetic data is narrow-value-rich; the paper measures ≈9.
        assert!(avg >= 8.0, "average leading bits {avg} < paper's ≈9");
    }

    #[test]
    fn fig09_zero_bits_dominate() {
        let t = fig09(&campaign());
        let z = t.get("AVG", "zero bits").unwrap();
        assert!(
            (16.0..=30.0).contains(&z),
            "zero bits per word {z} out of plausible range (paper: ≈22)"
        );
    }

    #[test]
    fn fig11_has_32_lanes() {
        let t = fig11(&campaign());
        assert_eq!(t.rows.len(), 32);
    }

    #[test]
    fn fig12_ratios_at_least_one() {
        let t = fig12(&campaign());
        for r in &t.rows {
            assert!(
                r.values[0] >= 1.0 - 1e-9,
                "{}: lane21 cannot beat the optimum",
                r.label
            );
        }
    }

    #[test]
    fn fig14_most_positions_prefer_zero() {
        let apps = Application::all();
        let t = fig14(&apps, Architecture::Pascal);
        let below_half = t.rows.iter().filter(|r| r.values[0] < 0.5).count();
        assert!(
            below_half > 32,
            "only {below_half}/64 positions prefer 0 — Fig. 14 says most do"
        );
    }

    #[test]
    fn table2_masks_are_sparse() {
        let apps = Application::all();
        let t = table2(&apps);
        assert_eq!(t.rows.len(), 4);
        for r in &t.rows {
            assert!(r.values[0] < 32.0, "published mask dense: {}", r.label);
            assert!(r.values[1] < 32.0, "derived mask dense: {}", r.label);
        }
    }
}
