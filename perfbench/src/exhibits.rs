//! The exhibit set `reproduce` prints, replayed through the library in
//! the same order, so its text can be checked byte for byte against the
//! binary's standard output. Only the traced run uses it, over the store
//! the layer walk filled, to time the `figures::*` builders. Timed passes
//! run the binary itself.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

use bvf_circuit::ProcessNode;
use bvf_gpu::{GpuConfig, SchedulerKind};
use bvf_isa::Architecture;
use bvf_sim::figures::{ablation, circuit, energy, overhead, profile, sensitivity};
use bvf_sim::{Campaign, CampaignOptions, Parallelism, ResultStore, ShardMode, Table};
use bvf_workloads::Application;

use crate::measure::Digest;

/// Digest of `reproduce --jobs 1` standard output (md5 3af9aeaa…). The
/// same bytes come out cold, warm, sharded and at any worker count.
pub const REFERENCE: Digest = Digest {
    len: 25243,
    fnv: 0x2ed1_c715_126d_9fb7,
};

/// Digest of `reproduce quick --jobs 1` standard output, the 6-app
/// smoke subset.
pub const REFERENCE_QUICK: Digest = Digest {
    len: 14323,
    fnv: 0x8e34_1bf0_d022_158e,
};

/// The instruction-set generation every exhibit campaign uses.
pub const ARCH: Architecture = Architecture::Pascal;

/// The seven 58-app campaigns of the exhibit set, by trace label.
pub fn campaign_configs() -> Vec<(&'static str, GpuConfig)> {
    let sched = |kind| {
        let mut c = GpuConfig::baseline();
        c.scheduler = kind;
        c
    };
    vec![
        ("main", GpuConfig::baseline()),
        ("sched-gto", sched(SchedulerKind::Gto)),
        ("sched-lrr", sched(SchedulerKind::Lrr)),
        ("sched-two-level", sched(SchedulerKind::TwoLevel)),
        ("cap-gtx480", GpuConfig::gtx480()),
        ("cap-p100", GpuConfig::tesla_p100()),
        ("cap-k80", GpuConfig::tesla_k80()),
    ]
}

/// Host time spent per named layer, from spans the benchmark records
/// around its own calls into the library.
#[derive(Debug, Default)]
pub struct Probe {
    nanos: BTreeMap<&'static str, u64>,
}

impl Probe {
    /// Run `f`, charging its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        *self.nanos.entry(layer).or_default() += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Total nanoseconds charged to `layer`.
    pub fn nanos(&self, layer: &str) -> u64 {
        self.nanos.get(layer).copied().unwrap_or(0)
    }
}

/// One run of the exhibit set.
pub struct Pass {
    /// Everything `reproduce` would print on standard output.
    pub text: String,
    /// The campaigns, in run order, with their trace labels.
    pub campaigns: Vec<(&'static str, Campaign)>,
    /// Spans around the `figures::*` builders.
    pub probe: Probe,
}

impl Pass {
    /// App results plus failed apps over every campaign of the pass.
    pub fn operations(&self) -> usize {
        self.campaigns
            .iter()
            .map(|(_, c)| c.results.len() + c.failures.len())
            .sum()
    }

    pub fn failures(&self) -> usize {
        self.campaigns.iter().map(|(_, c)| c.failures.len()).sum()
    }
}

/// Run the full exhibit set on one worker, as `reproduce --jobs 1
/// --cache DIR` (plus `--shards` for `shards`), timing every exhibit
/// builder.
pub fn run_pass(store: Arc<ResultStore>, shards: ShardMode) -> Pass {
    let opts = CampaignOptions {
        par: Parallelism::Sequential,
        arch: ARCH,
        store: Some(store),
        shards,
        ..CampaignOptions::default()
    };
    let mut probe = Probe::default();
    let mut text = String::with_capacity(REFERENCE.len + 1024);
    let mut emit = |probe: &mut Probe, build: &dyn Fn() -> Table| {
        let table = probe.time("figures.render_ms", build);
        writeln!(text, "{table}").expect("writing to a String cannot fail");
    };
    let run_campaign = |(label, config): (&'static str, GpuConfig)| {
        let opts = CampaignOptions {
            trace_label: label.to_string(),
            ..opts.clone()
        };
        (
            label,
            Campaign::run_with_options(config, &Application::all(), &opts),
        )
    };

    emit(&mut probe, &|| circuit::fig05_06(ProcessNode::N28));
    emit(&mut probe, &|| circuit::fig05_06(ProcessNode::N40));
    emit(&mut probe, &circuit::table_6t_stability);
    let apps = Application::all();
    emit(&mut probe, &|| profile::fig14(&apps, ARCH));
    emit(&mut probe, &|| profile::table2(&apps));
    emit(&mut probe, &|| {
        overhead::overhead_table(&GpuConfig::baseline())
    });
    emit(&mut probe, &|| {
        overhead::overhead_inventory(&GpuConfig::baseline())
    });

    let mut configs = campaign_configs().into_iter();
    let mut campaigns: Vec<(&'static str, Campaign)> = Vec::with_capacity(7);
    campaigns.extend(configs.by_ref().take(1).map(run_campaign));
    {
        let main = &campaigns[0].1;
        emit(&mut probe, &|| profile::fig08(main));
        emit(&mut probe, &|| profile::fig09(main));
        emit(&mut probe, &|| profile::fig11(main));
        emit(&mut probe, &|| profile::fig12(main));
        emit(&mut probe, &|| energy::fig16_17(main, ProcessNode::N28));
        emit(&mut probe, &|| energy::fig16_17(main, ProcessNode::N40));
        emit(&mut probe, &|| energy::fig18_19(main, ProcessNode::N28));
        emit(&mut probe, &|| energy::fig18_19(main, ProcessNode::N40));
        emit(&mut probe, &|| sensitivity::fig20(main));
        emit(&mut probe, &|| sensitivity::fig23(main));
    }

    campaigns.extend(configs.by_ref().take(3).map(run_campaign));
    emit(&mut probe, &|| {
        sensitivity::fig21(&[
            ("GTO", &campaigns[1].1),
            ("LRR", &campaigns[2].1),
            ("Two-Level", &campaigns[3].1),
        ])
    });

    campaigns.extend(configs.map(run_campaign));
    emit(&mut probe, &|| {
        sensitivity::fig22(&[
            ("GTX-480", &campaigns[4].1),
            ("Tesla-P100", &campaigns[5].1),
            ("Tesla-K80", &campaigns[6].1),
        ])
    });

    emit(&mut probe, &ablation::bus_invert_ablation);
    emit(&mut probe, &|| ablation::isa_mask_ablation(&apps, ARCH));
    let pivot_apps: Vec<Application> = ["OCE", "SCP", "HOT", "BFS"]
        .iter()
        .map(|c| Application::by_code(c).expect("pivot app is registered"))
        .collect();
    emit(&mut probe, &|| {
        ablation::pivot_ablation(&GpuConfig::baseline(), &pivot_apps, Parallelism::Sequential)
    });
    emit(&mut probe, &|| {
        ablation::edram_substrate(&campaigns[0].1, ProcessNode::N40)
    });

    Pass {
        text,
        campaigns,
        probe,
    }
}
