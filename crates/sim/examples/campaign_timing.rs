//! Measure campaign wall time under different parallelism settings.
//!
//! Runs the full 58-app baseline campaign sequentially, then with the
//! auto-sized worker pool, prints each run report, and cross-checks that
//! both modes produced bit-identical results. The output feeds the
//! throughput tables in README.md and EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p bvf-sim --example campaign_timing
//! ```

use bvf_gpu::GpuConfig;
use bvf_sim::{Campaign, CampaignOptions, Parallelism};
use bvf_workloads::Application;

fn main() {
    let apps = Application::all();
    let full_baseline = |par| {
        let opts = CampaignOptions {
            par,
            ..CampaignOptions::default()
        };
        Campaign::run_with_options(GpuConfig::baseline(), &apps, &opts)
    };

    let seq = full_baseline(Parallelism::Sequential);
    println!("sequential   {}", seq.run_report());

    let auto = full_baseline(Parallelism::Auto);
    println!("auto         {}", auto.run_report());

    assert_eq!(
        seq, auto,
        "parallel campaign diverged from the sequential reference"
    );
    println!("results: bit-identical across modes");

    let speedup = seq.run_report().wall.as_secs_f64() / auto.run_report().wall.as_secs_f64();
    println!("measured speedup (auto vs sequential): {speedup:.2}x");
}
