//! Tracing-overhead bench: what `--trace` costs a campaign.
//!
//! The span pipeline is designed so that tracing never touches the
//! simulator's per-instruction hot path: workers emit a handful of
//! synthetic events per item from counters and profiles they already
//! computed, each straight into the sink under its lock, and the logical
//! tree is written once at assembly. This bench holds that contract with
//! a min-of-reps comparison of the sequential smoke campaign with and
//! without an enabled [`bvf_obs::TraceSink`], asserting the traced run
//! stays within ~5% of the untraced one. Its deterministic half, a bound
//! on spans (and so on sink lock acquisitions) per work item, is
//! `bvf_sim`'s `trace_volume_is_bounded_by_work_items` test.

use std::time::Duration;

use bvf_bench::min_of_paired_reps;
use bvf_obs::{MetricsSink, TraceSink};
use bvf_sim::{Campaign, CampaignOptions, Parallelism};
use criterion::{criterion_group, criterion_main, Criterion};

fn smoke_opts(tracer: TraceSink) -> CampaignOptions {
    CampaignOptions {
        par: Parallelism::Sequential,
        // Tracing implies the metrics sink (phase spans come from the
        // profiles), so the comparison keeps the sink on in both arms and
        // measures only what the trace pipeline itself adds.
        sink: MetricsSink::enabled(),
        tracer,
        trace_label: "bench".to_string(),
        ..CampaignOptions::default()
    }
}

/// The contract check: an enabled trace sink costs < ~5% of the untraced
/// sequential smoke campaign.
fn assert_trace_overhead_bounded() {
    const REPS: usize = 15;
    let (plain, traced) = min_of_paired_reps(
        REPS,
        || {
            let c = Campaign::smoke(&smoke_opts(TraceSink::disabled()));
            assert!(c.failures.is_empty());
        },
        || {
            let tracer = TraceSink::enabled();
            let c = Campaign::smoke(&smoke_opts(tracer.clone()));
            assert!(c.failures.is_empty());
            assert!(!tracer.events().is_empty(), "tracing produced no spans");
        },
    );
    // 5% plus 2 ms of absolute slack: the smoke campaign is tens of
    // milliseconds, and a trace that stayed off the per-instruction path
    // costs microseconds — only a pathological regression (per-event
    // spans in the simulate loop, say) can cross this bound.
    let bound = plain.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        traced <= bound,
        "trace overhead too high: untraced {plain:?}, traced {traced:?} (bound {bound:?})"
    );
    println!(
        "trace_overhead: untraced {plain:?}, traced {traced:?} ({:+.2}% — bound +5%)",
        (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0,
    );
}

fn bench_traced_campaign(c: &mut Criterion) {
    assert_trace_overhead_bounded();

    let mut g = c.benchmark_group("trace_overhead_campaign");
    g.sample_size(10);
    g.bench_function("smoke_untraced", |b| {
        b.iter(|| Campaign::smoke(&smoke_opts(TraceSink::disabled())))
    });
    g.bench_function("smoke_traced", |b| {
        b.iter(|| Campaign::smoke(&smoke_opts(TraceSink::enabled())))
    });
    g.finish();
}

criterion_group!(benches, bench_traced_campaign);
criterion_main!(benches);
