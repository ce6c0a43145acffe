//! Instrumentation-overhead benches: what `bvf-obs` probes cost on the
//! simulator's hot paths.
//!
//! The simulator instruments the word-granular collector calls (per issue,
//! per register access) with **counters only** — a thread-local `Vec`
//! index plus an add — precisely so that instrumentation cannot tax the
//! collector hot path. This bench holds that contract: it measures the
//! bare collector call against the counted one (enabled sink) with a
//! min-of-reps comparison and asserts the overhead stays under ~5%. The
//! no-op disabled-sink probes are benched alongside for the report.

use std::time::Duration;

use bvf_bench::min_of_paired_reps;
use bvf_gpu::stats::{AccessKind, StatsCollector};
use bvf_gpu::CodingView;
use bvf_obs::MetricsSink;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

const FLIT_BYTES: usize = 32;

fn collector() -> StatsCollector {
    StatsCollector::new(CodingView::standard_set(0x0123_4567_89ab_cdef), FLIT_BYTES)
}

fn reg_lanes() -> [u32; 32] {
    core::array::from_fn(|i| 0x3f80_0000 + i as u32)
}

/// The contract check: a counter probe on the word-granular collector hot
/// path costs < ~5% of the bare call. Runs in every mode (including the
/// single-shot smoke pass under `cargo test`), asserting only on the real
/// measurement.
fn assert_counter_overhead_bounded() {
    const REPS: usize = 15;
    const ITERS: usize = 20_000;
    let lanes = reg_lanes();

    let mut bare_col = collector();
    let sink = MetricsSink::enabled();
    let events = sink.counter("bench.reg_events");
    let mut rec = sink.recorder();
    let mut col = collector();
    let (plain, counted) = min_of_paired_reps(
        REPS,
        || {
            for _ in 0..ITERS {
                bare_col.record_register(AccessKind::Write, black_box(&lanes), u32::MAX);
            }
        },
        || {
            for _ in 0..ITERS {
                rec.add(events, 1);
                col.record_register(AccessKind::Write, black_box(&lanes), u32::MAX);
            }
        },
    );

    // 5% of the bare path plus 2.5 ns/iter of absolute slack, so a
    // sub-nanosecond probe cannot fail the bound on a noisy machine.
    let slack = Duration::from_nanos((25 * ITERS as u64) / 10);
    let bound = plain.mul_f64(1.05) + slack;
    assert!(
        counted <= bound,
        "counter probe overhead too high: bare {plain:?}, counted {counted:?} \
         (bound {bound:?} for {ITERS} iters)"
    );
    println!(
        "obs_overhead: bare {plain:?}, counted {counted:?} for {ITERS} reg writes \
         ({:+.2}% — bound +5%)",
        (counted.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0,
    );
}

fn bench_counter_on_hot_path(c: &mut Criterion) {
    assert_counter_overhead_bounded();

    let mut g = c.benchmark_group("obs_overhead_register");
    let lanes = reg_lanes();
    g.throughput(Throughput::Bytes(32 * 4));
    g.bench_function("bare_collector", |b| {
        let mut col = collector();
        b.iter(|| col.record_register(AccessKind::Write, black_box(&lanes), u32::MAX))
    });
    g.bench_function("counted_enabled_sink", |b| {
        let sink = MetricsSink::enabled();
        let events = sink.counter("bench.reg_events");
        let mut rec = sink.recorder();
        let mut col = collector();
        b.iter(|| {
            rec.add(events, 1);
            col.record_register(AccessKind::Write, black_box(&lanes), u32::MAX)
        })
    });
    g.bench_function("counted_disabled_sink", |b| {
        let sink = MetricsSink::disabled();
        let events = sink.counter("bench.reg_events");
        let mut rec = sink.recorder();
        let mut col = collector();
        b.iter(|| {
            rec.add(events, 1);
            col.record_register(AccessKind::Write, black_box(&lanes), u32::MAX)
        })
    });
    g.finish();
}

fn bench_raw_probes(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_probes");
    g.bench_function("counter_add_enabled", |b| {
        let sink = MetricsSink::enabled();
        let id = sink.counter("bench.add");
        let mut rec = sink.recorder();
        b.iter(|| rec.add(black_box(id), 1))
    });
    g.bench_function("counter_add_disabled", |b| {
        let sink = MetricsSink::disabled();
        let id = sink.counter("bench.add");
        let mut rec = sink.recorder();
        b.iter(|| rec.add(black_box(id), 1))
    });
    g.finish();
}

criterion_group!(benches, bench_counter_on_hot_path, bench_raw_probes);
criterion_main!(benches);
