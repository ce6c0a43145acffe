//! Multi-view statistics-collector benches: the per-event cost of folding
//! raw trace payloads into all five standard views. These are the hot
//! record paths of every simulation; they must stay allocation-free.

use bvf_core::Unit;
use bvf_gpu::noc::{channel_id, Direction};
use bvf_gpu::stats::{AccessKind, StatsCollector};
use bvf_gpu::CodingView;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

const FLIT_BYTES: usize = 32;

const ISA_MASK: u64 = 0x0123_4567_89ab_cdef;

fn collector() -> StatsCollector {
    StatsCollector::new(CodingView::standard_set(ISA_MASK), FLIT_BYTES)
}

/// The energy pair (`baseline` and `bvf`) an energy-collection campaign
/// records.
fn energy_collector() -> StatsCollector {
    StatsCollector::new(
        vec![CodingView::baseline(), CodingView::bvf(ISA_MASK)],
        FLIT_BYTES,
    )
}

fn line_image() -> [u8; 128] {
    core::array::from_fn(|i| (i as u8).wrapping_mul(0x9d) ^ 0x5a)
}

fn bench_record_line(c: &mut Criterion) {
    let mut g = c.benchmark_group("collector_record_line");
    let line = line_image();
    g.throughput(Throughput::Bytes(line.len() as u64));
    g.bench_function("l1d_read_128B_five_views", |b| {
        let mut col = collector();
        b.iter(|| col.record_line(Unit::L1d, AccessKind::Read, black_box(&line)))
    });
    g.finish();
}

fn bench_record_register(c: &mut Criterion) {
    let mut g = c.benchmark_group("collector_record_register");
    let lanes: [u32; 32] = core::array::from_fn(|i| 0x3f80_0000 + i as u32);
    g.throughput(Throughput::Bytes(32 * 4));
    // Identical input every iteration: after the first event this measures
    // the register-memo hit path (re-reading an unchanged register).
    g.bench_function("full_warp_five_views_memo_hit", |b| {
        let mut col = collector();
        b.iter(|| col.record_register(AccessKind::Write, black_box(&lanes), u32::MAX))
    });
    // Distinct input every iteration (more patterns than memo ways): the
    // full transpose-and-count path a register write takes.
    g.bench_function("full_warp_five_views_memo_miss", |b| {
        let patterns: Vec<[u32; 32]> = (0..512u32)
            .map(|p| core::array::from_fn(|i| (p << 16) ^ (0x3f80_0000 + i as u32)))
            .collect();
        let mut col = collector();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % patterns.len();
            col.record_register(AccessKind::Write, black_box(&patterns[k]), u32::MAX)
        })
    });
    // The same miss path over the two views of an energy collection.
    g.bench_function("full_warp_two_views_memo_miss", |b| {
        let patterns: Vec<[u32; 32]> = (0..512u32)
            .map(|p| core::array::from_fn(|i| (p << 16) ^ (0x3f80_0000 + i as u32)))
            .collect();
        let mut col = energy_collector();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % patterns.len();
            col.record_register(AccessKind::Write, black_box(&patterns[k]), u32::MAX)
        })
    });
    g.finish();
}

fn bench_record_shared(c: &mut Criterion) {
    let mut g = c.benchmark_group("collector_record_shared");
    let lanes: [u32; 32] = core::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9));
    g.throughput(Throughput::Bytes(32 * 4));
    g.bench_function("full_warp_five_views", |b| {
        let mut col = collector();
        b.iter(|| col.record_shared(AccessKind::Read, black_box(&lanes), u32::MAX))
    });
    g.finish();
}

fn bench_record_noc_packet(c: &mut Criterion) {
    let mut g = c.benchmark_group("collector_record_noc");
    let line = line_image();
    let header = [0x21u8; 16];
    g.throughput(Throughput::Bytes((line.len() + header.len()) as u64));
    g.bench_function("data_reply_128B_five_views", |b| {
        let mut col = collector();
        b.iter(|| col.record_noc_packet(3, black_box(&header), black_box(&line), false))
    });
    g.bench_function("instr_reply_128B_five_views", |b| {
        let mut col = collector();
        b.iter(|| col.record_noc_packet(4, black_box(&header), black_box(&line), true))
    });
    // Replies rotating over the baseline's 15 SMs x 6 L2 banks reply
    // channels, as a launch spreads them: every packet looks its channel
    // up among 90.
    g.bench_function("data_reply_128B_five_views_90_channels", |b| {
        let channels: Vec<u32> = (0..15)
            .flat_map(|sm| (0..6).map(move |bank| channel_id(sm, bank, Direction::Reply)))
            .collect();
        let mut col = collector();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 7) % channels.len();
            col.record_noc_packet(channels[k], black_box(&header), black_box(&line), false)
        })
    });
    g.finish();
}

fn bench_record_instruction_line(c: &mut Criterion) {
    let mut g = c.benchmark_group("collector_record_instruction_line");
    let words: [u64; 16] = core::array::from_fn(|i| 0xdead_beef_0000_0000 | i as u64);
    g.throughput(Throughput::Bytes(16 * 8));
    g.bench_function("l1i_fill_16_words_five_views", |b| {
        let mut col = collector();
        b.iter(|| col.record_instruction_line(Unit::L1i, AccessKind::Fill, black_box(&words)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_record_line,
    bench_record_register,
    bench_record_shared,
    bench_record_noc_packet,
    bench_record_instruction_line
);
criterion_main!(benches);
