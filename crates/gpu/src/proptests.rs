//! Cross-module property tests for the GPU substrate (included from
//! `lib.rs` under `cfg(test)`).

use proptest::prelude::*;

use crate::cache::{Access, Cache, CacheConfig};
use crate::config::SchedulerKind;
use crate::dram::{DramChannel, DramConfig, DramRequest};
use crate::exec::{AddrPattern, FlatProgram, Warp, WarpEnv};
use crate::sched::Scheduler;
use crate::sim::{merge_shards, shard_sm_range};
use crate::stats::CodingView;
use crate::{Gpu, GpuConfig};
use bvf_isa::ir::{BufferId, CmpOp, Cond, Kernel, LaunchConfig, Op, Operand, Special, Stmt};
use bvf_isa::Architecture;

/// Vector add over buffers 0+1 into 2 — touches registers, both cache
/// levels, the NoC and DRAM, so every merged counter is exercised.
fn vecadd() -> Kernel {
    let mut k = Kernel::new("prop_vecadd", 6);
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
    k.body.push(Stmt::op3(
        Op::LdGlobal(BufferId(1)),
        2,
        Operand::Reg(0),
        Operand::Imm(0),
    ));
    k.body
        .push(Stmt::op3(Op::IAdd, 3, Operand::Reg(1), Operand::Reg(2)));
    k.body.push(Stmt::op4(
        Op::StGlobal(BufferId(2)),
        0,
        Operand::Reg(0),
        Operand::Imm(0),
        Operand::Reg(3),
    ));
    k
}

/// Decode one operand from seed bits: immediates, low registers (so
/// programs read their own results), and the full special set — mixing
/// warp-uniform (`CtaIdX`) with lane-varying (`LaneId`/`GlobalTid`)
/// sources so uniformity is gained and lost along the program.
fn decode_operand(sel: u32, val: u32) -> Operand {
    match sel % 6 {
        0 | 1 => Operand::Imm(val % 64),
        2 => Operand::Reg((val % 6) as u8),
        3 => Operand::Special(Special::LaneId),
        4 => Operand::Special(Special::GlobalTid),
        _ => Operand::Special(Special::CtaIdX),
    }
}

fn decode_cmp(sel: u32) -> CmpOp {
    match sel % 4 {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        _ => CmpOp::Ge,
    }
}

/// Decode a structured kernel body from a seed stream: ALU instructions
/// (integer and float), shared/global loads and stores, loops (including
/// zero-trip, for re-entry coverage), and divergent `If`s with and without
/// else arms. `budget` bounds total statement count across nesting.
fn decode_stmts(words: &mut std::slice::Iter<'_, u32>, depth: u32, budget: &mut u32) -> Vec<Stmt> {
    let mut body = Vec::new();
    while *budget > 0 {
        let Some(&w) = words.next() else { break };
        *budget -= 1;
        let dst = ((w >> 3) % 6) as u8;
        let a = decode_operand(w >> 8, w >> 11);
        let b = decode_operand(w >> 17, w >> 20);
        let c = decode_operand(w >> 26, (w >> 29) ^ w);
        let imm_off = Operand::Imm((w >> 7) % 32);
        match w % 12 {
            0 if depth < 2 => {
                let inner = decode_stmts(words, depth + 1, budget);
                body.push(Stmt::For {
                    n: (w >> 4) & 3,
                    body: inner,
                });
            }
            1 | 2 if depth < 2 => {
                let cond = Cond {
                    a,
                    op: decode_cmp(w >> 6),
                    b,
                };
                let then = decode_stmts(words, depth + 1, budget);
                let els = if w & 1 == 1 {
                    decode_stmts(words, depth + 1, budget)
                } else {
                    Vec::new()
                };
                body.push(Stmt::If { cond, then, els });
            }
            3 => body.push(Stmt::op3(Op::LdShared, dst, a, imm_off)),
            4 => body.push(Stmt::op4(Op::StShared, 0, a, imm_off, c)),
            5 => body.push(Stmt::op3(Op::LdGlobal(BufferId(0)), dst, a, imm_off)),
            6 => body.push(Stmt::op4(Op::StGlobal(BufferId(0)), 0, a, imm_off, c)),
            _ => {
                let op = match (w >> 5) % 10 {
                    0 => Op::Mov,
                    1 => Op::IAdd,
                    2 => Op::ISub,
                    3 => Op::IMul,
                    4 => Op::IMad,
                    5 => Op::And,
                    6 => Op::Xor,
                    7 => Op::Shr,
                    8 => Op::FAdd,
                    _ => Op::FMul,
                };
                body.push(Stmt::op4(op, dst, a, b, c));
            }
        }
    }
    body
}

fn decode_kernel(seed: &[u32]) -> Kernel {
    let mut k = Kernel::new("prop_uniformity", 6);
    let mut budget = seed.len() as u32;
    k.body = decode_stmts(&mut seed.iter(), 0, &mut budget);
    k
}

/// Bare-warp environment for the uniformity proptests: shared memory is a
/// flat array, global loads are a pure per-lane function of the index
/// (satisfying the `WarpEnv` load contract), and every callback folds its
/// arguments — except the `AddrPattern` hint, which legitimately differs
/// between scalarized and reference runs — into a running hash so event
/// streams can be compared across runs.
struct HashingEnv {
    shared: Vec<u32>,
    hash: u64,
    events: u64,
}

impl HashingEnv {
    fn new() -> Self {
        Self {
            shared: vec![0; 64],
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }

    fn mix(&mut self, tag: u64, words: &[u32]) {
        self.events += 1;
        let mut h = self.hash ^ tag;
        for &w in words {
            h = (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = h;
    }
}

impl WarpEnv for HashingEnv {
    fn on_reg_read(&mut self, reg_lanes: &[u32; 32], active: u32) {
        let mut v = [0u32; 33];
        v[..32].copy_from_slice(reg_lanes);
        v[32] = active;
        self.mix(1, &v);
    }
    fn on_reg_write(&mut self, reg_lanes: &[u32; 32], active: u32, pivot_divergent: bool) {
        let mut v = [0u32; 34];
        v[..32].copy_from_slice(reg_lanes);
        v[32] = active;
        v[33] = u32::from(pivot_divergent);
        self.mix(2, &v);
    }
    fn on_ifetch(&mut self, pc: usize, word: u64) {
        self.mix(3, &[pc as u32, word as u32, (word >> 32) as u32]);
    }
    fn global_access(
        &mut self,
        _op: Op,
        indices: &[u32; 32],
        data: Option<&[u32; 32]>,
        active: u32,
        _pattern: AddrPattern,
    ) -> [u32; 32] {
        let mut v = [0u32; 33];
        v[..32].copy_from_slice(indices);
        v[32] = active;
        self.mix(4, &v);
        if let Some(d) = data {
            self.mix(5, d);
            [0; 32]
        } else {
            core::array::from_fn(|l| indices[l].wrapping_mul(2_654_435_761))
        }
    }
    fn shared_access(
        &mut self,
        _op: Op,
        indices: &[u32; 32],
        data: Option<&[u32; 32]>,
        active: u32,
        _pattern: AddrPattern,
    ) -> [u32; 32] {
        let mut v = [0u32; 33];
        v[..32].copy_from_slice(indices);
        v[32] = active;
        self.mix(6, &v);
        let n = self.shared.len();
        if let Some(d) = data {
            self.mix(7, d);
            for l in 0..32 {
                if active >> l & 1 == 1 {
                    self.shared[indices[l] as usize % n] = d[l];
                }
            }
            [0; 32]
        } else {
            let out = core::array::from_fn(|l| self.shared[indices[l] as usize % n]);
            self.mix(8, &out);
            out
        }
    }
}

fn prepared_gpu(sms: u32, words: usize, seed: u32) -> Gpu {
    let mut cfg = GpuConfig::baseline();
    cfg.sms = sms;
    let mut gpu = Gpu::new(cfg, CodingView::standard_set(0x00ff_00ff));
    gpu.memory_mut().add_buffer(
        BufferId(0),
        (0..words as u32)
            .map(|i| i.wrapping_mul(seed | 1))
            .collect(),
    );
    gpu.memory_mut()
        .add_buffer(BufferId(1), (0..words as u32).map(|i| i ^ seed).collect());
    gpu.memory_mut().add_buffer(BufferId(2), vec![0; words]);
    gpu
}

proptest! {
    /// A cache access immediately repeated is always a hit, for any
    /// geometry and address stream.
    #[test]
    fn cache_repeat_access_hits(
        sets_log2 in 0u32..6,
        assoc in 1u32..8,
        addrs in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let line = 128u32;
        let bytes = u64::from(line) * u64::from(assoc) * (1 << sets_log2);
        let mut c = Cache::new(CacheConfig::new(bytes, line, assoc));
        for a in addrs {
            c.access_allocate(a);
            prop_assert_eq!(c.access_allocate(a), Access::Hit);
        }
    }

    /// Hits + misses always equals the number of accesses; the hit rate
    /// stays in [0, 1].
    #[test]
    fn cache_counters_are_consistent(addrs in proptest::collection::vec(any::<u32>(), 0..200)) {
        let mut c = Cache::new(CacheConfig::new(4096, 128, 2));
        for a in &addrs {
            c.access_allocate(u64::from(*a));
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&c.hit_rate()));
    }

    /// A working set no larger than the cache never misses after the cold
    /// pass, regardless of access order (LRU has no pathological thrashing
    /// within capacity when the set is fully associative).
    #[test]
    fn fully_associative_capacity_guarantee(
        order in proptest::collection::vec(0usize..8, 1..100)
    ) {
        // 8 lines capacity, fully associative.
        let mut c = Cache::new(CacheConfig::new(8 * 128, 128, 8));
        for i in 0..8u64 {
            c.access_allocate(i * 128);
        }
        for &i in &order {
            prop_assert_eq!(c.access_allocate(i as u64 * 128), Access::Hit);
        }
    }

    /// Every scheduler always returns a ready warp when one exists, and
    /// never returns an unready one.
    #[test]
    fn schedulers_pick_only_ready_warps(
        kind in prop_oneof![
            Just(SchedulerKind::Gto),
            Just(SchedulerKind::Lrr),
            Just(SchedulerKind::TwoLevel)
        ],
        steps in proptest::collection::vec(any::<u32>(), 1..64),
        n_warps in 1usize..24,
    ) {
        let mut s = Scheduler::new(kind);
        for mask in steps {
            let ready: Vec<bool> = (0..n_warps).map(|i| mask >> (i % 32) & 1 == 1).collect();
            match s.pick(&ready) {
                Some(w) => prop_assert!(ready[w], "{kind:?} picked unready warp {w}"),
                None => prop_assert!(ready.iter().all(|&r| !r)),
            }
        }
    }

    /// No ready warp starves under LRR: within `n` consecutive picks over a
    /// constant ready set, every ready warp is issued at least once.
    #[test]
    fn lrr_is_starvation_free(mask in 1u32..0xffff) {
        let n = 16usize;
        let ready: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        let mut s = Scheduler::new(SchedulerKind::Lrr);
        let mut seen = vec![false; n];
        for _ in 0..n {
            if let Some(w) = s.pick(&ready) {
                seen[w] = true;
            }
        }
        for (i, (&r, &got)) in ready.iter().zip(&seen).enumerate() {
            prop_assert!(!r || got, "warp {i} ready but never issued");
        }
    }

    /// DRAM: total busy cycles equals the sum of per-request latencies, and
    /// every latency is one of the three legal values.
    #[test]
    fn dram_latencies_are_legal(addrs in proptest::collection::vec(any::<u32>(), 1..128)) {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg);
        for a in &addrs {
            ch.enqueue(DramRequest { addr: u64::from(*a), is_write: a % 2 == 0 });
        }
        let hit = cfg.t_cas + cfg.t_burst;
        let activate = cfg.t_rcd + cfg.t_cas + cfg.t_burst;
        let conflict = cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.t_burst;
        let mut total = 0u64;
        while let Some(lat) = ch.service_one() {
            prop_assert!(
                lat == hit || lat == activate || lat == conflict,
                "illegal latency {lat}"
            );
            total += u64::from(lat);
        }
        prop_assert_eq!(total, ch.stats().busy_cycles);
        prop_assert_eq!(ch.stats().requests, addrs.len() as u64);
    }

    /// FR-FCFS never loses or duplicates requests.
    #[test]
    fn dram_conserves_requests(addrs in proptest::collection::vec(any::<u16>(), 0..256)) {
        let mut ch = DramChannel::new(DramConfig::default());
        for a in &addrs {
            ch.enqueue(DramRequest { addr: u64::from(*a) * 128, is_write: false });
        }
        ch.drain();
        prop_assert_eq!(ch.pending(), 0);
        prop_assert_eq!(ch.stats().requests, addrs.len() as u64);
    }

    /// [`shard_sm_range`] partitions `0..sms` into `count` contiguous,
    /// non-overlapping ranges (surplus shards when `count > sms` are empty).
    #[test]
    fn shard_ranges_partition_the_sms(sms in 1u32..64, count in 1u32..80) {
        let mut next = 0u32;
        for index in 0..count {
            let (start, end) = shard_sm_range(sms, index, count);
            prop_assert_eq!(start, next, "shard {index} not contiguous");
            prop_assert!(end >= start);
            next = end;
        }
        prop_assert_eq!(next, sms, "partition must cover every SM");
    }

    /// The merge law: running a launch as any number of SM-range shards and
    /// merging is bit-identical to the unsharded launch — for arbitrary
    /// grid geometry, data, and shard counts (including counts that do not
    /// divide the SM count, and counts exceeding it).
    #[test]
    fn shard_then_merge_equals_sequential_launch(
        sms in 1u32..5,
        grid_ctas in 1u32..10,
        threads_x32 in 1u32..5,
        count in 1u32..7,
        seed in any::<u32>(),
    ) {
        let k = vecadd();
        let lc = LaunchConfig::new(grid_ctas, threads_x32 * 32);
        let words = (grid_ctas * threads_x32 * 32) as usize;
        let mut gpu = prepared_gpu(sms, words, seed);
        let config = gpu.config().clone();
        let sequential = gpu.launch(&k, lc);
        let expected_out = gpu.memory().buffer(BufferId(2)).unwrap().to_vec();

        let mut shards = Vec::new();
        let mut out = vec![0u32; words];
        for index in 0..count {
            let mut gpu = prepared_gpu(sms, words, seed);
            shards.push(gpu.launch_shard(&k, lc, index, count));
            // Each shard's memory holds only its own CTAs' stores; the
            // written words are disjoint across shards.
            for (o, &v) in out.iter_mut().zip(gpu.memory().buffer(BufferId(2)).unwrap()) {
                if v != 0 {
                    *o = v;
                }
            }
        }
        let merged = merge_shards(&config, &shards);
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.cycles, sequential.cycles);
        prop_assert_eq!(out, expected_out);
    }

    /// The uniformity bitmask is always *conservative*: after every single
    /// step of a random kernel — divergent writes, loop re-entry, `IfEnd`
    /// reconvergence included — a register flagged uniform really holds 32
    /// equal lanes, and a register flagged affine is truly unit-stride.
    #[test]
    fn uniform_mask_is_always_conservative(
        seed in proptest::collection::vec(any::<u32>(), 4..48),
        cta_id in 0u32..3,
        warp_in_cta in 0u32..4,
    ) {
        let k = decode_kernel(&seed);
        let prog = FlatProgram::compile(&k, Architecture::Pascal);
        let mut warp = Warp::new(k.regs_per_thread, cta_id, warp_in_cta, 128);
        let mut env = HashingEnv::new();
        let mut steps = 0u32;
        while !warp.is_done() {
            warp.step(&prog, &mut env);
            warp.assert_lane_class_invariant();
            steps += 1;
            prop_assert!(steps < 200_000, "kernel did not terminate");
        }
    }

    /// Scalarized execution (uniform fast paths + block dispatch) is
    /// bit-identical to the pure lane-wise reference: same final register
    /// file, same program counter trace, and the same environment event
    /// stream (every callback, in the same order, with the same payloads).
    #[test]
    fn scalarized_execution_matches_lanewise_reference(
        seed in proptest::collection::vec(any::<u32>(), 4..48),
        cta_id in 0u32..3,
        warp_in_cta in 0u32..4,
    ) {
        let k = decode_kernel(&seed);
        let prog = FlatProgram::compile(&k, Architecture::Pascal);

        // Reference: scalarization off, one op per step.
        let mut reference = Warp::new(k.regs_per_thread, cta_id, warp_in_cta, 128);
        reference.set_scalarize(false);
        let mut renv = HashingEnv::new();
        let mut steps = 0u32;
        while !reference.is_done() {
            reference.step(&prog, &mut renv);
            steps += 1;
            prop_assert!(steps < 200_000, "kernel did not terminate");
        }

        // Scalarized, stepped per-op.
        let mut scalar = Warp::new(k.regs_per_thread, cta_id, warp_in_cta, 128);
        let mut senv = HashingEnv::new();
        while !scalar.is_done() {
            scalar.step(&prog, &mut senv);
        }

        // Scalarized, dispatched in maximal runs.
        let mut batched = Warp::new(k.regs_per_thread, cta_id, warp_in_cta, 128);
        let mut benv = HashingEnv::new();
        let mut issued = 0u64;
        while !batched.is_done() {
            let (_, n) = batched.step_run(&prog, &mut benv, u64::MAX);
            issued += n;
        }

        prop_assert_eq!(issued, u64::from(steps));
        for r in 0..k.regs_per_thread {
            prop_assert_eq!(reference.reg_lanes(r), scalar.reg_lanes(r), "r{}", r);
            prop_assert_eq!(reference.reg_lanes(r), batched.reg_lanes(r), "r{}", r);
        }
        prop_assert_eq!(renv.events, senv.events);
        prop_assert_eq!(renv.hash, senv.hash, "event stream diverged (scalar)");
        prop_assert_eq!(renv.events, benv.events);
        prop_assert_eq!(renv.hash, benv.hash, "event stream diverged (batched)");
        prop_assert_eq!(&renv.shared, &senv.shared);
        prop_assert_eq!(&renv.shared, &benv.shared);
    }
}
