//! Warp-interpreter microbenches: the per-instruction cost of the execute
//! loop under basic-block dispatch and the address-pattern fast paths.
//!
//! Two axes: per-op `step` vs block-dispatched `step_run` (does run
//! pre-decode amortize dispatch), and uniform vs scattered addresses
//! through the full SM memory front (does O(1) line grouping beat the
//! 32-lane scan).

use bvf_gpu::exec::{AddrPattern, FlatProgram, Warp, WarpEnv};
use bvf_gpu::{CodingView, Gpu, GpuConfig};
use bvf_isa::ir::{BufferId, Kernel, LaunchConfig, Op, Operand, Special, Stmt};
use bvf_isa::Architecture;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// Minimal environment: the interpreter's own cost, nothing else.
struct NoopEnv;

impl WarpEnv for NoopEnv {
    fn on_reg_read(&mut self, _: &[u32; 32], _: u32) {}
    fn on_reg_write(&mut self, _: &[u32; 32], _: u32, _: bool) {}
    fn on_ifetch(&mut self, _: usize, _: u64) {}
    fn global_access(
        &mut self,
        _: Op,
        indices: &[u32; 32],
        _: Option<&[u32; 32]>,
        _: u32,
        _: AddrPattern,
    ) -> [u32; 32] {
        core::array::from_fn(|l| indices[l].wrapping_mul(3))
    }
    fn shared_access(
        &mut self,
        _: Op,
        _: &[u32; 32],
        _: Option<&[u32; 32]>,
        _: u32,
        _: AddrPattern,
    ) -> [u32; 32] {
        [0; 32]
    }
}

const ALU_OPS: usize = 256;

/// Straight-line ALU seeded from `LaneId`, so every register is varying
/// and every op runs the full 32-lane path.
fn divergent_alu_kernel() -> Kernel {
    let mut k = Kernel::new("bench_divergent_alu", 6);
    k.body.push(Stmt::op3(
        Op::Mov,
        0,
        Operand::Special(Special::LaneId),
        Operand::Imm(0),
    ));
    // IMul by a non-unit factor demotes the affine lane id to varying.
    k.body
        .push(Stmt::op3(Op::IMul, 0, Operand::Reg(0), Operand::Imm(17)));
    for i in 0..ALU_OPS {
        let dst = 1 + (i % 4) as u8;
        k.body.push(Stmt::op4(
            Op::IMad,
            dst,
            Operand::Reg(0),
            Operand::Imm(3),
            Operand::Reg(dst),
        ));
    }
    k
}

fn run_per_op(prog: &FlatProgram, regs: u8) -> u64 {
    let mut w = Warp::new(regs, 0, 0, 32);
    let mut env = NoopEnv;
    let mut n = 0u64;
    while !w.is_done() {
        w.step(prog, &mut env);
        n += 1;
    }
    n
}

fn run_block(prog: &FlatProgram, regs: u8) -> u64 {
    let mut w = Warp::new(regs, 0, 0, 32);
    let mut env = NoopEnv;
    let mut n = 0u64;
    while !w.is_done() {
        let (_, issued) = w.step_run(prog, &mut env, u64::MAX);
        n += issued;
    }
    n
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_step_dispatch");
    g.throughput(Throughput::Elements(ALU_OPS as u64));
    let k = divergent_alu_kernel();
    let prog = FlatProgram::compile(&k, Architecture::Pascal);
    g.bench_function("per_op_step", |b| {
        b.iter(|| black_box(run_per_op(&prog, k.regs_per_thread)))
    });
    g.bench_function("block_step_run", |b| {
        b.iter(|| black_box(run_block(&prog, k.regs_per_thread)))
    });
    g.finish();
}

const MEM_LOOPS: u32 = 64;

/// A load loop whose index operand decides the address pattern the SM
/// memory front sees: `CtaIdX` (uniform), `GlobalTid` (stride-1), or
/// `GlobalTid * 17` (scatter).
fn memory_kernel(scatter: bool, uniform: bool) -> Kernel {
    let mut k = Kernel::new("bench_mem", 6);
    if uniform {
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::CtaIdX),
            Operand::Imm(0),
        ));
    } else {
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::GlobalTid),
            Operand::Imm(0),
        ));
        if scatter {
            k.body
                .push(Stmt::op3(Op::IMul, 0, Operand::Reg(0), Operand::Imm(17)));
        }
    }
    k.body.push(Stmt::For {
        n: MEM_LOOPS,
        body: vec![Stmt::op3(
            Op::LdGlobal(BufferId(0)),
            1,
            Operand::Reg(0),
            Operand::Imm(0),
        )],
    });
    k
}

fn mem_gpu() -> Gpu {
    let mut cfg = GpuConfig::baseline();
    cfg.sms = 2;
    let mut gpu = Gpu::new(cfg, CodingView::standard_set(0x00ff_00ff));
    gpu.memory_mut()
        .add_buffer(BufferId(0), (0..4096u32).map(|i| i ^ 0x5a5a).collect());
    gpu
}

fn bench_memory_patterns(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_step_memory");
    let lc = LaunchConfig::new(4, 128);
    g.throughput(Throughput::Elements(u64::from(MEM_LOOPS) * 4 * 4));
    for (name, scatter, uniform) in [
        ("uniform_index", false, true),
        ("stride1_index", false, false),
        ("scatter_index", true, false),
    ] {
        let k = memory_kernel(scatter, uniform);
        g.bench_function(name, |b| {
            let mut gpu = mem_gpu();
            b.iter(|| black_box(gpu.launch(&k, lc)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dispatch, bench_memory_patterns);
criterion_main!(benches);
