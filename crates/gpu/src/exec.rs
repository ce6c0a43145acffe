//! Warp-level execution: structured-IR flattening and the SIMT interpreter.
//!
//! Kernels arrive as structured `bvf-isa` statements; at launch they are
//! flattened into a linear [`FlatProgram`] with explicit control pseudo-ops
//! and one 64-bit instruction word per op (the instruction-stream payload
//! the ISA coder operates on). Each [`Warp`] then steps through the program
//! with a SIMT control stack handling uniform loops and divergent branches
//! with immediate post-dominator reconvergence.

use bvf_isa::encode::{encode_instruction, pseudo};
use bvf_isa::ir::{CmpOp, Cond, Instr, Kernel, Op, Operand, Special, Stmt};
use bvf_isa::Architecture;

/// A flattened program operation.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatOp {
    /// Execute a real instruction.
    Exec(Instr),
    /// Uniform loop entry; `end_pc` is the matching [`FlatOp::LoopEnd`].
    LoopStart {
        /// Trip count.
        n: u32,
        /// Index of the matching `LoopEnd`.
        end_pc: usize,
    },
    /// Uniform loop back-edge.
    LoopEnd,
    /// Divergent branch entry.
    IfStart {
        /// The per-lane condition.
        cond: Cond,
        /// First op of the else arm (index just past the `Else` marker), or
        /// `end_pc` when there is no else arm.
        else_body_pc: usize,
        /// Index of the matching [`FlatOp::IfEnd`].
        end_pc: usize,
    },
    /// End of the then arm; `end_pc` is the matching [`FlatOp::IfEnd`].
    Else {
        /// Index of the matching `IfEnd`.
        end_pc: usize,
    },
    /// Reconvergence point of a divergent branch.
    IfEnd,
    /// Kernel exit.
    Exit,
}

/// A flattened, assembled kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatProgram {
    /// The linear op sequence; the last op is always [`FlatOp::Exit`].
    pub ops: Vec<FlatOp>,
    /// One 64-bit instruction word per op (the binary the ISA coder sees).
    pub words: Vec<u64>,
    /// Basic-block pre-decode: `run_len[pc]` is the length of the maximal
    /// straight-line run of pure-ALU [`FlatOp::Exec`] ops starting at `pc`
    /// (0 for control, memory, and barrier ops). [`Warp::step_run`] walks a
    /// whole run without re-entering the per-op dispatch match; every run
    /// op is guaranteed to complete with [`StepResult::Ok`].
    pub run_len: Vec<u32>,
    /// Registers per thread required by the kernel.
    pub regs_per_thread: u8,
    /// Shared-memory words per CTA.
    pub shared_words: u32,
}

impl FlatProgram {
    /// Flatten and assemble `kernel` for `arch`.
    pub fn compile(kernel: &Kernel, arch: Architecture) -> Self {
        let mut ops = Vec::new();
        flatten(&kernel.body, &mut ops);
        ops.push(FlatOp::Exit);
        let words = ops
            .iter()
            .map(|op| match op {
                FlatOp::Exec(i) => encode_instruction(i, arch),
                FlatOp::LoopStart { n, .. } => pseudo::loop_setup(arch, *n),
                FlatOp::LoopEnd => pseudo::branch(arch, 0),
                FlatOp::IfStart { cond, .. } => pseudo::setp(arch, cond),
                FlatOp::Else { end_pc } => pseudo::branch(arch, *end_pc as u32),
                FlatOp::IfEnd => pseudo::sync(arch),
                FlatOp::Exit => pseudo::exit(arch),
            })
            .collect();
        // Maximal pure-ALU runs, computed backwards: a run op neither
        // branches nor yields (no memory, no barrier), so a whole run can
        // issue under one scheduler slot with unchanged semantics.
        let mut run_len = vec![0u32; ops.len()];
        for pc in (0..ops.len().saturating_sub(1)).rev() {
            if let FlatOp::Exec(i) = &ops[pc] {
                if !i.op.is_memory() && i.op != Op::Bar {
                    run_len[pc] = 1 + run_len[pc + 1];
                }
            }
        }
        Self {
            ops,
            words,
            run_len,
            regs_per_thread: kernel.regs_per_thread,
            shared_words: kernel.shared_words,
        }
    }
}

fn flatten(stmts: &[Stmt], out: &mut Vec<FlatOp>) {
    for s in stmts {
        match s {
            Stmt::I(i) => out.push(FlatOp::Exec(*i)),
            Stmt::For { n, body } => {
                let start = out.len();
                out.push(FlatOp::LoopStart { n: *n, end_pc: 0 });
                flatten(body, out);
                let end = out.len();
                out.push(FlatOp::LoopEnd);
                if let FlatOp::LoopStart { end_pc, .. } = &mut out[start] {
                    *end_pc = end;
                }
            }
            Stmt::If { cond, then, els } => {
                let start = out.len();
                out.push(FlatOp::IfStart {
                    cond: *cond,
                    else_body_pc: 0,
                    end_pc: 0,
                });
                flatten(then, out);
                let else_body_pc;
                if els.is_empty() {
                    else_body_pc = out.len(); // points at IfEnd
                } else {
                    let else_marker = out.len();
                    out.push(FlatOp::Else { end_pc: 0 });
                    flatten(els, out);
                    else_body_pc = else_marker + 1;
                    let end = out.len();
                    if let FlatOp::Else { end_pc } = &mut out[else_marker] {
                        *end_pc = end;
                    }
                }
                let end = out.len();
                out.push(FlatOp::IfEnd);
                if let FlatOp::IfStart {
                    else_body_pc: e,
                    end_pc,
                    ..
                } = &mut out[start]
                {
                    *end_pc = end;
                    *e = if els.is_empty() { end } else { else_body_pc };
                }
            }
        }
    }
}

/// SIMT control-stack frame.
#[derive(Debug, Clone, PartialEq)]
enum Frame {
    Loop {
        remaining: u32,
        body_pc: usize,
    },
    If {
        resume: u32,
        else_mask: u32,
        entered_else: bool,
    },
}

/// What a single warp step produced (the SM reacts to memory/barrier/exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// An ALU or control op completed.
    Ok,
    /// A memory operation was issued (the warp may be descheduled).
    Memory,
    /// The warp reached a CTA barrier and is waiting.
    Barrier,
    /// The warp finished.
    Exited,
}

/// What the interpreter statically knows about one warp memory access's
/// per-lane index vector, derived from the uniformity classes of the
/// address operands. The hint is **guaranteed**, not heuristic: an
/// environment may build its line grouping in O(1) from `indices[0]`
/// instead of scanning 32 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrPattern {
    /// Every lane (active or not) carries the same index.
    Uniform,
    /// `indices[l] == indices[0].wrapping_add(l)` for every lane.
    Stride1,
    /// No statically known structure — scan the lanes.
    Scatter,
}

/// Environment callbacks the interpreter uses for everything outside pure
/// lane arithmetic: register-file traffic, memory accesses, instruction
/// fetch, and barriers. Implemented by the SM model (and by mocks in tests).
pub trait WarpEnv {
    /// A register was read as an operand: full 32-lane contents + mask.
    fn on_reg_read(&mut self, reg_lanes: &[u32; 32], active: u32);
    /// The distinct register operands of one instruction, before the reads
    /// are issued — lets the SM model operand-collector bank conflicts.
    /// Default: no-op.
    fn on_operand_group(&mut self, regs: &[u8]) {
        let _ = regs;
    }
    /// A register was written: full post-write contents + written mask, and
    /// whether the write covered the VS pivot lane under divergence.
    fn on_reg_write(&mut self, reg_lanes: &[u32; 32], active: u32, pivot_divergent: bool);
    /// Instruction fetch of the word at `pc`.
    fn on_ifetch(&mut self, pc: usize, word: u64);
    /// Global/const/texture memory access. `indices` are per-lane word
    /// indices into the buffer; for stores `data` carries lane values.
    /// Loads return per-lane data. `pattern` is the interpreter's
    /// guaranteed structure of `indices` (see [`AddrPattern`]).
    ///
    /// Contract: loaded lane data must be a pure per-lane function of the
    /// index, so equal indices load equal values — the interpreter relies
    /// on this to mark a full-warp uniform-index load's destination
    /// register warp-uniform.
    fn global_access(
        &mut self,
        op: Op,
        indices: &[u32; 32],
        data: Option<&[u32; 32]>,
        active: u32,
        pattern: AddrPattern,
    ) -> [u32; 32];
    /// Shared-memory access (word addresses within the CTA's allocation).
    /// The same load contract as [`WarpEnv::global_access`] applies.
    fn shared_access(
        &mut self,
        op: Op,
        indices: &[u32; 32],
        data: Option<&[u32; 32]>,
        active: u32,
        pattern: AddrPattern,
    ) -> [u32; 32];
}

/// The VS pivot lane used for divergence bookkeeping.
const PIVOT_LANE: usize = bvf_core::PAPER_PIVOT_LANE;

/// What the warp statically knows about a register's (or an operand's)
/// 32-lane value vector. The classes are *conservative*: `Uniform` and
/// `Affine` guarantee the stated lane structure, `Varying` guarantees
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneClass {
    /// All 32 lanes hold the same value.
    Uniform,
    /// `lanes[l] == lanes[0].wrapping_add(l)` (unit stride — thread ids
    /// and the index vectors derived from them).
    Affine,
    /// No known structure.
    Varying,
}

/// One 32-lane warp's execution state.
#[derive(Debug, Clone, PartialEq)]
pub struct Warp {
    /// Register file slice: `regs[r * 32 + lane]`.
    regs: Vec<u32>,
    pc: usize,
    active: u32,
    stack: Vec<Frame>,
    done: bool,
    /// Bit `r` set ⟹ all 32 lanes of register `r` are equal. Maintained on
    /// every write: a full-warp write of a known-uniform value sets the
    /// bit, anything else (divergent write, varying value) clears it.
    /// Registers ≥ 64 are always treated as varying.
    uniform: u64,
    /// Bit `r` set ⟹ register `r` is unit-stride affine (see
    /// [`LaneClass::Affine`]). Disjoint from `uniform`.
    affine: u64,
    /// Scalarization switch (always on in production; tests disable it to
    /// compare the fast paths against pure lane-wise execution).
    scalarize: bool,
    /// CTA index of this warp.
    pub cta_id: u32,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// Threads per CTA (for `NTidX`).
    pub cta_threads: u32,
}

impl Warp {
    /// Create a warp at the program start with all lanes active and
    /// registers zeroed.
    pub fn new(regs_per_thread: u8, cta_id: u32, warp_in_cta: u32, cta_threads: u32) -> Self {
        Self {
            regs: vec![0; usize::from(regs_per_thread) * 32],
            pc: 0,
            active: u32::MAX,
            stack: Vec::new(),
            done: false,
            // Zeroed registers are splats.
            uniform: u64::MAX,
            affine: 0,
            scalarize: true,
            cta_id,
            warp_in_cta,
            cta_threads,
        }
    }

    /// Has the warp exited?
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Current 32-lane contents of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of the kernel's register range.
    pub fn reg_lanes(&self, r: u8) -> [u32; 32] {
        *self.reg_lanes_ref(r)
    }

    /// Borrowed view of register `r`'s 32 lanes (no copy — the register
    /// file is lane-major, so a register is one contiguous slice).
    fn reg_lanes_ref(&self, r: u8) -> &[u32; 32] {
        let base = usize::from(r) * 32;
        (&self.regs[base..base + 32])
            .try_into()
            .expect("register slice is 32 lanes")
    }

    fn set_reg_lanes(&mut self, r: u8, values: &[u32; 32], mask: u32) {
        let base = usize::from(r) * 32;
        if mask == u32::MAX {
            self.regs[base..base + 32].copy_from_slice(values);
        } else {
            for (lane, &v) in values.iter().enumerate() {
                if mask >> lane & 1 == 1 {
                    self.regs[base + lane] = v;
                }
            }
        }
    }

    /// Materialize a special register's 32 lanes. The warp-uniform specials
    /// splat once; the lane-varying ones are all unit-stride in the lane
    /// index, so a single base + offset loop covers them — no per-lane
    /// `match` (they re-matched per lane before this was hoisted).
    fn special_lanes(&self, s: Special) -> [u32; 32] {
        match s {
            Special::CtaIdX => [self.cta_id; 32],
            Special::NTidX => [self.cta_threads; 32],
            Special::WarpId => [self.warp_in_cta; 32],
            Special::LaneId => core::array::from_fn(|l| l as u32),
            Special::TidX => {
                let base = self.warp_in_cta * 32;
                core::array::from_fn(|l| base + l as u32)
            }
            Special::GlobalTid => {
                let base = self.cta_id * self.cta_threads + self.warp_in_cta * 32;
                core::array::from_fn(|l| base + l as u32)
            }
        }
    }

    fn operand_lanes(&self, operand: Operand) -> [u32; 32] {
        // Dispatch on the operand kind once per warp, not once per lane.
        match operand {
            Operand::Reg(r) => self.reg_lanes(r),
            Operand::Imm(v) => [v; 32],
            Operand::Special(s) => self.special_lanes(s),
        }
    }

    fn reg_class(&self, r: u8) -> LaneClass {
        if r >= 64 {
            return LaneClass::Varying;
        }
        if self.uniform >> r & 1 == 1 {
            LaneClass::Uniform
        } else if self.affine >> r & 1 == 1 {
            LaneClass::Affine
        } else {
            LaneClass::Varying
        }
    }

    fn set_reg_class(&mut self, r: u8, class: LaneClass) {
        if r >= 64 {
            return;
        }
        let bit = 1u64 << r;
        self.uniform &= !bit;
        self.affine &= !bit;
        match class {
            LaneClass::Uniform => self.uniform |= bit,
            LaneClass::Affine => self.affine |= bit,
            LaneClass::Varying => {}
        }
    }

    fn operand_class(&self, operand: Operand) -> LaneClass {
        match operand {
            Operand::Imm(_) => LaneClass::Uniform,
            Operand::Reg(r) => self.reg_class(r),
            Operand::Special(s) => match s {
                Special::CtaIdX | Special::NTidX | Special::WarpId => LaneClass::Uniform,
                Special::TidX | Special::LaneId | Special::GlobalTid => LaneClass::Affine,
            },
        }
    }

    /// The operand's splat value when it is statically known uniform (and
    /// scalarization is on), else `None`.
    fn operand_scalar(&self, operand: Operand) -> Option<u32> {
        if !self.scalarize {
            return None;
        }
        match operand {
            Operand::Imm(v) => Some(v),
            Operand::Reg(r) => {
                (self.reg_class(r) == LaneClass::Uniform).then(|| self.regs[usize::from(r) * 32])
            }
            Operand::Special(Special::CtaIdX) => Some(self.cta_id),
            Operand::Special(Special::NTidX) => Some(self.cta_threads),
            Operand::Special(Special::WarpId) => Some(self.warp_in_cta),
            Operand::Special(_) => None,
        }
    }

    fn eval_cond(&self, c: &Cond) -> u32 {
        // Two uniform operands compare once and yield an all-or-nothing
        // mask — the overwhelmingly common case for loop/branch guards.
        if let (Some(a), Some(b)) = (self.operand_scalar(c.a), self.operand_scalar(c.b)) {
            let (a, b) = (a as i32, b as i32);
            let t = match c.op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Ge => a >= b,
            };
            return if t { u32::MAX } else { 0 };
        }
        let av = self.operand_lanes(c.a);
        let bv = self.operand_lanes(c.b);
        let mut mask = 0u32;
        for lane in 0..32 {
            let (a, b) = (av[lane] as i32, bv[lane] as i32);
            let t = match c.op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Ge => a >= b,
            };
            if t {
                mask |= 1 << lane;
            }
        }
        mask
    }

    /// Report each distinct register operand of `i` as a read event.
    fn report_operand_reads(&self, i: &Instr, env: &mut impl WarpEnv) {
        // At most three operands — a fixed array keeps this allocation-free
        // (it runs once per executed instruction).
        let mut seen = [0u8; 3];
        let mut n = 0;
        for operand in [i.a, i.b, i.c] {
            if let Operand::Reg(r) = operand {
                if !seen[..n].contains(&r) {
                    seen[n] = r;
                    n += 1;
                }
            }
        }
        let seen = &seen[..n];
        env.on_operand_group(seen);
        for &r in seen {
            env.on_reg_read(self.reg_lanes_ref(r), self.active);
        }
    }

    fn write_dst(&mut self, dst: u8, values: &[u32; 32], class: LaneClass, env: &mut impl WarpEnv) {
        self.set_reg_lanes(dst, values, self.active);
        // The class describes `values`; it carries over to the register
        // only when the write covers every lane — a divergent write mixes
        // old and new lanes, so the result is conservatively varying.
        self.set_reg_class(
            dst,
            if self.active == u32::MAX {
                class
            } else {
                LaneClass::Varying
            },
        );
        let pivot_divergent = self.active != u32::MAX && (self.active >> PIVOT_LANE) & 1 == 1;
        // A full-warp write leaves the register equal to `values`; only a
        // divergent write needs the merged (old ∪ new) lanes read back.
        if self.active == u32::MAX {
            env.on_reg_write(values, u32::MAX, pivot_divergent);
        } else {
            env.on_reg_write(self.reg_lanes_ref(dst), self.active, pivot_divergent);
        }
    }

    /// Execute one op. Fetches the instruction word, then interprets.
    ///
    /// # Panics
    ///
    /// Panics if the warp has already exited.
    pub fn step(&mut self, prog: &FlatProgram, env: &mut impl WarpEnv) -> StepResult {
        assert!(!self.done, "stepping an exited warp");
        let pc = self.pc;
        env.on_ifetch(pc, prog.words[pc]);
        match &prog.ops[pc] {
            FlatOp::Exit => {
                self.done = true;
                StepResult::Exited
            }
            FlatOp::LoopStart { n, end_pc } => {
                if *n == 0 {
                    self.pc = end_pc + 1;
                } else {
                    self.stack.push(Frame::Loop {
                        remaining: *n,
                        body_pc: pc + 1,
                    });
                    self.pc += 1;
                }
                StepResult::Ok
            }
            FlatOp::LoopEnd => {
                match self.stack.last_mut() {
                    Some(Frame::Loop { remaining, body_pc }) => {
                        *remaining -= 1;
                        if *remaining > 0 {
                            self.pc = *body_pc;
                        } else {
                            self.stack.pop();
                            self.pc += 1;
                        }
                    }
                    other => panic!("LoopEnd without Loop frame: {other:?}"),
                }
                StepResult::Ok
            }
            FlatOp::IfStart {
                cond,
                else_body_pc,
                end_pc,
            } => {
                let taken = self.eval_cond(cond) & self.active;
                let not_taken = self.active & !taken;
                if taken != 0 {
                    self.stack.push(Frame::If {
                        resume: self.active,
                        else_mask: not_taken,
                        entered_else: false,
                    });
                    self.active = taken;
                    self.pc += 1;
                } else {
                    self.stack.push(Frame::If {
                        resume: self.active,
                        else_mask: 0,
                        entered_else: true,
                    });
                    self.active = not_taken;
                    self.pc = if *else_body_pc == *end_pc {
                        *end_pc
                    } else {
                        *else_body_pc
                    };
                }
                StepResult::Ok
            }
            FlatOp::Else { end_pc } => {
                match self.stack.last_mut() {
                    Some(Frame::If {
                        else_mask,
                        entered_else,
                        ..
                    }) => {
                        if !*entered_else && *else_mask != 0 {
                            *entered_else = true;
                            self.active = *else_mask;
                            self.pc += 1;
                        } else {
                            self.pc = *end_pc;
                        }
                    }
                    other => panic!("Else without If frame: {other:?}"),
                }
                StepResult::Ok
            }
            FlatOp::IfEnd => {
                match self.stack.pop() {
                    Some(Frame::If { resume, .. }) => {
                        self.active = resume;
                        self.pc += 1;
                    }
                    other => panic!("IfEnd without If frame: {other:?}"),
                }
                StepResult::Ok
            }
            FlatOp::Exec(i) => {
                let i = *i;
                self.pc += 1;
                self.exec_instr(&i, env)
            }
        }
    }

    /// Execute up to `max` ops, dispatching whole pre-decoded straight-line
    /// runs (see [`FlatProgram::run_len`]) without re-entering the per-op
    /// `step` match. Every per-instruction event — ifetch probe, operand
    /// reads, register writes — fires identically and in the same order as
    /// `max` individual [`Warp::step`] calls; only the dispatch overhead is
    /// amortized. Returns the final step's result and the number of ops
    /// issued; stops early (with fewer ops) on the first non-`Ok` result.
    pub fn step_run(
        &mut self,
        prog: &FlatProgram,
        env: &mut impl WarpEnv,
        max: u64,
    ) -> (StepResult, u64) {
        let mut issued = 0u64;
        while issued < max {
            let run = u64::from(prog.run_len[self.pc]);
            if run == 0 {
                // Control, memory, barrier, or exit: one classic step.
                let r = self.step(prog, env);
                issued += 1;
                if r != StepResult::Ok {
                    return (r, issued);
                }
                continue;
            }
            // Pure-ALU run: every op completes with `Ok` by construction.
            let take = run.min(max - issued);
            for _ in 0..take {
                let pc = self.pc;
                env.on_ifetch(pc, prog.words[pc]);
                let FlatOp::Exec(i) = &prog.ops[pc] else {
                    unreachable!("run_len > 0 only on Exec ops")
                };
                let i = *i;
                self.pc += 1;
                let r = self.exec_instr(&i, env);
                debug_assert_eq!(r, StepResult::Ok, "run op must be pure ALU");
            }
            issued += take;
        }
        (StepResult::Ok, issued)
    }

    fn exec_instr(&mut self, i: &Instr, env: &mut impl WarpEnv) -> StepResult {
        if i.op == Op::Bar {
            return StepResult::Barrier;
        }
        self.report_operand_reads(i, env);
        if i.op.is_memory() {
            let (indices, pattern) = self.index_lanes(i);
            let active = self.active;
            if i.op.is_store() {
                let data = self.operand_lanes(i.c);
                if matches!(i.op, Op::StShared) {
                    env.shared_access(i.op, &indices, Some(&data), active, pattern);
                } else {
                    env.global_access(i.op, &indices, Some(&data), active, pattern);
                }
            } else {
                let loaded = if matches!(i.op, Op::LdShared) {
                    env.shared_access(i.op, &indices, None, active, pattern)
                } else {
                    env.global_access(i.op, &indices, None, active, pattern)
                };
                // A full-warp load from one uniform index is a splat (see
                // the WarpEnv load contract).
                let cls = if active == u32::MAX && pattern == AddrPattern::Uniform {
                    LaneClass::Uniform
                } else {
                    LaneClass::Varying
                };
                self.write_dst(i.dst, &loaded, cls, env);
            }
            return StepResult::Memory;
        }
        // Pure ALU.
        let (ca, cb, cc) = (
            self.operand_class(i.a),
            self.operand_class(i.b),
            self.operand_class(i.c),
        );
        let a = self.operand_lanes(i.a);
        let b = self.operand_lanes(i.b);
        let c = self.operand_lanes(i.c);
        let out = alu_warp(i.op, &a, &b, &c);
        self.write_dst(i.dst, &out, alu_out_class(i.op, ca, cb, cc), env);
        StepResult::Ok
    }

    fn index_lanes(&self, i: &Instr) -> ([u32; 32], AddrPattern) {
        let base = self.operand_lanes(i.a);
        let off = match i.b {
            Operand::Imm(v) => v,
            _ => 0,
        };
        let indices = core::array::from_fn(|l| base[l].wrapping_add(off));
        // A constant offset preserves the base operand's lane structure.
        let pattern = if !self.scalarize {
            AddrPattern::Scatter
        } else {
            match self.operand_class(i.a) {
                LaneClass::Uniform => AddrPattern::Uniform,
                LaneClass::Affine => AddrPattern::Stride1,
                LaneClass::Varying => AddrPattern::Scatter,
            }
        };
        (indices, pattern)
    }

    /// Disable (or re-enable) the uniformity fast paths so tests can
    /// compare scalarized execution against the pure lane-wise reference.
    #[cfg(test)]
    pub(crate) fn set_scalarize(&mut self, on: bool) {
        self.scalarize = on;
    }

    /// Check the lane-class invariant: every register flagged uniform is a
    /// true 32-lane splat, every register flagged affine is unit-stride.
    #[cfg(test)]
    pub(crate) fn assert_lane_class_invariant(&self) {
        let nregs = self.regs.len() / 32;
        for r in 0..nregs.min(64) {
            let lanes = self.reg_lanes_ref(r as u8);
            if self.uniform >> r & 1 == 1 {
                assert!(
                    lanes.iter().all(|&v| v == lanes[0]),
                    "r{r} flagged uniform but lanes differ: {lanes:?}"
                );
            }
            if self.affine >> r & 1 == 1 {
                for (l, &v) in lanes.iter().enumerate() {
                    assert_eq!(
                        v,
                        lanes[0].wrapping_add(l as u32),
                        "r{r} flagged affine but lane {l} breaks unit stride"
                    );
                }
            }
        }
    }
}

/// Lane-class propagation for pure-ALU results, given the input classes.
/// Conservative: anything not provably structured is `Varying`.
fn alu_out_class(op: Op, ca: LaneClass, cb: LaneClass, cc: LaneClass) -> LaneClass {
    use LaneClass::*;
    match op {
        // Mov copies its first operand verbatim (b/c are ignored).
        Op::Mov => ca,
        // splat + stride-1 shifts the base; stride-1 − stride-1 cancels.
        Op::IAdd => match (ca, cb) {
            (Uniform, Uniform) => Uniform,
            (Uniform, Affine) | (Affine, Uniform) => Affine,
            _ => Varying,
        },
        Op::ISub => match (ca, cb) {
            (Uniform, Uniform) | (Affine, Affine) => Uniform,
            (Affine, Uniform) => Affine,
            _ => Varying,
        },
        // a*b + c: a uniform product plus a stride-1 addend stays stride-1.
        Op::IMad => match (ca, cb, cc) {
            (Uniform, Uniform, Uniform) => Uniform,
            (Uniform, Uniform, Affine) => Affine,
            _ => Varying,
        },
        // Every ALU op is a pure per-lane function, so all-uniform inputs
        // always produce a uniform output.
        _ => {
            if (ca, cb, cc) == (Uniform, Uniform, Uniform) {
                Uniform
            } else {
                Varying
            }
        }
    }
}

/// Sign bit of an `f32`.
const SIGN: u32 = 0x8000_0000;
/// Quiet bit of an `f32` NaN.
const QUIET: u32 = 0x0040_0000;
/// The NaN x86 returns when no operand was NaN (its "real indefinite").
const DEFAULT_NAN: u32 = 0xffc0_0000;

fn is_nan(x: u32) -> bool {
    x & !SIGN > 0x7f80_0000
}

/// One lane of an ALU op. Float results are pinned by [`pin_float`]
/// where Rust leaves their bits open or [`alu_raw`] may be inexact.
#[inline(always)]
fn alu(op: Op, a: u32, b: u32, c: u32) -> u32 {
    let r = alu_raw(op, a, b, c);
    if needs_pin(op, a, b, c, r) {
        pin_float(op, a, b, c, r)
    } else {
        r
    }
}

#[inline(always)]
fn alu_raw(op: Op, a: u32, b: u32, c: u32) -> u32 {
    let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
    match op {
        Op::Mov => a,
        Op::IAdd => a.wrapping_add(b),
        Op::ISub => a.wrapping_sub(b),
        Op::IMul => a.wrapping_mul(b),
        Op::IMad => a.wrapping_mul(b).wrapping_add(c),
        Op::IMin => (a as i32).min(b as i32) as u32,
        Op::IMax => (a as i32).max(b as i32) as u32,
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        Op::Shl => a << (b & 31),
        Op::Shr => a >> (b & 31),
        Op::Clz => a.leading_zeros(),
        Op::FAdd => (fa + fb).to_bits(),
        Op::FMul => (fa * fb).to_bits(),
        Op::FFma => (ffma_wide(fa, fb, fc) as f32).to_bits(),
        Op::FMin => fa.min(fb).to_bits(),
        Op::FMax => fa.max(fb).to_bits(),
        Op::I2F => (a as i32 as f32).to_bits(),
        Op::F2I => (f32::from_bits(a) as i32) as u32,
        _ => unreachable!("memory/barrier ops handled by the caller"),
    }
}

/// `a * b + c` in `f64`, where the product of two `f32`s is exact and only
/// the sum rounds. Rounding it again to `f32` is the single rounding of
/// the exact value that `f32::mul_add` computes (without its out-of-line
/// `fmaf`) unless [`ffma_twice_rounded`] says otherwise.
#[inline(always)]
fn ffma_wide(a: f32, b: f32, c: f32) -> f64 {
    f64::from(a) * f64::from(b) + f64::from(c)
}

/// Whether `f32` rounding of the [`ffma_wide`] sum may differ from
/// rounding the exact value: when the sum sits on an `f32` rounding
/// midpoint (the first rounding may have moved the exact value onto it)
/// or is a nonzero value below the `f32` normal range (where the
/// midpoints are farther apart). Every `f32` midpoint is an `f64`, so
/// elsewhere the first rounding cannot cross one.
///
/// Non-short-circuit operators keep the warp's 32-lane check branch-free.
#[inline(always)]
fn ffma_twice_rounded(sum: f64) -> bool {
    (sum.to_bits() & 0x1fff_ffff == 0x1000_0000)
        | ((sum.abs() < f64::from(f32::MIN_POSITIVE)) & (sum != 0.0))
}

/// Whether the raw result `r` of `op` has bits Rust leaves open: a NaN,
/// or for min/max also the sign of a zero picked from two zeros — or, for
/// a fused multiply-add, may be rounded twice.
#[inline(always)]
fn needs_pin(op: Op, a: u32, b: u32, c: u32, r: u32) -> bool {
    match op {
        Op::FAdd | Op::FMul => is_nan(r),
        Op::FFma => {
            let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
            is_nan(r) | ffma_twice_rounded(ffma_wide(fa, fb, fc))
        }
        Op::FMin | Op::FMax => is_nan(r) || (a | b) & !SIGN == 0,
        _ => false,
    }
}

/// The bits of a float result [`needs_pin`] flags, fixed to the scalar
/// x86 rule: a fused multiply-add that may be rounded twice is redone by
/// `f32::mul_add`; an add, multiply or fused multiply-add returns its first NaN
/// operand, quieted, or [`DEFAULT_NAN`] when no operand was NaN. Min and
/// max return the first of two NaNs, quieted, and of two zeros −0 for
/// min and +0 for max (with one NaN operand Rust already returns the
/// other). Left to the compiler, a vectorized loop may commute operands
/// that the scalar code keeps in order and return the other NaN.
#[inline(always)]
fn pin_float(op: Op, a: u32, b: u32, c: u32, r: u32) -> u32 {
    match op {
        Op::FFma if !is_nan(r) => f32::from_bits(a)
            .mul_add(f32::from_bits(b), f32::from_bits(c))
            .to_bits(),
        Op::FMin | Op::FMax if is_nan(r) => a | QUIET,
        Op::FMin => a | b,
        Op::FMax => a & b,
        _ => {
            let c = if op == Op::FFma { c } else { b };
            let first = if is_nan(a) {
                a
            } else if is_nan(b) {
                b
            } else if is_nan(c) {
                c
            } else {
                DEFAULT_NAN
            };
            first | QUIET
        }
    }
}

/// Warp-wide ALU: dispatch on the op once, then run a flat 32-lane loop —
/// the integer arms and the float add, multiply, min, max and
/// int-to-float arms auto-vectorize, and no lane pays the per-lane match
/// of [`alu`]. Each arm maps [`alu_raw`] over the lanes
/// with a constant op, which the inlined match folds away; a warp where
/// some lane [`needs_pin`] is recomputed with [`alu`]. So every result is
/// bit-identical to the per-lane [`alu`] by construction.
fn alu_warp(op: Op, a: &[u32; 32], b: &[u32; 32], c: &[u32; 32]) -> [u32; 32] {
    macro_rules! per_op {
        ($($op:ident)*) => {
            match op {
                $(Op::$op => {
                    let raw: [u32; 32] =
                        core::array::from_fn(|l| alu_raw(Op::$op, a[l], b[l], c[l]));
                    let pin = (0..32).fold(false, |any, l| any | needs_pin(Op::$op, a[l], b[l], c[l], raw[l]));
                    if pin {
                        core::array::from_fn(|l| alu(Op::$op, a[l], b[l], c[l]))
                    } else {
                        raw
                    }
                })*
                _ => unreachable!("memory/barrier ops handled by the caller"),
            }
        };
    }
    per_op!(Mov IAdd ISub IMul IMad IMin IMax And Or Xor Shl Shr Clz FAdd FMul FFma FMin FMax I2F F2I)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_isa::ir::BufferId;

    /// Mock environment: global memory is the identity function of the
    /// index, shared memory is a flat array; counts events.
    struct MockEnv {
        shared: Vec<u32>,
        reg_reads: u64,
        reg_writes: u64,
        ifetches: u64,
        global_loads: u64,
        global_stores: u64,
        pivot_divergent_writes: u64,
        stored: Vec<(u32, u32)>,
        patterns: Vec<AddrPattern>,
    }

    impl MockEnv {
        fn new() -> Self {
            Self {
                shared: vec![0; 1024],
                reg_reads: 0,
                reg_writes: 0,
                ifetches: 0,
                global_loads: 0,
                global_stores: 0,
                pivot_divergent_writes: 0,
                stored: Vec::new(),
                patterns: Vec::new(),
            }
        }
    }

    impl WarpEnv for MockEnv {
        fn on_reg_read(&mut self, _: &[u32; 32], _: u32) {
            self.reg_reads += 1;
        }
        fn on_reg_write(&mut self, _: &[u32; 32], _: u32, pivot_divergent: bool) {
            self.reg_writes += 1;
            if pivot_divergent {
                self.pivot_divergent_writes += 1;
            }
        }
        fn on_ifetch(&mut self, _: usize, _: u64) {
            self.ifetches += 1;
        }
        fn global_access(
            &mut self,
            op: Op,
            indices: &[u32; 32],
            data: Option<&[u32; 32]>,
            active: u32,
            pattern: AddrPattern,
        ) -> [u32; 32] {
            self.patterns.push(pattern);
            if let Some(d) = data {
                self.global_stores += 1;
                for l in 0..32 {
                    if active >> l & 1 == 1 {
                        self.stored.push((indices[l], d[l]));
                    }
                }
                [0; 32]
            } else {
                self.global_loads += 1;
                let _ = op;
                core::array::from_fn(|l| indices[l].wrapping_mul(3))
            }
        }
        fn shared_access(
            &mut self,
            _: Op,
            indices: &[u32; 32],
            data: Option<&[u32; 32]>,
            active: u32,
            pattern: AddrPattern,
        ) -> [u32; 32] {
            self.patterns.push(pattern);
            if let Some(d) = data {
                for l in 0..32 {
                    if active >> l & 1 == 1 {
                        self.shared[indices[l] as usize % 1024] = d[l];
                    }
                }
                [0; 32]
            } else {
                core::array::from_fn(|l| self.shared[indices[l] as usize % 1024])
            }
        }
    }

    fn run(kernel: &Kernel) -> (Warp, MockEnv) {
        let prog = FlatProgram::compile(kernel, Architecture::Pascal);
        let mut warp = Warp::new(kernel.regs_per_thread, 0, 0, 32);
        let mut env = MockEnv::new();
        let mut steps = 0;
        while !warp.is_done() {
            warp.step(&prog, &mut env);
            warp.assert_lane_class_invariant();
            steps += 1;
            assert!(steps < 100_000, "kernel did not terminate");
        }
        (warp, env)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut k = Kernel::new("t", 4);
        k.body
            .push(Stmt::op3(Op::Mov, 0, Operand::Imm(10), Operand::Imm(0)));
        k.body
            .push(Stmt::op3(Op::IAdd, 1, Operand::Reg(0), Operand::Imm(5)));
        k.body.push(Stmt::op4(
            Op::IMad,
            2,
            Operand::Reg(1),
            Operand::Imm(2),
            Operand::Reg(0),
        ));
        let (warp, env) = run(&k);
        assert_eq!(warp.reg_lanes(1)[0], 15);
        assert_eq!(warp.reg_lanes(2)[7], 40);
        assert!(env.ifetches > 0);
        assert_eq!(env.reg_writes, 3);
    }

    #[test]
    fn specials_differ_per_lane() {
        let mut k = Kernel::new("t", 2);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::LaneId),
            Operand::Imm(0),
        ));
        let (warp, _) = run(&k);
        let lanes = warp.reg_lanes(0);
        for (i, &v) in lanes.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn uniform_loop_iterates() {
        let mut k = Kernel::new("t", 2);
        k.body
            .push(Stmt::op3(Op::Mov, 0, Operand::Imm(0), Operand::Imm(0)));
        k.body.push(Stmt::For {
            n: 10,
            body: vec![Stmt::op3(Op::IAdd, 0, Operand::Reg(0), Operand::Imm(3))],
        });
        let (warp, _) = run(&k);
        assert_eq!(warp.reg_lanes(0)[0], 30);
    }

    #[test]
    fn zero_trip_loop_skips_body() {
        let mut k = Kernel::new("t", 2);
        k.body
            .push(Stmt::op3(Op::Mov, 0, Operand::Imm(7), Operand::Imm(0)));
        k.body.push(Stmt::For {
            n: 0,
            body: vec![Stmt::op3(Op::Mov, 0, Operand::Imm(0), Operand::Imm(0))],
        });
        let (warp, _) = run(&k);
        assert_eq!(warp.reg_lanes(0)[0], 7);
    }

    #[test]
    fn divergent_branch_executes_both_arms() {
        // r1 = lane < 8 ? 100 : 200
        let mut k = Kernel::new("t", 2);
        k.body.push(Stmt::If {
            cond: Cond {
                a: Operand::Special(Special::LaneId),
                op: CmpOp::Lt,
                b: Operand::Imm(8),
            },
            then: vec![Stmt::op3(Op::Mov, 1, Operand::Imm(100), Operand::Imm(0))],
            els: vec![Stmt::op3(Op::Mov, 1, Operand::Imm(200), Operand::Imm(0))],
        });
        let (warp, env) = run(&k);
        let lanes = warp.reg_lanes(1);
        for (i, &v) in lanes.iter().enumerate() {
            assert_eq!(v, if i < 8 { 100 } else { 200 }, "lane {i}");
        }
        // Both arm writes were partial-warp; the else arm (lanes 8..32)
        // covers the pivot lane 21 → one pivot-divergent write.
        assert_eq!(env.pivot_divergent_writes, 1);
    }

    #[test]
    fn branch_without_else_reconverges() {
        let mut k = Kernel::new("t", 2);
        k.body
            .push(Stmt::op3(Op::Mov, 1, Operand::Imm(5), Operand::Imm(0)));
        k.body.push(Stmt::If {
            cond: Cond {
                a: Operand::Special(Special::LaneId),
                op: CmpOp::Eq,
                b: Operand::Imm(0),
            },
            then: vec![Stmt::op3(Op::Mov, 1, Operand::Imm(9), Operand::Imm(0))],
            els: vec![],
        });
        // After reconvergence every lane writes again — full warp.
        k.body
            .push(Stmt::op3(Op::IAdd, 0, Operand::Reg(1), Operand::Imm(1)));
        let (warp, _) = run(&k);
        assert_eq!(warp.reg_lanes(0)[0], 10);
        assert_eq!(warp.reg_lanes(0)[1], 6);
    }

    #[test]
    fn all_lanes_take_same_path() {
        let mut k = Kernel::new("t", 2);
        k.body.push(Stmt::If {
            cond: Cond {
                a: Operand::Imm(1),
                op: CmpOp::Eq,
                b: Operand::Imm(1),
            },
            then: vec![Stmt::op3(Op::Mov, 0, Operand::Imm(1), Operand::Imm(0))],
            els: vec![Stmt::op3(Op::Mov, 0, Operand::Imm(2), Operand::Imm(0))],
        });
        let (warp, _) = run(&k);
        assert!(warp.reg_lanes(0).iter().all(|&v| v == 1));
    }

    #[test]
    fn nested_control_flow() {
        // for i in 0..3 { if lane < 16 { r0 += 1 } else { r0 += 10 } }
        let mut k = Kernel::new("t", 2);
        k.body
            .push(Stmt::op3(Op::Mov, 0, Operand::Imm(0), Operand::Imm(0)));
        k.body.push(Stmt::For {
            n: 3,
            body: vec![Stmt::If {
                cond: Cond {
                    a: Operand::Special(Special::LaneId),
                    op: CmpOp::Lt,
                    b: Operand::Imm(16),
                },
                then: vec![Stmt::op3(Op::IAdd, 0, Operand::Reg(0), Operand::Imm(1))],
                els: vec![Stmt::op3(Op::IAdd, 0, Operand::Reg(0), Operand::Imm(10))],
            }],
        });
        let (warp, _) = run(&k);
        assert_eq!(warp.reg_lanes(0)[0], 3);
        assert_eq!(warp.reg_lanes(0)[31], 30);
    }

    #[test]
    fn global_load_store_flow() {
        let mut k = Kernel::new("t", 3);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::LaneId),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op3(
            Op::LdGlobal(BufferId(0)),
            1,
            Operand::Reg(0),
            Operand::Imm(4),
        ));
        k.body.push(Stmt::op4(
            Op::StGlobal(BufferId(1)),
            0,
            Operand::Reg(0),
            Operand::Imm(0),
            Operand::Reg(1),
        ));
        let (warp, env) = run(&k);
        // Mock global returns index*3; index = lane + 4.
        assert_eq!(warp.reg_lanes(1)[2], 18);
        assert_eq!(env.global_loads, 1);
        assert_eq!(env.global_stores, 1);
        assert_eq!(env.stored.len(), 32);
        assert_eq!(env.stored[5], (5, 27));
    }

    #[test]
    fn shared_memory_roundtrip() {
        let mut k = Kernel::new("t", 3);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::LaneId),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op4(
            Op::StShared,
            0,
            Operand::Reg(0),
            Operand::Imm(0),
            Operand::Reg(0),
        ));
        k.body
            .push(Stmt::op3(Op::LdShared, 1, Operand::Reg(0), Operand::Imm(0)));
        let (warp, _) = run(&k);
        assert_eq!(warp.reg_lanes(1)[9], 9);
    }

    #[test]
    fn float_pipeline() {
        let mut k = Kernel::new("t", 3);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::imm_f32(2.0),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op4(
            Op::FFma,
            1,
            Operand::Reg(0),
            Operand::imm_f32(3.0),
            Operand::imm_f32(1.0),
        ));
        let (warp, _) = run(&k);
        assert_eq!(f32::from_bits(warp.reg_lanes(1)[0]), 7.0);
    }

    #[test]
    fn flat_program_word_count_matches_ops() {
        let mut k = Kernel::new("t", 2);
        k.body.push(Stmt::For {
            n: 2,
            body: vec![Stmt::op3(Op::IAdd, 0, Operand::Reg(0), Operand::Imm(1))],
        });
        let p = FlatProgram::compile(&k, Architecture::Pascal);
        assert_eq!(p.ops.len(), p.words.len());
        assert!(matches!(p.ops.last(), Some(FlatOp::Exit)));
    }

    #[test]
    fn run_len_marks_straight_line_alu_runs() {
        // mov; add; ld; add; bar; add; exit
        let mut k = Kernel::new("t", 3);
        k.body
            .push(Stmt::op3(Op::Mov, 0, Operand::Imm(1), Operand::Imm(0)));
        k.body
            .push(Stmt::op3(Op::IAdd, 1, Operand::Reg(0), Operand::Imm(2)));
        k.body.push(Stmt::op3(
            Op::LdGlobal(BufferId(0)),
            2,
            Operand::Reg(0),
            Operand::Imm(0),
        ));
        k.body
            .push(Stmt::op3(Op::IAdd, 1, Operand::Reg(1), Operand::Imm(1)));
        k.body
            .push(Stmt::op3(Op::Bar, 0, Operand::Imm(0), Operand::Imm(0)));
        k.body
            .push(Stmt::op3(Op::IAdd, 1, Operand::Reg(1), Operand::Imm(1)));
        let p = FlatProgram::compile(&k, Architecture::Pascal);
        assert_eq!(p.run_len, vec![2, 1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn uniform_alu_takes_fast_path_and_matches_reference() {
        // All-immediate / uniform-register arithmetic must equal the
        // lane-wise reference run.
        let mut k = Kernel::new("t", 4);
        k.body
            .push(Stmt::op3(Op::Mov, 0, Operand::Imm(10), Operand::Imm(0)));
        k.body
            .push(Stmt::op3(Op::IAdd, 1, Operand::Reg(0), Operand::Imm(5)));
        k.body.push(Stmt::op4(
            Op::IMad,
            2,
            Operand::Reg(1),
            Operand::Imm(2),
            Operand::Reg(0),
        ));
        let (warp, env) = run(&k);

        let prog = FlatProgram::compile(&k, Architecture::Pascal);
        let mut reference = Warp::new(k.regs_per_thread, 0, 0, 32);
        reference.set_scalarize(false);
        let mut renv = MockEnv::new();
        while !reference.is_done() {
            reference.step(&prog, &mut renv);
        }
        for r in 0..4 {
            assert_eq!(warp.reg_lanes(r), reference.reg_lanes(r), "r{r}");
        }
        // Event counts are identical on both paths.
        assert_eq!(env.reg_reads, renv.reg_reads);
        assert_eq!(env.reg_writes, renv.reg_writes);
        assert_eq!(env.ifetches, renv.ifetches);
    }

    #[test]
    fn divergent_write_clears_uniformity() {
        // r0 starts uniform (zeroed); a divergent write must demote it so
        // the follow-up compare does NOT take the all-or-nothing fast path.
        let mut k = Kernel::new("t", 2);
        k.body.push(Stmt::If {
            cond: Cond {
                a: Operand::Special(Special::LaneId),
                op: CmpOp::Lt,
                b: Operand::Imm(8),
            },
            then: vec![Stmt::op3(Op::Mov, 0, Operand::Imm(7), Operand::Imm(0))],
            els: vec![],
        });
        // lanes 0..8 → 7, rest 0; then `if r0 == 7` must diverge again.
        k.body.push(Stmt::If {
            cond: Cond {
                a: Operand::Reg(0),
                op: CmpOp::Eq,
                b: Operand::Imm(7),
            },
            then: vec![Stmt::op3(Op::Mov, 1, Operand::Imm(1), Operand::Imm(0))],
            els: vec![Stmt::op3(Op::Mov, 1, Operand::Imm(2), Operand::Imm(0))],
        });
        let (warp, _) = run(&k);
        for (l, &v) in warp.reg_lanes(1).iter().enumerate() {
            assert_eq!(v, if l < 8 { 1 } else { 2 }, "lane {l}");
        }
    }

    #[test]
    fn affine_specials_feed_stride1_address_pattern() {
        let mut k = Kernel::new("t", 3);
        // r0 = GlobalTid (affine); uniform-index load via CtaIdX; stride-1
        // load via r0.
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::GlobalTid),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op3(
            Op::LdGlobal(BufferId(0)),
            1,
            Operand::Special(Special::CtaIdX),
            Operand::Imm(3),
        ));
        k.body.push(Stmt::op3(
            Op::LdGlobal(BufferId(0)),
            2,
            Operand::Reg(0),
            Operand::Imm(0),
        ));
        let (warp, env) = run(&k);
        assert_eq!(
            env.patterns,
            vec![AddrPattern::Uniform, AddrPattern::Stride1]
        );
        // The uniform load's destination is a splat and flagged so: a
        // compare against it goes all-or-nothing (checked via invariant in
        // `run`); values still match the mock (index*3).
        assert!(warp.reg_lanes(1).iter().all(|&v| v == 9));
        assert_eq!(warp.reg_lanes(2)[5], 15);
    }

    #[test]
    fn step_run_matches_per_op_stepping() {
        let mut k = Kernel::new("t", 4);
        k.body
            .push(Stmt::op3(Op::Mov, 0, Operand::Imm(3), Operand::Imm(0)));
        k.body.push(Stmt::For {
            n: 5,
            body: vec![
                Stmt::op3(Op::IAdd, 1, Operand::Reg(1), Operand::Imm(2)),
                Stmt::op3(Op::IMul, 2, Operand::Reg(1), Operand::Reg(0)),
                Stmt::op3(
                    Op::LdGlobal(BufferId(0)),
                    3,
                    Operand::Reg(2),
                    Operand::Imm(0),
                ),
            ],
        });
        let prog = FlatProgram::compile(&k, Architecture::Pascal);

        let mut a = Warp::new(k.regs_per_thread, 0, 0, 32);
        let mut ea = MockEnv::new();
        let mut issued_a = 0u64;
        while !a.is_done() {
            a.step(&prog, &mut ea);
            issued_a += 1;
        }

        let mut b = Warp::new(k.regs_per_thread, 0, 0, 32);
        let mut eb = MockEnv::new();
        let mut issued_b = 0u64;
        while !b.is_done() {
            let (_, n) = b.step_run(&prog, &mut eb, u64::MAX);
            issued_b += n;
        }

        assert_eq!(issued_a, issued_b);
        assert_eq!(a, b);
        assert_eq!(ea.ifetches, eb.ifetches);
        assert_eq!(ea.reg_reads, eb.reg_reads);
        assert_eq!(ea.reg_writes, eb.reg_writes);
        assert_eq!(ea.global_loads, eb.global_loads);
    }

    #[test]
    fn step_run_respects_max_quantum() {
        let mut k = Kernel::new("t", 2);
        for _ in 0..6 {
            k.body
                .push(Stmt::op3(Op::IAdd, 0, Operand::Reg(0), Operand::Imm(1)));
        }
        let prog = FlatProgram::compile(&k, Architecture::Pascal);
        let mut w = Warp::new(k.regs_per_thread, 0, 0, 32);
        let mut env = MockEnv::new();
        let (r, n) = w.step_run(&prog, &mut env, 4);
        assert_eq!((r, n), (StepResult::Ok, 4));
        assert_eq!(w.pc(), 4);
        let (r, n) = w.step_run(&prog, &mut env, 4);
        // 2 remaining adds + Exit.
        assert_eq!((r, n), (StepResult::Exited, 3));
        assert!(w.is_done());
    }

    /// Every ALU op `alu_warp` must cover.
    const ALU_OPS: [Op; 20] = [
        Op::Mov,
        Op::IAdd,
        Op::ISub,
        Op::IMul,
        Op::IMad,
        Op::IMin,
        Op::IMax,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shl,
        Op::Shr,
        Op::Clz,
        Op::FAdd,
        Op::FMul,
        Op::FFma,
        Op::FMin,
        Op::FMax,
        Op::I2F,
        Op::F2I,
    ];

    /// Bit patterns where integer and float semantics have edges: ±0
    /// (`0x8000_0000` is also `i32::MIN`), ±inf, quiet, signalling and
    /// negative NaNs with payloads, the extreme subnormals and normals,
    /// ±2^31 (where `F2I` saturates), `i32::MAX`, all-ones, and shift
    /// amounts around 31.
    const EDGES: [u32; 20] = [
        0,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0x7f80_0001,
        0xffc0_1234,
        0x0000_0001,
        0x807f_ffff,
        0x0080_0000,
        0x7f7f_ffff,
        0xff7f_ffff,
        0x4f00_0000,
        0xcf00_0000,
        0x7fff_ffff,
        u32::MAX,
        1,
        31,
        32,
        0x3f80_0000,
    ];

    fn assert_alu_warp_matches(a: &[u32; 32], b: &[u32; 32], c: &[u32; 32]) {
        for op in ALU_OPS {
            let lanewise: [u32; 32] = core::array::from_fn(|l| alu(op, a[l], b[l], c[l]));
            assert_eq!(alu_warp(op, a, b, c), lanewise, "{op:?}");
        }
    }

    /// The list covers every non-memory, non-barrier `Op`: this match has
    /// no wildcard, so a new variant fails to compile until it is sorted.
    #[test]
    fn alu_ops_list_is_complete() {
        let is_alu = |op: Op| match op {
            Op::Mov
            | Op::IAdd
            | Op::ISub
            | Op::IMul
            | Op::IMad
            | Op::IMin
            | Op::IMax
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::Clz
            | Op::FAdd
            | Op::FMul
            | Op::FFma
            | Op::FMin
            | Op::FMax
            | Op::I2F
            | Op::F2I => true,
            Op::LdGlobal(_)
            | Op::StGlobal(_)
            | Op::LdConst(_)
            | Op::LdTexture(_)
            | Op::LdShared
            | Op::StShared
            | Op::Bar => false,
        };
        assert!(ALU_OPS.iter().all(|&op| is_alu(op)));
    }

    /// The bits Rust leaves open follow the scalar x86 rule.
    #[test]
    fn float_nan_and_zero_bits_are_pinned() {
        let (inf, ninf, one) = (0x7f80_0000, 0xff80_0000, 0x3f80_0000);
        let (qnan, snan, neg_nan) = (0x7fc0_0000, 0x7f80_0001, 0xffc0_1234);
        assert_eq!(alu(Op::FAdd, qnan, snan, 0), qnan);
        assert_eq!(alu(Op::FAdd, snan, qnan, 0), snan | QUIET);
        assert_eq!(alu(Op::FMul, one, neg_nan, 0), neg_nan);
        assert_eq!(alu(Op::FFma, one, one, snan), snan | QUIET);
        assert_eq!(alu(Op::FFma, one, snan, neg_nan), snan | QUIET);
        assert_eq!(alu(Op::FAdd, inf, ninf, 0), DEFAULT_NAN);
        assert_eq!(alu(Op::FMul, 0, inf, 0), DEFAULT_NAN);
        assert_eq!(alu(Op::FMin, 0, SIGN, 0), SIGN);
        assert_eq!(alu(Op::FMin, SIGN, 0, 0), SIGN);
        assert_eq!(alu(Op::FMax, SIGN, 0, 0), 0);
        assert_eq!(alu(Op::FMax, 0, SIGN, 0), 0);
        assert_eq!(alu(Op::FMin, snan, neg_nan, 0), snan | QUIET);
        assert_eq!(alu(Op::FMax, qnan, one, 0), one);
    }

    /// Every triple of edge patterns, 32 triples per warp.
    #[test]
    fn alu_warp_matches_alu_on_every_edge_triple() {
        let triples: Vec<[u32; 3]> = EDGES
            .iter()
            .flat_map(|&x| {
                EDGES
                    .iter()
                    .flat_map(move |&y| EDGES.iter().map(move |&z| [x, y, z]))
            })
            .collect();
        for chunk in triples.chunks(32) {
            let lane =
                |k: usize| -> [u32; 32] { core::array::from_fn(|l| chunk[l % chunk.len()][k]) };
            assert_alu_warp_matches(&lane(0), &lane(1), &lane(2));
        }
    }

    /// `alu`'s fused multiply-add against `f32::mul_add`, NaN bits pinned
    /// alike.
    fn assert_ffma_exact(a: u32, b: u32, c: u32) {
        let reference = f32::from_bits(a)
            .mul_add(f32::from_bits(b), f32::from_bits(c))
            .to_bits();
        let reference = if is_nan(reference) {
            pin_float(Op::FFma, a, b, c, reference)
        } else {
            reference
        };
        assert_eq!(
            alu(Op::FFma, a, b, c),
            reference,
            "fma({a:#010x}, {b:#010x}, {c:#010x})"
        );
    }

    /// `b·(1 − 2⁻ʲ)·(1 + 2⁻ʲ)` scaled to half an ulp of `c`: the exact sum
    /// lies 2⁻²ʲ of that half ulp below `c`'s rounding midpoint, close
    /// enough for `j ≥ 15` that the `f64` sum rounds onto the midpoint.
    fn near_midpoint(c: u32, j: u32, negate: bool) -> (u32, u32, u32) {
        let half_ulp_exp = ((c >> 23) & 0xff) - 24;
        let a = (half_ulp_exp << 23) | (1 << (23 - j)) | (c & SIGN);
        let b = (126 << 23) | (0x7f_ffff & !((1 << (24 - j)) - 1));
        (a ^ if negate { SIGN } else { 0 }, b, c)
    }

    #[test]
    fn ffma_is_exact_on_a_double_rounding_midpoint() {
        // 1 + 2⁻²³ + 2⁻²⁴ − 2⁻⁶⁴ rounds down to 1 + 2⁻²³; the f64 sum
        // rounds to the midpoint, which ties to the even 1 + 2⁻²².
        let (a, b, c) = near_midpoint(0x3f80_0001, 20, false);
        let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
        let twice_rounded = (f64::from(fa) * f64::from(fb) + f64::from(fc)) as f32;
        assert_eq!(fa.mul_add(fb, fc).to_bits(), 0x3f80_0001);
        assert_ne!(twice_rounded.to_bits(), 0x3f80_0001, "the case is a hazard");
        assert_ffma_exact(a, b, c);
        for &x in &EDGES {
            for &y in &EDGES {
                for &z in &EDGES {
                    assert_ffma_exact(x, y, z);
                }
            }
        }
    }

    proptest::proptest! {
        /// Fused multiply-add over random bits, edge patterns (NaN, ±inf,
        /// ±0, subnormals) and sums at or near an `f32` midpoint.
        #[test]
        fn ffma_matches_mul_add(
            raw: [u32; 3],
            pick: [u8; 3],
            c in 0x0c80_0000u32..0x7f00_0000,
            j in 12u32..24,
            negate: bool,
            sign: bool,
        ) {
            let [a, b, z] = core::array::from_fn(|k| {
                if pick[k] & 1 == 0 {
                    EDGES[usize::from(pick[k] >> 1) % EDGES.len()]
                } else {
                    raw[k]
                }
            });
            assert_ffma_exact(a, b, z);
            let (a, b, c) = near_midpoint(c | if sign { SIGN } else { 0 }, j, negate);
            assert_ffma_exact(a, b, c);
            assert_alu_warp_matches(&[a; 32], &[b; 32], &[c; 32]);
        }

        /// Random lanes, about half of them replaced by edge patterns.
        #[test]
        fn alu_warp_matches_alu_lanewise(raw: [[u32; 3]; 32], pick: [[u8; 3]; 32]) {
            let lane = |k: usize| -> [u32; 32] {
                core::array::from_fn(|l| {
                    let p = pick[l][k];
                    if p & 1 == 0 {
                        EDGES[usize::from(p >> 1) % EDGES.len()]
                    } else {
                        raw[l][k]
                    }
                })
            };
            assert_alu_warp_matches(&lane(0), &lane(1), &lane(2));
        }
    }
}
