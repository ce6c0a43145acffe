//! Register-level kernel IR executed by the SIMT simulator.
//!
//! The IR is deliberately structured (uniform `For` loops, lexically-scoped
//! divergent `If`s) rather than a raw branch ISA: this keeps the simulator's
//! reconvergence handling trivial while still exercising every behavior the
//! BVF evaluation needs — per-lane data, divergent memory access, barriers,
//! and data-dependent control flow.

/// A virtual per-thread register index (the baseline GPU has up to 64
/// 32-bit registers per thread).
pub type Reg = u8;

/// Identifier of a named global-memory buffer declared by the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u16);

/// Read-only hardware values available to every thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within its CTA (x dimension).
    TidX,
    /// CTA (thread block) index within the grid.
    CtaIdX,
    /// Threads per CTA.
    NTidX,
    /// Lane index within the warp (0..32).
    LaneId,
    /// Warp index within the CTA.
    WarpId,
    /// Global thread id (`CtaIdX * NTidX + TidX`), precomputed for brevity.
    GlobalTid,
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A per-thread register.
    Reg(Reg),
    /// A 32-bit immediate (raw bit pattern; `f32` immediates use `to_bits`).
    Imm(u32),
    /// A special hardware value.
    Special(Special),
}

impl Operand {
    /// Immediate holding an `f32` bit pattern.
    pub fn imm_f32(v: f32) -> Self {
        Operand::Imm(v.to_bits())
    }

    /// Immediate holding an `i32` bit pattern.
    pub fn imm_i32(v: i32) -> Self {
        Operand::Imm(v as u32)
    }
}

/// Operation codes. Integer ops treat registers as `i32`/`u32`; float ops as
/// the IEEE-754 bit pattern of an `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst = a`
    Mov,
    /// `dst = a + b` (wrapping i32)
    IAdd,
    /// `dst = a - b` (wrapping i32)
    ISub,
    /// `dst = a * b` (wrapping i32)
    IMul,
    /// `dst = a * b + c` (wrapping i32 multiply-add)
    IMad,
    /// `dst = min(a, b)` as i32
    IMin,
    /// `dst = max(a, b)` as i32
    IMax,
    /// `dst = a & b`
    And,
    /// `dst = a | b`
    Or,
    /// `dst = a ^ b`
    Xor,
    /// `dst = a << (b & 31)`
    Shl,
    /// `dst = a >> (b & 31)` (logical)
    Shr,
    /// `dst = count_leading_zeros(a)` (PTX `clz`)
    Clz,
    /// `dst = a + b` as f32
    FAdd,
    /// `dst = a * b` as f32
    FMul,
    /// `dst = a * b + c` as f32 (fused)
    FFma,
    /// `dst = min(a, b)` as f32
    FMin,
    /// `dst = max(a, b)` as f32
    FMax,
    /// `dst = (f32)(i32)a`
    I2F,
    /// `dst = (i32)(f32)a` (truncating)
    F2I,
    /// `dst = global[buf][a + imm(b)]` — word-indexed global load
    LdGlobal(BufferId),
    /// `global[buf][a + imm(b)] = src(c)` — word-indexed global store
    StGlobal(BufferId),
    /// `dst = const[buf][a + imm(b)]` — constant-cache load
    LdConst(BufferId),
    /// `dst = texture[buf][a + imm(b)]` — texture-cache load
    LdTexture(BufferId),
    /// `dst = shared[a + imm(b)]` — shared-memory (scratchpad) load
    LdShared,
    /// `shared[a + imm(b)] = src(c)` — shared-memory store
    StShared,
    /// CTA-wide barrier (`__syncthreads`)
    Bar,
}

impl Op {
    /// Is this a memory operation (load or store, any space)?
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            Op::LdGlobal(_)
                | Op::StGlobal(_)
                | Op::LdConst(_)
                | Op::LdTexture(_)
                | Op::LdShared
                | Op::StShared
        )
    }

    /// Is this a store?
    pub fn is_store(self) -> bool {
        matches!(self, Op::StGlobal(_) | Op::StShared)
    }

    /// Is this a floating-point ALU op?
    pub fn is_float(self) -> bool {
        matches!(
            self,
            Op::FAdd | Op::FMul | Op::FFma | Op::FMin | Op::FMax | Op::I2F
        )
    }
}

/// One three-operand instruction.
///
/// Memory-op operand convention: `a` = index register/operand, `b` =
/// immediate word offset, `c` = store data (stores only), `dst` = load
/// destination (loads only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Operation.
    pub op: Op,
    /// Destination register.
    pub dst: Reg,
    /// First source operand.
    pub a: Operand,
    /// Second source operand.
    pub b: Operand,
    /// Third source operand (FFMA/IMAD addend, store data).
    pub c: Operand,
}

impl Instr {
    /// Two-source instruction (`c` defaults to `Imm(0)`).
    pub fn new(op: Op, dst: Reg, a: Operand, b: Operand) -> Self {
        Self {
            op,
            dst,
            a,
            b,
            c: Operand::Imm(0),
        }
    }

    /// Full three-source instruction.
    pub fn with_c(op: Op, dst: Reg, a: Operand, b: Operand, c: Operand) -> Self {
        Self { op, dst, a, b, c }
    }
}

/// Comparison operator for divergent conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// equal
    Eq,
    /// not equal
    Ne,
    /// signed less-than
    Lt,
    /// signed greater-or-equal
    Ge,
}

/// A per-lane condition `a <op> b` evaluated on i32 values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cond {
    /// Left operand.
    pub a: Operand,
    /// Comparison.
    pub op: CmpOp,
    /// Right operand.
    pub b: Operand,
}

/// A structured statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A single instruction.
    I(Instr),
    /// A uniform counted loop (every active lane runs all `n` iterations).
    For {
        /// Trip count.
        n: u32,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A potentially divergent two-way branch.
    If {
        /// Per-lane condition.
        cond: Cond,
        /// Taken arm.
        then: Vec<Stmt>,
        /// Not-taken arm (may be empty).
        els: Vec<Stmt>,
    },
}

impl Stmt {
    /// Convenience: a two-source instruction statement.
    pub fn op3(op: Op, dst: Reg, a: Operand, b: Operand) -> Self {
        Stmt::I(Instr::new(op, dst, a, b))
    }

    /// Convenience: a three-source instruction statement.
    pub fn op4(op: Op, dst: Reg, a: Operand, b: Operand, c: Operand) -> Self {
        Stmt::I(Instr::with_c(op, dst, a, b, c))
    }
}

/// A compiled kernel: its body plus per-thread resource needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (diagnostics and trace labels).
    pub name: String,
    /// Architectural registers used per thread.
    pub regs_per_thread: u8,
    /// Shared-memory words used per CTA.
    pub shared_words: u32,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// New empty kernel using `regs_per_thread` registers.
    ///
    /// # Panics
    ///
    /// Panics if `regs_per_thread` is 0 or exceeds 64.
    pub fn new(name: impl Into<String>, regs_per_thread: u8) -> Self {
        assert!(
            (1..=64).contains(&regs_per_thread),
            "regs_per_thread must be 1..=64"
        );
        Self {
            name: name.into(),
            regs_per_thread,
            shared_words: 0,
            body: Vec::new(),
        }
    }

    /// Count of (static) instructions, including loop/branch pseudo-ops,
    /// as they would appear in the assembled binary.
    pub fn static_instruction_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::I(_) => 1,
                    // loop setup + backward branch
                    Stmt::For { body, .. } => 2 + count(body),
                    // predicate-set + branch (+ else-branch if present)
                    Stmt::If { then, els, .. } => {
                        2 + count(then) + if els.is_empty() { 0 } else { 1 + count(els) }
                    }
                })
                .sum()
        }
        count(&self.body) + 1 // EXIT
    }
}

/// Kernel launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of CTAs (thread blocks) in the grid.
    pub grid_ctas: u32,
    /// Threads per CTA (must be a multiple of the 32-thread warp).
    pub cta_threads: u32,
}

impl LaunchConfig {
    /// Create a launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if `grid_ctas` is zero, `cta_threads` is zero, not a multiple
    /// of 32, or exceeds 1024.
    pub fn new(grid_ctas: u32, cta_threads: u32) -> Self {
        assert!(grid_ctas > 0, "grid must contain at least one CTA");
        assert!(
            cta_threads > 0 && cta_threads.is_multiple_of(32) && cta_threads <= 1024,
            "cta_threads must be a multiple of 32 in 32..=1024, got {cta_threads}"
        );
        Self {
            grid_ctas,
            cta_threads,
        }
    }

    /// Total threads in the grid.
    pub fn total_threads(self) -> u64 {
        u64::from(self.grid_ctas) * u64::from(self.cta_threads)
    }

    /// Warps per CTA.
    pub fn warps_per_cta(self) -> u32 {
        self.cta_threads / 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_count_handles_nesting() {
        let mut k = Kernel::new("t", 4);
        k.body
            .push(Stmt::op3(Op::Mov, 0, Operand::Imm(1), Operand::Imm(0)));
        k.body.push(Stmt::For {
            n: 4,
            body: vec![
                Stmt::op3(Op::IAdd, 0, Operand::Reg(0), Operand::Imm(1)),
                Stmt::If {
                    cond: Cond {
                        a: Operand::Reg(0),
                        op: CmpOp::Lt,
                        b: Operand::Imm(2),
                    },
                    then: vec![Stmt::op3(Op::IAdd, 1, Operand::Reg(1), Operand::Imm(1))],
                    els: vec![],
                },
            ],
        });
        // mov(1) + for(2 + add(1) + if(2 + then 1)) + exit(1) = 8
        assert_eq!(k.static_instruction_count(), 8);
    }

    #[test]
    fn launch_config_validates() {
        let lc = LaunchConfig::new(15, 256);
        assert_eq!(lc.total_threads(), 15 * 256);
        assert_eq!(lc.warps_per_cta(), 8);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn launch_config_rejects_ragged_cta() {
        let _ = LaunchConfig::new(1, 33);
    }

    #[test]
    #[should_panic(expected = "regs_per_thread")]
    fn kernel_rejects_zero_regs() {
        let _ = Kernel::new("bad", 0);
    }

    #[test]
    fn op_classification() {
        assert!(Op::LdGlobal(BufferId(0)).is_memory());
        assert!(Op::StShared.is_store());
        assert!(!Op::LdShared.is_store());
        assert!(Op::FFma.is_float());
        assert!(!Op::IAdd.is_float());
    }

    #[test]
    fn operand_immediates_roundtrip() {
        assert_eq!(Operand::imm_f32(1.5), Operand::Imm(1.5f32.to_bits()));
        assert_eq!(Operand::imm_i32(-1), Operand::Imm(u32::MAX));
    }
}
