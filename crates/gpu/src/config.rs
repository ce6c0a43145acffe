//! GPU architecture configuration (the paper's Table 3 and Table 4).

use crate::cache::CacheConfig;

/// Warp-scheduler policy (§6.2-B evaluates all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Greedy-then-oldest: keep issuing the same warp until it stalls on a
    /// memory access, then fall back to the oldest ready warp (baseline).
    Gto,
    /// Loose round-robin over all resident warps.
    Lrr,
    /// Two-level: round-robin within a small active set; a warp stalling on
    /// memory is demoted to the pending set and replaced.
    TwoLevel,
}

impl SchedulerKind {
    /// All scheduler policies, baseline first.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Gto,
        SchedulerKind::Lrr,
        SchedulerKind::TwoLevel,
    ];

    /// Fraction of L1-miss latency hidden by other warps under this policy.
    ///
    /// The paper observes LRR and two-level incur slightly higher baseline
    /// chip energy than GTO (Fig. 21) — longer runtime means more leakage.
    pub fn latency_hiding(self) -> f64 {
        match self {
            SchedulerKind::Gto => 0.95,
            SchedulerKind::TwoLevel => 0.93,
            SchedulerKind::Lrr => 0.90,
        }
    }
}

impl core::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            SchedulerKind::Gto => "GTO",
            SchedulerKind::Lrr => "LRR",
            SchedulerKind::TwoLevel => "Two-Level",
        };
        f.write_str(s)
    }
}

/// Full GPU configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// Human-readable configuration name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// Maximum resident warps per SM.
    pub warps_per_sm: u32,
    /// Register-file capacity per SM in bytes.
    pub reg_bytes_per_sm: u32,
    /// Shared-memory capacity per SM in bytes.
    pub smem_bytes_per_sm: u32,
    /// Shared-memory banks.
    pub smem_banks: u32,
    /// L1 data cache (per SM).
    pub l1d: CacheConfig,
    /// L1 instruction cache (per SM).
    pub l1i: CacheConfig,
    /// L1 constant cache (per SM).
    pub l1c: CacheConfig,
    /// L1 texture cache (per SM).
    pub l1t: CacheConfig,
    /// One L2 bank (the chip has [`GpuConfig::l2_banks`] of them).
    pub l2_bank: CacheConfig,
    /// Number of L2 banks (= memory channels in the baseline).
    pub l2_banks: u32,
    /// NoC flit size in bytes.
    pub noc_flit_bytes: usize,
    /// MSHRs per SM (intra-warp coalescing is always on; this bounds
    /// cross-access merging).
    pub mshrs: u32,
    /// Register-file banks per SM (operand-collector conflicts arise when
    /// one instruction reads several operands from the same bank).
    pub reg_banks: u32,
    /// Warp scheduler policy.
    pub scheduler: SchedulerKind,
    /// L1-miss round-trip latency in cycles (for the runtime estimate).
    pub miss_latency: u32,
}

impl GpuConfig {
    /// The paper's Table 3 baseline: 15 SMs, 48 warps/SM, 128KB registers,
    /// 48KB shared memory, 16KB 4-way L1D with 128B lines, 768KB L2 in six
    /// 128KB 16-way banks, 32B flits, GTO scheduling.
    pub fn baseline() -> Self {
        Self {
            name: "baseline (Table 3)".into(),
            sms: 15,
            warps_per_sm: 48,
            reg_bytes_per_sm: 128 << 10,
            smem_bytes_per_sm: 48 << 10,
            smem_banks: 32,
            l1d: CacheConfig::new(16 << 10, 128, 4),
            l1i: CacheConfig::new(2 << 10, 128, 4),
            l1c: CacheConfig::new(8 << 10, 128, 4),
            l1t: CacheConfig::new(12 << 10, 128, 4),
            l2_bank: CacheConfig::new(128 << 10, 128, 16),
            l2_banks: 6,
            noc_flit_bytes: 32,
            mshrs: 32,
            reg_banks: 4,
            scheduler: SchedulerKind::Gto,
            miss_latency: 200,
        }
    }

    /// Table 4: GTX-480 (Fermi) SRAM capacities — identical to the baseline.
    pub fn gtx480() -> Self {
        let mut c = Self::baseline();
        c.name = "GTX-480 (Fermi)".into();
        c
    }

    /// Table 4: Tesla-P100 (Pascal) SRAM capacities.
    pub fn tesla_p100() -> Self {
        Self {
            name: "Tesla-P100 (Pascal)".into(),
            sms: 56,
            warps_per_sm: 64,
            reg_bytes_per_sm: 256 << 10,
            smem_bytes_per_sm: 112 << 10,
            smem_banks: 32,
            l1d: CacheConfig::new(16 << 10, 128, 4),
            l1i: CacheConfig::new(16 << 10, 128, 4),
            l1c: CacheConfig::new(8 << 10, 128, 4),
            l1t: CacheConfig::new(48 << 10, 128, 4),
            l2_bank: CacheConfig::new(256 << 10, 128, 16),
            l2_banks: 6,
            noc_flit_bytes: 32,
            mshrs: 32,
            reg_banks: 4,
            scheduler: SchedulerKind::Gto,
            miss_latency: 200,
        }
    }

    /// Table 4: Tesla-K80 (Kepler) SRAM capacities.
    pub fn tesla_k80() -> Self {
        Self {
            name: "Tesla-K80 (Kepler)".into(),
            sms: 13,
            warps_per_sm: 64,
            reg_bytes_per_sm: 512 << 10,
            smem_bytes_per_sm: 64 << 10,
            smem_banks: 32,
            l1d: CacheConfig::new(48 << 10, 128, 6),
            l1i: CacheConfig::new(16 << 10, 128, 4),
            l1c: CacheConfig::new(10 << 10, 128, 4),
            l1t: CacheConfig::new(48 << 10, 128, 4),
            l2_bank: CacheConfig::new(512 << 10, 128, 16),
            l2_banks: 8,
            noc_flit_bytes: 32,
            mshrs: 32,
            reg_banks: 4,
            scheduler: SchedulerKind::Gto,
            miss_latency: 200,
        }
    }

    /// The three Table 4 capacity presets, in the paper's row order.
    pub fn table4() -> Vec<GpuConfig> {
        vec![Self::gtx480(), Self::tesla_p100(), Self::tesla_k80()]
    }

    /// Total on-chip SRAM capacity in bytes (all BVF-coverable units).
    pub fn total_sram_bytes(&self) -> u64 {
        let per_sm = u64::from(self.reg_bytes_per_sm)
            + u64::from(self.smem_bytes_per_sm)
            + self.l1d.bytes()
            + self.l1i.bytes()
            + self.l1c.bytes()
            + self.l1t.bytes();
        per_sm * u64::from(self.sms) + self.l2_bank.bytes() * u64::from(self.l2_banks)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table3() {
        let c = GpuConfig::baseline();
        assert_eq!(c.sms, 15);
        assert_eq!(c.warps_per_sm, 48);
        assert_eq!(c.reg_bytes_per_sm, 128 << 10);
        assert_eq!(c.smem_bytes_per_sm, 48 << 10);
        assert_eq!(c.l1d.bytes(), 16 << 10);
        assert_eq!(c.l1d.line_bytes(), 128);
        assert_eq!(c.l1d.assoc(), 4);
        assert_eq!(c.l2_bank.bytes() * u64::from(c.l2_banks), 768 << 10);
        assert_eq!(c.noc_flit_bytes, 32);
        assert_eq!(c.scheduler, SchedulerKind::Gto);
    }

    #[test]
    fn table4_capacities_ordered() {
        let t4 = GpuConfig::table4();
        assert_eq!(t4.len(), 3);
        // P100 and K80 both have more total SRAM than the Fermi baseline.
        assert!(t4[1].total_sram_bytes() > t4[0].total_sram_bytes());
        assert!(t4[2].total_sram_bytes() > t4[0].total_sram_bytes());
    }

    #[test]
    fn gto_hides_latency_best() {
        assert!(SchedulerKind::Gto.latency_hiding() > SchedulerKind::TwoLevel.latency_hiding());
        assert!(SchedulerKind::TwoLevel.latency_hiding() > SchedulerKind::Lrr.latency_hiding());
    }

    #[test]
    fn display_names() {
        assert_eq!(SchedulerKind::Gto.to_string(), "GTO");
        assert_eq!(SchedulerKind::TwoLevel.to_string(), "Two-Level");
    }
}
