//! The top-level GPU: SMs, cache hierarchy, NoC routing, and launch driver.
//!
//! One [`Gpu::launch`] executes a kernel grid to completion and returns a
//! [`TraceSummary`]: per-view unit statistics (via the multi-view
//! [`StatsCollector`]), NoC toggle statistics, the raw data profiles of
//! Figs. 8/9/11/12, cache hit rates, a runtime estimate, and per-unit
//! capacity utilization (the input of the leakage model).
//!
//! The simulator returns its observations and reports nothing itself: it
//! holds no metrics or trace sink, and its own time comes back only as
//! the phase profile on the result. Callers turn that profile into
//! timers and spans.

use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use bvf_bits::{BitCounts, NarrowValueProfile};
use bvf_core::Unit;
use bvf_isa::ir::{BufferId, Kernel, LaunchConfig, Op};
use bvf_isa::Architecture;
use bvf_obs::MetricsSink;

use crate::cache::{Access, Cache};
use crate::config::GpuConfig;
use crate::dram::{DramChannel, DramConfig, DramRequest, DramStats};
use crate::exec::{AddrPattern, FlatProgram, StepResult, Warp, WarpEnv};
use crate::memory::GlobalMemory;
use crate::noc::{channel_id, cmd, header, Direction};
use crate::phase::{Phase, PhaseClock, PhaseProfile};
use crate::sched::Scheduler;
use crate::stats::{AccessKind, CodingView, StatsCollector, ViewStats};

/// Base byte address of the instruction segment — far above any data
/// buffer so instruction and data lines never alias in L2.
const INSTR_BASE: u64 = 1 << 40;

/// Sample one register write in this many for the Fig. 11 lane-Hamming
/// profile (full profiling of every write would dominate runtime).
const LANE_SAMPLE_INTERVAL: u64 = 8;

/// Results of one kernel launch.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Per-coding-view unit and NoC statistics.
    pub views: Vec<ViewStats>,
    /// Estimated execution cycles (max over SMs).
    pub cycles: u64,
    /// Dynamic instructions issued (all SMs).
    pub dynamic_instructions: u64,
    /// L1D hit rate across all SMs.
    pub l1d_hit_rate: f64,
    /// L2 hit rate across all banks.
    pub l2_hit_rate: f64,
    /// Narrow-value profile of raw global loads/stores (Fig. 8). This and
    /// the next three fields are the value profiles: empty (lane 0
    /// optimal) when [`Gpu::set_value_profiles`] turned them off.
    pub narrow: NarrowValueProfile,
    /// Raw 0/1 bit counts of global data traffic (Fig. 9).
    pub data_bits: BitCounts,
    /// Mean inter-lane Hamming distance per lane, register writes (Fig. 11).
    pub lane_profile: [f64; 32],
    /// The lane with minimal mean distance (Fig. 12's per-app optimum).
    pub optimal_lane: usize,
    /// Fraction of each unit's capacity touched during the run (leakage
    /// occupancy input).
    pub utilization: BTreeMap<Unit, f64>,
    /// Shared-memory bank-conflict extra cycles, summed over SMs (each
    /// SM's own conflicts are part of its critical path inside `cycles`).
    pub smem_conflict_cycles: u64,
    /// Aggregate DRAM-channel statistics (FR-FCFS model).
    pub dram: DramStats,
    /// Where the simulator's own wall time went (empty unless profiling
    /// was switched on via [`Gpu::set_metrics`]).
    pub profile: PhaseProfile,
}

/// Equality ignores the phase profile: two launches are the same *result*
/// if every simulated counter agrees, however the simulator's own time was
/// spent (and whether or not it was measured). This is what keeps
/// instrumented and uninstrumented runs bit-comparable.
impl PartialEq for TraceSummary {
    fn eq(&self, other: &Self) -> bool {
        self.views == other.views
            && self.cycles == other.cycles
            && self.dynamic_instructions == other.dynamic_instructions
            && self.l1d_hit_rate == other.l1d_hit_rate
            && self.l2_hit_rate == other.l2_hit_rate
            && self.narrow == other.narrow
            && self.data_bits == other.data_bits
            && self.lane_profile == other.lane_profile
            && self.optimal_lane == other.optimal_lane
            && self.utilization == other.utilization
            && self.smem_conflict_cycles == other.smem_conflict_cycles
            && self.dram == other.dram
    }
}

impl TraceSummary {
    /// The statistics for a named view.
    ///
    /// # Panics
    ///
    /// Panics if the view does not exist.
    pub fn view(&self, name: &str) -> &ViewStats {
        self.views
            .iter()
            .find(|v| v.view.name == name)
            .unwrap_or_else(|| panic!("no coding view named {name:?}"))
    }
}

/// Raw partial results of one contiguous SM-range slice of a launch (see
/// [`Gpu::launch_shard`]).
///
/// A shard carries integer partials — sums, maxima, touched-line sets,
/// and the raw DRAM request log — rather than derived rates, so
/// [`merge_shards`] computes every `f64` of the final [`TraceSummary`]
/// exactly once, from the same totals the unsharded launch would use.
/// Together with per-SM simulation state (each SM gets its own L2 slice,
/// memory image, and Fig. 11 sampling phase), that makes `merge_shards`
/// bit-identical to [`Gpu::launch`] for **any** contiguous partition of
/// the SM range.
#[derive(Debug, Clone)]
pub struct LaunchShard {
    /// Per-view statistics of this shard's SMs.
    pub views: Vec<ViewStats>,
    /// Max over this shard's SMs of the per-SM critical path: issues +
    /// exposed L1D-miss stall + operand-bank and shared-memory conflict
    /// serialization.
    pub max_core_cycles: u64,
    /// Instructions issued by this shard's SMs.
    pub dynamic_instructions: u64,
    /// L1D hits over this shard's SMs (rates are derived at merge time).
    pub l1d_hits: u64,
    /// L1D accesses over this shard's SMs.
    pub l1d_accesses: u64,
    /// L2 hits over this shard's per-SM L2 slices.
    pub l2_hits: u64,
    /// L2 accesses over this shard's per-SM L2 slices.
    pub l2_accesses: u64,
    /// Narrow-value profile of the shard's global traffic (Fig. 8).
    pub narrow: NarrowValueProfile,
    /// Raw 0/1 bit counts of the shard's global traffic (Fig. 9).
    pub data_bits: BitCounts,
    /// Fig. 11 lane-Hamming accumulators (sums, not means).
    pub lane_sums: [u64; 32],
    /// Number of sampled register writes behind `lane_sums`.
    pub lane_samples: u64,
    /// Distinct lines touched per unit, indexed by `unit as usize`, in no
    /// particular order: [`merge_shards`] reads only their count and their
    /// set union (an I-line fetched by several SMs counts once).
    pub touched_lines: [Vec<u64>; 9],
    /// Shared-memory bank-conflict cycles summed over the shard's SMs.
    pub smem_conflict_cycles: u64,
    /// DRAM traffic (L2 misses and writebacks) of this shard's SMs, each
    /// request tagged with its channel, in execution order. Shards *log*
    /// off-chip traffic instead of servicing it: [`merge_shards`]
    /// concatenates the logs in shard order — exactly the global order
    /// the sequential SM loop produces — and drains them through one
    /// launch-wide FR-FCFS channel set, so row-buffer locality between
    /// requests from *different* SMs survives any sharding.
    pub dram_log: Vec<(u32, DramRequest)>,
    /// Register-file occupancy. Derived from the kernel and launch
    /// geometry alone, hence identical across shards.
    pub reg_utilization: f64,
    /// Shared-memory occupancy (same shard-invariance as `reg_utilization`).
    pub sme_utilization: f64,
    /// Simulator self-time of this shard (merged, never compared).
    pub profile: PhaseProfile,
}

/// The contiguous SM range `start..end` covered by shard `index` of
/// `count`: SMs are split as evenly as possible, the first `sms % count`
/// shards taking one extra. With `count > sms` the surplus shards get
/// empty ranges (they merge as zeros).
///
/// # Panics
///
/// Panics unless `index < count`.
pub fn shard_sm_range(sms: u32, index: u32, count: u32) -> (u32, u32) {
    assert!(
        index < count,
        "shard {index} out of range for {count} shards"
    );
    let base = sms / count;
    let rem = sms % count;
    let start = index * base + index.min(rem);
    let end = start + base + u32::from(index < rem);
    (start, end)
}

/// Merge shard results into the [`TraceSummary`] of the whole launch.
///
/// Counters, profiles, and toggle statistics sum; cycle terms take the
/// max (SM critical paths and the busiest DRAM channel bound the launch,
/// they do not add across concurrent SMs); rates and occupancies are
/// derived from the merged integer totals. The launch's DRAM traffic is
/// serviced *here*, exactly once: the shard logs are concatenated in
/// shard order and drained through one global FR-FCFS channel set.
/// Pass every shard of one launch exactly once, **in shard-index
/// order** — the counter merges are commutative, but the DRAM replay
/// must see the same global request order the sequential SM loop
/// produces.
///
/// # Panics
///
/// Panics if `shards` is empty or the shards disagree on the view set.
pub fn merge_shards(config: &GpuConfig, shards: &[LaunchShard]) -> TraceSummary {
    assert!(!shards.is_empty(), "merge needs at least one shard");
    let mut views = shards[0].views.clone();
    for s in &shards[1..] {
        assert_eq!(
            views.len(),
            s.views.len(),
            "shards disagree on the view set"
        );
        for (acc, v) in views.iter_mut().zip(&s.views) {
            acc.merge(v);
        }
    }

    let mut max_core_cycles = 0u64;
    let mut dynamic_instructions = 0u64;
    let (mut l1d_hits, mut l1d_accesses) = (0u64, 0u64);
    let (mut l2_hits, mut l2_accesses) = (0u64, 0u64);
    let mut narrow = NarrowValueProfile::new();
    let mut data_bits = BitCounts::default();
    let mut lane_sums = [0u64; 32];
    let mut lane_samples = 0u64;
    let mut smem_conflict_cycles = 0u64;
    let mut profile = PhaseProfile::default();
    for s in shards {
        max_core_cycles = max_core_cycles.max(s.max_core_cycles);
        dynamic_instructions += s.dynamic_instructions;
        l1d_hits += s.l1d_hits;
        l1d_accesses += s.l1d_accesses;
        l2_hits += s.l2_hits;
        l2_accesses += s.l2_accesses;
        narrow.merge(&s.narrow);
        data_bits += s.data_bits;
        for (acc, &x) in lane_sums.iter_mut().zip(&s.lane_sums) {
            *acc += x;
        }
        lane_samples += s.lane_samples;
        smem_conflict_cycles += s.smem_conflict_cycles;
        profile.merge(&s.profile);
    }

    // The launch-global DRAM drain. All shards' request logs, replayed in
    // shard order through one channel set, give FR-FCFS the same queue a
    // sequential run over the whole SM range would build — row hits
    // between requests from different SMs (a streaming kernel's bread and
    // butter) are preserved bit-for-bit under any contiguous partition.
    let drain_started = Instant::now();
    let mut channels: Vec<DramChannel> = (0..config.l2_banks)
        .map(|_| DramChannel::new(DramConfig::default()))
        .collect();
    for s in shards {
        for &(ch, req) in &s.dram_log {
            channels[ch as usize].enqueue(req);
        }
    }
    let mut dram = DramStats::default();
    let mut dram_max_busy = 0u64;
    for ch in &mut channels {
        ch.drain();
        let s = ch.stats();
        dram.merge(&s);
        dram_max_busy = dram_max_busy.max(s.busy_cycles);
    }
    // The replay is simulator self-time outside any shard's phase clock;
    // attribute it to the `dram_drain` phase so profiled breakdowns keep
    // telling the truth. (The profile is excluded from summary equality,
    // so this cannot perturb bit-identity checks.)
    if profile.is_enabled() {
        let drain_nanos = drain_started.elapsed().as_nanos() as u64;
        profile.slices[Phase::DramDrain as usize].nanos += drain_nanos;
        profile.launch_nanos += drain_nanos;
    }
    let dram_exposed = (dram_max_busy as f64 * (1.0 - config.scheduler.latency_hiding())) as u64;

    let lane_profile = if lane_samples == 0 {
        [0.0; 32]
    } else {
        let denom = (lane_samples * 31) as f64;
        core::array::from_fn(|i| lane_sums[i] as f64 / denom)
    };
    let optimal_lane = lane_profile
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0);

    let mut utilization = BTreeMap::new();
    utilization.insert(Unit::Reg, shards[0].reg_utilization);
    utilization.insert(Unit::Sme, shards[0].sme_utilization);
    let lines = |unit: Unit| -> u64 {
        let u = unit as usize;
        if shards.len() == 1 {
            return shards[0].touched_lines[u].len() as u64;
        }
        let mut set = LineSet::default();
        for s in shards {
            set.extend(s.touched_lines[u].iter().copied());
        }
        set.len() as u64
    };
    let line_bytes = u64::from(config.l2_bank.line_bytes());
    // L1 caches are per SM; touched lines are aggregated across SMs, so
    // compare against the per-SM capacity times the SM count.
    let sms = u64::from(config.sms);
    for (unit, capacity) in [
        (Unit::L1d, config.l1d.bytes() * sms),
        (Unit::L1i, config.l1i.bytes() * sms),
        (Unit::L1c, config.l1c.bytes() * sms),
        (Unit::L1t, config.l1t.bytes() * sms),
        (
            Unit::L2,
            config.l2_bank.bytes() * u64::from(config.l2_banks),
        ),
    ] {
        utilization.insert(
            unit,
            clamp01((lines(unit) * line_bytes) as f64 / capacity as f64),
        );
    }

    TraceSummary {
        views,
        cycles: max_core_cycles + dram_exposed,
        dynamic_instructions,
        l1d_hit_rate: ratio(l1d_hits, l1d_accesses),
        l2_hit_rate: ratio(l2_hits, l2_accesses),
        narrow,
        data_bits,
        lane_profile,
        optimal_lane,
        utilization,
        smem_conflict_cycles,
        dram,
        profile,
    }
}

/// Multiplicative hasher for line-address sets. `touch` runs on every
/// memory event, where SipHash's per-insert cost is measurable; line
/// addresses are well spread already, so Fibonacci hashing suffices.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;

/// Cross-SM shared state during a launch.
struct SharedState {
    /// The statistics collector; `None` for a GPU with no coding views,
    /// whose launches record no statistics and open no stats blocks.
    collector: Option<StatsCollector>,
    memory: GlobalMemory,
    l2: Vec<Cache>,
    /// Every L2 miss and writeback of this shard, tagged with its channel
    /// (one DRAM channel per L2 bank), in execution order. Off-chip
    /// traffic is logged here rather than serviced: the launch-global
    /// FR-FCFS drain runs once, in [`merge_shards`], over the
    /// concatenated logs of all shards.
    dram_log: Vec<(u32, DramRequest)>,
    l2_line_bytes: u32,
    /// Sample the value profiles of Figs. 8/9/11/12 (see
    /// [`Gpu::set_value_profiles`]).
    value_profiles: bool,
    /// The launch's phase clock (disabled unless profiling).
    clock: PhaseClock,
    narrow: NarrowValueProfile,
    data_bits: BitCounts,
    lane_sums: [u64; 32],
    lane_samples: u64,
    reg_write_counter: u64,
    /// Distinct lines touched per unit, indexed by `unit as usize`.
    touched: [LineSet; 9],
    /// Last line touched per unit — access streams hit the same line many
    /// times in a row (16 sequential fetches per I-line), and skipping the
    /// repeated hash insert is measurable. `u64::MAX` = none yet.
    last_touched: [u64; 9],
    /// Every global store of the launch, in execution order. Each SM runs
    /// against its own clone of the prepared memory (so its line images
    /// cannot observe another SM's writes — the isolation the shard merge
    /// law rests on); the log replays all writes onto the caller-visible
    /// memory once the SM loop finishes.
    store_log: Vec<(BufferId, u32, u32)>,
    /// Scratch for one cache line image, reused across every memory event.
    line_buf: Vec<u8>,
    /// Scratch for one instruction line (words + serialized payload).
    instr_buf: Vec<u64>,
    payload_buf: Vec<u8>,
    /// Scratch for shared-memory bank-conflict counting.
    bank_buf: Vec<u32>,
}

impl SharedState {
    #[inline]
    fn touch(&mut self, unit: Unit, line: u64) {
        let u = unit as usize;
        if self.last_touched[u] != line {
            self.last_touched[u] = line;
            self.touched[u].insert(line);
        }
    }

    // Collector calls routed through the phase clock, which reads the
    // clock only around bodies long against its own ~45 ns read.
    // Word-granular events (per-instruction, per-register) stay in the
    // caller's phase; a line-granular block (every collector call one
    // cache line or instruction fetch makes: its NoC packets and its
    // line records) runs in its stats phase and switches back to the
    // caller's phase after. `calls` is the number of collector calls the
    // block makes, so the phase's events stay collector calls. Without a
    // collector nothing is recorded and no block is opened.
    #[inline]
    fn collect(&mut self, phase: Phase, calls: u64, record: impl FnOnce(&mut StatsCollector)) {
        let Some(collector) = &mut self.collector else {
            return;
        };
        let caller = self.clock.switch(phase);
        record(collector);
        self.clock.switch(caller);
        self.clock.count(phase, calls);
    }

    /// One word-granular collector event in the caller's phase.
    #[inline]
    fn record(&mut self, event: impl FnOnce(&mut StatsCollector)) {
        if let Some(collector) = &mut self.collector {
            event(collector);
        }
    }

    /// Read the image of the line at `line_addr` into `line` when a
    /// collector will record it; the caches and the DRAM log never read
    /// line contents.
    #[inline]
    fn read_line_for_stats(&self, line_addr: u64, line: &mut Vec<u8>) {
        if self.collector.is_some() {
            self.memory
                .read_line_into(line_addr, self.l2_line_bytes as usize, line);
        }
    }

    /// Log one L2 miss (or writeback) bound for the DRAM channel behind
    /// L2 bank `bank`. Requests are recorded, not serviced — see
    /// [`SharedState::dram_log`].
    #[inline]
    fn dram_enqueue(&mut self, bank: u32, req: DramRequest) {
        self.dram_log.push((bank, req));
    }
}

/// Per-SM state during a launch.
struct SmState {
    id: u32,
    l1d: Cache,
    l1i: Cache,
    l1c: Cache,
    l1t: Cache,
    scheduler: Scheduler,
    issues: u64,
    reg_bank_conflicts: u64,
    reg_banks: u32,
    /// Shared-memory bank-conflict serialization cycles of THIS SM. Kept
    /// per-SM (not pooled launch-wide) so conflicts only lengthen the
    /// critical path when they happen on the critical SM.
    smem_conflict_cycles: u64,
}

impl SmState {
    /// The caches and scheduler one launch reuses across its SMs.
    fn new(cfg: &GpuConfig) -> Self {
        Self {
            id: 0,
            l1d: Cache::new(cfg.l1d),
            l1i: Cache::new(cfg.l1i),
            l1c: Cache::new(cfg.l1c),
            l1t: Cache::new(cfg.l1t),
            scheduler: Scheduler::new(cfg.scheduler),
            issues: 0,
            reg_bank_conflicts: 0,
            reg_banks: cfg.reg_banks,
            smem_conflict_cycles: 0,
        }
    }

    /// Become SM `id` with empty caches, a fresh scheduler and zeroed
    /// counters: the same state [`SmState::new`] builds.
    fn reset(&mut self, id: u32, cfg: &GpuConfig) {
        self.id = id;
        for cache in [&mut self.l1d, &mut self.l1i, &mut self.l1c, &mut self.l1t] {
            cache.reset();
        }
        self.scheduler = Scheduler::new(cfg.scheduler);
        self.issues = 0;
        self.reg_bank_conflicts = 0;
        self.smem_conflict_cycles = 0;
    }
}

/// Environment adapter handed to [`Warp::step`]: routes callbacks into the
/// shared collector, caches and memory.
struct SmEnv<'a> {
    shared: &'a mut SharedState,
    sm: &'a mut SmState,
    smem: &'a mut [u32],
    smem_banks: u32,
    warp_id: u32,
    instr_words: &'a [u64],
}

impl SmEnv<'_> {
    /// The 16 instruction words of the 128B line containing `pc` (short at
    /// the program tail).
    fn ifetch_line_words(&self, pc: usize) -> &[u64] {
        let start = pc & !15;
        let end = (start + 16).min(self.instr_words.len());
        &self.instr_words[start..end]
    }

    /// Route one data line through L1 → (NoC → L2) and record every access:
    /// first the caches and the DRAM log, then the line's collector calls
    /// as one stats block. Cache and DRAM state never read the collector,
    /// so probing first changes no result.
    fn data_line_load(&mut self, l1_unit: Unit, line_addr: u64) {
        // Reuse the shared line scratch (taken out to satisfy borrows; the
        // swap is allocation-free).
        let mut line = std::mem::take(&mut self.shared.line_buf);
        self.shared.read_line_for_stats(line_addr, &mut line);
        self.shared.touch(l1_unit, line_addr);
        let l1 = match l1_unit {
            Unit::L1d => &mut self.sm.l1d,
            Unit::L1c => &mut self.sm.l1c,
            Unit::L1t => &mut self.sm.l1t,
            _ => unreachable!("data loads only target L1D/L1C/L1T"),
        };
        const FILL_READ: &[AccessKind] = &[AccessKind::Fill, AccessKind::Read];
        match l1.access_allocate(line_addr) {
            Access::Hit => {
                self.shared.collect(Phase::StatsData, 1, |c| {
                    c.record_line(l1_unit, AccessKind::Read, &line)
                });
            }
            Access::Miss { .. } => {
                // The owning L2 bank serves the miss, filling from DRAM on
                // its own miss.
                let bank = self.l2_bank_of(line_addr);
                self.shared.touch(Unit::L2, line_addr);
                let l2_kinds = match self.shared.l2[bank as usize].access_allocate(line_addr) {
                    Access::Hit => &[AccessKind::Read][..],
                    Access::Miss { .. } => {
                        self.shared.dram_enqueue(
                            bank,
                            DramRequest {
                                addr: line_addr,
                                is_write: false,
                            },
                        );
                        FILL_READ
                    }
                };
                let (sm, warp) = (self.sm.id, self.warp_id);
                let req = header(cmd::READ_REQ, sm, bank, line_addr, warp);
                let rep = header(cmd::READ_REPLY, sm, bank, line_addr, warp);
                self.shared.collect(Phase::StatsData, 4, |c| {
                    // Request over the NoC, the L2 access, the reply
                    // carrying the line back, then the L1 fill and read.
                    c.record_noc_packet(channel_id(sm, bank, Direction::Request), &req, &[], false);
                    c.record_line_kinds(Unit::L2, l2_kinds, &line);
                    c.record_noc_packet(channel_id(sm, bank, Direction::Reply), &rep, &line, false);
                    c.record_line_kinds(l1_unit, FILL_READ, &line);
                });
            }
        }
        self.shared.line_buf = line;
    }

    /// A global store: write-no-allocate/write-evict L1, full line to L2.
    /// Like a load, the caches and the DRAM log go first, then the line's
    /// collector calls as one stats block.
    fn data_line_store(&mut self, line_addr: u64) {
        // The store already updated backing memory, so the line image is
        // the post-write content ("the entire L1 line is invalidated and
        // written into L2").
        let mut line = std::mem::take(&mut self.shared.line_buf);
        self.shared.read_line_for_stats(line_addr, &mut line);
        // No L1D touch: the L1 is write-no-allocate/write-evict, so a
        // store-only line is never resident and must not count toward the
        // L1D leakage occupancy.
        self.shared.touch(Unit::L2, line_addr);
        if self.sm.l1d.probe(line_addr) {
            self.sm.l1d.invalidate(line_addr);
        }
        let bank = self.l2_bank_of(line_addr);
        if matches!(
            self.shared.l2[bank as usize].access_allocate(line_addr),
            Access::Miss { .. }
        ) {
            // Write-allocate miss: the dirty line eventually writes back.
            self.shared.dram_enqueue(
                bank,
                DramRequest {
                    addr: line_addr,
                    is_write: true,
                },
            );
        }
        let (sm, warp) = (self.sm.id, self.warp_id);
        let req = header(cmd::WRITE_REQ, sm, bank, line_addr, warp);
        self.shared.collect(Phase::StatsData, 2, |c| {
            c.record_noc_packet(channel_id(sm, bank, Direction::Request), &req, &line, false);
            c.record_line(Unit::L2, AccessKind::Write, &line);
        });
        self.shared.line_buf = line;
    }

    fn l2_bank_of(&self, line_addr: u64) -> u32 {
        ((line_addr / u64::from(self.shared.l2_line_bytes)) % self.shared.l2.len() as u64) as u32
    }

    fn profile_global_data(&mut self, values: &[u32; 32], active: u32) {
        if !self.shared.value_profiles {
            return;
        }
        for (lane, &v) in values.iter().enumerate() {
            if active >> lane & 1 == 1 {
                self.shared.narrow.record(v);
                self.shared.data_bits.record(v);
            }
        }
    }
}

/// Fig. 11: add each lane's summed Hamming distance to the other 31 lanes
/// to `sums`.
///
/// Bit-sliced. For lane i the pairwise loop sums popcount(l_i ^ l_j) over
/// j != i; per bit b that is (32 - ones_b) when lane i has the bit set and
/// ones_b when clear (ones_b = set lanes at bit b), which folds to
///   total + 32*popcount(l_i) - 2 * sum_{b in l_i} ones_b
/// with total = sum_b ones_b. Every ones_b ≤ 32 fits in six bits, so with
/// M_k the mask of the bit positions whose ones_b has bit k set,
///   sum_{b in l_i} ones_b = sum_k popcount(l_i & M_k) << k:
/// six popcounts per lane where a walk over l_i's set bits costs up to 32
/// dependent loads. Identical integers to the O(32^2) XOR/popcount scan.
fn add_lane_distances(sums: &mut [u64; 32], lanes: &[u32; 32]) {
    let mut planes = *lanes;
    bvf_bits::transpose32(&mut planes);
    let mut masks = [0u32; 6];
    let mut total = 0u64;
    for (b, p) in planes.iter().enumerate() {
        let ones = p.count_ones();
        total += u64::from(ones);
        for (k, m) in masks.iter_mut().enumerate() {
            *m |= (ones >> k & 1) << b;
        }
    }
    for (sum, &v) in sums.iter_mut().zip(lanes) {
        let s: u32 = masks
            .iter()
            .enumerate()
            .map(|(k, &m)| (v & m).count_ones() << k)
            .sum();
        *sum += total + 32 * u64::from(v.count_ones()) - 2 * u64::from(s);
    }
}

impl WarpEnv for SmEnv<'_> {
    fn on_operand_group(&mut self, regs: &[u8]) {
        // Operand collector: two operands mapping to the same register bank
        // serialize; each extra same-bank operand costs one cycle.
        let banks = self.sm.reg_banks.max(1);
        // An instruction reads at most a handful of distinct registers, so a
        // pairwise scan beats zeroing a per-bank histogram: each operand whose
        // bank already appeared earlier in the group is one extra cycle, which
        // sums to the same max(count-1, 0) per bank.
        let mut extra = 0u64;
        for (i, &r) in regs.iter().enumerate() {
            let b = u32::from(r) % banks;
            if regs[..i].iter().any(|&p| u32::from(p) % banks == b) {
                extra += 1;
            }
        }
        self.sm.reg_bank_conflicts += extra;
    }

    fn on_reg_read(&mut self, reg_lanes: &[u32; 32], active: u32) {
        self.shared
            .record(|c| c.record_register(AccessKind::Read, reg_lanes, active));
    }

    fn on_reg_write(&mut self, reg_lanes: &[u32; 32], active: u32, pivot_divergent: bool) {
        self.shared.record(|c| {
            c.record_register(AccessKind::Write, reg_lanes, active);
            if pivot_divergent {
                c.record_dummy_mov();
            }
        });
        // Fig. 11 sampling (full-warp writes only — partial warps would
        // skew the per-lane means with stale data).
        if active == u32::MAX && self.shared.value_profiles {
            self.shared.reg_write_counter += 1;
            if self
                .shared
                .reg_write_counter
                .is_multiple_of(LANE_SAMPLE_INTERVAL)
            {
                add_lane_distances(&mut self.shared.lane_sums, reg_lanes);
                self.shared.lane_samples += 1;
            }
        }
    }

    fn on_ifetch(&mut self, pc: usize, word: u64) {
        let addr = INSTR_BASE + pc as u64 * 8;
        let line_addr = addr & !127;
        self.shared.touch(Unit::L1i, line_addr);
        if let Access::Hit = self.sm.l1i.access_allocate(addr) {
            // Instruction fetch buffer sees every issue, then the L1I
            // serves the same word — one encode, two units. A hit is a
            // cache probe and a word event, so it stays in the caller's
            // phase, as register events do; only a miss gets `ifetch`.
            self.shared.record(|c| {
                c.record_instruction_units(&[Unit::Ifb, Unit::L1i], AccessKind::Read, word)
            });
            return;
        }
        let caller = self.shared.clock.switch(Phase::Ifetch);
        self.shared.clock.count(Phase::Ifetch, 1);
        self.shared
            .record(|c| c.record_instruction(Unit::Ifb, AccessKind::Read, word));
        // Fetch the whole 128B (16-instruction) line from L2, which holds
        // the instruction line too: the L2 probe and DRAM log first, then
        // the line's collector calls as one stats block.
        let bank = self.l2_bank_of(line_addr);
        self.shared.touch(Unit::L2, line_addr);
        if matches!(
            self.shared.l2[bank as usize].access_allocate(line_addr),
            Access::Miss { .. }
        ) {
            self.shared.dram_enqueue(
                bank,
                DramRequest {
                    addr: line_addr,
                    is_write: false,
                },
            );
        }
        if self.shared.collector.is_some() {
            let mut line_words = std::mem::take(&mut self.shared.instr_buf);
            line_words.clear();
            line_words.extend_from_slice(self.ifetch_line_words(pc));
            let mut payload = std::mem::take(&mut self.shared.payload_buf);
            payload.clear();
            for w in &line_words {
                payload.extend_from_slice(&w.to_le_bytes());
            }
            let (sm, warp) = (self.sm.id, self.warp_id);
            let req = header(cmd::IFETCH_REQ, sm, bank, addr, warp);
            let rep = header(cmd::IFETCH_REPLY, sm, bank, addr, warp);
            self.shared.collect(Phase::StatsInstr, 4, |c| {
                c.record_noc_packet(channel_id(sm, bank, Direction::Request), &req, &[], true);
                c.record_instruction_line(Unit::L2, AccessKind::Read, &line_words);
                c.record_noc_packet(channel_id(sm, bank, Direction::Reply), &rep, &payload, true);
                c.record_instruction_line(Unit::L1i, AccessKind::Fill, &line_words);
            });
            self.shared.instr_buf = line_words;
            self.shared.payload_buf = payload;
        }
        self.shared
            .record(|c| c.record_instruction(Unit::L1i, AccessKind::Read, word));
        self.shared.clock.switch(caller);
    }

    fn global_access(
        &mut self,
        op: Op,
        indices: &[u32; 32],
        data: Option<&[u32; 32]>,
        active: u32,
        pattern: AddrPattern,
    ) -> [u32; 32] {
        let (buf, l1_unit) = match op {
            Op::LdGlobal(b) | Op::StGlobal(b) => (b, Unit::L1d),
            Op::LdConst(b) => (b, Unit::L1c),
            Op::LdTexture(b) => (b, Unit::L1t),
            other => unreachable!("not a global-space op: {other:?}"),
        };
        let line_bytes = u64::from(self.shared.l2_line_bytes);
        let mut out = [0u32; 32];
        let caller = self.shared.clock.switch(Phase::DataMemory);
        self.shared.clock.count(Phase::DataMemory, 1);

        if let Some(values) = data {
            // Store: update (this SM's image of) memory first, then
            // coalesce lines to L2. The log replays the write onto the
            // caller-visible memory after the SM loop. The buffer is
            // resolved once for the warp; the in-range branch keeps the
            // wrapping `%` off the common path.
            let (_, words) = self.shared.memory.buffer_view_mut(buf);
            let n = words.len();
            for lane in 0..32 {
                if active >> lane & 1 == 1 {
                    let i = indices[lane] as usize;
                    words[if i < n { i } else { i % n }] = values[lane];
                    self.shared
                        .store_log
                        .push((buf, indices[lane], values[lane]));
                }
            }
            self.profile_global_data(values, active);
            let (lines, n) = coalesce_lines(
                &self.shared.memory,
                buf,
                indices,
                active,
                line_bytes,
                pattern,
            );
            for &line in &lines[..n] {
                self.data_line_store(line);
            }
        } else {
            // Load: functional data plus cache/NoC/L2 traffic. One buffer
            // resolve serves all 32 lanes; a guaranteed-contiguous stride-1
            // span is a single slice copy and a uniform index one load plus
            // a splat (the load contract in `WarpEnv` requires exactly the
            // lane-wise equivalence).
            let (_, words) = self.shared.memory.buffer_view(buf);
            let n = words.len();
            let first = indices[0] as usize;
            if pattern == AddrPattern::Uniform && active == u32::MAX {
                out = [words[if first < n { first } else { first % n }]; 32];
            } else if pattern == AddrPattern::Stride1
                && active == u32::MAX
                && indices[0] <= u32::MAX - 31
                && first + 31 < n
            {
                out.copy_from_slice(&words[first..first + 32]);
            } else {
                for lane in 0..32 {
                    if active >> lane & 1 == 1 {
                        let i = indices[lane] as usize;
                        out[lane] = words[if i < n { i } else { i % n }];
                    }
                }
            }
            if op == Op::LdGlobal(buf) {
                self.profile_global_data(&out, active);
            }
            let (lines, n) = coalesce_lines(
                &self.shared.memory,
                buf,
                indices,
                active,
                line_bytes,
                pattern,
            );
            for &line in &lines[..n] {
                self.data_line_load(l1_unit, line);
            }
        }
        self.shared.clock.switch(caller);
        out
    }

    fn shared_access(
        &mut self,
        _op: Op,
        indices: &[u32; 32],
        data: Option<&[u32; 32]>,
        active: u32,
        pattern: AddrPattern,
    ) -> [u32; 32] {
        let n = self.smem.len().max(1);
        let mut out = [0u32; 32];
        let caller = self.shared.clock.switch(Phase::DataMemory);
        self.shared.clock.count(Phase::DataMemory, 1);
        // Bank-conflict serialization estimate. Uniform and unit-stride
        // accesses (the common cases) resolve in O(1); only scatters pay
        // the 32-lane histogram. The model has no broadcast path, so a
        // uniform access still serializes one cycle per active lane —
        // identical to what the histogram computes for equal indices.
        let serial = if active == 0 {
            0
        } else if pattern == AddrPattern::Uniform {
            active.count_ones()
        } else if pattern == AddrPattern::Stride1
            && active == u32::MAX
            && indices[0] <= u32::MAX - 31
        {
            // 32 consecutive indices spread round-robin over the banks:
            // the fullest bank holds ceil(32/banks) lanes. (The index
            // guard rules out u32 wraparound, which would break the
            // consecutive-residue argument for non-power-of-two banks.)
            32u32.div_ceil(self.smem_banks)
        } else {
            let bank_count = &mut self.shared.bank_buf;
            bank_count.clear();
            bank_count.resize(self.smem_banks as usize, 0);
            for lane in 0..32 {
                if active >> lane & 1 == 1 {
                    bank_count[(indices[lane] % self.smem_banks) as usize] += 1;
                }
            }
            bank_count.iter().copied().max().unwrap_or(0)
        };
        #[cfg(debug_assertions)]
        {
            let mut check = vec![0u32; self.smem_banks as usize];
            for lane in 0..32 {
                if active >> lane & 1 == 1 {
                    check[(indices[lane] % self.smem_banks) as usize] += 1;
                }
            }
            assert_eq!(
                serial,
                check.iter().copied().max().unwrap_or(0),
                "smem bank fast path diverged from the histogram ({pattern:?})"
            );
        }
        if serial > 1 {
            self.sm.smem_conflict_cycles += u64::from(serial - 1);
        }

        if let Some(values) = data {
            for lane in 0..32 {
                if active >> lane & 1 == 1 {
                    let i = indices[lane] as usize;
                    self.smem[if i < n { i } else { i % n }] = values[lane];
                }
            }
            self.shared
                .record(|c| c.record_shared(AccessKind::Write, values, active));
        } else {
            if pattern == AddrPattern::Uniform && active == u32::MAX {
                let i = indices[0] as usize;
                out = [self.smem[if i < n { i } else { i % n }]; 32];
            } else {
                for lane in 0..32 {
                    if active >> lane & 1 == 1 {
                        let i = indices[lane] as usize;
                        out[lane] = self.smem[if i < n { i } else { i % n }];
                    }
                }
            }
            self.shared
                .record(|c| c.record_shared(AccessKind::Read, &out, active));
        }
        self.shared.clock.switch(caller);
        out
    }
}

/// The simulated GPU.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    arch: Architecture,
    memory: GlobalMemory,
    views: Vec<CodingView>,
    value_profiles: bool,
    trace_logging: bool,
    last_log: Option<crate::trace::TraceLog>,
    profiling: bool,
}

impl Gpu {
    /// Build a GPU with the given configuration and coding views. With no
    /// views it builds no statistics collector: its launches return every
    /// view-independent result (cycles, instructions, hit rates,
    /// utilization, DRAM) and no coding views, and their `stats_instr` and
    /// `stats_data` phases stay empty.
    pub fn new(config: GpuConfig, views: Vec<CodingView>) -> Self {
        Self {
            config,
            arch: Architecture::Pascal,
            memory: GlobalMemory::new(),
            views,
            value_profiles: true,
            trace_logging: false,
            last_log: None,
            profiling: false,
        }
    }

    /// Switch profiling on for an enabled `sink`: subsequent launches time
    /// their phases and return them as [`LaunchShard::profile`]. The GPU
    /// keeps only whether the sink is enabled and records nothing into
    /// it; the caller reports the profile. Off by default; profiling never
    /// changes simulation results.
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.profiling = sink.is_enabled();
    }

    /// Record the full raw event stream of subsequent launches (the
    /// paper's trace-dump pipeline). Retrieve it with
    /// [`Gpu::take_trace_log`] after a launch.
    pub fn enable_trace_log(&mut self) {
        self.trace_logging = true;
    }

    /// The raw event stream of the most recent launch, if logging was
    /// enabled before it.
    pub fn take_trace_log(&mut self) -> Option<crate::trace::TraceLog> {
        self.last_log.take()
    }

    /// Sample the value profiles of Figs. 8, 9, 11 and 12 (on by default):
    /// the narrow-value profile and raw bit counts of global data, and the
    /// per-lane Hamming sums of register writes. Off, a launch leaves them
    /// empty and every other result, coding views included, unchanged.
    pub fn set_value_profiles(&mut self, on: bool) {
        self.value_profiles = on;
    }

    /// Select the instruction-set generation (default Pascal).
    pub fn set_architecture(&mut self, arch: Architecture) {
        self.arch = arch;
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Read access to global memory (e.g. to verify kernel results).
    pub fn memory(&self) -> &GlobalMemory {
        &self.memory
    }

    /// Mutable access to global memory (to register input buffers).
    pub fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.memory
    }

    /// Execute `kernel` over `lc` to completion and summarize the trace.
    ///
    /// Equivalent to running the single shard covering every SM and
    /// merging it — which is not a figure of speech but the actual
    /// implementation, so the unsharded result is definitionally the
    /// merge of its per-SM pieces.
    ///
    /// # Panics
    ///
    /// Panics if the kernel references unregistered buffers, or if its
    /// per-thread register demand exceeds the register file.
    pub fn launch(&mut self, kernel: &Kernel, lc: LaunchConfig) -> TraceSummary {
        let shard = self.launch_shard(kernel, lc, 0, 1);
        merge_shards(&self.config, core::slice::from_ref(&shard))
    }

    /// Execute shard `shard_index` of `shard_count` — the contiguous SM
    /// range given by [`shard_sm_range`] — and return its raw partial
    /// results. [`merge_shards`] over all `shard_count` shards (each run
    /// against an identically prepared GPU) is bit-identical to
    /// [`Gpu::launch`] on one GPU.
    ///
    /// After a shard launch, this GPU's memory holds the stores of the
    /// shard's own CTAs only (on top of the prepared contents) — partial
    /// kernel output, full statistics.
    ///
    /// # Panics
    ///
    /// Panics like [`Gpu::launch`], or if `shard_index >= shard_count`.
    pub fn launch_shard(
        &mut self,
        kernel: &Kernel,
        lc: LaunchConfig,
        shard_index: u32,
        shard_count: u32,
    ) -> LaunchShard {
        // Setup: compiling the kernel, the collector (warm memo tables from
        // this thread's last launch over the same coders), one set of L2
        // banks and L1s reset per SM below, and the prepared image, shared
        // copy-on-write.
        let clock = PhaseClock::start(self.profiling, Phase::Setup);
        let prog = FlatProgram::compile(kernel, self.arch);
        let cfg = &self.config;
        let (sm_start, sm_end) = shard_sm_range(cfg.sms, shard_index, shard_count);
        let warps_per_cta = lc.warps_per_cta();
        assert!(
            warps_per_cta <= cfg.warps_per_sm,
            "CTA needs {warps_per_cta} warps; SM holds {}",
            cfg.warps_per_sm
        );
        let reg_bytes_per_warp = u64::from(prog.regs_per_thread) * 32 * 4;
        assert!(
            reg_bytes_per_warp * u64::from(cfg.warps_per_sm) <= u64::from(cfg.reg_bytes_per_sm) * 4,
            "register demand grossly exceeds the register file"
        );

        let collector = (!self.views.is_empty()).then(|| {
            let collector = StatsCollector::new(self.views.clone(), cfg.noc_flit_bytes);
            if self.trace_logging {
                collector.with_trace_log()
            } else {
                collector
            }
        });
        // The prepared memory image. Every SM simulates against its own
        // copy-on-write clone: line images and load values must not
        // observe another SM's stores, or a shard boundary between two SMs
        // would change recorded bits (SMs run concurrently on real
        // hardware — there is no defined cross-SM store order to observe).
        let pristine = std::mem::take(&mut self.memory);
        let mut shared = SharedState {
            collector,
            memory: GlobalMemory::new(),
            l2: (0..cfg.l2_banks).map(|_| Cache::new(cfg.l2_bank)).collect(),
            dram_log: Vec::new(),
            l2_line_bytes: cfg.l2_bank.line_bytes(),
            value_profiles: self.value_profiles,
            clock,
            narrow: NarrowValueProfile::new(),
            data_bits: BitCounts::default(),
            lane_sums: [0; 32],
            lane_samples: 0,
            reg_write_counter: 0,
            touched: Default::default(),
            last_touched: [u64::MAX; 9],
            store_log: Vec::new(),
            line_buf: Vec::new(),
            instr_buf: Vec::new(),
            payload_buf: Vec::new(),
            bank_buf: Vec::new(),
        };
        let mut sm = SmState::new(cfg);
        shared.clock.switch(Phase::Other);
        let concurrent_ctas = (cfg.warps_per_sm / warps_per_cta).max(1);
        let mut max_core_cycles = 0u64;
        let mut total_issues = 0u64;
        let (mut l1d_hits, mut l1d_accesses) = (0u64, 0u64);
        let (mut l2_hits, mut l2_accesses) = (0u64, 0u64);
        let mut smem_conflict_cycles = 0u64;

        for sm_id in sm_start..sm_end {
            // CTAs are dealt round-robin: SM `sm_id` runs sm_id, sm_id + sms, …
            let my_ctas: Vec<u32> = (sm_id..lc.grid_ctas).step_by(cfg.sms as usize).collect();
            if my_ctas.is_empty() {
                continue;
            }
            // Every SM starts from empty L2 and L1s, the prepared memory
            // image and a fresh Fig. 11 sampling phase: an SM's results
            // must not depend on which other SMs ran before it in this
            // process, so that a shard boundary anywhere in the SM range
            // changes nothing. (This also removes a serialization artifact
            // of the sequential SM loop: later SMs no longer warm up on
            // earlier SMs' L2 fills.) Resetting in place is exactly a fresh
            // cache (`Cache::reset`), and the image clone shares every
            // buffer until this SM stores to it. DRAM needs no per-SM state
            // here — misses append to the shard's request log, and the
            // channels themselves exist only during the launch-global
            // replay in `merge_shards`.
            shared.clock.switch(Phase::Setup);
            shared.clock.count(Phase::Setup, 1);
            shared.l2.iter_mut().for_each(Cache::reset);
            shared.memory = pristine.clone();
            shared.reg_write_counter = 0;
            sm.reset(sm_id, cfg);
            shared.clock.switch(Phase::Other);

            for wave in my_ctas.chunks(concurrent_ctas as usize) {
                self.run_wave(&prog, lc, wave, &mut sm, &mut shared, cfg.smem_banks);
            }

            // The stall model reads the L1D's own miss counter — the
            // same counter the hit rate is derived from, so the two can
            // never drift apart.
            let stall = (sm.l1d.misses() as f64
                * f64::from(cfg.miss_latency)
                * (1.0 - cfg.scheduler.latency_hiding())) as u64;
            max_core_cycles = max_core_cycles
                .max(sm.issues + stall + sm.reg_bank_conflicts + sm.smem_conflict_cycles);
            total_issues += sm.issues;
            l1d_hits += sm.l1d.hits();
            l1d_accesses += sm.l1d.hits() + sm.l1d.misses();
            l2_hits += shared.l2.iter().map(Cache::hits).sum::<u64>();
            l2_accesses += shared.l2.iter().map(|c| c.hits() + c.misses()).sum::<u64>();
            smem_conflict_cycles += sm.smem_conflict_cycles;
        }

        // Teardown. Replay every SM's stores onto the prepared image so
        // callers can inspect kernel results and relaunch. The workload
        // templates never store the same word from two CTAs, so the replay
        // order cannot matter — the same disjointness that makes per-SM
        // memory isolation exact. Dropping the last SM's image first lets
        // the replay write in place into buffers nobody else shares; a
        // buffer the caller still shares (a memoized prepared image) is
        // copied on its first store and the shared original stays intact.
        shared.clock.switch(Phase::Setup);
        shared.memory = GlobalMemory::new();
        let mut memory = pristine;
        for &(buf, idx, value) in &shared.store_log {
            memory.store(buf, idx, value);
        }
        self.memory = memory;

        let resident_warps = u64::from(concurrent_ctas.min(lc.grid_ctas) * warps_per_cta);
        let reg_bytes_used = resident_warps * u64::from(prog.regs_per_thread) * 32 * 4;
        let reg_utilization = clamp01(reg_bytes_used as f64 / f64::from(cfg.reg_bytes_per_sm));
        let sme_utilization = clamp01(
            (u64::from(concurrent_ctas) * u64::from(prog.shared_words) * 4) as f64
                / f64::from(cfg.smem_bytes_per_sm),
        );
        let touched_lines: [Vec<u64>; 9] =
            core::array::from_fn(|u| shared.touched[u].iter().copied().collect());
        let (views, last_log) = match shared.collector {
            Some(mut collector) => {
                let log = collector.take_log();
                (collector.finish(), log)
            }
            None => (Vec::new(), None),
        };
        self.last_log = last_log;
        shared
            .clock
            .count(Phase::DramDrain, shared.dram_log.len() as u64);
        let profile = shared.clock.finish();

        LaunchShard {
            views,
            max_core_cycles,
            dynamic_instructions: total_issues,
            l1d_hits,
            l1d_accesses,
            l2_hits,
            l2_accesses,
            narrow: shared.narrow,
            data_bits: shared.data_bits,
            lane_sums: shared.lane_sums,
            lane_samples: shared.lane_samples,
            touched_lines,
            smem_conflict_cycles,
            dram_log: shared.dram_log,
            reg_utilization,
            sme_utilization,
            profile,
        }
    }

    fn run_wave(
        &self,
        prog: &FlatProgram,
        lc: LaunchConfig,
        ctas: &[u32],
        sm: &mut SmState,
        shared: &mut SharedState,
        smem_banks: u32,
    ) {
        // Dispatch is `sched`: building the wave's warps and shared memory.
        let caller = shared.clock.switch(Phase::Sched);
        shared.clock.count(Phase::Sched, ctas.len() as u64);
        // Resident warps, CTA slot by CTA slot: slot k owns the contiguous
        // range k·n .. (k+1)·n, n = warps per CTA.
        let (n, regs) = (lc.warps_per_cta() as usize, prog.regs_per_thread);
        let mut warps: Vec<Warp> = (0..ctas.len() * n)
            .map(|i| Warp::new(regs, ctas[i / n], (i % n) as u32, lc.cta_threads))
            .collect();
        let mut smem: Vec<Vec<u32>> =
            vec![vec![0u32; prog.shared_words.max(1) as usize]; ctas.len()];
        // A warp is ready until it arrives at a barrier or exits; `arrived`
        // counts each slot's warps waiting at its barrier.
        let mut ready = vec![true; warps.len()];
        let mut arrived = vec![0u32; ctas.len()];

        // Picks and barrier releases take nanoseconds, against a ~45 ns
        // clock read, so they run in `exec` with the warps they pick.
        shared.clock.switch(Phase::Exec);
        loop {
            let Some(wi) = sm.scheduler.pick(&ready) else {
                // Every warp has exited or waits at its CTA's barrier:
                // release them all, or stop if none waits.
                if arrived.iter().all(|&a| a == 0) {
                    break;
                }
                for (r, w) in ready.iter_mut().zip(&warps) {
                    *r = !w.is_done();
                }
                arrived.fill(0);
                continue;
            };

            let slot = wi / n;
            // Scheduler-aware batching: GTO would re-pick the greedy warp
            // after every Ok step anyway, so a whole straight-line run may
            // issue under one slot; rotating policies (LRR, two-level)
            // change warp on every pick, so their quantum is 1. Every
            // per-instruction event still fires in the same order — only
            // the pick overhead is amortized.
            let quantum = sm.scheduler.max_consecutive();
            let (result, issued) = {
                let mut env = SmEnv {
                    shared,
                    sm,
                    smem: &mut smem[slot],
                    smem_banks,
                    warp_id: wi as u32,
                    instr_words: &prog.words,
                };
                warps[wi].step_run(prog, &mut env, quantum)
            };
            shared.clock.count(Phase::Exec, issued);
            sm.issues += issued;
            ready[wi] = matches!(result, StepResult::Ok | StepResult::Memory);
            match result {
                StepResult::Ok => {}
                StepResult::Memory => sm.scheduler.on_stall(wi),
                StepResult::Barrier => {
                    arrived[slot] += 1;
                    sm.scheduler.on_stall(wi);
                    // Release at once if the whole CTA has arrived or exited.
                    let cta = slot * n..(slot + 1) * n;
                    if !ready[cta.clone()].contains(&true) {
                        for (r, w) in ready[cta.clone()].iter_mut().zip(&warps[cta]) {
                            *r = !w.is_done();
                        }
                        arrived[slot] = 0;
                    }
                }
                StepResult::Exited => sm.scheduler.on_finish(wi),
            }
        }
        shared.clock.switch(caller);
    }
}

/// Coalesce one warp's active lane addresses into the sorted, deduplicated
/// set of cache lines they touch. At most 32 lanes → at most 32 lines, so
/// the result lives on the stack; returns the array and the live count.
///
/// Uniform and full-warp unit-stride accesses (the overwhelmingly common
/// cases) resolve in O(1)/O(lines) from lane 0 alone; only scatters pay the
/// 32-lane scan-sort-dedup. The fast paths are checked against the scan in
/// debug builds.
fn coalesce_lines(
    memory: &GlobalMemory,
    buf: bvf_isa::ir::BufferId,
    indices: &[u32; 32],
    active: u32,
    line_bytes: u64,
    pattern: AddrPattern,
) -> ([u64; 32], usize) {
    let fast = match pattern {
        AddrPattern::Uniform if active != 0 => {
            // Every lane carries the same index: exactly one line.
            let a = memory.addr_of(buf, indices[0]);
            let mut lines = [0u64; 32];
            lines[0] = a - a % line_bytes;
            Some((lines, 1))
        }
        AddrPattern::Stride1 if active == u32::MAX => {
            // 32 consecutive indices map to 32 consecutive words — unless
            // the buffer's index modulo (or u32 index wraparound) splits
            // the range. The contiguity check catches both: a wrapped tail
            // restarts at a strictly lower address, so equality can only
            // hold for an unbroken range.
            let first = memory.addr_of(buf, indices[0]);
            let last = memory.addr_of(buf, indices[31]);
            if last == first + 31 * 4 {
                let mut lines = [0u64; 32];
                let mut n = 0usize;
                let mut line = first - first % line_bytes;
                let last_line = last - last % line_bytes;
                while line <= last_line {
                    lines[n] = line;
                    n += 1;
                    line += line_bytes;
                }
                Some((lines, n))
            } else {
                None
            }
        }
        _ => None,
    };
    if let Some((lines, n)) = fast {
        #[cfg(debug_assertions)]
        {
            let (check, m) = coalesce_lines_scan(memory, buf, indices, active, line_bytes);
            assert_eq!(
                &lines[..n],
                &check[..m],
                "coalesce fast path diverged from the scan ({pattern:?})"
            );
        }
        return (lines, n);
    }
    coalesce_lines_scan(memory, buf, indices, active, line_bytes)
}

fn coalesce_lines_scan(
    memory: &GlobalMemory,
    buf: bvf_isa::ir::BufferId,
    indices: &[u32; 32],
    active: u32,
    line_bytes: u64,
) -> ([u64; 32], usize) {
    let mut lines = [0u64; 32];
    let mut n = 0usize;
    // One buffer resolve for the whole warp; the line mask takes the shift
    // form (line sizes are powers of two in every shipped config) and the
    // wrapping `%` only runs for genuinely out-of-range indices.
    let (base, words) = memory.buffer_view(buf);
    let len = words.len() as u64;
    let line_mask = if line_bytes.is_power_of_two() {
        !(line_bytes - 1)
    } else {
        0
    };
    for (lane, &idx) in indices.iter().enumerate() {
        if active >> lane & 1 == 1 {
            let i = u64::from(idx);
            let w = if i < len { i } else { i % len };
            let a = base + w * 4;
            lines[n] = if line_mask != 0 {
                a & line_mask
            } else {
                a - a % line_bytes
            };
            n += 1;
        }
    }
    let live = &mut lines[..n];
    live.sort_unstable();
    let mut kept = 0usize;
    for i in 0..n {
        if i == 0 || live[i] != live[i - 1] {
            live[kept] = live[i];
            kept += 1;
        }
    }
    (lines, kept)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use bvf_isa::ir::{BufferId, CmpOp, Cond, Operand, Special, Stmt};

    /// Compile-time audit: the campaign engine in `bvf-sim` runs one `Gpu`
    /// per worker thread, so the simulator types must stay `Send + Sync`
    /// (no `Rc`, `RefCell`, or raw pointers may creep in).
    #[test]
    fn simulator_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gpu>();
        assert_send_sync::<crate::GpuConfig>();
        assert_send_sync::<crate::CodingView>();
        assert_send_sync::<TraceSummary>();
        assert_send_sync::<crate::GlobalMemory>();
    }

    fn vecadd_kernel() -> Kernel {
        let mut k = Kernel::new("vecadd", 6);
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

    fn small_gpu() -> Gpu {
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 2;
        Gpu::new(cfg, CodingView::standard_set(0))
    }

    #[test]
    fn vecadd_produces_correct_results() {
        let mut gpu = small_gpu();
        let n = 256;
        gpu.memory_mut()
            .add_buffer(BufferId(0), (0..n as u32).collect());
        gpu.memory_mut()
            .add_buffer(BufferId(1), (0..n as u32).map(|i| i * 10).collect());
        gpu.memory_mut().add_buffer(BufferId(2), vec![0; n]);
        let summary = gpu.launch(&vecadd_kernel(), LaunchConfig::new(8, 32));
        let out = gpu.memory().buffer(BufferId(2)).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i + i * 10) as u32, "element {i}");
        }
        assert!(summary.cycles > 0);
        // 8 warps × 6 flat ops (5 instructions + EXIT) each.
        assert!(summary.dynamic_instructions >= 8 * 6);
    }

    #[test]
    fn all_units_record_traffic() {
        let mut gpu = small_gpu();
        gpu.memory_mut()
            .add_buffer(BufferId(0), (0..512u32).collect());
        gpu.memory_mut().add_buffer(BufferId(1), vec![1; 512]);
        gpu.memory_mut().add_buffer(BufferId(2), vec![0; 512]);
        let summary = gpu.launch(&vecadd_kernel(), LaunchConfig::new(16, 32));
        let base = summary.view("baseline");
        assert!(base.unit(Unit::Reg).reads > 0);
        assert!(base.unit(Unit::Reg).writes > 0);
        assert!(base.unit(Unit::L1d).accesses() > 0);
        assert!(base.unit(Unit::L2).accesses() > 0);
        assert!(base.unit(Unit::L1i).accesses() > 0);
        assert!(base.unit(Unit::Ifb).reads > 0);
        assert!(base.noc.transfers > 0);
    }

    #[test]
    fn coded_views_strictly_increase_reg_ones_for_zero_data() {
        let mut gpu = small_gpu();
        gpu.memory_mut().add_buffer(BufferId(0), vec![0; 256]);
        gpu.memory_mut().add_buffer(BufferId(1), vec![0; 256]);
        gpu.memory_mut().add_buffer(BufferId(2), vec![0; 256]);
        let summary = gpu.launch(&vecadd_kernel(), LaunchConfig::new(8, 32));
        let base = summary.view("baseline").unit(Unit::Reg);
        let bvf = summary.view("bvf").unit(Unit::Reg);
        assert_eq!(
            base.reads, bvf.reads,
            "coding must not change access counts"
        );
        assert!(
            bvf.read_bits.ones > base.read_bits.ones,
            "bvf {} !> base {}",
            bvf.read_bits.ones,
            base.read_bits.ones
        );
    }

    #[test]
    fn narrow_profile_sees_global_traffic() {
        let mut gpu = small_gpu();
        gpu.memory_mut()
            .add_buffer(BufferId(0), (0..256u32).collect());
        gpu.memory_mut().add_buffer(BufferId(1), vec![3; 256]);
        gpu.memory_mut().add_buffer(BufferId(2), vec![0; 256]);
        let summary = gpu.launch(&vecadd_kernel(), LaunchConfig::new(8, 32));
        assert!(summary.narrow.words > 0);
        // Small integers → >20 leading zero bits on average.
        assert!(summary.narrow.mean_leading_bits() > 20.0);
        assert!(summary.data_bits.zero_fraction() > 0.5);
    }

    /// Two views and no value profiles: those two views and every
    /// view-independent counter equal a five-view profiled launch's, and the
    /// profiles stay empty.
    #[test]
    fn value_profiles_off_changes_nothing_but_the_profiles() {
        let mask = 0x00f0_0f00_ff00_00ff;
        let lc = LaunchConfig::new(8, 32);
        let full = vecadd_gpu(CodingView::standard_set(mask)).launch(&vecadd_kernel(), lc);
        let mut gpu = vecadd_gpu(vec![CodingView::baseline(), CodingView::bvf(mask)]);
        gpu.set_value_profiles(false);
        let pair = gpu.launch(&vecadd_kernel(), lc);
        assert!(full.narrow.words > 0 && full.lane_profile.iter().any(|&d| d > 0.0));
        let expect = TraceSummary {
            views: vec![full.view("baseline").clone(), full.view("bvf").clone()],
            narrow: NarrowValueProfile::new(),
            data_bits: BitCounts::default(),
            lane_profile: [0.0; 32],
            optimal_lane: 0,
            ..full
        };
        assert_eq!(pair, expect);
    }

    /// No views: no collector. Every view-independent counter equals a
    /// five-view launch's, and a profiled launch opens no stats block, so
    /// its `stats_*` slices count no events and no time.
    #[test]
    fn a_no_view_launch_counts_no_stats_events() {
        let lc = LaunchConfig::new(8, 32);
        let launch = |views| {
            let mut gpu = vecadd_gpu(views);
            gpu.set_metrics(MetricsSink::enabled());
            gpu.enable_trace_log();
            let summary = gpu.launch(&vecadd_kernel(), lc);
            (summary, gpu.take_trace_log())
        };
        let (full, full_log) = launch(CodingView::standard_set(0x00f0_0f00_ff00_00ff));
        let (timing, timing_log) = launch(Vec::new());
        assert!(full_log.is_some() && timing_log.is_none());
        let stats = |s: &TraceSummary| {
            [Phase::StatsInstr, Phase::StatsData].map(|p| {
                let slice = s.profile.slice(p).expect("profiled");
                (slice.nanos, slice.events)
            })
        };
        assert!(stats(&full).iter().all(|&(_, events)| events > 0));
        assert_eq!(stats(&timing), [(0, 0); 2]);
        assert!(timing.profile.slice(Phase::Exec).expect("profiled").events > 0);
        // Value profiles stay on: they do not need the collector.
        assert_eq!(
            timing,
            TraceSummary {
                views: Vec::new(),
                ..full
            }
        );
    }

    #[test]
    fn caches_hit_on_reuse() {
        // Second pass over the same buffer must hit in L1D.
        let mut k = Kernel::new("reread", 4);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::GlobalTid),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::For {
            n: 4,
            body: vec![Stmt::op3(
                Op::LdGlobal(BufferId(0)),
                1,
                Operand::Reg(0),
                Operand::Imm(0),
            )],
        });
        let mut gpu = small_gpu();
        gpu.memory_mut().add_buffer(BufferId(0), vec![7; 256]);
        let summary = gpu.launch(&k, LaunchConfig::new(4, 64));
        assert!(summary.l1d_hit_rate > 0.5, "{}", summary.l1d_hit_rate);
    }

    #[test]
    fn barrier_releases_all_warps() {
        let mut k = Kernel::new("bar", 4);
        k.shared_words = 64;
        // Each warp writes shared memory, barriers, then reads it back.
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::TidX),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op4(
            Op::StShared,
            0,
            Operand::Reg(0),
            Operand::Imm(0),
            Operand::Reg(0),
        ));
        k.body.push(Stmt::I(bvf_isa::ir::Instr::new(
            Op::Bar,
            0,
            Operand::Imm(0),
            Operand::Imm(0),
        )));
        k.body
            .push(Stmt::op3(Op::LdShared, 1, Operand::Reg(0), Operand::Imm(0)));
        let mut gpu = small_gpu();
        let summary = gpu.launch(&k, LaunchConfig::new(2, 128));
        let base = summary.view("baseline");
        assert!(base.unit(Unit::Sme).reads > 0);
        assert!(base.unit(Unit::Sme).writes > 0);
    }

    /// Warp 0 of each CTA skips the barrier its other warps wait at and
    /// exits, and two CTAs share each SM. The exit must not release the
    /// barrier: that waits until no warp on the SM is ready, and the warp
    /// order it leaves shows in the NoC toggles. The pinned counts are
    /// those of the per-pick ready-set rebuild the barrier bookkeeping
    /// replaced; releasing at the exit moves LRR's and two-level's.
    #[test]
    fn an_exit_alone_never_releases_a_barrier() {
        use crate::config::SchedulerKind;
        let ld = |dst, idx| {
            Stmt::op3(
                Op::LdGlobal(BufferId(0)),
                dst,
                Operand::Reg(idx),
                Operand::Imm(0),
            )
        };
        let mut k = Kernel::new("skipbar", 6);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::GlobalTid),
            Operand::Imm(0),
        ));
        k.body.push(ld(1, 0));
        k.body.push(Stmt::If {
            cond: Cond {
                a: Operand::Special(Special::WarpId),
                op: CmpOp::Ge,
                b: Operand::Imm(1),
            },
            then: vec![Stmt::I(bvf_isa::ir::Instr::new(
                Op::Bar,
                0,
                Operand::Imm(0),
                Operand::Imm(0),
            ))],
            els: vec![],
        });
        k.body
            .push(Stmt::op3(Op::IMul, 2, Operand::Reg(0), Operand::Imm(7)));
        k.body.push(ld(3, 2));
        k.body
            .push(Stmt::op3(Op::IAdd, 4, Operand::Reg(2), Operand::Imm(4096)));
        k.body.push(ld(5, 4));
        for (kind, toggles) in [
            (SchedulerKind::Gto, 255_624),
            (SchedulerKind::Lrr, 249_417),
            (SchedulerKind::TwoLevel, 249_471),
        ] {
            let mut cfg = GpuConfig::baseline();
            cfg.sms = 2;
            cfg.scheduler = kind;
            let mut gpu = Gpu::new(cfg, CodingView::standard_set(0));
            let words = (0..16384u32).map(|i| i.wrapping_mul(2_654_435_761));
            gpu.memory_mut().add_buffer(BufferId(0), words.collect());
            let s = gpu.launch(&k, LaunchConfig::new(8, 128));
            assert_eq!(s.view("baseline").noc.bit_toggles, toggles, "{kind:?}");
        }
    }

    #[test]
    fn divergent_kernel_counts_dummy_movs() {
        let mut k = Kernel::new("div", 4);
        k.body.push(Stmt::If {
            cond: Cond {
                a: Operand::Special(Special::LaneId),
                op: CmpOp::Ge,
                b: Operand::Imm(16),
            },
            // Lanes 16..32 include pivot lane 21 → pivot-divergent writes.
            then: vec![Stmt::op3(Op::Mov, 1, Operand::Imm(5), Operand::Imm(0))],
            els: vec![],
        });
        let mut gpu = small_gpu();
        let summary = gpu.launch(&k, LaunchConfig::new(2, 32));
        assert!(summary.view("bvf").dummy_movs > 0);
        assert_eq!(summary.view("baseline").dummy_movs, 0);
    }

    #[test]
    fn utilization_is_fractional() {
        let mut gpu = small_gpu();
        gpu.memory_mut().add_buffer(BufferId(0), vec![1; 64]);
        gpu.memory_mut().add_buffer(BufferId(1), vec![1; 64]);
        gpu.memory_mut().add_buffer(BufferId(2), vec![0; 64]);
        let summary = gpu.launch(&vecadd_kernel(), LaunchConfig::new(2, 32));
        for (unit, u) in &summary.utilization {
            assert!((0.0..=1.0).contains(u), "{unit}: {u}");
        }
        assert!(summary.utilization[&Unit::Reg] > 0.0);
    }

    #[test]
    fn l1d_utilization_uses_cross_sm_denominator() {
        // A grid that sweeps a buffer sized to exactly ONE SM's L1D capacity,
        // split over 2 SMs: the aggregate touched lines equal one SM's worth,
        // so against the cross-SM denominator the utilization is 0.5. (The
        // old per-SM denominator reported 1.0.)
        let mut k = Kernel::new("sweep", 4);
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
        let mut gpu = small_gpu();
        let cfg = gpu.config();
        assert_eq!(cfg.sms, 2);
        let l1d_words = (cfg.l1d.bytes() / 4) as usize; // 16 KiB → 4096 words
        gpu.memory_mut()
            .add_buffer(BufferId(0), (0..l1d_words as u32).collect());
        // One thread per word, CTAs alternating across the two SMs.
        let summary = gpu.launch(&k, LaunchConfig::new(l1d_words as u32 / 128, 128));
        let u = summary.utilization[&Unit::L1d];
        assert!((u - 0.5).abs() < 1e-9, "expected 0.5, got {u}");
    }

    #[test]
    fn store_only_lines_do_not_occupy_l1d() {
        // L1D is write-no-allocate/write-evict: a kernel that only stores
        // never makes lines resident, so its L1D leakage occupancy is zero.
        let mut k = Kernel::new("wrsweep", 4);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::GlobalTid),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op4(
            Op::StGlobal(BufferId(0)),
            0,
            Operand::Reg(0),
            Operand::Imm(0),
            Operand::Reg(0),
        ));
        let mut gpu = small_gpu();
        gpu.memory_mut().add_buffer(BufferId(0), vec![0; 1024]);
        let summary = gpu.launch(&k, LaunchConfig::new(8, 128));
        assert_eq!(summary.utilization[&Unit::L1d], 0.0);
        // The stores still reach L2, which does hold the lines.
        assert!(summary.utilization[&Unit::L2] > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut gpu = small_gpu();
            gpu.memory_mut()
                .add_buffer(BufferId(0), (0..128u32).collect());
            gpu.memory_mut().add_buffer(BufferId(1), vec![2; 128]);
            gpu.memory_mut().add_buffer(BufferId(2), vec![0; 128]);
            gpu.launch(&vecadd_kernel(), LaunchConfig::new(4, 32))
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.view("bvf").unit(Unit::Reg), b.view("bvf").unit(Unit::Reg));
        assert_eq!(a.view("baseline").noc, b.view("baseline").noc);
    }

    #[test]
    fn schedulers_change_noc_sequencing_but_not_volumes() {
        let run = |sched| {
            let mut cfg = GpuConfig::baseline();
            cfg.sms = 1;
            cfg.scheduler = sched;
            let mut gpu = Gpu::new(cfg, vec![CodingView::baseline()]);
            gpu.memory_mut()
                .add_buffer(BufferId(0), (0..2048u32).map(|i| i * 3).collect());
            gpu.memory_mut().add_buffer(BufferId(1), vec![5; 2048]);
            gpu.memory_mut().add_buffer(BufferId(2), vec![0; 2048]);
            gpu.launch(&vecadd_kernel(), LaunchConfig::new(16, 128))
        };
        let gto = run(crate::config::SchedulerKind::Gto);
        let lrr = run(crate::config::SchedulerKind::Lrr);
        let base_g = gto.view("baseline");
        let base_l = lrr.view("baseline");
        // Same work: identical access counts...
        assert_eq!(
            base_g.unit(Unit::L2).accesses(),
            base_l.unit(Unit::L2).accesses()
        );
        // ...but a different issue interleaving (GTO drains one warp first).
        assert_ne!(gto.cycles, lrr.cycles);
    }

    #[test]
    fn profiling_is_off_by_default() {
        let mut gpu = small_gpu();
        gpu.memory_mut().add_buffer(BufferId(0), vec![1; 64]);
        gpu.memory_mut().add_buffer(BufferId(1), vec![2; 64]);
        gpu.memory_mut().add_buffer(BufferId(2), vec![0; 64]);
        let summary = gpu.launch(&vecadd_kernel(), LaunchConfig::new(2, 32));
        assert!(!summary.profile.is_enabled());
        assert_eq!(summary.profile, PhaseProfile::default());
    }

    #[test]
    fn metrics_do_not_change_results() {
        let run = |sink: Option<MetricsSink>| {
            let mut gpu = small_gpu();
            if let Some(s) = sink {
                gpu.set_metrics(s);
            }
            gpu.memory_mut()
                .add_buffer(BufferId(0), (0..256u32).map(|i| i ^ 0x55).collect());
            gpu.memory_mut().add_buffer(BufferId(1), vec![7; 256]);
            gpu.memory_mut().add_buffer(BufferId(2), vec![0; 256]);
            gpu.launch(&vecadd_kernel(), LaunchConfig::new(8, 32))
        };
        let plain = run(None);
        let profiled = run(Some(MetricsSink::enabled()));
        // TraceSummary equality ignores the profile — everything the
        // simulation computes must be bit-identical.
        assert_eq!(plain, profiled);
        assert!(profiled.profile.is_enabled());
        assert!(!plain.profile.is_enabled());
        assert_eq!(profiled.profile.slices.len(), 9);
        let total: u64 = profiled.profile.slices.iter().map(|s| s.nanos).sum();
        assert_eq!(total, profiled.profile.launch_nanos);
        assert_eq!(
            profiled.profile.slice(Phase::Exec).unwrap().events,
            profiled.dynamic_instructions
        );
        // Both SMs of the small GPU run CTAs, so both are set up.
        assert_eq!(profiled.profile.slice(Phase::Setup).unwrap().events, 2);
        // `sched` counts every CTA of the launch once, at dispatch.
        assert_eq!(profiled.profile.slice(Phase::Sched).unwrap().events, 8);
        // `ifetch` counts L1I misses: some, and at most one per fetch.
        let misses = profiled.profile.slice(Phase::Ifetch).unwrap().events;
        assert!(misses > 0 && misses <= profiled.dynamic_instructions);
    }

    /// A deterministic stand-in for a profiler timing gate: a profiled
    /// launch reads the clock only at line-granular boundaries, so its
    /// reads are bounded by exact counts of what it simulated — L1I
    /// misses, warp data accesses, collector blocks (one per L1I miss and
    /// per data line) and CTAs dispatched (a wave's three switches at
    /// most) — plus a per-SM constant. A clock read per fetch or per warp
    /// pick, which every instruction pays, exceeds it.
    #[test]
    fn a_profiled_launch_reads_the_clock_only_at_line_boundaries() {
        let run = |sched, kernel: &Kernel, lc: LaunchConfig| {
            let mut cfg = GpuConfig::baseline();
            cfg.sms = 2;
            cfg.scheduler = sched;
            let mut gpu = Gpu::new(cfg, vec![CodingView::baseline()]);
            gpu.set_metrics(MetricsSink::enabled());
            for b in 0..3 {
                gpu.memory_mut().add_buffer(BufferId(b), vec![3; 2048]);
            }
            let before = crate::phase::clock_reads();
            let s = gpu.launch(kernel, lc);
            (crate::phase::clock_reads() - before, s)
        };
        let kernels = [
            (vecadd_kernel(), LaunchConfig::new(16, 128)),
            (skewed_smem_kernel(true, 200), LaunchConfig::new(2, 32)),
        ];
        for sched in [
            crate::config::SchedulerKind::Gto,
            crate::config::SchedulerKind::Lrr,
        ] {
            for (kernel, lc) in &kernels {
                let (reads, s) = run(sched, kernel, *lc);
                let base = s.view("baseline");
                let l1i_misses = base.unit(Unit::L1i).fills;
                // One collector block per L1I miss and per data line: a
                // load line reads its L1 once, a store line writes L2 once.
                let blocks = l1i_misses
                    + [Unit::L1d, Unit::L1c, Unit::L1t]
                        .into_iter()
                        .map(|u| base.unit(u).reads)
                        .sum::<u64>()
                    + base.unit(Unit::L2).writes;
                let events = |p| s.profile.slice(p).unwrap().events;
                let (accesses, sms) = (events(Phase::DataMemory), events(Phase::Setup));
                // Start, finish and the launch loop's two switches, two per
                // SM set up, three per wave, two per L1I miss, data access
                // and collector block.
                let bound = 4
                    + 2 * sms
                    + 3 * u64::from(lc.grid_ctas)
                    + 2 * (l1i_misses + accesses + blocks);
                assert!(
                    reads <= bound,
                    "{} ({sched:?}): {reads} clock reads > {bound}",
                    kernel.name
                );
                // The bound's slack is under one read per instruction.
                assert!(reads + s.dynamic_instructions > bound, "{}", kernel.name);
            }
        }
    }

    /// A vecadd that also loads from a buffer nobody registered, so every
    /// launch of it panics after its first stores.
    fn panicking_kernel() -> Kernel {
        let mut k = vecadd_kernel();
        k.body.push(Stmt::op3(
            Op::LdGlobal(BufferId(9)),
            4,
            Operand::Reg(0),
            Operand::Imm(0),
        ));
        k
    }

    fn vecadd_gpu(views: Vec<CodingView>) -> Gpu {
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 2;
        let mut gpu = Gpu::new(cfg, views);
        gpu.memory_mut()
            .add_buffer(BufferId(0), (0..256u32).map(|i| i * 7).collect());
        gpu.memory_mut().add_buffer(BufferId(1), vec![5; 256]);
        gpu.memory_mut().add_buffer(BufferId(2), vec![0; 256]);
        gpu
    }

    /// Memo tables go back to the thread's pool only from a finished
    /// launch: a launch that panics takes the warm tables with it, and the
    /// next launch starts cold and still computes the same summary.
    #[test]
    fn a_panicking_launch_never_returns_its_memos_to_the_pool() {
        let views = CodingView::standard_set(0x00f0_0f00_ff00_00ff);
        let lc = LaunchConfig::new(8, 32);
        assert!(crate::stats::memo_pool_is_empty());
        let first = vecadd_gpu(views.clone()).launch(&vecadd_kernel(), lc);
        assert!(
            !crate::stats::memo_pool_is_empty(),
            "a finished launch pools its memos"
        );
        let crashed = std::panic::catch_unwind(|| {
            vecadd_gpu(views.clone()).launch(&panicking_kernel(), lc);
        });
        assert!(crashed.is_err(), "the launch must panic");
        assert!(
            crate::stats::memo_pool_is_empty(),
            "a panicking launch must not return its memos"
        );
        let again = vecadd_gpu(views.clone()).launch(&vecadd_kernel(), lc);
        assert_eq!(first, again);
    }

    /// A kernel whose odd CTAs hammer one shared-memory bank (32-way
    /// conflicts) while even CTAs access conflict-free — with even CTAs
    /// also carrying `pad` extra compute so they own the critical path.
    fn skewed_smem_kernel(conflict_odd: bool, pad: u32) -> Kernel {
        let mut k = Kernel::new("smem_skew", 6);
        k.shared_words = 1024;
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::TidX),
            Operand::Imm(0),
        ));
        // Conflicting index: TidX * 32 lands every lane in bank 0.
        k.body
            .push(Stmt::op3(Op::IMul, 1, Operand::Reg(0), Operand::Imm(32)));
        k.body.push(Stmt::If {
            cond: Cond {
                a: Operand::Special(Special::CtaIdX),
                op: CmpOp::Ge,
                b: Operand::Imm(1),
            },
            // CTA 1 → SM 1 (sms = 2): one shared store, conflicting or not.
            then: vec![Stmt::op4(
                Op::StShared,
                0,
                if conflict_odd {
                    Operand::Reg(1)
                } else {
                    Operand::Reg(0)
                },
                Operand::Imm(0),
                Operand::Reg(0),
            )],
            // CTA 0 → SM 0: the same store, never conflicting, plus padding
            // compute that makes SM 0 the critical SM by a wide margin.
            els: vec![
                Stmt::op4(
                    Op::StShared,
                    0,
                    Operand::Reg(0),
                    Operand::Imm(0),
                    Operand::Reg(0),
                ),
                Stmt::For {
                    n: pad,
                    body: vec![Stmt::op3(Op::IAdd, 2, Operand::Reg(2), Operand::Imm(1))],
                },
            ],
        });
        k
    }

    /// Satellite regression: shared-memory conflict cycles are attributed
    /// to the SM that suffers them, *inside* the per-SM critical-path max —
    /// conflicts on a non-critical SM must not lengthen the launch. (They
    /// used to be pooled globally and added once atop the max.)
    #[test]
    fn smem_conflicts_on_a_non_critical_sm_do_not_lengthen_the_launch() {
        let lc = LaunchConfig::new(2, 32);
        let mut with_conflicts = small_gpu();
        let conflicted = with_conflicts.launch(&skewed_smem_kernel(true, 200), lc);
        let mut without = small_gpu();
        let clean = without.launch(&skewed_smem_kernel(false, 200), lc);
        // The conflicts are real and reported...
        assert!(conflicted.smem_conflict_cycles > 0);
        assert_eq!(clean.smem_conflict_cycles, 0);
        // ...but SM 1's serialization hides under SM 0's longer path.
        assert_eq!(conflicted.cycles, clean.cycles);
    }

    /// With no padding the conflicting SM *is* critical, and its
    /// serialization penalty shows up in the cycle count — attribution
    /// inside the max is not a free pass.
    #[test]
    fn smem_conflicts_on_the_critical_sm_lengthen_the_launch() {
        let lc = LaunchConfig::new(2, 32);
        let mut with_conflicts = small_gpu();
        let conflicted = with_conflicts.launch(&skewed_smem_kernel(true, 0), lc);
        let mut without = small_gpu();
        let clean = without.launch(&skewed_smem_kernel(false, 0), lc);
        assert!(conflicted.smem_conflict_cycles > 0);
        assert_eq!(
            conflicted.cycles,
            clean.cycles + conflicted.smem_conflict_cycles,
            "the critical SM pays its own conflict serialization"
        );
    }

    /// Satellite regression: the stall model reads the L1D's own miss
    /// counter (the shadow per-SM miss field used to drift from it). Two
    /// kernels differing only in L1D locality must differ in core cycles
    /// by exactly the stall formula over the miss-count difference.
    #[test]
    fn stall_cycles_come_from_the_l1d_miss_counter() {
        // 4 loads from the same line vs 4 loads from distinct lines.
        let build = |stride: u32| {
            let mut k = Kernel::new("stall_pin", 8);
            k.body.push(Stmt::op3(
                Op::Mov,
                0,
                Operand::Special(Special::TidX),
                Operand::Imm(0),
            ));
            for i in 0..4 {
                k.body.push(Stmt::op3(
                    Op::LdGlobal(BufferId(0)),
                    1 + i as u8,
                    Operand::Reg(0),
                    Operand::Imm(i * stride),
                ));
            }
            k
        };
        let lc = LaunchConfig::new(1, 32);
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 1;
        let run = |k: &Kernel| {
            let mut gpu = Gpu::new(cfg.clone(), vec![CodingView::baseline()]);
            gpu.memory_mut()
                .add_buffer(BufferId(0), (0..1024u32).collect());
            gpu.launch_shard(k, lc, 0, 1)
        };
        // Offsets 0,32,64,96 words: 4 distinct 128B lines per lane stream.
        let cold = run(&build(32));
        // Offsets all 0: one line, 3 of the 4 accesses hit.
        let warm = run(&build(0));
        assert_eq!(cold.l1d_accesses, warm.l1d_accesses);
        let cold_misses = cold.l1d_accesses - cold.l1d_hits;
        let warm_misses = warm.l1d_accesses - warm.l1d_hits;
        assert!(cold_misses > warm_misses);
        let stall = |misses: u64| {
            (misses as f64 * f64::from(cfg.miss_latency) * (1.0 - cfg.scheduler.latency_hiding()))
                as u64
        };
        assert_eq!(
            cold.max_core_cycles - warm.max_core_cycles,
            stall(cold_misses) - stall(warm_misses),
            "core-cycle delta must equal the stall formula over the miss delta"
        );
    }

    /// The O(32²) definition Fig. 11 sampling computes: lane i's summed
    /// Hamming distance to every other lane.
    fn pairwise_lane_distances(lanes: &[u32; 32]) -> [u64; 32] {
        core::array::from_fn(|i| {
            lanes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &v)| u64::from((lanes[i] ^ v).count_ones()))
                .sum()
        })
    }

    #[test]
    fn lane_distances_of_uniform_warps_are_zero_or_full() {
        for (lanes, want) in [([0u32; 32], 0), ([u32::MAX; 32], 0)] {
            let mut sums = [0u64; 32];
            add_lane_distances(&mut sums, &lanes);
            assert_eq!(sums, [want; 32]);
            assert_eq!(sums, pairwise_lane_distances(&lanes));
        }
        // Half the lanes all-ones: each lane differs from 16 lanes in 32 bits.
        let half: [u32; 32] = core::array::from_fn(|l| if l % 2 == 0 { 0 } else { u32::MAX });
        let mut sums = [0u64; 32];
        add_lane_distances(&mut sums, &half);
        assert_eq!(sums, [16 * 32; 32]);
    }

    proptest::proptest! {
        /// The six-mask kernel equals the pairwise XOR/popcount scan, and
        /// adds to what `sums` already holds. Lanes are drawn whole, from a
        /// few shared words, or as all-zero / all-ones words; in half the
        /// cases every lane also gets the bits of `floor`, whose columns
        /// are then all-ones (ones_b = 32, the one count needing bit 5).
        #[test]
        fn lane_distances_match_pairwise_scan(
            raw: [u32; 32],
            pick: [u8; 32],
            floor: u32,
            dense: bool,
            start in 0u64..1 << 40,
        ) {
            let lanes: [u32; 32] = core::array::from_fn(|l| {
                let v = match pick[l] % 4 {
                    0 => raw[l],
                    1 => raw[(pick[l] >> 2) as usize % 4],
                    2 => 0,
                    _ => u32::MAX,
                };
                if dense { v | floor } else { v }
            });
            let mut sums = [start; 32];
            add_lane_distances(&mut sums, &lanes);
            let want = pairwise_lane_distances(&lanes).map(|d| start + d);
            proptest::prop_assert_eq!(sums, want);
        }
    }
}
