//! Online trace statistics under multiple coding views.
//!
//! The paper dumps full access traces (tens of GB per application) and
//! post-processes them with a parser that applies each coder. We instead
//! fold every access into per-unit statistics *online*, once per
//! [`CodingView`] — a named coder configuration. A single simulation run
//! therefore yields the baseline and every coder combination the figures
//! need, with bit-exact agreement to the offline method (the coders are
//! pure functions of payload data).
//!
//! # Bit-sliced hot path
//!
//! The record methods are columnar, not scalar:
//!
//! * Warp-width events ([`StatsCollector::record_register`],
//!   [`StatsCollector::record_shared`]) transpose the 32 lane words into
//!   [`BitPlanes`] **once per event** and share the transpose across all
//!   views; each view then applies its coders *per bit position*
//!   (`NvCoder::encode_planes`, `VsCoder::encode_warp_planes`) and counts
//!   active-lane ones with one AND + popcount per plane — no per-lane
//!   branches, no per-view lane copies.
//! * Line-granular events ([`StatsCollector::record_line`],
//!   [`StatsCollector::record_noc_packet`]) batch over the whole line: NV
//!   runs as a branch-free SWAR flip two words at a time, VS as one XOR
//!   against the inverted pivot, and a NoC packet's flits are counted by
//!   [`ToggleStats::packet`] in one pass per distinct payload coder.
//!
//! Both paths are gated bit-identical to the scalar coders by the replay
//! oracle ([`crate::trace::replay`]) and the reference-implementation
//! proptests below.

use std::cell::RefCell;
use std::collections::BTreeMap;

use bvf_bits::{BitCounts, BitPlanes, ChannelToggles, ToggleStats};
use bvf_core::{IsaCoder, NvCoder, Unit, VsCoder};

/// A named coder configuration applied to trace payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodingView {
    /// View name (e.g. "baseline", "nv", "bvf").
    pub name: String,
    /// Apply the narrow-value coder to data payloads.
    pub nv: bool,
    /// Apply the value-similarity coder to data payloads.
    pub vs: bool,
    /// Apply the ISA-preference coder to instruction payloads.
    pub isa: bool,
    /// Pivot lane for the register-space VS coder.
    pub vs_reg_pivot: usize,
    /// Mask for the ISA coder (derive it from the target ISA's binaries).
    pub isa_mask: u64,
}

impl CodingView {
    /// A view with no coders — the measurement baseline.
    pub fn baseline() -> Self {
        Self {
            name: "baseline".into(),
            nv: false,
            vs: false,
            isa: false,
            vs_reg_pivot: bvf_core::PAPER_PIVOT_LANE,
            isa_mask: 0,
        }
    }

    /// The full BVF configuration (all three coders).
    pub fn bvf(isa_mask: u64) -> Self {
        Self {
            name: "bvf".into(),
            nv: true,
            vs: true,
            isa: true,
            vs_reg_pivot: bvf_core::PAPER_PIVOT_LANE,
            isa_mask,
        }
    }

    /// The five standard views of the evaluation: baseline, each coder in
    /// isolation, and the combined design.
    pub fn standard_set(isa_mask: u64) -> Vec<Self> {
        vec![
            Self::baseline(),
            Self {
                name: "nv".into(),
                nv: true,
                ..Self::baseline()
            },
            Self {
                name: "vs".into(),
                vs: true,
                ..Self::baseline()
            },
            Self {
                name: "isa".into(),
                isa: true,
                isa_mask,
                ..Self::baseline()
            },
            Self::bvf(isa_mask),
        ]
    }

    fn reg_vs(&self) -> VsCoder {
        VsCoder::with_pivot(self.vs_reg_pivot)
    }
}

/// Branch-free NV transform of one word: halves with sign bit 0 flip their
/// low 31 bits. Bit-identical to `NvCoder::encode_u32`, without the
/// data-dependent branch.
#[inline]
fn nv_u32(w: u32) -> u32 {
    w ^ ((w >> 31) ^ 1).wrapping_mul(0x7fff_ffff)
}

/// Branch-free NV transform of two lanes packed in a `u64` — the SWAR form
/// the line paths use to encode whole lines two words per step.
#[inline]
fn nv_swar64(w: u64) -> u64 {
    const SIGNS: u64 = 0x8000_0000_8000_0000;
    const LOW: u64 = 0x0000_0001_0000_0001;
    let flip = (((w & SIGNS) >> 31) ^ LOW).wrapping_mul(0x7fff_ffff);
    w ^ flip
}

/// Pre-resolved coders for one view — hoisted out of the per-event loops so
/// the hot path never re-dispatches on the view flags or rebuilds a coder
/// per word.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ViewCoders {
    nv: bool,
    reg_vs: Option<VsCoder>,
    line_vs: Option<VsCoder>,
    isa: Option<IsaCoder>,
}

impl ViewCoders {
    fn of(view: &CodingView) -> Self {
        Self {
            nv: view.nv,
            reg_vs: view.vs.then(|| view.reg_vs()),
            line_vs: view.vs.then(VsCoder::for_cache_lines),
            isa: view.isa.then(|| IsaCoder::new(view.isa_mask)),
        }
    }

    /// Does this view transform data-line payloads at all?
    fn codes_data(&self) -> bool {
        self.nv || self.line_vs.is_some()
    }

    /// Encoded instruction word under this view.
    #[inline]
    fn instr(&self, word: u64) -> u64 {
        match self.isa {
            Some(coder) => coder.encode_instr(word),
            None => word,
        }
    }

    /// Bit counts of the active lanes of a register access, computed in
    /// bit-plane space: the shared transpose is copied once per coding
    /// view, encoded per bit position, and counted with one AND + popcount
    /// per plane. Bit-identical to encoding the lane form with
    /// [`NvCoder`]/[`VsCoder`] and counting active lanes scalar-wise.
    fn warp_bits(&self, planes: &BitPlanes, active: u32) -> BitCounts {
        let ones = if !self.nv && self.reg_vs.is_none() {
            planes.ones_masked(active)
        } else {
            // Copy-and-encode beats a fused transform-while-counting loop
            // here: the plane kernels and the masked popcount each
            // auto-vectorize cleanly over the 32-word array.
            let mut e = *planes;
            if self.nv {
                NvCoder.encode_planes(&mut e);
            }
            if let Some(vs) = self.reg_vs {
                vs.encode_warp_planes(&mut e);
            }
            e.ones_masked(active)
        };
        let total = u64::from(active.count_ones()) * 32;
        BitCounts {
            ones,
            zeros: total - ones,
        }
    }

    /// Bit counts of the active lanes of a shared-memory access (VS does
    /// not cover SME, so only NV applies — plane-wise).
    fn shared_bits(&self, planes: &BitPlanes, active: u32) -> BitCounts {
        let ones = if self.nv {
            let mut e = *planes;
            NvCoder.encode_planes(&mut e);
            e.ones_masked(active)
        } else {
            planes.ones_masked(active)
        };
        let total = u64::from(active.count_ones()) * 32;
        BitCounts {
            ones,
            zeros: total - ones,
        }
    }

    /// NV-encoded pivot word of a line, when VS applies and the line
    /// actually contains the pivot element (VS pivots on the NV-encoded
    /// word — NV runs first).
    fn line_pivot_enc(&self, line: &[u8], n_words: usize) -> Option<u32> {
        let p = self.line_vs.map(|v| v.pivot()).filter(|&p| p < n_words)?;
        let w = u32::from_le_bytes(line[p * 4..p * 4 + 4].try_into().expect("pivot word"));
        Some(if self.nv { nv_u32(w) } else { w })
    }

    /// Encode a data-line payload in place (NV then VS, exactly as the
    /// paper's parser applies them), batched over the whole line: NV as a
    /// SWAR flip two words per step, VS as one XOR with the inverted pivot
    /// (`!(w ^ p)` = `w ^ !p`), the pivot word restored verbatim after.
    /// Non-word-aligned payloads pass through.
    fn encode_data_line(&self, data: &mut [u8]) {
        if !data.len().is_multiple_of(4) {
            return; // headers-only payloads are not coded
        }
        let pivot_enc = self.line_pivot_enc(data, data.len() / 4);
        let ip64 = pivot_enc.map(|p| !((u64::from(p) << 32) | u64::from(p)));
        let mut chunks = data.chunks_exact_mut(8);
        for c in &mut chunks {
            let mut w = u64::from_le_bytes((&*c).try_into().expect("chunk of 8"));
            if self.nv {
                w = nv_swar64(w);
            }
            if let Some(ip) = ip64 {
                w ^= ip;
            }
            c.copy_from_slice(&w.to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if rem.len() == 4 {
            let mut w = u32::from_le_bytes((&*rem).try_into().expect("chunk of 4"));
            if self.nv {
                w = nv_u32(w);
            }
            if let Some(p) = pivot_enc {
                w = !(w ^ p);
            }
            rem.copy_from_slice(&w.to_le_bytes());
        }
        if let (Some(vs), Some(pe)) = (self.line_vs, pivot_enc) {
            let p = vs.pivot();
            if p * 4 < data.len() {
                data[p * 4..p * 4 + 4].copy_from_slice(&pe.to_le_bytes());
            }
        }
    }

    /// Bit counts of a data line under this view, in one batched pass and
    /// without materializing the encoded bytes — bit-identical to
    /// [`ViewCoders::encode_data_line`] followed by [`BitCounts::of_bytes`].
    /// The pivot word is XNORed with itself like every other word (yielding
    /// all-ones) and its contribution corrected once at the end.
    fn data_line_bits(&self, line: &[u8]) -> BitCounts {
        if !self.codes_data() || !line.len().is_multiple_of(4) {
            return BitCounts::of_bytes(line);
        }
        let pivot_enc = self.line_pivot_enc(line, line.len() / 4);
        let ip64 = pivot_enc.map(|p| !((u64::from(p) << 32) | u64::from(p)));
        let mut ones = 0u64;
        let mut chunks = line.chunks_exact(8);
        for c in &mut chunks {
            let mut w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
            if self.nv {
                w = nv_swar64(w);
            }
            if let Some(ip) = ip64 {
                w ^= ip;
            }
            ones += u64::from(w.count_ones());
        }
        if let Ok(c) = <[u8; 4]>::try_from(chunks.remainder()) {
            let mut w = u32::from_le_bytes(c);
            if self.nv {
                w = nv_u32(w);
            }
            if let Some(p) = pivot_enc {
                w = !(w ^ p);
            }
            ones += u64::from(w.count_ones());
        }
        if let Some(p) = pivot_enc {
            // The pivot element is stored verbatim (NV-encoded), not
            // self-XNORed to all-ones as the bulk pass counted it.
            ones = ones - 32 + u64::from(p.count_ones());
        }
        BitCounts {
            ones,
            zeros: line.len() as u64 * 8 - ones,
        }
    }
}

/// Per-unit access statistics for one view.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UnitStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Fill (miss-refill) accesses.
    pub fills: u64,
    /// Bits observed on reads.
    pub read_bits: BitCounts,
    /// Bits observed on writes.
    pub write_bits: BitCounts,
    /// Bits observed on fills.
    pub fill_bits: BitCounts,
}

impl UnitStats {
    /// All bits written into the unit (writes + fills) — the resident-data
    /// sample used for the leakage occupancy estimate.
    pub fn stored_bits(&self) -> BitCounts {
        self.write_bits + self.fill_bits
    }

    /// Total access count.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes + self.fills
    }
}

impl core::ops::AddAssign for UnitStats {
    fn add_assign(&mut self, rhs: Self) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.fills += rhs.fills;
        self.read_bits += rhs.read_bits;
        self.write_bits += rhs.write_bits;
        self.fill_bits += rhs.fill_bits;
    }
}

/// Statistics for one coding view across every unit plus the NoC.
///
/// This is pure result data: the per-channel toggle scratch lives in the
/// [`StatsCollector`] that produced it, so a `ViewStats` restored from the
/// result store is read-only **by construction** — there is no collection
/// state here to leave half-initialized, and no way to record into a
/// restored view without going through a live collector (whose channel
/// state is always fully constructed). This replaces the previous typed
/// hazard where a restored view carried a zero flit size and panicked on
/// its first NoC packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewStats {
    /// The view these statistics belong to.
    pub view: CodingView,
    /// Per-unit counters.
    pub units: BTreeMap<Unit, UnitStats>,
    /// NoC toggle statistics aggregated over all channels.
    pub noc: ToggleStats,
    /// Dummy `mov` re-encodes injected for branch divergence (VS only).
    pub dummy_movs: u64,
}

impl ViewStats {
    fn new(view: CodingView) -> Self {
        Self {
            view,
            units: BTreeMap::new(),
            noc: ToggleStats::default(),
            dummy_movs: 0,
        }
    }

    /// Rebuild a view's statistics from stored counters (the result-store
    /// decode path). Total by construction: every field is plain result
    /// data, so a restored summary compares bit-identical to a freshly
    /// simulated one and cannot be recorded into.
    pub(crate) fn from_stored(
        view: CodingView,
        units: BTreeMap<Unit, UnitStats>,
        noc: ToggleStats,
        dummy_movs: u64,
    ) -> Self {
        Self {
            view,
            units,
            noc,
            dummy_movs,
        }
    }

    /// Counters for a unit (zeroed if never touched).
    pub fn unit(&self, unit: Unit) -> UnitStats {
        self.units.get(&unit).copied().unwrap_or_default()
    }

    /// Accumulate another launch shard's statistics for the same view.
    /// Unit counters, NoC toggles, and dummy-mov counts are associative
    /// sums — and shard NoC channel sets are disjoint (channel ids embed
    /// the SM id) — so merging shard views in any grouping reproduces the
    /// unsharded totals exactly.
    ///
    /// # Panics
    ///
    /// Panics if the two statistics belong to different coding views.
    pub fn merge(&mut self, other: &ViewStats) {
        assert_eq!(
            self.view, other.view,
            "merging statistics of different coding views"
        );
        for (&unit, &stats) in &other.units {
            *self.units.entry(unit).or_default() += stats;
        }
        self.noc += other.noc;
        self.dummy_movs += other.dummy_movs;
    }
}

/// What kind of access a payload event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read from the unit.
    Read,
    /// A write into the unit.
    Write,
    /// A miss refill into the unit.
    Fill,
}

/// The multi-view statistics collector.
///
/// The simulator reports *raw* payloads; the collector encodes them per
/// view and updates each view's counters. The record methods are the
/// simulator's hot path and perform no heap allocation: per-view coders are
/// resolved once at construction ([`ViewCoders`]), warp events share one
/// bit-plane transpose across views, and payload encoding reuses one
/// scratch buffer across events.
///
/// Collection-only state (per-channel toggle history, the flit width, the
/// coder cache, scratch) lives here rather than in [`ViewStats`], so
/// results restored from the store are plain read-only data.
#[derive(Debug, Clone)]
pub struct StatsCollector {
    views: Vec<ViewStats>,
    log: Option<crate::trace::TraceLog>,
    /// Per-view pre-resolved coders, index-aligned with `views`.
    coders: Vec<ViewCoders>,
    /// NoC data-wire flit width shared by every data channel.
    flit_bytes: usize,
    /// The NoC channels packets were sent on.
    channels: BTreeMap<u32, NocChannel>,
    /// Per-view data-wire toggles, index-aligned with `views`, folded into
    /// each view's `noc` by [`StatsCollector::finish`].
    noc_acc: Vec<ToggleStats>,
    /// Per-view flat unit counters, indexed `[view][unit as usize]` —
    /// the record paths bump these instead of a map, and `finish` folds
    /// them into each view's `units`.
    unit_acc: Vec<[UnitStats; bvf_core::Unit::ALL.len()]>,
    /// Representative view index per event family: `rep[i]` is the first
    /// view whose coder configuration for that family equals view `i`'s, so
    /// an event's bit counts are computed once per *distinct* configuration
    /// (e.g. "baseline" and "isa" share data paths) and reused.
    warp_rep: Vec<usize>,
    shared_rep: Vec<usize>,
    line_rep: Vec<usize>,
    instr_rep: Vec<usize>,
    /// Per-view bit-count scratch backing the representative reuse.
    bits_cache: Vec<BitCounts>,
    /// Reusable payload-encoding buffer (capacity persists across events).
    scratch: Vec<u8>,
    /// Content-keyed bit-count memos, borrowed from this thread's pool
    /// (see [`Memos`]).
    memos: Memos,
    /// Reusable byte image of an instruction line for the memo key.
    instr_line_key: Vec<u8>,
}

/// What the collector keeps per NoC channel.
#[derive(Debug, Clone)]
struct NocChannel {
    /// Toggle history of the sideband (header) wires, shared across views:
    /// headers are never coded, so every view's sideband history is
    /// identical and one counter serves them all.
    sideband: ChannelToggles,
    /// Whether the data wires have carried a payload. After the first
    /// they rest at the idle flit, so every later packet starts from it.
    carried_payload: bool,
}

/// The memo tables of one collector, tagged with the coder set that filled
/// them.
///
/// Every entry maps an event's full content to its per-view bit counts,
/// which are a pure function of that content and the coders; a lookup hits
/// only on a full-key compare. A table filled by one launch is therefore
/// exact for any later launch with the same coder set, so each thread keeps
/// the tables of its last finished collector in [`MEMO_POOL`] and the next
/// collector over the same views starts warm instead of re-deriving the
/// program's instruction words and the app's hot lines. Tables return to
/// the pool only from [`StatsCollector::finish`]: a launch that panics
/// drops its tables with it.
#[derive(Debug, Clone)]
struct Memos {
    coders: Vec<ViewCoders>,
    /// Register-event memo: recently seen `(lanes, active)` inputs mapped
    /// to their per-view bit counts. Registers holding loop-invariant
    /// values (base addresses, limits, constants) are re-read far more
    /// often than they change, so a small direct-mapped cache skips the
    /// transpose and every per-view count on a hit.
    warp: WarpMemo,
    /// Instruction-word memo: raw 64-bit words mapped to their per-view
    /// encoded bit counts (the instruction stream is a tiny, endlessly
    /// re-issued vocabulary).
    instr: InstrMemo,
    /// Data-line content memo for [`StatsCollector::record_line_kinds`].
    line: LineMemo,
    /// Instruction-line content memo for
    /// [`StatsCollector::record_instruction_line`] (keyed on the words'
    /// little-endian byte image).
    instr_line: LineMemo,
}

thread_local! {
    /// The memo tables of the last collector this thread finished.
    static MEMO_POOL: RefCell<Option<Memos>> = const { RefCell::new(None) };
}

impl Memos {
    /// This thread's pooled tables if they were filled under `coders`,
    /// else empty ones. Either way the pool is left empty.
    fn acquire(coders: &[ViewCoders]) -> Self {
        MEMO_POOL
            .with(|pool| pool.borrow_mut().take())
            .filter(|m| m.coders == coders)
            .unwrap_or_else(|| {
                let n = coders.len();
                Self {
                    coders: coders.to_vec(),
                    warp: WarpMemo::new(n),
                    instr: InstrMemo::new(n),
                    line: LineMemo::new(n),
                    instr_line: LineMemo::new(n),
                }
            })
    }

    /// Park these tables for the next collector on this thread.
    fn release(self) {
        MEMO_POOL.with(|pool| *pool.borrow_mut() = Some(self));
    }
}

/// Is this thread's memo pool empty? (Test hook for the panic invariant.)
#[cfg(test)]
pub(crate) fn memo_pool_is_empty() -> bool {
    MEMO_POOL.with(|pool| pool.borrow().is_none())
}

/// Direct-mapped instruction-word → per-view [`BitCounts`] cache for
/// [`StatsCollector::record_instruction_units`]. Programs are tiny (tens
/// of distinct 64-bit words) while every dynamic issue re-records its word
/// at the IFB and the L1I, so after the first loop iteration virtually
/// every lookup hits and the per-view ISA encode is skipped entirely.
#[derive(Debug, Clone, PartialEq)]
struct InstrMemo {
    keys: Vec<Option<u64>>,
    bits: Vec<BitCounts>,
    n_views: usize,
}

const INSTR_MEMO_WAYS: usize = 128;

impl InstrMemo {
    fn new(n_views: usize) -> Self {
        Self {
            keys: vec![None; INSTR_MEMO_WAYS],
            bits: vec![BitCounts::default(); INSTR_MEMO_WAYS * n_views],
            n_views,
        }
    }

    #[inline]
    fn way(word: u64) -> usize {
        (word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % INSTR_MEMO_WAYS
    }

    #[inline]
    fn get(&self, way: usize, word: u64) -> Option<&[BitCounts]> {
        (self.keys[way] == Some(word))
            .then(|| &self.bits[way * self.n_views..(way + 1) * self.n_views])
    }

    #[inline]
    fn insert(&mut self, way: usize, word: u64, bits: &[BitCounts]) {
        self.keys[way] = Some(word);
        self.bits[way * self.n_views..(way + 1) * self.n_views].copy_from_slice(bits);
    }
}

/// Direct-mapped content → per-view [`BitCounts`] cache for line-granular
/// events ([`StatsCollector::record_line_kinds`] with byte lines,
/// [`StatsCollector::record_instruction_line`] with word lines). Cache
/// lines are re-recorded with unchanged content on every L1 hit and every
/// L1I refill re-walk, so a full-content compare against a small
/// direct-mapped table skips the per-view encode almost always.
#[derive(Debug, Clone, PartialEq)]
struct LineMemo {
    keys: Vec<Option<Box<[u8]>>>,
    bits: Vec<BitCounts>,
    n_views: usize,
}

const LINE_MEMO_WAYS: usize = 512;

impl LineMemo {
    fn new(n_views: usize) -> Self {
        Self {
            keys: vec![None; LINE_MEMO_WAYS],
            bits: vec![BitCounts::default(); LINE_MEMO_WAYS * n_views],
            n_views,
        }
    }

    #[inline]
    fn way(content: &[u8]) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ content.len() as u64;
        let mut chunks = content.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &b in chunks.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h >> 32) as usize % LINE_MEMO_WAYS
    }

    #[inline]
    fn get(&self, way: usize, content: &[u8]) -> Option<&[BitCounts]> {
        match &self.keys[way] {
            Some(k) if k.as_ref() == content => {
                Some(&self.bits[way * self.n_views..(way + 1) * self.n_views])
            }
            _ => None,
        }
    }

    fn insert(&mut self, way: usize, content: &[u8], bits: &[BitCounts]) {
        match &mut self.keys[way] {
            // Reuse the way's allocation when the length matches (it
            // almost always does — one line size per launch).
            Some(k) if k.len() == content.len() => k.copy_from_slice(content),
            slot => *slot = Some(content.into()),
        }
        self.bits[way * self.n_views..(way + 1) * self.n_views].copy_from_slice(bits);
    }
}

/// Direct-mapped `(lanes, active)` → per-view [`BitCounts`] cache for
/// [`StatsCollector::record_register`]. `n_views` counts are stored flat
/// per way at `way * n_views`. The stored active mask is widened to `u64`
/// so `u64::MAX` can mark an empty way without aliasing any real input.
#[derive(Debug, Clone, PartialEq)]
struct WarpMemo {
    keys: Vec<([u32; 32], u64)>,
    bits: Vec<BitCounts>,
    n_views: usize,
}

const WARP_MEMO_WAYS: usize = 256;

impl WarpMemo {
    fn new(n_views: usize) -> Self {
        Self {
            keys: vec![([0u32; 32], u64::MAX); WARP_MEMO_WAYS],
            bits: vec![BitCounts::default(); WARP_MEMO_WAYS * n_views],
            n_views,
        }
    }

    #[inline]
    fn way(lanes: &[u32; 32], active: u32) -> usize {
        // Two independent FNV-ish chains over u64 pairs keep the multiply
        // dependency shallow; collisions only cost a recompute.
        let (mut a, mut b) = (0x9e37_79b9_7f4a_7c15u64 ^ u64::from(active), 0u64);
        for q in lanes.chunks_exact(4) {
            let p0 = (u64::from(q[1]) << 32) | u64::from(q[0]);
            let p1 = (u64::from(q[3]) << 32) | u64::from(q[2]);
            a = (a ^ p0).wrapping_mul(0x0000_0100_0000_01b3);
            b = (b ^ p1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        }
        ((a ^ b) >> 32) as usize % WARP_MEMO_WAYS
    }

    /// The cached per-view counts for this input, if present.
    #[inline]
    fn get(&self, way: usize, lanes: &[u32; 32], active: u32) -> Option<&[BitCounts]> {
        let (kl, ka) = &self.keys[way];
        (*ka == u64::from(active) && kl == lanes)
            .then(|| &self.bits[way * self.n_views..(way + 1) * self.n_views])
    }

    #[inline]
    fn insert(&mut self, way: usize, lanes: &[u32; 32], active: u32, bits: &[BitCounts]) {
        self.keys[way] = (*lanes, u64::from(active));
        self.bits[way * self.n_views..(way + 1) * self.n_views].copy_from_slice(bits);
    }
}

/// Equality is the recorded statistics (and log), not the collection
/// scratch (coder cache, channel toggle history, encode buffer).
impl PartialEq for StatsCollector {
    fn eq(&self, other: &Self) -> bool {
        self.views == other.views && self.unit_acc == other.unit_acc && self.log == other.log
    }
}

/// `rep[i]` = first index whose key equals `keys[i]`.
fn representatives<K: PartialEq>(keys: &[K]) -> Vec<usize> {
    (0..keys.len())
        .map(|i| keys.iter().position(|k| *k == keys[i]).expect("self"))
        .collect()
}

impl StatsCollector {
    /// Build a collector over the given views with `flit_bytes`-wide NoC
    /// channels.
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty or `flit_bytes` is zero — a zero flit
    /// width is rejected here, at construction, instead of surfacing as a
    /// latent [`ChannelToggles::new`] panic on the first NoC packet.
    pub fn new(views: Vec<CodingView>, flit_bytes: usize) -> Self {
        assert!(!views.is_empty(), "at least one coding view is required");
        assert!(flit_bytes > 0, "NoC flit width must be non-zero");
        let coders: Vec<ViewCoders> = views.iter().map(ViewCoders::of).collect();
        let n = views.len();
        let warp_keys: Vec<_> = coders.iter().map(|c| (c.nv, c.reg_vs)).collect();
        let shared_keys: Vec<_> = coders.iter().map(|c| c.nv).collect();
        let line_keys: Vec<_> = coders.iter().map(|c| (c.nv, c.line_vs)).collect();
        let instr_keys: Vec<_> = coders.iter().map(|c| c.isa).collect();
        let memos = Memos::acquire(&coders);
        Self {
            views: views.into_iter().map(ViewStats::new).collect(),
            log: None,
            coders,
            flit_bytes,
            channels: BTreeMap::new(),
            noc_acc: vec![ToggleStats::default(); n],
            unit_acc: vec![Default::default(); n],
            warp_rep: representatives(&warp_keys),
            shared_rep: representatives(&shared_keys),
            line_rep: representatives(&line_keys),
            instr_rep: representatives(&instr_keys),
            bits_cache: vec![BitCounts::default(); n],
            scratch: Vec::new(),
            memos,
            instr_line_key: Vec::new(),
        }
    }

    /// Additionally record every raw event into a [`crate::trace::TraceLog`]
    /// (the paper's dump-and-parse pipeline; see [`crate::trace::replay`]).
    pub fn with_trace_log(mut self) -> Self {
        self.log = Some(crate::trace::TraceLog::new());
        self
    }

    /// Take the recorded trace log, if logging was enabled.
    pub fn take_log(&mut self) -> Option<crate::trace::TraceLog> {
        self.log.take()
    }

    /// Record a register-file access: the warp's 32 lane values plus the
    /// active mask. Only active lanes' bits are counted (the paper counts
    /// only lanes that take the branch), but the full warp provides the VS
    /// pivot context.
    ///
    /// The lane matrix is transposed into bit-planes once and shared by
    /// every view; each view's coders then run per bit position.
    pub fn record_register(&mut self, kind: AccessKind, lanes: &[u32; 32], active: u32) {
        if let Some(log) = &mut self.log {
            log.events.push(crate::trace::TraceEvent::Reg {
                kind,
                lanes: lanes.to_vec(),
                active,
            });
        }
        let way = WarpMemo::way(lanes, active);
        if let Some(bits) = self.memos.warp.get(way, lanes, active) {
            for (acc, &b) in self.unit_acc.iter_mut().zip(bits) {
                bump(&mut acc[Unit::Reg as usize], kind, b, 1);
            }
            return;
        }
        let planes = BitPlanes::from_lanes(lanes);
        for i in 0..self.coders.len() {
            let rep = self.warp_rep[i];
            let bits = if rep == i {
                self.coders[i].warp_bits(&planes, active)
            } else {
                self.bits_cache[rep]
            };
            self.bits_cache[i] = bits;
            bump(&mut self.unit_acc[i][Unit::Reg as usize], kind, bits, 1);
        }
        self.memos.warp.insert(way, lanes, active, &self.bits_cache);
    }

    /// Record a shared-memory access (active lanes' words; VS does not
    /// cover SME, so only NV applies — plane-wise, off one shared
    /// transpose).
    pub fn record_shared(&mut self, kind: AccessKind, lanes: &[u32; 32], active: u32) {
        if let Some(log) = &mut self.log {
            log.events.push(crate::trace::TraceEvent::Shared {
                kind,
                lanes: lanes.to_vec(),
                active,
            });
        }
        let planes = BitPlanes::from_lanes(lanes);
        for i in 0..self.coders.len() {
            let rep = self.shared_rep[i];
            let bits = if rep == i {
                self.coders[i].shared_bits(&planes, active)
            } else {
                self.bits_cache[rep]
            };
            self.bits_cache[i] = bits;
            bump(&mut self.unit_acc[i][Unit::Sme as usize], kind, bits, 1);
        }
    }

    /// Record a line-granular data access at an L1/L2 unit. `line` is the
    /// raw line content.
    pub fn record_line(&mut self, unit: Unit, kind: AccessKind, line: &[u8]) {
        self.record_line_kinds(unit, &[kind], line);
    }

    /// Record several back-to-back accesses of the *same* line content at
    /// one unit (a miss refill is a Fill immediately re-read as a Read):
    /// the per-view line bit counts are computed once and bumped per kind,
    /// with one trace-log event per kind so a replay is indistinguishable
    /// from discrete [`StatsCollector::record_line`] calls.
    pub fn record_line_kinds(&mut self, unit: Unit, kinds: &[AccessKind], line: &[u8]) {
        if let Some(log) = &mut self.log {
            for &kind in kinds {
                log.events.push(crate::trace::TraceEvent::Line {
                    unit,
                    kind,
                    data: line.to_vec(),
                });
            }
        }
        let way = LineMemo::way(line);
        if let Some(bits) = self.memos.line.get(way, line) {
            for (acc, &b) in self.unit_acc.iter_mut().zip(bits) {
                for &kind in kinds {
                    bump(&mut acc[unit as usize], kind, b, 1);
                }
            }
            return;
        }
        for i in 0..self.coders.len() {
            let rep = self.line_rep[i];
            let bits = if rep == i {
                self.coders[i].data_line_bits(line)
            } else {
                self.bits_cache[rep]
            };
            self.bits_cache[i] = bits;
            for &kind in kinds {
                bump(&mut self.unit_acc[i][unit as usize], kind, bits, 1);
            }
        }
        self.memos.line.insert(way, line, &self.bits_cache);
    }

    /// Record an instruction access (IFB, L1I, or the instruction-stream
    /// share of L2) of one 64-bit instruction word.
    pub fn record_instruction(&mut self, unit: Unit, kind: AccessKind, instr: u64) {
        self.record_instruction_units(&[unit], kind, instr);
    }

    /// Record the same instruction word hitting several units in sequence
    /// (e.g. IFB then L1I on every issue): the per-view encoded bit counts
    /// are computed once and bumped into each unit, but the trace log keeps
    /// one event per unit so a replay is indistinguishable from discrete
    /// [`StatsCollector::record_instruction`] calls.
    pub fn record_instruction_units(&mut self, units: &[Unit], kind: AccessKind, instr: u64) {
        if let Some(log) = &mut self.log {
            for &unit in units {
                log.events.push(crate::trace::TraceEvent::Instr {
                    unit,
                    kind,
                    word: instr,
                });
            }
        }
        let way = InstrMemo::way(instr);
        if let Some(bits) = self.memos.instr.get(way, instr) {
            for (acc, &b) in self.unit_acc.iter_mut().zip(bits) {
                for &unit in units {
                    bump(&mut acc[unit as usize], kind, b, 1);
                }
            }
            return;
        }
        for i in 0..self.coders.len() {
            let rep = self.instr_rep[i];
            let bits = if rep == i {
                BitCounts::of_word(self.coders[i].instr(instr))
            } else {
                self.bits_cache[rep]
            };
            self.bits_cache[i] = bits;
            for &unit in units {
                bump(&mut self.unit_acc[i][unit as usize], kind, bits, 1);
            }
        }
        self.memos.instr.insert(way, instr, &self.bits_cache);
    }

    /// Record one line-granular access of instruction words (an L1I fill or
    /// the instruction-stream share of L2): a single access whose payload is
    /// the given words.
    pub fn record_instruction_line(&mut self, unit: Unit, kind: AccessKind, words: &[u64]) {
        if let Some(log) = &mut self.log {
            log.events.push(crate::trace::TraceEvent::InstrLine {
                unit,
                kind,
                words: words.to_vec(),
            });
        }
        let mut key = std::mem::take(&mut self.instr_line_key);
        key.clear();
        for w in words {
            key.extend_from_slice(&w.to_le_bytes());
        }
        let way = LineMemo::way(&key);
        if let Some(bits) = self.memos.instr_line.get(way, &key) {
            for (acc, &b) in self.unit_acc.iter_mut().zip(bits) {
                bump(&mut acc[unit as usize], kind, b, 1);
            }
            self.instr_line_key = key;
            return;
        }
        for i in 0..self.coders.len() {
            let rep = self.instr_rep[i];
            let bits = if rep == i {
                let mut bits = BitCounts::default();
                for &w in words {
                    bits.record(self.coders[i].instr(w));
                }
                bits
            } else {
                self.bits_cache[rep]
            };
            self.bits_cache[i] = bits;
            bump(&mut self.unit_acc[i][unit as usize], kind, bits, 1);
        }
        self.memos.instr_line.insert(way, &key, &self.bits_cache);
        self.instr_line_key = key;
    }

    /// Record a NoC packet: a raw header (addresses/ids) plus a data
    /// payload, sent on `channel`. Headers travel on the channel's sideband
    /// control wires (a separate physical sub-channel, never coded);
    /// payloads travel on the data
    /// wires and are coded per view (instruction payloads with ISA, data
    /// payloads with NV+VS). Toggles are counted on both sub-channels, the
    /// payload's once per distinct payload coder (`instr_rep` for
    /// instruction payloads, `line_rep` for data payloads) with
    /// [`ToggleStats::packet`].
    pub fn record_noc_packet(
        &mut self,
        channel: u32,
        header: &[u8],
        payload: &[u8],
        instruction_payload: bool,
    ) {
        if let Some(log) = &mut self.log {
            log.events.push(crate::trace::TraceEvent::Noc {
                channel,
                header: header.to_vec(),
                payload: payload.to_vec(),
                instruction: instruction_payload,
            });
        }
        let ch = self.channels.entry(channel).or_insert_with(|| NocChannel {
            sideband: ChannelToggles::new(crate::noc::HEADER_BYTES),
            carried_payload: false,
        });
        if !header.is_empty() {
            ch.sideband.send(header);
        }
        if payload.is_empty() {
            return;
        }
        // Every view of a coder class sends the same encoded payload, and
        // between packets the data wires rest at their precharged-high idle
        // state (all-ones), the standard bus convention and the one the
        // BVF space's "mostly 1s" toggle argument (§3.2) rests on. So a
        // packet's toggles are a function of its encoded payload alone,
        // counted once per class and added to every view in it; only a
        // channel's first payload primes the wires instead of leaving idle.
        let from_idle = std::mem::replace(&mut ch.carried_payload, true);
        let reps = if instruction_payload {
            &self.instr_rep
        } else {
            &self.line_rep
        };
        for (i, vc) in self.coders.iter().enumerate() {
            if reps[i] != i {
                continue;
            }
            // Encode into the reusable scratch buffer; views that leave the
            // payload raw (e.g. the baseline) skip the copy.
            let scratch = &mut self.scratch;
            let data: &[u8] = if instruction_payload {
                if let Some(isa) = vc.isa {
                    scratch.clear();
                    scratch.extend_from_slice(payload);
                    for c in scratch.chunks_exact_mut(8) {
                        let w = u64::from_le_bytes((&*c).try_into().expect("chunk of 8"));
                        c.copy_from_slice(&isa.encode_instr(w).to_le_bytes());
                    }
                    scratch
                } else {
                    payload
                }
            } else if vc.codes_data() {
                scratch.clear();
                scratch.extend_from_slice(payload);
                vc.encode_data_line(scratch);
                scratch
            } else {
                payload
            };
            let toggles = ToggleStats::packet(data, self.flit_bytes, 0xff, from_idle);
            for (acc, _) in self.noc_acc.iter_mut().zip(reps).filter(|&(_, &r)| r == i) {
                *acc += toggles;
            }
        }
    }

    /// Record a dummy-mov re-encode event (VS branch-divergence handling);
    /// only counted under views with VS enabled.
    pub fn record_dummy_mov(&mut self) {
        if let Some(log) = &mut self.log {
            log.events.push(crate::trace::TraceEvent::DummyMov);
        }
        for vs in &mut self.views {
            if vs.view.vs {
                vs.dummy_movs += 1;
            }
        }
    }

    /// Finalize and return per-view statistics: each view's flat unit
    /// counters and per-channel toggle scratch are folded into its `units`
    /// map and aggregate `noc` counters. Only units that saw at least one
    /// access appear in the map (any record bumps an access count, so
    /// "touched" and "non-default" coincide). The memo tables go back to
    /// this thread's pool for the next collector.
    pub fn finish(mut self) -> Vec<ViewStats> {
        let default = UnitStats::default();
        let sideband: ToggleStats = self.channels.values().map(|c| c.sideband.stats()).sum();
        for ((v, acc), noc) in self.views.iter_mut().zip(&self.unit_acc).zip(&self.noc_acc) {
            for (unit, stats) in bvf_core::Unit::ALL.iter().zip(acc) {
                if *stats != default {
                    v.units.insert(*unit, *stats);
                }
            }
            // Every view sees the same (uncoded) sideband traffic plus its
            // own coded data-wire traffic.
            v.noc = sideband + *noc;
        }
        self.memos.release();
        self.views
    }
}

fn bump(u: &mut UnitStats, kind: AccessKind, bits: BitCounts, n: u64) {
    match kind {
        AccessKind::Read => {
            u.reads += n;
            u.read_bits += bits;
        }
        AccessKind::Write => {
            u.writes += n;
            u.write_bits += bits;
        }
        AccessKind::Fill => {
            u.fills += n;
            u.fill_bits += bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_core::Coder;
    use proptest::prelude::*;

    fn collector() -> StatsCollector {
        StatsCollector::new(CodingView::standard_set(0x0123_4567_89ab_cdef), 32)
    }

    fn view<'a>(stats: &'a [ViewStats], name: &str) -> &'a ViewStats {
        stats.iter().find(|v| v.view.name == name).expect("view")
    }

    #[test]
    fn register_event_counts_only_active_lanes() {
        let mut c = collector();
        let lanes = [u32::MAX; 32];
        c.record_register(AccessKind::Read, &lanes, 0x0000_000f); // 4 lanes
        let stats = c.finish();
        let base = view(&stats, "baseline").unit(Unit::Reg);
        assert_eq!(base.reads, 1);
        assert_eq!(base.read_bits.ones, 4 * 32);
    }

    #[test]
    fn nv_view_flips_zero_words() {
        let mut c = collector();
        c.record_register(AccessKind::Write, &[0u32; 32], u32::MAX);
        let stats = c.finish();
        let base = view(&stats, "baseline").unit(Unit::Reg);
        let nv = view(&stats, "nv").unit(Unit::Reg);
        assert_eq!(base.write_bits.ones, 0);
        assert_eq!(nv.write_bits.ones, 32 * 31); // sign bit stays 0
    }

    #[test]
    fn vs_view_benefits_from_similar_lanes() {
        let mut c = collector();
        let lanes: [u32; 32] = core::array::from_fn(|i| 0x4000_0000 + i as u32);
        c.record_register(AccessKind::Read, &lanes, u32::MAX);
        let stats = c.finish();
        let base = view(&stats, "baseline").unit(Unit::Reg);
        let vs = view(&stats, "vs").unit(Unit::Reg);
        assert!(vs.read_bits.ones > base.read_bits.ones);
    }

    #[test]
    fn shared_memory_sees_nv_but_not_vs() {
        let mut c = collector();
        let lanes = [0u32; 32];
        c.record_shared(AccessKind::Read, &lanes, u32::MAX);
        let stats = c.finish();
        let nv = view(&stats, "nv").unit(Unit::Sme);
        let vs = view(&stats, "vs").unit(Unit::Sme);
        let base = view(&stats, "baseline").unit(Unit::Sme);
        assert!(nv.read_bits.ones > base.read_bits.ones);
        assert_eq!(vs.read_bits, base.read_bits, "VS must not touch SME");
    }

    #[test]
    fn instruction_events_only_respond_to_isa() {
        let mut c = collector();
        c.record_instruction(Unit::L1i, AccessKind::Read, 0);
        let stats = c.finish();
        let base = view(&stats, "baseline").unit(Unit::L1i);
        let nv = view(&stats, "nv").unit(Unit::L1i);
        let isa = view(&stats, "isa").unit(Unit::L1i);
        assert_eq!(base.read_bits, nv.read_bits);
        assert!(isa.read_bits.ones > base.read_bits.ones);
    }

    #[test]
    fn noc_toggles_fall_under_vs_for_similar_lines() {
        let mut c = collector();
        // A stream of packets, each internally value-similar (lanes nearly
        // identical within the line) but with unrelated contents across
        // packets — the realistic case. Raw flits toggle heavily at every
        // packet boundary; VS maps every line to near-all-ones, so the
        // boundary toggles collapse to the raw pivot word.
        let mut base = 0x9e37_79b9u32;
        for _ in 0..8 {
            base = base.wrapping_mul(0x0019_660d).wrapping_add(0x3c6e_f35f);
            let payload: Vec<u8> = (0..32u32)
                .flat_map(|i| (base ^ (i & 1)).to_le_bytes())
                .collect();
            c.record_noc_packet(0, &[], &payload, false);
        }
        let stats = c.finish();
        let base = view(&stats, "baseline").noc;
        let vs = view(&stats, "vs").noc;
        assert!(base.bit_toggles > 0);
        assert!(
            vs.bit_toggles < base.bit_toggles,
            "vs {} !< base {}",
            vs.bit_toggles,
            base.bit_toggles
        );
    }

    #[test]
    fn line_fill_counts_match_line_size() {
        let mut c = collector();
        c.record_line(Unit::L1d, AccessKind::Fill, &[0xff; 128]);
        let stats = c.finish();
        let u = view(&stats, "baseline").unit(Unit::L1d);
        assert_eq!(u.fills, 1);
        assert_eq!(u.fill_bits.total(), 128 * 8);
        assert_eq!(u.stored_bits().ones, 128 * 8);
    }

    #[test]
    fn dummy_movs_only_counted_under_vs() {
        let mut c = collector();
        c.record_dummy_mov();
        let stats = c.finish();
        assert_eq!(view(&stats, "baseline").dummy_movs, 0);
        assert_eq!(view(&stats, "vs").dummy_movs, 1);
        assert_eq!(view(&stats, "bvf").dummy_movs, 1);
    }

    #[test]
    #[should_panic(expected = "at least one coding view")]
    fn empty_views_rejected() {
        let _ = StatsCollector::new(vec![], 32);
    }

    #[test]
    #[should_panic(expected = "flit width must be non-zero")]
    fn zero_flit_width_rejected_at_construction() {
        // Regression: a zero flit width used to survive construction and
        // panic later, inside ChannelToggles::new, on the first NoC packet.
        let _ = StatsCollector::new(vec![CodingView::baseline()], 0);
    }

    #[test]
    fn register_memo_does_not_alias_empty_ways() {
        // Regression: all-zero lanes with a full active mask matched the
        // memo's original empty-way sentinel and were "served" zero counts
        // instead of being computed (NV flips zeros to ones).
        let lanes = [0u32; 32];
        let mut c = StatsCollector::new(CodingView::standard_set(0), 32);
        c.record_register(AccessKind::Read, &lanes, u32::MAX);
        c.record_register(AccessKind::Read, &lanes, u32::MAX);
        for v in c.finish() {
            let one = scalar_register_bits(&v.view, &lanes, u32::MAX);
            assert_eq!(
                v.unit(Unit::Reg).read_bits,
                one + one,
                "view {}",
                v.view.name
            );
        }
    }

    /// Scalar reference implementation of the register path — the lane-form
    /// coders applied per value, exactly as the collector worked before the
    /// bit-sliced rewrite. The gate for the plane path.
    fn scalar_register_bits(view: &CodingView, lanes: &[u32; 32], active: u32) -> BitCounts {
        let mut data = *lanes;
        if view.nv {
            NvCoder.encode_words(&mut data);
        }
        if view.vs {
            VsCoder::with_pivot(view.vs_reg_pivot).encode_warp(&mut data);
        }
        let mut bits = BitCounts::default();
        for (i, w) in data.iter().enumerate() {
            if active >> i & 1 == 1 {
                bits.record(*w);
            }
        }
        bits
    }

    /// Scalar reference for the line path: materialize the encoded bytes
    /// with the bvf-core coders, then count.
    fn scalar_line_bits(view: &CodingView, line: &[u8]) -> BitCounts {
        let mut data = line.to_vec();
        if data.len().is_multiple_of(4) {
            if view.nv {
                NvCoder.encode_bytes(&mut data);
            }
            if view.vs {
                VsCoder::for_cache_lines().encode_line_bytes(&mut data);
            }
        }
        BitCounts::of_bytes(&data)
    }

    /// Reference for the NoC path: every view keeps its own counter per
    /// data channel and per sideband channel, sends its own encoded payload
    /// (scalar bvf-core coders) flit by flit, then the all-ones idle flit.
    fn reference_noc(
        views: &[CodingView],
        flit_bytes: usize,
        packets: &[(u32, Vec<u8>, Vec<u8>, bool)],
    ) -> Vec<ToggleStats> {
        views
            .iter()
            .map(|view| {
                let mut data: BTreeMap<u32, ChannelToggles> = BTreeMap::new();
                let mut sideband: BTreeMap<u32, ChannelToggles> = BTreeMap::new();
                for (channel, header, payload, instruction) in packets {
                    if !header.is_empty() {
                        sideband
                            .entry(*channel)
                            .or_insert_with(|| ChannelToggles::new(crate::noc::HEADER_BYTES))
                            .send(header);
                    }
                    if payload.is_empty() {
                        continue;
                    }
                    let mut enc = payload.clone();
                    if *instruction {
                        if view.isa {
                            let isa = IsaCoder::new(view.isa_mask);
                            for c in enc.chunks_exact_mut(8) {
                                let w = u64::from_le_bytes((&*c).try_into().expect("8 bytes"));
                                c.copy_from_slice(&isa.encode_instr(w).to_le_bytes());
                            }
                        }
                    } else if enc.len().is_multiple_of(4) {
                        if view.nv {
                            NvCoder.encode_bytes(&mut enc);
                        }
                        if view.vs {
                            VsCoder::for_cache_lines().encode_line_bytes(&mut enc);
                        }
                    }
                    let ch = data
                        .entry(*channel)
                        .or_insert_with(|| ChannelToggles::new(flit_bytes));
                    for flit in enc.chunks(flit_bytes) {
                        ch.send(flit);
                    }
                    ch.send_splat(0xff);
                }
                data.values()
                    .chain(sideband.values())
                    .map(|c| c.stats())
                    .sum()
            })
            .collect()
    }

    fn lanes_from_seed(seed: u64) -> [u32; 32] {
        let mut x = seed;
        core::array::from_fn(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mix of narrow, negative, and wide values.
            match x >> 62 {
                0 => (x >> 56) as u32,
                1 => (x >> 32) as u32 | 0x8000_0000,
                _ => (x >> 32) as u32,
            }
        })
    }

    proptest! {
        /// The bit-sliced register path must agree with the scalar coders
        /// for every view, lane pattern, and divergence mask.
        #[test]
        fn bit_sliced_register_path_matches_scalar(seed: u64, active: u32) {
            let lanes = lanes_from_seed(seed);
            let mut c = collector();
            // Recording the same input twice makes the second call a
            // register-memo hit, which must double every count exactly.
            c.record_register(AccessKind::Read, &lanes, active);
            c.record_register(AccessKind::Read, &lanes, active);
            for v in c.finish() {
                let one = scalar_register_bits(&v.view, &lanes, active);
                let expect = one + one;
                prop_assert_eq!(v.unit(Unit::Reg).read_bits, expect, "view {}", v.view.name);
            }
        }

        /// Same for the shared-memory path (NV only).
        #[test]
        fn bit_sliced_shared_path_matches_scalar(seed: u64, active: u32) {
            let lanes = lanes_from_seed(seed);
            let mut c = collector();
            c.record_shared(AccessKind::Write, &lanes, active);
            for v in c.finish() {
                let mut expect = BitCounts::default();
                for (i, &w) in lanes.iter().enumerate() {
                    if active >> i & 1 == 1 {
                        let e = if v.view.nv { NvCoder.encode_u32(w) } else { w };
                        expect.record(e);
                    }
                }
                prop_assert_eq!(v.unit(Unit::Sme).write_bits, expect, "view {}", v.view.name);
            }
        }

        /// The batched SWAR line path must agree with the scalar coders for
        /// every view and line shape: empty, non-word-aligned (uncoded
        /// pass-through), odd word counts (SWAR tail), lines shorter than
        /// the pivot, and full 128-byte lines.
        #[test]
        fn batched_line_path_matches_scalar(seed: u64, len_sel in 0usize..10) {
            let len = [0, 1, 3, 4, 6, 12, 20, 52, 100, 128][len_sel];
            let mut x = seed;
            let line: Vec<u8> = (0..len).map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            }).collect();
            let mut c = collector();
            c.record_line(Unit::L1d, AccessKind::Fill, &line);
            for v in c.finish() {
                let expect = scalar_line_bits(&v.view, &line);
                prop_assert_eq!(v.unit(Unit::L1d).fill_bits, expect, "view {} len {}", v.view.name, len);
            }
        }

        /// Random multi-channel packet streams — data and instruction
        /// payloads of ragged and full-line lengths, header-only packets,
        /// the first packet on each channel — must give every view the NoC
        /// counts of its own per-channel counters fed flit by flit.
        #[test]
        fn noc_counts_match_per_view_channel_reference(
            seed: u64,
            mask: u64,
            n_packets in 1usize..40,
            flit_sel in 0usize..3,
        ) {
            const CHANNELS: [u32; 5] = [0, 1, 7, crate::noc::REPLY_TAG | 3, crate::noc::REPLY_TAG | 0x105];
            const LENS: [usize; 8] = [0, 7, 12, 33, 40, 100, 128, 128];
            let flit_bytes = [8, 32, 40][flit_sel];
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 32
            };
            let packets: Vec<(u32, Vec<u8>, Vec<u8>, bool)> = (0..n_packets)
                .map(|_| {
                    let channel = CHANNELS[next() as usize % CHANNELS.len()];
                    let header_len = [0, 16, 16][next() as usize % 3];
                    let header = (0..header_len).map(|_| next() as u8).collect();
                    let len = LENS[next() as usize % LENS.len()];
                    // Narrow words mixed with wide ones, so NV and VS both bite.
                    let payload = (0..len)
                        .map(|i| if next() % 4 == 0 { next() as u8 } else if i % 4 == 3 { 0 } else { 0x11 })
                        .collect();
                    (channel, header, payload, next() % 3 == 0)
                })
                .collect();
            let views = CodingView::standard_set(mask);
            let mut c = StatsCollector::new(views.clone(), flit_bytes);
            for (channel, header, payload, instruction) in &packets {
                c.record_noc_packet(*channel, header, payload, *instruction);
            }
            let expect = reference_noc(&views, flit_bytes, &packets);
            for (v, e) in c.finish().iter().zip(expect) {
                prop_assert_eq!(v.noc, e, "view {}", v.view.name);
            }
        }

        /// Encoding a payload in place (the NoC path) must match the scalar
        /// coder composition byte-for-byte.
        #[test]
        fn encode_data_line_matches_scalar_coders(seed: u64, len_sel in 0usize..8) {
            let len = [0, 3, 4, 12, 36, 64, 100, 128][len_sel];
            let mut x = seed;
            let line: Vec<u8> = (0..len).map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 48) as u8
            }).collect();
            for view in CodingView::standard_set(0) {
                let vc = ViewCoders::of(&view);
                let mut batched = line.clone();
                vc.encode_data_line(&mut batched);
                let mut scalar = line.clone();
                if scalar.len().is_multiple_of(4) {
                    if view.nv {
                        NvCoder.encode_bytes(&mut scalar);
                    }
                    if view.vs {
                        VsCoder::for_cache_lines().encode_line_bytes(&mut scalar);
                    }
                }
                prop_assert_eq!(&batched, &scalar, "view {} len {}", view.name, len);
            }
        }
    }
}
