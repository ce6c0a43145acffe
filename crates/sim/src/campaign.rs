//! A campaign: one full simulation pass over a set of applications.
//!
//! Applications are independent — each runs on a fresh [`Gpu`] — so the
//! campaign fans them out across a scoped-thread worker pool (see
//! [`parallel_map`]) controlled by a [`Parallelism`] knob. The work items
//! are (application, shard `s` of `n`) units, `n = 1` when sharding is
//! off; the unit that completes an application merges it. Several
//! campaigns over the same applications can share one queue as a
//! *campaign set* ([`Campaign::run_set`]), whose units go app by app so a
//! worker prepares each application's inputs once for every member.
//! Results are always assembled in registry order and are bit-identical
//! across worker counts, shard counts and set membership: the only shared
//! state is the work-queue cursor, the per-app slot tables and the output
//! slots, never the simulators.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bvf_bits::{BitCounts, NarrowValueProfile};
use bvf_gpu::{
    merge_shards, CodingView, Gpu, GpuConfig, LaunchShard, Phase, PhaseProfile, TraceSummary,
};
use bvf_isa::{derive_mask_for, Architecture};
use bvf_obs::{CounterId, MetricsSink, TimerId, TraceRecorder, TraceSink};
use bvf_workloads::Application;

use crate::store::ResultStore;
use crate::table::Table;

/// How many workers a campaign (or any [`parallel_map`]) may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available hardware thread (capped at the item count).
    #[default]
    Auto,
    /// Exactly `n` workers (clamped to `1..=items`).
    Fixed(usize),
    /// Single-threaded execution on the calling thread.
    Sequential,
}

impl Parallelism {
    /// Resolve to a concrete worker count for `items` work items.
    pub fn workers(self, items: usize) -> usize {
        let cap = items.max(1);
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.clamp(1, cap),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(cap),
        }
    }
}

/// How a campaign splits each application's launch across workers.
///
/// With sharding on, each application is `n` work items instead of one:
/// each shard simulates a contiguous SM range against its own isolated
/// state and the unit that finishes the application merges the pieces
/// with [`bvf_gpu::merge_shards`] — bit-identical to the unsharded run,
/// but the longest single work item (the fan-out's tail) shrinks by the
/// shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// One work item per application (no intra-app sharding).
    #[default]
    Off,
    /// `min(workers, SMs)` shards per application — enough to keep the
    /// pool busy through the tail without cutting below one SM per shard.
    Auto,
    /// Exactly `n` shards per application (clamped to `1..=SMs`).
    Fixed(u32),
}

impl ShardMode {
    /// Resolve to a concrete per-application shard count for a pool of
    /// `workers` over a GPU with `sms` SMs. A result of 1 means one work
    /// item per application.
    pub fn count(self, workers: usize, sms: u32) -> u32 {
        let cap = sms.max(1);
        match self {
            ShardMode::Off => 1,
            ShardMode::Auto => u32::try_from(workers).unwrap_or(u32::MAX).clamp(1, cap),
            ShardMode::Fixed(n) => n.clamp(1, cap),
        }
    }
}

/// What a campaign collects per application.
///
/// Every collection simulates the same launch: cycles, instructions, hit
/// rates, utilization and DRAM statistics do not depend on it, and neither
/// does any one coding view's statistics. Collections differ in which
/// views and profiles they record.
///
/// In the store, every collection's whole-app entry lives under the one
/// key [`ResultStore::key`], and one rule decides reuse: a stored summary
/// answers a campaign when it holds every coding view the campaign
/// records, cut to those views when it holds more. Only Full keeps value
/// profiles, so it reads Full entries alone; Energy reads Full and Energy
/// entries, and Timing reads any. A miss simulates and overwrites the
/// entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Collection {
    /// The five standard coding views plus the value profiles of Figs. 8,
    /// 9, 11 and 12: everything any exhibit reads.
    #[default]
    Full,
    /// The energy pair only: the `baseline` and `bvf` views, which the
    /// scheduler and capacity studies (Figs. 21 and 22) read, and no value
    /// profiles.
    Energy,
    /// No coding views and no value profiles: the view-independent results
    /// alone, which is all a `bvf-serve` response reports. The simulator
    /// builds no statistics collector for it.
    Timing,
}

impl Collection {
    /// The coding views this collection records under `isa_mask`.
    pub(crate) fn views(self, isa_mask: u64) -> Vec<CodingView> {
        match self {
            Collection::Full => CodingView::standard_set(isa_mask),
            Collection::Energy => vec![CodingView::baseline(), CodingView::bvf(isa_mask)],
            Collection::Timing => Vec::new(),
        }
    }
}

/// `summary` cut to `views`, in their order, with the empty value profiles
/// that [`Gpu::set_value_profiles`]`(false)` leaves: what a launch
/// recording `views` and no value profiles returns. `None` when `summary`
/// lacks one of `views`.
fn cut(summary: &TraceSummary, views: &[CodingView]) -> Option<TraceSummary> {
    let views = views
        .iter()
        .map(|view| summary.views.iter().find(|v| v.view == *view).cloned())
        .collect::<Option<_>>()?;
    Some(TraceSummary {
        views,
        narrow: NarrowValueProfile::new(),
        data_bits: BitCounts::default(),
        lane_profile: [0.0; 32],
        optimal_lane: 0,
        ..summary.clone()
    })
}

/// Apply `f` to every item of `items` on a pool of scoped worker threads,
/// returning outputs in input order regardless of completion order.
///
/// Workers pull indices from a shared atomic cursor (a work queue over the
/// item list, so an expensive item never stalls the rest) and write each
/// output into its input's dedicated slot. With [`Parallelism::Sequential`]
/// (or one worker) this degenerates to a plain in-order map on the calling
/// thread — no threads are spawned.
pub fn parallel_map<T, R, F>(items: &[T], par: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = par.workers(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                *slots[i].lock().expect("worker panicked holding a slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panicked holding a slot")
                .expect("every slot is filled once the scope joins")
        })
        .collect()
}

/// Knobs for [`Campaign::run_with_options`] beyond the application set.
///
/// The default runs on an auto-sized pool with the Pascal ISA and full
/// collection, no sharding, store, progress output, metrics or tracing.
/// The members of a [`Campaign::run_set`] may differ only in `arch`,
/// `trace_label` and `collect`.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker-pool sizing.
    pub par: Parallelism,
    /// Instruction-set generation for assembly and mask derivation.
    pub arch: Architecture,
    /// Print a live heartbeat line to stderr (~4 Hz) while the fan-out
    /// runs: apps finished, instructions retired, throughput, busy
    /// workers, and queue depth.
    pub progress: bool,
    /// Metrics sink. When enabled, every simulator profiles its launch, so
    /// each simulated [`AppResult`]'s summary carries a [`PhaseProfile`];
    /// the campaign adds each freshly simulated app's merged profile to
    /// the sink's `phase.<name>` timers and counts store traffic into it.
    /// The default disabled sink makes every probe a no-op.
    pub sink: MetricsSink,
    /// Result store, on disk or in memory. When set, the campaign consults
    /// every app's whole-app entry before scheduling its units (a hit
    /// skips the simulation entirely), and the unit that merges a missed
    /// app writes its whole-app summary back, at any shard count. `None`
    /// — the default — simulates everything.
    pub store: Option<Arc<ResultStore>>,
    /// Fault-injection drill: a worker about to simulate this application
    /// code panics instead. The panic must surface as an [`AppFailure`] on
    /// the campaign — never abort the run — which is exactly what the
    /// fault-isolation tests (and `reproduce --inject-panic`) assert.
    pub fault: Option<String>,
    /// Intra-application sharding of the work queue (`reproduce --shards`).
    /// Off by default; results are bit-identical either way.
    pub shards: ShardMode,
    /// Trace sink receiving causal spans from the scheduler and every
    /// worker (campaign → app → shard → launch → phase, plus store I/O
    /// and merge/DRAM-replay spans). The default disabled sink makes
    /// every probe a no-op — no clock reads, no allocation.
    pub tracer: TraceSink,
    /// Label of this campaign in trace causal ids (`campaign:<label>`).
    /// Give concurrent or sequential campaigns sharing one sink distinct
    /// labels, or their span ids collide.
    pub trace_label: String,
    /// What each application's result records: everything (the default),
    /// the energy pair, or the timing part alone.
    pub collect: Collection,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            par: Parallelism::Auto,
            arch: Architecture::Pascal,
            progress: false,
            sink: MetricsSink::disabled(),
            store: None,
            fault: None,
            shards: ShardMode::Off,
            tracer: TraceSink::disabled(),
            trace_label: "run".to_string(),
            collect: Collection::Full,
        }
    }
}

/// Shared progress counters for one campaign fan-out. All atomics: workers
/// bump them on the hot path's edges (one app ≫ one update), the heartbeat
/// thread reads them at ~4 Hz.
struct Progress {
    total: usize,
    /// What a work item is called in the heartbeat: "apps" unsharded,
    /// "shards" when intra-app sharding is on.
    noun: &'static str,
    started: AtomicUsize,
    done: AtomicUsize,
    instructions: AtomicU64,
    busy: AtomicUsize,
    /// Summed wall time of completed items, for the ETA column. Stderr
    /// display only — ETA is wall-clock-derived and must never reach
    /// telemetry records or traces, scrubbed or not.
    item_wall_nanos: AtomicU64,
}

impl Progress {
    fn new(total: usize, noun: &'static str) -> Self {
        Self {
            total,
            noun,
            started: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            instructions: AtomicU64::new(0),
            busy: AtomicUsize::new(0),
            item_wall_nanos: AtomicU64::new(0),
        }
    }

    /// One heartbeat line (no newline — the caller overwrites in place).
    fn line(&self, elapsed: Duration) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let started = self.started.load(Ordering::Relaxed);
        let busy = self.busy.load(Ordering::Relaxed);
        let instr = self.instructions.load(Ordering::Relaxed);
        let queued = self.total.saturating_sub(started);
        let rate = instr as f64 / elapsed.as_secs_f64().max(1e-9);
        let mut line = format!(
            "[campaign] {done}/{} {} done, {busy} busy, {queued} queued, {:.1} M instr at {:.1} M/s",
            self.total,
            self.noun,
            instr as f64 / 1e6,
            rate / 1e6,
        );
        if let Some(eta) = self.eta(done, busy) {
            line.push_str(&format!(", ~{:.1}s left", eta.as_secs_f64()));
        }
        line
    }

    /// Estimated time to drain the queue: mean completed-item wall times
    /// the remaining item count, divided by the busy worker count. None
    /// until one item has finished or once everything is done.
    fn eta(&self, done: usize, busy: usize) -> Option<Duration> {
        let remaining = self.total.saturating_sub(done);
        if done == 0 || remaining == 0 {
            return None;
        }
        let mean = self.item_wall_nanos.load(Ordering::Relaxed) / done as u64;
        Some(Duration::from_nanos(
            mean.saturating_mul(remaining as u64) / busy.max(1) as u64,
        ))
    }
}

/// Stringify a panic payload: `panic!("...")` carries a `String` or a
/// `&'static str`; anything else gets a placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Run `body` while a heartbeat thread repaints `progress` on stderr every
/// 250 ms. The final state is printed on its own line once `body` returns.
fn with_heartbeat<R: Send>(progress: &Progress, body: impl FnOnce() -> R + Send) -> R {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let beat = scope.spawn(|| {
            let mut widest = 0;
            while !stop.load(Ordering::Relaxed) {
                let line = progress.line(t0.elapsed());
                widest = widest.max(line.len());
                // Pad to the widest line so a shrinking line leaves no tail.
                eprint!("\r{line:<widest$}");
                // Repaint at ~4 Hz but notice `stop` within 10 ms, so the
                // heartbeat never pads the campaign's measured wall time.
                for _ in 0..25 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            let line = progress.line(t0.elapsed());
            widest = widest.max(line.len());
            eprintln!("\r{line:<widest$}");
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        beat.join().expect("heartbeat thread never panics");
        out
    })
}

/// One application's simulation result.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// The application executed.
    pub app: Application,
    /// Its trace summary (the campaign's coding views), shared with an
    /// in-memory store that holds the same result.
    pub summary: Arc<TraceSummary>,
    /// Wall-clock time this application's work items took on their
    /// workers: the store consult of a hit or the simulation of a miss,
    /// plus the merge (store writes and missed consults excluded).
    pub wall: Duration,
    /// Simulator throughput: dynamic instructions per wall-clock second.
    pub instructions_per_second: f64,
    /// Whether the summary came from the result store instead of a fresh
    /// simulation.
    pub cached: bool,
    /// How many launch shards produced this summary (1 = unsharded). With
    /// sharding, `wall` is the *sum* of the unit walls, so per-app walls
    /// and per-worker throughput stay comparable across shard counts.
    pub shards: u32,
}

/// Equality ignores the timing fields and the cache provenance: two results
/// are the same result if they simulated the same application to the same
/// summary, however long either run took and wherever the summary came
/// from. This is what lets the determinism tests compare sequential,
/// parallel, and cached campaigns directly.
impl PartialEq for AppResult {
    fn eq(&self, other: &Self) -> bool {
        self.app == other.app && self.summary == other.summary
    }
}

/// One application whose worker panicked instead of producing a result.
///
/// A panic in one worker must never tear down the whole campaign: the
/// worker catches it and the campaign records the application and the
/// panic payload here, completing every other application normally.
#[derive(Debug, Clone, PartialEq)]
pub struct AppFailure {
    /// Code of the application whose simulation panicked.
    pub app: &'static str,
    /// The panic payload (stringified).
    pub error: String,
}

/// A full simulation pass: configuration, derived ISA mask, and one result
/// per application.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The GPU configuration simulated.
    pub config: GpuConfig,
    /// Instruction-set generation used for assembly and mask derivation.
    pub arch: Architecture,
    /// The ISA-preference mask derived from the campaign's kernel corpus
    /// (the paper's static method applied to this ISA).
    pub isa_mask: u64,
    /// Per-application results, in registry order (failed applications are
    /// absent here and listed in `failures`).
    pub results: Vec<AppResult>,
    /// Applications whose workers panicked, in registry order.
    pub failures: Vec<AppFailure>,
    /// Results served from the store instead of simulated.
    pub cache_hits: usize,
    /// Results simulated because the store had no (usable) entry.
    pub cache_misses: usize,
    /// Cache hits re-simulated and checked bit-identical (`--cache-verify`).
    pub cache_verified: usize,
    /// Input images this campaign's simulations generated (see
    /// [`bvf_workloads::input_generations`]). A unit whose worker still
    /// held its app's image from the previous unit generated none.
    pub input_generations: u64,
    /// Total wall-clock time of the simulation fan-out: under a campaign
    /// set, the whole set's (see [`Campaign::run_set`]).
    pub wall: Duration,
    /// Worker count the run actually used.
    pub workers: usize,
    /// Campaigns in the set this one ran in (1 when it ran alone).
    pub set_size: usize,
    /// Shards per application the work queue used (1 = unsharded).
    pub shards: u32,
    /// Wall time of the longest single work item — a whole application
    /// unsharded, one shard under sharding, the store consult of a hit.
    /// This is the fan-out's tail: the quantity sharding exists to shrink.
    pub max_item_wall: Duration,
    /// Application code -> index in `results`, for O(1) lookup.
    index: HashMap<&'static str, usize>,
}

/// Equality ignores wall time, worker count, and cache provenance (see
/// [`AppResult`]'s `PartialEq`): a campaign is its configuration plus its
/// results — and its failures, because a campaign that lost an application
/// is not the same campaign.
impl PartialEq for Campaign {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.arch == other.arch
            && self.isa_mask == other.isa_mask
            && self.results == other.results
            && self.failures == other.failures
    }
}

impl Campaign {
    /// Derive the static ISA mask for `apps` under `arch` — the Table 2
    /// procedure (majority vote per bit position over the assembled corpus).
    pub fn derive_isa_mask(arch: Architecture, apps: &[Application]) -> u64 {
        let kernels: Vec<_> = apps.iter().map(|a| a.kernel()).collect();
        derive_mask_for(arch, &kernels)
    }

    /// Run every application in `apps` on a fresh GPU under `opts`:
    /// parallelism, ISA generation, what to collect (by default the
    /// standard five coding views, baseline / NV / VS / ISA / BVF, and the
    /// value profiles), sharding, store, progress, metrics and tracing
    /// (see [`CampaignOptions`]). This is a [`Campaign::run_set`] of one.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn run_with_options(
        config: GpuConfig,
        apps: &[Application],
        opts: &CampaignOptions,
    ) -> Self {
        assert!(!apps.is_empty(), "campaign needs at least one application");
        let isa_mask = Self::derive_isa_mask(opts.arch, apps);
        Self::run_with_mask(config, apps, isa_mask, opts)
    }

    /// [`Campaign::run_with_options`] under a given ISA mask instead of
    /// the one `apps` derive. `bvf-serve` runs each app of a request as a
    /// one-app campaign under the request's mask, so its store keys and
    /// results are those of the whole request.
    pub(crate) fn run_with_mask(
        config: GpuConfig,
        apps: &[Application],
        isa_mask: u64,
        opts: &CampaignOptions,
    ) -> Self {
        let mut set = Self::fan_out(apps, &[(&config, isa_mask, opts)]);
        set.pop().expect("a set of one runs one campaign")
    }

    /// Run several campaigns over the same `apps` as one *campaign set*:
    /// one store consult pass and one work queue, ordered app by app, so a
    /// worker runs every member's units of an application back to back and
    /// prepares its inputs once (see [`Application::prepare`]). Each member
    /// is a (configuration, options) pair and comes back exactly as
    /// [`Campaign::run_with_options`] would have returned it alone —
    /// results, failures and store counts — in member order.
    ///
    /// Members may differ in configuration, `trace_label`, `collect` and
    /// `arch` (hence ISA mask). Their other options must agree, sinks and
    /// store being the same handles. Each member's `wall` is the set's, and
    /// its `campaign:<label>` trace root spans the whole set.
    ///
    /// # Panics
    ///
    /// Panics if `apps` or `members` is empty, or if the members' options
    /// disagree beyond those settings.
    pub fn run_set(apps: &[Application], members: &[(GpuConfig, CampaignOptions)]) -> Vec<Self> {
        assert!(!apps.is_empty(), "campaign needs at least one application");
        // Each derivation assembles every kernel: once per architecture.
        let mut masks = HashMap::new();
        for (_, opts) in members {
            masks
                .entry(opts.arch)
                .or_insert_with(|| Self::derive_isa_mask(opts.arch, apps));
        }
        let members: Vec<(&GpuConfig, u64, &CampaignOptions)> = members
            .iter()
            .map(|(config, opts)| (config, masks[&opts.arch], opts))
            .collect();
        Self::fan_out(apps, &members)
    }

    /// The one fan-out behind every campaign: run each (configuration,
    /// ISA mask, options) member over `apps` and assemble the members in
    /// order.
    fn fan_out(apps: &[Application], members: &[(&GpuConfig, u64, &CampaignOptions)]) -> Vec<Self> {
        let (_, _, opts) = *members.first().expect("a campaign set has members");
        for &(_, _, other) in &members[1..] {
            let same_store = match (&opts.store, &other.store) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (a, b) => a.is_none() && b.is_none(),
            };
            assert!(
                same_store
                    && other.par == opts.par
                    && other.progress == opts.progress
                    && other.fault == opts.fault
                    && other.shards == opts.shards
                    && other.sink.shares(&opts.sink)
                    && other.tracer.shares(&opts.tracer),
                "campaign set members may differ only in configuration, trace label, \
                 collection, architecture and ISA mask"
            );
        }
        let members: Vec<Member> = members
            .iter()
            .map(|&(config, isa_mask, opts)| Member::new(config, apps, isa_mask, opts))
            .collect();
        let main_trace = opts.tracer.is_enabled().then(|| {
            let rec = opts.tracer.recorder(u32::MAX);
            let t0_ns = rec.now_ns();
            (rec, t0_ns)
        });
        let t0 = Instant::now();
        // Consult every member's whole-app entry of every app before
        // scheduling any unit, at any shard count: a hit publishes the app
        // and schedules none of that member's units.
        let consult_items: Vec<(usize, usize)> = (0..apps.len())
            .flat_map(|i| (0..members.len()).map(move |m| (i, m)))
            .collect();
        let consults = match opts.store {
            Some(_) => parallel_map(&consult_items, opts.par, |&(i, m)| {
                members[m].consult_app(i)
            }),
            None => vec![None; consult_items.len()],
        };
        // One queue of (app, member, shard) units over the rest. Longest
        // app first, so the schedule's tail fills with small items instead
        // of idling behind one big app. Within an app, member by member
        // and each member's shards back to back, so a worker reuses the
        // app's prepared memory image across all of them.
        let mut order: Vec<usize> = (0..apps.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(apps[i].work_estimate()));
        let mut units: Vec<(usize, usize, u32)> = Vec::new();
        for i in order {
            for (m, member) in members.iter().enumerate() {
                if consults[i * members.len() + m].is_none() {
                    units.extend((0..member.n).map(|s| (i, m, s)));
                }
            }
        }
        let workers = opts.par.workers(units.len().max(apps.len()));
        let sharded = members.iter().any(|m| m.n > 1);
        let progress = Progress::new(units.len(), if sharded { "shards" } else { "apps" });
        let run_unit = |&(i, m, s): &(usize, usize, u32)| members[m].run_unit(i, s, &progress);
        let outcomes = if opts.progress {
            with_heartbeat(&progress, || parallel_map(&units, opts.par, run_unit))
        } else {
            parallel_map(&units, opts.par, run_unit)
        };
        let wall = t0.elapsed();

        // Hand each member its own consults and units, then assemble the
        // members in order.
        let mut consulted: Vec<Vec<_>> = members.iter().map(|_| Vec::new()).collect();
        for ((i, m), outcome) in consult_items.into_iter().zip(consults) {
            if let Some(outcome) = outcome {
                consulted[m].push((i, outcome));
            }
        }
        let mut by_unit: Vec<Vec<_>> = members.iter().map(|_| Vec::new()).collect();
        for ((i, m, s), outcome) in units.into_iter().zip(outcomes) {
            by_unit[m].push(((i, s), outcome));
        }
        let set_size = members.len();
        let mut campaigns = Vec::with_capacity(set_size);
        for ((member, consulted), by_unit) in members.into_iter().zip(consulted).zip(by_unit) {
            let trace = main_trace.as_ref();
            campaigns.push(member.assemble(consulted, by_unit, trace, (wall, workers, set_size)));
        }
        campaigns
    }

    /// Emit the *logical* span tree — campaign, per-app, per-phase — from
    /// the main thread at assembly time, in registry order.
    ///
    /// These are the spans that survive [`bvf_obs::trace::scrub_chrome`],
    /// so they must be a deterministic function of the campaign's
    /// *results*, never of scheduling: paths, seq numbers, and args come
    /// from simulated counters (bit-identical across worker counts and
    /// shard modes), while timestamps are a synthetic sequential layout of
    /// each app's wall on the main lane (scrubbed before diffing). A phase
    /// slice is emitted iff it recorded events — `events` is deterministic
    /// (instructions for exec, DRAM requests for the drain, …) where its
    /// nanos are not, so the *set* of emitted spans is stable too. A cached
    /// result emits none: this campaign ran none of its phases.
    fn emit_logical_spans(
        rec: &TraceRecorder,
        root: &str,
        campaign_t0: u64,
        results: &[AppResult],
        failures: &[AppFailure],
    ) {
        let mut cursor = campaign_t0;
        let mut instructions = 0u64;
        for r in results {
            let app_ns = r.wall.as_nanos() as u64;
            instructions += r.summary.dynamic_instructions;
            rec.emit(
                format!("{root}/app:{}", r.app.code),
                "app",
                0,
                cursor,
                app_ns,
                vec![
                    ("instructions", r.summary.dynamic_instructions),
                    ("cycles", r.summary.cycles),
                    ("cached", u64::from(r.cached)),
                ],
            );
            let mut phase_cursor = cursor;
            let slices = if r.cached {
                &[][..]
            } else {
                &r.summary.profile.slices[..]
            };
            for (i, s) in slices.iter().enumerate() {
                if s.events == 0 {
                    continue;
                }
                rec.emit(
                    format!("{root}/app:{}/phase:{}", r.app.code, s.phase.name()),
                    "phase",
                    i as u32,
                    phase_cursor,
                    s.nanos,
                    vec![("events", s.events)],
                );
                phase_cursor += s.nanos;
            }
            cursor += app_ns;
        }
        for f in failures {
            rec.emit(
                format!("{root}/app:{}", f.app),
                "app",
                0,
                cursor,
                0,
                vec![("failed", 1)],
            );
        }
        let end = rec.now_ns();
        rec.emit(
            root.to_string(),
            "campaign",
            0,
            campaign_t0,
            end.saturating_sub(campaign_t0),
            vec![
                ("apps", results.len() as u64),
                ("failed", failures.len() as u64),
                ("instructions", instructions),
            ],
        );
    }

    fn build_index(results: &[AppResult]) -> HashMap<&'static str, usize> {
        results
            .iter()
            .enumerate()
            .map(|(i, r)| (r.app.code, i))
            .collect()
    }

    /// A reduced campaign for fast tests: a representative subset on a
    /// 2-SM GPU, run under `opts`.
    pub fn smoke(opts: &CampaignOptions) -> Self {
        let mut config = GpuConfig::baseline();
        config.sms = 2;
        let apps: Vec<Application> = ["VAD", "BFS", "BLA", "IMD", "RED", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("smoke app"))
            .collect();
        Self::run_with_options(config, &apps, opts)
    }

    /// Result for an application code, if the campaign ran it.
    pub fn try_result(&self, code: &str) -> Option<&AppResult> {
        self.index.get(code).map(|&i| &self.results[i])
    }

    /// Result for an application code.
    ///
    /// # Panics
    ///
    /// Panics if the code is not in the campaign.
    pub fn result(&self, code: &str) -> &AppResult {
        self.try_result(code)
            .unwrap_or_else(|| panic!("no result for application {code:?}"))
    }

    /// Execution summary of this campaign's fan-out: totals, per-app wall
    /// times, and the slowest application. The throughputs count simulated
    /// results only: a store hit's instructions were simulated by an
    /// earlier campaign.
    pub fn run_report(&self) -> RunReport {
        let total_instructions: u64 = self
            .results
            .iter()
            .map(|r| r.summary.dynamic_instructions)
            .sum();
        let simulated: Vec<&AppResult> = self.results.iter().filter(|r| !r.cached).collect();
        let simulated_instructions: u64 = simulated
            .iter()
            .map(|r| r.summary.dynamic_instructions)
            .sum();
        let simulated_wall: Duration = simulated.iter().map(|r| r.wall).sum();
        let rate = |wall: Duration| {
            if simulated.is_empty() {
                0.0
            } else {
                simulated_instructions as f64 / wall.as_secs_f64().max(1e-9)
            }
        };
        let slowest = self
            .results
            .iter()
            .max_by_key(|r| r.wall)
            .map(|r| (r.app.code, r.wall));
        let min_app_wall = self
            .results
            .iter()
            .map(|r| r.wall)
            .min()
            .unwrap_or_default();
        let max_app_wall = self
            .results
            .iter()
            .map(|r| r.wall)
            .max()
            .unwrap_or_default();
        let mean_app_wall = self
            .results
            .iter()
            .map(|r| r.wall)
            .sum::<Duration>()
            .checked_div(self.results.len().max(1) as u32)
            .unwrap_or_default();
        RunReport {
            apps: self.results.len(),
            failed: self.failures.len(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_verified: self.cache_verified,
            workers: self.workers,
            shards: self.shards,
            max_item_wall: self.max_item_wall,
            wall: self.wall,
            slowest,
            min_app_wall,
            max_app_wall,
            mean_app_wall,
            total_instructions,
            simulated: simulated.len(),
            input_generations: self.input_generations,
            set_size: self.set_size,
            instructions_per_second: rate(self.wall),
            serial_instructions_per_second: rate(simulated_wall),
        }
    }

    /// Every simulated application's [`PhaseProfile`] folded into one
    /// (self-time nanos and events summed phase-wise). Cached results are
    /// left out: their profile, if any, timed another campaign. Empty
    /// unless the campaign ran with an enabled [`CampaignOptions::sink`].
    pub fn merged_profile(&self) -> PhaseProfile {
        let mut merged = PhaseProfile::default();
        for r in self.results.iter().filter(|r| !r.cached) {
            merged.merge(&r.summary.profile);
        }
        merged
    }

    /// The merged phase breakdown as a render-ready [`Table`] ("where the
    /// simulator's time goes"): self time in milliseconds, share of the
    /// summed launch time, and event count per phase. `None` unless the
    /// campaign was profiled.
    pub fn phase_table(&self) -> Option<Table> {
        let profile = self.merged_profile();
        if !profile.is_enabled() {
            return None;
        }
        let mut t = Table::new(
            "phase_breakdown",
            "Simulator phase breakdown (self time)",
            vec![
                "self_ms".to_string(),
                "share_pct".to_string(),
                "events".to_string(),
            ],
        );
        let total = profile.launch_nanos.max(1) as f64;
        for s in &profile.slices {
            t.push(
                s.phase.name(),
                vec![
                    s.nanos as f64 / 1e6,
                    100.0 * s.nanos as f64 / total,
                    s.events as f64,
                ],
            );
        }
        Some(t)
    }
}

/// Simulate shard `index` of `count` of `app` on a fresh [`Gpu`] — the one
/// place in this crate that builds a simulator. A whole-app run is shard
/// (0, 1) passed through [`merge_shards`]. `value_profiles` goes to
/// [`Gpu::set_value_profiles`], and an enabled `sink` switches the
/// launch's phase profile on. `trace` carries the work item's recorder
/// and the causal path its launch is recorded under: a `launch:0` span
/// (category `gpu`) that brackets the launch alone, not the input
/// preparation, and one child per phase slice. Returns the shard and the
/// input images its preparation generated (0 when this thread's memo held
/// the app's image).
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_shard(
    config: &GpuConfig,
    views: &[CodingView],
    value_profiles: bool,
    arch: Architecture,
    sink: &MetricsSink,
    app: &Application,
    index: u32,
    count: u32,
    trace: Option<(&TraceRecorder, String)>,
) -> (LaunchShard, u64) {
    let mut gpu = Gpu::new(config.clone(), views.to_vec());
    gpu.set_value_profiles(value_profiles);
    gpu.set_architecture(arch);
    gpu.set_metrics(sink.clone());
    let before = bvf_workloads::input_generations();
    app.prepare(&mut gpu);
    let generated = bvf_workloads::input_generations() - before;
    let kernel = app.kernel();
    let t0 = trace.as_ref().map_or(0, |(rec, _)| rec.now_ns());
    let shard = gpu.launch_shard(&kernel, app.launch_config(), index, count);
    if let Some((rec, path)) = trace {
        // One launch per simulator, so always `launch:0`. Its phase slices
        // are disjoint by construction, so a back-to-back layout inside the
        // launch span is the faithful picture.
        let base = format!("{path}/launch:0");
        let dur = rec.now_ns().saturating_sub(t0);
        let args = vec![
            ("instructions", shard.dynamic_instructions),
            ("cycles", shard.max_core_cycles),
        ];
        rec.emit(base.clone(), "gpu", 0, t0, dur, args);
        let mut t = t0;
        for (i, s) in shard.profile.slices.iter().enumerate() {
            if s.nanos == 0 && s.events == 0 {
                continue;
            }
            let phase = format!("{base}/phase:{}", s.phase.name());
            let args = vec![("events", s.events)];
            rec.emit(phase, "gpu", i as u32, t, s.nanos, args);
            t += s.nanos;
        }
    }
    (shard, generated)
}

/// One application's slot table. A failed unit never fills its slot, so
/// nobody merges a failed application.
#[derive(Default)]
struct AppSlot {
    /// Shards delivered so far, with their shard indices.
    shards: Vec<(u32, LaunchShard)>,
    /// Summed wall time of the units delivered so far.
    wall: Duration,
    /// The result, set by a whole-app hit or by the unit that filled the
    /// last slot.
    result: Option<AppResult>,
}

/// One work item's trace context: its causal path and its own recorder
/// on the item's lane.
struct ItemTrace {
    path: String,
    rec: TraceRecorder,
    store_ops: u32,
}

/// Run `f` under the child span `<item>/<name>` when the item is traced;
/// `args` annotates the span from `f`'s result. Store operations are
/// numbered in the order the item performs them.
fn traced<R>(
    trace: &mut Option<ItemTrace>,
    name: &str,
    cat: &'static str,
    f: impl FnOnce() -> R,
    args: impl FnOnce(&R) -> Vec<(&'static str, u64)>,
) -> R {
    let Some(t) = trace.as_mut() else {
        return f();
    };
    let t0 = t.rec.now_ns();
    let out = f();
    let dur = t.rec.now_ns().saturating_sub(t0);
    let seq = if cat == "store" {
        t.store_ops += 1;
        t.store_ops
    } else {
        0
    };
    let path = format!("{}/{name}", t.path);
    t.rec.emit(path, cat, seq, t0, dur, args(&out));
    out
}

/// The metrics-sink timer of each launch phase, indexed by `phase as
/// usize`. A unit that merges a freshly simulated app adds each slice of
/// the merged profile to its timer as one span.
const PHASE_TIMERS: [&str; Phase::ALL.len()] = [
    "phase.exec",
    "phase.ifetch",
    "phase.data_memory",
    "phase.stats_instr",
    "phase.stats_data",
    "phase.dram_drain",
    "phase.setup",
    "phase.sched",
    "phase.other",
];

/// Indices into [`Member::store_counts`].
const HIT: usize = 0;
const MISS: usize = 1;
const VERIFY: usize = 2;

/// One campaign of a fan-out: what its work items read, the per-app slot
/// tables its units deliver into, and the counters they bump.
struct Member<'a> {
    config: &'a GpuConfig,
    views: Vec<CodingView>,
    apps: &'a [Application],
    opts: &'a CampaignOptions,
    isa_mask: u64,
    /// Shards per application (1 = unsharded).
    n: u32,
    /// Which apps re-simulate their store hits, by registry index.
    verify: Vec<bool>,
    slots: Vec<Mutex<AppSlot>>,
    trace_root: String,
    /// Store hits, misses and verifications: campaign total, sink counter.
    store_counts: [(AtomicUsize, CounterId); 3],
    /// [`PHASE_TIMERS`], registered on the sink.
    phase_timers: [TimerId; Phase::ALL.len()],
    /// Input images this member's simulations generated.
    generations: AtomicU64,
}

impl<'a> Member<'a> {
    fn new(
        config: &'a GpuConfig,
        apps: &'a [Application],
        isa_mask: u64,
        opts: &'a CampaignOptions,
    ) -> Self {
        Self {
            config,
            views: opts.collect.views(isa_mask),
            apps,
            opts,
            isa_mask,
            // Resolve the shard count against the pool the parallelism
            // knob *would* deliver with no item cap (the item count depends
            // on the shard count, so the cap cannot be applied first).
            n: opts.shards.count(opts.par.workers(usize::MAX), config.sms),
            verify: opts
                .store
                .as_deref()
                .map(|s| s.verify_selection(apps.len()))
                .unwrap_or_default(),
            slots: apps.iter().map(|_| Mutex::default()).collect(),
            trace_root: format!("campaign:{}", opts.trace_label),
            store_counts: ["store.hit", "store.miss", "store.verify"]
                .map(|name| (AtomicUsize::new(0), opts.sink.counter(name))),
            phase_timers: PHASE_TIMERS.map(|name| opts.sink.timer(name)),
            generations: AtomicU64::new(0),
        }
    }

    /// Assemble this member's campaign from its consult outcomes (app
    /// index order) and unit outcomes, emitting its logical spans on
    /// `main_trace`; the fan-out gives its wall, worker count and set
    /// size.
    ///
    /// Assembly only regroups. Results and failures go out in registry
    /// order, so neither depends on the queue permutation or on completion
    /// order, with one failure per application: its consult's, or its
    /// lowest-indexed failing unit's error.
    fn assemble(
        self,
        consulted: Vec<(usize, Result<Duration, String>)>,
        mut by_unit: Vec<((usize, u32), Result<Duration, String>)>,
        main_trace: Option<&(TraceRecorder, u64)>,
        (wall, workers, set_size): (Duration, usize, usize),
    ) -> Campaign {
        let apps = self.apps;
        let [hits, misses, verified] = self.store_counts.map(|(total, _)| total.into_inner());
        by_unit.sort_unstable_by_key(|&(unit, _)| unit);
        let mut failed: Vec<Option<String>> = vec![None; apps.len()];
        let mut item_wall = vec![Duration::ZERO; apps.len()];
        for (i, outcome) in consulted
            .into_iter()
            .chain(by_unit.into_iter().map(|((i, _), o)| (i, o)))
        {
            match outcome {
                Ok(wall) => item_wall[i] = item_wall[i].max(wall),
                Err(error) => {
                    failed[i].get_or_insert(error);
                }
            }
        }
        let mut results = Vec::with_capacity(apps.len());
        let mut failures = Vec::new();
        let mut max_item_wall = Duration::ZERO;
        for (((app, slot), failed), item_wall) in
            apps.iter().zip(self.slots).zip(failed).zip(item_wall)
        {
            if let Some(error) = failed {
                failures.push(AppFailure {
                    app: app.code,
                    error,
                });
                continue;
            }
            max_item_wall = max_item_wall.max(item_wall);
            let slot = slot.into_inner().expect("no unit panics holding a slot");
            results.push(
                slot.result
                    .expect("a hit or the unit that filled the last slot published"),
            );
        }
        if let Some((rec, t0_ns)) = main_trace {
            Campaign::emit_logical_spans(rec, &self.trace_root, *t0_ns, &results, &failures);
        }
        let index = Campaign::build_index(&results);
        Campaign {
            config: self.config.clone(),
            arch: self.opts.arch,
            isa_mask: self.isa_mask,
            results,
            failures,
            cache_hits: hits,
            cache_misses: misses,
            cache_verified: verified,
            input_generations: self.generations.into_inner(),
            wall,
            workers,
            set_size,
            shards: self.n,
            max_item_wall,
            index,
        }
    }

    fn count(&self, which: usize) {
        let (total, counter) = &self.store_counts[which];
        total.fetch_add(1, Ordering::Relaxed);
        self.opts.sink.add(*counter, 1);
    }

    /// The store key of `app`'s whole-app entry, the same under every
    /// collection.
    fn key(&self, app: &Application) -> u64 {
        ResultStore::key(self.config, self.opts.arch, self.isa_mask, app.code)
    }

    /// A stored whole-app summary as this campaign's result, or `None`
    /// when it does not answer this campaign: it must hold every coding
    /// view the campaign records. The summary is taken as is when it holds
    /// exactly those views, in order, and else [`cut`] to them. Only a
    /// Full summary holds all five views a Full campaign records, so Full,
    /// the one collection with value profiles, never takes a cut.
    fn accept(&self, summary: Arc<TraceSummary>) -> Option<Arc<TraceSummary>> {
        if summary.views.iter().map(|v| &v.view).eq(&self.views) {
            return Some(summary);
        }
        cut(&summary, &self.views).map(Arc::new)
    }

    /// Simulate shard `s` of `count` of `app`, its launch traced under the
    /// item's path plus `suffix`.
    fn simulate(
        &self,
        app: &Application,
        (s, count): (u32, u32),
        trace: &mut Option<ItemTrace>,
        suffix: &str,
    ) -> LaunchShard {
        let scope = trace
            .as_ref()
            .map(|t| (&t.rec, format!("{}{suffix}", t.path)));
        let (shard, generated) = simulate_shard(
            self.config,
            &self.views,
            self.opts.collect == Collection::Full,
            self.opts.arch,
            &self.opts.sink,
            app,
            s,
            count,
            scope,
        );
        self.generations.fetch_add(generated, Ordering::Relaxed);
        shard
    }

    /// Run `body` as one work item, traced as `<root>/app:<code>/<name>`
    /// on lane `lane`, and return its output or the panic message that
    /// failed it. Everything fallible runs under `catch_unwind`: a
    /// panicking item (simulator bug, fault drill, failed cache
    /// verification) fails its application, and every other application
    /// still completes.
    fn item<R>(
        &self,
        i: usize,
        name: impl FnOnce() -> String,
        lane: usize,
        body: impl FnOnce(&mut Option<ItemTrace>) -> R,
    ) -> Result<R, String> {
        let mut trace = self.opts.tracer.is_enabled().then(|| ItemTrace {
            path: format!("{}/app:{}/{}", self.trace_root, self.apps[i].code, name()),
            rec: self.opts.tracer.recorder(lane as u32),
            store_ops: 0,
        });
        let t0 = trace.as_ref().map_or(0, |t| t.rec.now_ns());
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut trace)));
        if let Some(t) = trace {
            let dur = t.rec.now_ns().saturating_sub(t0);
            let args = if outcome.is_err() {
                vec![("failed", 1)]
            } else {
                Vec::new()
            };
            t.rec.emit(t.path, "sched", 0, t0, dur, args);
        }
        outcome.map_err(panic_message)
    }

    /// Consult app `i`'s whole-app entry: `Some` with the item's wall time
    /// (or its failure) when the app is settled without units — a hit,
    /// published — and `None` when its units must run. A fault drill's
    /// app is never consulted: its units fail before any store read.
    fn consult_app(&self, i: usize) -> Option<Result<Duration, String>> {
        let app = &self.apps[i];
        let store = self.opts.store.as_deref()?;
        if self.opts.fault.as_deref() == Some(app.code) {
            return None;
        }
        let key = self.key(app);
        let hit = self.item(
            i,
            || "consult".to_string(),
            i,
            |trace| {
                let t = Instant::now();
                let summary = self.consult(store, key, i, trace)?;
                let wall = t.elapsed();
                self.publish(i, summary, wall, true);
                Some(wall)
            },
        );
        hit.transpose()
    }

    /// Run unit (app `i`, shard `s`) and return its wall time, or the
    /// panic message that failed it.
    fn run_unit(&self, i: usize, s: u32, progress: &Progress) -> Result<Duration, String> {
        let app = &self.apps[i];
        let unit = i * self.n as usize + s as usize;
        progress.started.fetch_add(1, Ordering::Relaxed);
        progress.busy.fetch_add(1, Ordering::Relaxed);
        let t_item = Instant::now();
        let outcome = self.item(
            i,
            || format!("shard:{s}"),
            unit,
            |trace| {
                if self.opts.fault.as_deref() == Some(app.code) {
                    panic!("injected fault: worker asked to fail on {}", app.code);
                }
                self.unit_body(i, s, trace, progress)
            },
        );
        progress
            .item_wall_nanos
            .fetch_add(t_item.elapsed().as_nanos() as u64, Ordering::Relaxed);
        progress.busy.fetch_sub(1, Ordering::Relaxed);
        progress.done.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Simulate the unit's shard, deliver it into the app's slot table,
    /// and — if this unit filled the last slot — merge the app and save
    /// its whole-app summary. Returns the unit's wall time: the
    /// simulation, plus the merge when this unit performed it (store
    /// writes excluded).
    fn unit_body(
        &self,
        i: usize,
        s: u32,
        trace: &mut Option<ItemTrace>,
        progress: &Progress,
    ) -> Duration {
        let app = &self.apps[i];
        let t_unit = Instant::now();
        let shard = self.simulate(app, (s, self.n), trace, "");
        let mut wall = t_unit.elapsed();
        progress
            .instructions
            .fetch_add(shard.dynamic_instructions, Ordering::Relaxed);
        let full = {
            let mut slot = self.slots[i].lock().expect("no unit panics holding a slot");
            slot.shards.push((s, shard));
            slot.wall += wall;
            (slot.shards.len() == self.n as usize)
                .then(|| (std::mem::take(&mut slot.shards), slot.wall))
        };
        let Some((mut shards, app_wall)) = full else {
            return wall;
        };
        shards.sort_unstable_by_key(|&(s, _)| s);
        let shards: Vec<LaunchShard> = shards.into_iter().map(|(_, shard)| shard).collect();
        let t_merge = Instant::now();
        let merge = || Arc::new(merge_shards(self.config, &shards));
        let summary = traced(trace, "merge", "sched", merge, |_| {
            vec![("shards", u64::from(self.n))]
        });
        let merge_wall = t_merge.elapsed();
        wall += merge_wall;
        self.add_phase_timers(&summary.profile);
        // The whole-app entry, for later campaigns at any shard count.
        if let Some(store) = self.opts.store.as_deref() {
            let save = || store.save_shared(self.key(app), app.code, Arc::clone(&summary));
            traced(trace, "store:save", "store", save, |_| Vec::new());
        }
        self.publish(i, summary, app_wall + merge_wall, false);
        wall
    }

    /// Add each slice of a freshly simulated app's merged profile (the
    /// DRAM drain included) to its phase timer as one span. A no-op when
    /// the campaign is not profiled.
    fn add_phase_timers(&self, profile: &PhaseProfile) {
        let sink = &self.opts.sink;
        for (s, &timer) in profile.slices.iter().zip(&self.phase_timers) {
            sink.add_span(timer, Duration::from_nanos(s.nanos));
        }
    }

    /// Set application `i`'s result in its slot table.
    fn publish(&self, i: usize, summary: Arc<TraceSummary>, wall: Duration, cached: bool) {
        let result = AppResult {
            app: self.apps[i].clone(),
            instructions_per_second: summary.dynamic_instructions as f64
                / wall.as_secs_f64().max(1e-9),
            summary,
            wall,
            cached,
            shards: self.n,
        };
        self.slots[i]
            .lock()
            .expect("no unit panics holding a slot")
            .result = Some(result);
    }

    /// Consult the store for app `i`'s whole-app entry: `Some` on a usable
    /// entry — re-simulated and checked bit-identical first when the app
    /// is in the verify sample — `None` on a miss. A decoded summary that
    /// lacks one of this campaign's views (see [`Member::accept`]) is a
    /// miss like any corrupt entry. The counters see one outcome per app
    /// at every shard count.
    fn consult(
        &self,
        store: &ResultStore,
        key: u64,
        i: usize,
        trace: &mut Option<ItemTrace>,
    ) -> Option<Arc<TraceSummary>> {
        let app = &self.apps[i];
        let load = || {
            store
                .load_shared(key, app.code)
                .and_then(|summary| self.accept(summary))
        };
        let hit = |summary: &Option<_>| vec![("hit", u64::from(summary.is_some()))];
        let Some(stored) = traced(trace, "store:load", "store", load, hit) else {
            self.count(MISS);
            return None;
        };
        self.count(HIT);
        if self.verify[i] {
            let fresh = self.simulate(app, (0, 1), trace, "/verify");
            assert!(
                merge_shards(self.config, &[fresh]) == *stored,
                "cache verification failed for {}: the stored entry is not \
                 bit-identical to a fresh simulation — the simulator changed without a \
                 STORE_FORMAT_VERSION bump",
                app.code
            );
            self.count(VERIFY);
        }
        Some(stored)
    }
}

/// Wall-clock summary of one campaign run (see [`Campaign::run_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Applications that produced a result.
    pub apps: usize,
    /// Applications whose workers panicked (see [`Campaign::failures`]).
    pub failed: usize,
    /// Results served from the result store.
    pub cache_hits: usize,
    /// Results simulated for lack of a usable store entry.
    pub cache_misses: usize,
    /// Cache hits re-simulated and checked bit-identical.
    pub cache_verified: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Shards per application (1 = unsharded queue).
    pub shards: u32,
    /// Longest single work item's wall time — a whole application when
    /// unsharded, one shard under sharding. The fan-out can never finish
    /// faster than this, so it is the tail-latency number the
    /// `--shards` knob exists to shrink.
    pub max_item_wall: Duration,
    /// Wall-clock time of the whole fan-out.
    pub wall: Duration,
    /// Slowest application and its wall time (the fan-out's critical path).
    pub slowest: Option<(&'static str, Duration)>,
    /// Fastest single application's wall time.
    pub min_app_wall: Duration,
    /// Slowest single application's wall time (`slowest`'s duration).
    pub max_app_wall: Duration,
    /// Mean per-application wall time.
    pub mean_app_wall: Duration,
    /// Dynamic instructions summed over all applications.
    pub total_instructions: u64,
    /// Applications simulated rather than served from the store.
    pub simulated: usize,
    /// Input images the campaign's simulations generated.
    pub input_generations: u64,
    /// Campaigns in the set this one ran in (1 when it ran alone); `wall`
    /// is the set's.
    pub set_size: usize,
    /// Aggregate simulator throughput: the simulated applications'
    /// instructions over the campaign wall time (0 when none simulated).
    /// Under a campaign set the wall is the set's, so this undercounts.
    pub instructions_per_second: f64,
    /// Per-worker simulator throughput: the simulated applications'
    /// instructions over their summed wall times (0 when none simulated).
    /// Worker-count-independent, so it isolates the per-event hot-path cost
    /// (the statistics collector) from the fan-out — the number to
    /// watch when optimizing the collector.
    pub serial_instructions_per_second: f64,
}

impl core::fmt::Display for RunReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // A campaign that simulated nothing has no throughput to show, and
        // a set member's wall is not its own.
        write!(
            f,
            "campaign: {} apps on {} worker{} in {:.3?}",
            self.apps,
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.wall,
        )?;
        if self.set_size > 1 {
            write!(f, ", the wall of its set of {} campaigns", self.set_size)?;
        } else if self.simulated > 0 {
            write!(f, " ({:.1} M instr/s)", self.instructions_per_second / 1e6)?;
        }
        writeln!(f)?;
        if self.shards > 1 {
            writeln!(
                f,
                "  sharded {} per app, longest work item {:.3?}",
                self.shards, self.max_item_wall,
            )?;
        }
        if self.simulated > 0 {
            writeln!(
                f,
                "  {:.1} M instr/s per worker, {} input image{} generated",
                self.serial_instructions_per_second / 1e6,
                self.input_generations,
                if self.input_generations == 1 { "" } else { "s" },
            )?;
        }
        write!(
            f,
            "  per-app wall min {:.3?} / mean {:.3?} / max {:.3?}",
            self.min_app_wall, self.mean_app_wall, self.max_app_wall,
        )?;
        if let Some((code, wall)) = self.slowest {
            write!(f, ", slowest app {code} at {wall:.3?}")?;
        }
        if self.cache_hits + self.cache_misses > 0 {
            write!(
                f,
                "\n  cache: {} hit{}, {} miss{}",
                self.cache_hits,
                if self.cache_hits == 1 { "" } else { "s" },
                self.cache_misses,
                if self.cache_misses == 1 { "" } else { "es" },
            )?;
            if self.cache_verified > 0 {
                write!(f, ", {} verified bit-identical", self.cache_verified)?;
            }
        }
        if self.failed > 0 {
            write!(f, "\n  FAILED: {} application(s) panicked", self.failed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_core::Unit;
    use proptest::prelude::*;

    fn with_par(par: Parallelism) -> CampaignOptions {
        CampaignOptions {
            par,
            ..CampaignOptions::default()
        }
    }

    proptest! {
        /// Output order always matches input order — for any items, any
        /// worker count, and any (uneven) per-item cost profile, so
        /// completion order and input order routinely disagree.
        #[test]
        fn parallel_map_order_matches_input_for_any_pool(
            items in proptest::collection::vec(any::<u32>(), 1..48),
            workers in 1usize..9,
            delays in proptest::collection::vec(0u64..250, 1..16),
        ) {
            let out = parallel_map(&items, Parallelism::Fixed(workers), |&x| {
                let d = delays[x as usize % delays.len()];
                if d > 150 {
                    std::thread::sleep(Duration::from_micros(d));
                }
                u64::from(x).wrapping_add(1)
            });
            let expected: Vec<u64> =
                items.iter().map(|&x| u64::from(x).wrapping_add(1)).collect();
            prop_assert_eq!(out, expected);
        }
    }

    #[test]
    fn campaign_results_follow_input_order_not_completion_order() {
        let mut config = GpuConfig::baseline();
        config.sms = 1;
        // Deliberately not registry order, with uneven per-app cost.
        let codes = ["SGE", "RED", "VAD"];
        let apps: Vec<Application> = codes
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        let c = Campaign::run_with_options(config, &apps, &with_par(Parallelism::Fixed(3)));
        let got: Vec<&str> = c.results.iter().map(|r| r.app.code).collect();
        assert_eq!(got, codes);
    }

    /// Compile-time `Send`/`Sync` audit of everything a campaign worker
    /// closes over or returns. `std::thread::scope` requires these bounds;
    /// spelling them out here keeps an accidental `Rc`/`RefCell` in the
    /// simulator from surfacing as an inscrutable spawn error later.
    #[test]
    fn worker_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gpu>();
        assert_send_sync::<GpuConfig>();
        assert_send_sync::<CodingView>();
        assert_send_sync::<Application>();
        assert_send_sync::<TraceSummary>();
        assert_send_sync::<AppResult>();
        assert_send_sync::<Campaign>();
    }

    #[test]
    fn smoke_campaign_runs_everything() {
        let c = Campaign::smoke(&CampaignOptions::default());
        assert_eq!(c.results.len(), 6);
        for r in &c.results {
            assert!(
                r.summary.dynamic_instructions > 0,
                "{} did not execute",
                r.app.code
            );
            assert_eq!(r.summary.views.len(), 5);
            assert!(r.wall > Duration::ZERO, "{} was not timed", r.app.code);
            assert!(
                r.instructions_per_second > 0.0,
                "{} has no throughput",
                r.app.code
            );
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        // Uneven per-item cost so completion order differs from input order.
        let doubled = parallel_map(&items, Parallelism::Fixed(4), |&x| {
            if x % 7 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            x * 2
        });
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallelism_resolves_to_sane_worker_counts() {
        assert_eq!(Parallelism::Sequential.workers(58), 1);
        assert_eq!(Parallelism::Fixed(4).workers(58), 4);
        assert_eq!(Parallelism::Fixed(0).workers(58), 1, "clamped up");
        assert_eq!(Parallelism::Fixed(16).workers(6), 6, "capped at items");
        assert!(Parallelism::Auto.workers(58) >= 1);
    }

    #[test]
    fn sequential_and_parallel_campaigns_are_bit_identical() {
        let seq = Campaign::smoke(&with_par(Parallelism::Sequential));
        let par = Campaign::smoke(&with_par(Parallelism::Fixed(4)));
        assert_eq!(par.workers, 4);
        assert_eq!(seq.workers, 1);
        // PartialEq covers config, arch, mask, and every TraceSummary —
        // the summaries carry every counter the figures consume, so this
        // is the bit-identical-results guarantee of the engine.
        assert_eq!(seq, par);
    }

    #[test]
    fn run_report_totals_are_consistent() {
        let c = Campaign::smoke(&with_par(Parallelism::Fixed(2)));
        let r = c.run_report();
        assert_eq!(r.apps, 6);
        assert_eq!(r.workers, 2);
        assert!(r.wall > Duration::ZERO);
        assert!(r.serial_instructions_per_second > 0.0);
        let (code, wall) = r.slowest.expect("six apps ran");
        assert!(c
            .results
            .iter()
            .any(|x| x.app.code == code && x.wall == wall));
        assert_eq!(
            r.total_instructions,
            c.results
                .iter()
                .map(|x| x.summary.dynamic_instructions)
                .sum::<u64>()
        );
        // The report renders without panicking and mentions the app count.
        assert!(format!("{r}").contains("6 apps"));
    }

    #[test]
    fn run_report_exposes_per_app_wall_stats() {
        let c = Campaign::smoke(&with_par(Parallelism::Fixed(2)));
        let r = c.run_report();
        assert!(r.min_app_wall <= r.mean_app_wall);
        assert!(r.mean_app_wall <= r.max_app_wall);
        assert_eq!(r.max_app_wall, r.slowest.expect("apps ran").1);
        let summed: Duration = c.results.iter().map(|x| x.wall).sum();
        assert_eq!(r.mean_app_wall, summed / r.apps as u32);
        let shown = format!("{r}");
        assert!(shown.contains("per-app wall min"));
        assert!(shown.contains("slowest app"));
    }

    #[test]
    fn profiled_campaign_matches_unprofiled_and_merges_phases() {
        let mut config = GpuConfig::baseline();
        config.sms = 4;
        let apps: Vec<Application> = ["VAD", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        let plain =
            Campaign::run_with_options(config.clone(), &apps, &with_par(Parallelism::Sequential));
        let profiled = |shards: u32| {
            let sink = MetricsSink::enabled();
            let c = Campaign::run_with_options(
                config.clone(),
                &apps,
                &CampaignOptions {
                    par: Parallelism::Fixed(2),
                    sink: sink.clone(),
                    shards: ShardMode::Fixed(shards),
                    ..CampaignOptions::default()
                },
            );
            (c, sink)
        };
        let (whole, whole_sink) = profiled(1);
        let (sharded, sharded_sink) = profiled(4);
        // Profiling, worker count and shard count change nothing the
        // equality sees.
        assert_eq!(plain, whole);
        assert_eq!(plain, sharded);
        assert!(plain.merged_profile().slices.is_empty());
        assert!(plain.phase_table().is_none());
        let merged = whole.merged_profile();
        assert!(merged.is_enabled());
        assert_eq!(merged.slices.len(), 9);
        let table = whole.phase_table().expect("profiled");
        assert_eq!(table.rows.len(), 9);
        assert!(table.get("exec", "events").expect("exec row") > 0.0);
        assert!(table.get("sched", "events").expect("sched row") > 0.0);
        // Every app's slices partition its launch time exactly, and every
        // phase counts the same events whatever the shard split.
        for (a, b) in whole.results.iter().zip(&sharded.results) {
            for r in [a, b] {
                let p = &r.summary.profile;
                let sum: u64 = p.slices.iter().map(|s| s.nanos).sum();
                assert_eq!(sum, p.launch_nanos, "{}", r.app.code);
            }
            let events = |r: &AppResult| -> Vec<(Phase, u64)> {
                let slices = &r.summary.profile.slices;
                slices.iter().map(|s| (s.phase, s.events)).collect()
            };
            assert_eq!(events(a), events(b), "{}", a.app.code);
        }
        // Each run's sink holds its merged profile phase by phase, one span
        // per simulated app, the DRAM drain of the merge included.
        for (c, sink) in [(&whole, &whole_sink), (&sharded, &sharded_sink)] {
            let merged = c.merged_profile();
            let simulated = c.run_report().simulated as u64;
            assert_eq!(simulated, apps.len() as u64);
            for (s, name) in merged.slices.iter().zip(PHASE_TIMERS) {
                assert_eq!(name, format!("phase.{}", s.phase.name()));
                let timer = sink.timer(name);
                assert_eq!(sink.timer_value(timer), (s.nanos, simulated), "{name}");
            }
            let drain = merged.slice(Phase::DramDrain).expect("dram_drain");
            assert!(drain.nanos > 0, "the drain reaches the sink");
        }
    }

    #[test]
    fn heartbeat_line_reports_counts() {
        let p = Progress::new(6, "apps");
        p.started.store(5, Ordering::Relaxed);
        p.done.store(3, Ordering::Relaxed);
        p.busy.store(2, Ordering::Relaxed);
        p.instructions.store(4_000_000, Ordering::Relaxed);
        let line = p.line(Duration::from_secs(2));
        assert!(line.contains("3/6 apps done"));
        assert!(line.contains("2 busy"));
        assert!(line.contains("1 queued"));
        assert!(line.contains("4.0 M instr at 2.0 M/s"));
    }

    #[test]
    fn derived_mask_is_sparse() {
        let apps = Application::all();
        let mask = Campaign::derive_isa_mask(Architecture::Pascal, &apps);
        // Instruction encodings are 0-dominated, so the mask must be too.
        assert!(mask.count_ones() < 32, "mask too dense: {mask:#x}");
    }

    #[test]
    fn bvf_view_increases_ones_across_the_board() {
        let c = Campaign::smoke(&CampaignOptions::default());
        for r in &c.results {
            let base = r.summary.view("baseline").unit(Unit::Reg);
            let bvf = r.summary.view("bvf").unit(Unit::Reg);
            assert!(
                bvf.read_bits.one_fraction() > base.read_bits.one_fraction(),
                "{}: BVF did not raise the register 1-fraction",
                r.app.code
            );
        }
    }

    #[test]
    fn result_lookup() {
        let c = Campaign::smoke(&CampaignOptions::default());
        assert_eq!(c.result("VAD").app.code, "VAD");
        assert_eq!(c.try_result("VAD").unwrap().app.code, "VAD");
        assert!(c.try_result("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "no result for application")]
    fn missing_result_panics() {
        Campaign::smoke(&CampaignOptions::default()).result("nope");
    }

    use crate::store::testing::TempDir;

    fn store_opts(store: &Arc<ResultStore>) -> CampaignOptions {
        CampaignOptions {
            store: Some(Arc::clone(store)),
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn cached_campaign_is_bit_identical_to_fresh() {
        // Unsharded and at 2 shards (the smoke GPU's SM count): the store
        // sees one outcome per app either way.
        for n in [1, 2] {
            let dir = TempDir::new("roundtrip");
            let store = Arc::new(ResultStore::open(&dir).expect("open store"));
            let opts = CampaignOptions {
                shards: ShardMode::Fixed(n),
                ..store_opts(&store)
            };
            let cold = Campaign::smoke(&opts);
            assert_eq!((cold.cache_hits, cold.cache_misses), (0, 6), "{n} shards");
            assert!(cold.results.iter().all(|r| !r.cached));
            let warm = Campaign::smoke(&opts);
            let cold_outcomes = cold.cache_hits + cold.cache_misses;
            assert_eq!(
                (warm.cache_hits, warm.cache_misses),
                (cold_outcomes, 0),
                "{n} shards"
            );
            assert!(warm.results.iter().all(|r| r.cached));
            // The warm campaign equals both the cold one and a store-less
            // run: PartialEq compares every counter in every TraceSummary,
            // so this is the bit-identical guarantee of the persisted round
            // trip.
            assert_eq!(cold, warm);
            assert_eq!(Campaign::smoke(&CampaignOptions::default()), warm);
            let report = warm.run_report();
            assert_eq!((report.cache_hits, report.cache_misses), (6, 0));
            assert!(format!("{report}").contains("cache: 6 hits, 0 misses"));
        }
    }

    /// Cached and fresh campaigns agree at every worker count — the store
    /// must not interact with the fan-out's scheduling. Each count runs
    /// cold into a fresh store and then warm from it, so both the miss and
    /// the hit path face every parallelism.
    #[test]
    fn cached_campaigns_match_fresh_for_any_parallelism() {
        let mut config = GpuConfig::baseline();
        config.sms = 1;
        let apps: Vec<Application> = ["VAD", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        for workers in 1usize..5 {
            let dir = TempDir::new("any_parallelism");
            let store = Arc::new(ResultStore::open(&dir).expect("open store"));
            let opts = |store| CampaignOptions {
                par: Parallelism::Fixed(workers),
                store,
                ..CampaignOptions::default()
            };
            let fresh = Campaign::run_with_options(config.clone(), &apps, &opts(None));
            for hits in [0, 2] {
                let cached = Campaign::run_with_options(
                    config.clone(),
                    &apps,
                    &opts(Some(Arc::clone(&store))),
                );
                assert_eq!(cached, fresh, "{workers} workers, {hits} hits");
                assert_eq!((cached.cache_hits, cached.cache_misses), (hits, 2 - hits));
                assert!(cached.failures.is_empty());
            }
        }
    }

    #[test]
    fn corrupted_cache_entries_fall_back_to_simulation() {
        let dir = TempDir::new("corrupt");
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));
        let cold = Campaign::smoke(&store_opts(&store));
        // Vandalize every record on disk: one bad payload byte each.
        let corrupted = crate::store::testing::corrupt_records(&dir, |_| true);
        assert_eq!(corrupted, 6, "every app left one record");
        // A fresh handle (cold stats) sees only misses and re-simulates.
        let store = Arc::new(ResultStore::open(&dir).expect("reopen store"));
        let warm = Campaign::smoke(&store_opts(&store));
        assert_eq!((warm.cache_hits, warm.cache_misses), (0, 6));
        assert_eq!(cold, warm, "corruption must never change results");
        assert_eq!(store.stats().corrupt, 6);
    }

    #[test]
    fn injected_panic_surfaces_as_failure_not_abort() {
        let c = Campaign::smoke(&CampaignOptions {
            par: Parallelism::Fixed(3),
            fault: Some("BFS".to_string()),
            ..CampaignOptions::default()
        });
        assert_eq!(c.results.len(), 5, "every other app still completes");
        assert_eq!(c.failures.len(), 1);
        assert_eq!(c.failures[0].app, "BFS");
        assert!(c.failures[0].error.contains("injected fault"));
        assert!(c.try_result("BFS").is_none());
        assert_eq!(c.result("VAD").app.code, "VAD");
        let report = c.run_report();
        assert_eq!((report.apps, report.failed), (5, 1));
        assert!(format!("{report}").contains("FAILED: 1 application(s) panicked"));
    }

    #[test]
    fn cache_verification_resimulates_a_sample_and_counts_it() {
        let dir = TempDir::new("verify");
        let store = Arc::new(
            ResultStore::open(&dir)
                .expect("open store")
                .with_verify_sample(2),
        );
        let sink = MetricsSink::enabled();
        let opts = CampaignOptions {
            sink: sink.clone(),
            ..store_opts(&store)
        };
        let cold = Campaign::smoke(&opts);
        assert_eq!(cold.cache_verified, 0, "nothing to verify on a cold run");
        let warm = Campaign::smoke(&opts);
        assert_eq!((warm.cache_hits, warm.cache_verified), (6, 2));
        assert_eq!(cold, warm);
        // The sink saw the same traffic the campaign counted.
        assert_eq!(sink.counter_value(sink.counter("store.hit")), 6);
        assert_eq!(sink.counter_value(sink.counter("store.miss")), 6);
        assert_eq!(sink.counter_value(sink.counter("store.verify")), 2);
    }

    #[test]
    fn shard_mode_resolves_to_sane_counts() {
        assert_eq!(ShardMode::Off.count(8, 16), 1);
        assert_eq!(ShardMode::Auto.count(8, 16), 8, "min(workers, sms)");
        assert_eq!(ShardMode::Auto.count(32, 16), 16, "capped at sms");
        assert_eq!(ShardMode::Auto.count(1, 16), 1, "sequential pool");
        assert_eq!(ShardMode::Fixed(4).count(1, 16), 4);
        assert_eq!(ShardMode::Fixed(0).count(8, 16), 1, "clamped up");
        assert_eq!(ShardMode::Fixed(99).count(8, 2), 2, "clamped to sms");
    }

    #[test]
    fn sharded_campaigns_are_bit_identical_to_unsharded() {
        let plain = Campaign::smoke(&CampaignOptions::default());
        // The smoke GPU has 2 SMs: 2 shards per app, at several worker
        // counts (including one worker handling every shard itself).
        for workers in [1usize, 3, 7] {
            let sharded = Campaign::smoke(&CampaignOptions {
                par: Parallelism::Fixed(workers),
                shards: ShardMode::Fixed(2),
                ..CampaignOptions::default()
            });
            assert_eq!(sharded.shards, 2);
            assert!(sharded.results.iter().all(|r| r.shards == 2));
            assert_eq!(plain, sharded, "sharded run diverged at {workers} workers");
        }
        // Auto resolves against the pool and stays bit-identical too.
        let auto = Campaign::smoke(&CampaignOptions {
            par: Parallelism::Fixed(4),
            shards: ShardMode::Auto,
            ..CampaignOptions::default()
        });
        assert_eq!(auto.shards, 2, "min(4 workers, 2 sms)");
        assert_eq!(plain, auto);
    }

    #[test]
    fn an_interrupted_sharded_campaign_resumes_per_app() {
        let opts = |store| CampaignOptions {
            par: Parallelism::Fixed(2),
            shards: ShardMode::Fixed(2),
            store: Some(store),
            ..CampaignOptions::default()
        };
        let dir = TempDir::new("shard_resume");
        let cold = Campaign::smoke(&opts(Arc::new(ResultStore::open(&dir).expect("open"))));
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 6));
        // Each app left one record, its merged whole-app summary, and no
        // shard of its own.
        let [segment] = &crate::store::testing::segments(&dir)[..] else {
            panic!("one writing handle, one segment")
        };
        let bytes = std::fs::read(segment).expect("read segment");
        let records = crate::store::testing::records(&bytes);
        assert_eq!(records.len(), 6);
        let key = |code| ResultStore::key(&cold.config, cold.arch, cold.isa_mask, code);

        // An interrupted campaign: the segment cut after k records. The
        // re-run reads the k saved apps and re-simulates the rest.
        for k in 1..6 {
            let dir = TempDir::new("shard_resume_cut");
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join("cut.bvfl"), &bytes[..records[k - 1].1.end]).expect("cut");
            let saved: Vec<u64> = records[..k].iter().map(|&(key, _)| key).collect();
            let store = Arc::new(ResultStore::open(&dir).expect("reopen store"));
            let resumed = Campaign::smoke(&opts(Arc::clone(&store)));
            assert_eq!((resumed.cache_hits, resumed.cache_misses), (k, 6 - k));
            assert_eq!(cold, resumed, "resume must be bit-identical");
            for r in &resumed.results {
                assert_eq!(r.cached, saved.contains(&key(r.app.code)), "{}", r.app.code);
            }
            let warm = Campaign::smoke(&opts(store));
            assert_eq!((warm.cache_hits, warm.cache_misses), (6, 0));
            assert!(warm.results.iter().all(|r| r.cached));
            assert_eq!(cold, warm);
        }
    }

    #[test]
    fn sharded_campaign_saves_the_merged_summary_for_unsharded_runs() {
        let dir = TempDir::new("shard_to_whole");
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));
        let sharded = Campaign::smoke(&CampaignOptions {
            shards: ShardMode::Fixed(2),
            store: Some(Arc::clone(&store)),
            ..CampaignOptions::default()
        });
        // A subsequent UNSHARDED campaign hits the whole-app keys the
        // sharded run saved after merging.
        let unsharded = Campaign::smoke(&store_opts(&store));
        assert_eq!((unsharded.cache_hits, unsharded.cache_misses), (6, 0));
        assert_eq!(sharded, unsharded);
    }

    #[test]
    fn a_differently_sharded_run_hits_every_whole_app_entry() {
        let dir = TempDir::new("reshard");
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));
        let mut config = GpuConfig::baseline();
        config.sms = 4;
        let apps: Vec<Application> = ["VAD", "BFS", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        let run = |n| {
            let opts = CampaignOptions {
                par: Parallelism::Fixed(2),
                shards: ShardMode::Fixed(n),
                ..store_opts(&store)
            };
            Campaign::run_with_options(config.clone(), &apps, &opts)
        };
        let two = run(2);
        assert_eq!((two.cache_hits, two.cache_misses), (0, 3));
        let before = store.stats();
        let four = run(4);
        assert_eq!(four.shards, 4);
        assert_eq!((four.cache_hits, four.cache_misses), (3, 0));
        assert!(four.results.iter().all(|r| r.cached), "nothing simulated");
        let after = store.stats();
        // One whole-app load per app and nothing else.
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (3, 0)
        );
        assert_eq!(four, two);
    }

    #[test]
    fn in_memory_reuse_is_exact_and_keeps_whole_app_entries_only() {
        let store = Arc::new(ResultStore::in_memory());
        let first = Campaign::smoke(&store_opts(&store));
        assert_eq!((first.cache_hits, first.cache_misses), (0, 6));
        let second = Campaign::smoke(&store_opts(&store));
        assert_eq!((second.cache_hits, second.cache_misses), (6, 0));
        assert!(second.results.iter().all(|r| r.cached));
        assert_eq!(second, Campaign::smoke(&CampaignOptions::default()));
        // A hit is the first run's summary itself, not a copy.
        for (a, b) in first.results.iter().zip(&second.results) {
            assert!(Arc::ptr_eq(&a.summary, &b.summary), "{}", a.app.code);
        }
        // Cached results time nothing in this campaign.
        let profiled = CampaignOptions {
            sink: MetricsSink::enabled(),
            ..store_opts(&store)
        };
        assert!(!Campaign::smoke(&profiled).merged_profile().is_enabled());

        // A sharded run leaves one merged entry per app.
        let store = Arc::new(ResultStore::in_memory());
        let sharded = CampaignOptions {
            shards: ShardMode::Fixed(2),
            ..store_opts(&store)
        };
        let cold = Campaign::smoke(&sharded);
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 6));
        assert_eq!(store.stats().writes, 6, "whole-app summaries only");
        let warm = Campaign::smoke(&sharded);
        assert_eq!((warm.cache_hits, warm.cache_misses), (6, 0));
        assert_eq!(warm, cold);
    }

    /// Check that a run under `collect` equals the Full run cut to
    /// `collect`'s views by [`cut`], unsharded and at 4 shards, on LRR,
    /// P100, the baseline, K80 and one SM.
    fn assert_runs_equal_the_full_run_cut(collect: Collection) {
        let apps: Vec<Application> = ["VAD", "BFS", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        let mut lrr = GpuConfig::baseline();
        lrr.scheduler = bvf_gpu::SchedulerKind::Lrr;
        // One SM, like a `bvf-serve` request's configuration.
        let mut one_sm = GpuConfig::baseline();
        one_sm.sms = 1;
        let configs = [
            lrr,
            GpuConfig::tesla_p100(),
            GpuConfig::baseline(),
            GpuConfig::tesla_k80(),
            one_sm,
        ];
        for config in configs {
            let full =
                Campaign::run_with_options(config.clone(), &apps, &CampaignOptions::default());
            for n in [1, 4] {
                let run = Campaign::run_with_options(
                    config.clone(),
                    &apps,
                    &CampaignOptions {
                        par: Parallelism::Fixed(2),
                        shards: ShardMode::Fixed(n),
                        collect,
                        ..CampaignOptions::default()
                    },
                );
                let what = format!("{collect:?} on {} ({} SMs)", config.name, config.sms);
                assert_eq!(run.shards, n.min(config.sms), "{what}");
                assert_eq!(run.results.len(), apps.len(), "{what}");
                let views = collect.views(full.isa_mask);
                for (r, f) in run.results.iter().zip(&full.results) {
                    let expected = cut(&f.summary, &views).expect("full holds every view");
                    assert_eq!(*r.summary, expected, "{} {what} at {n} shards", r.app.code);
                }
            }
        }
    }

    #[test]
    fn an_energy_run_equals_the_energy_part_of_a_full_run() {
        assert_runs_equal_the_full_run_cut(Collection::Energy);
    }

    #[test]
    fn a_timing_run_equals_the_timing_part_of_a_full_run() {
        assert_runs_equal_the_full_run_cut(Collection::Timing);
    }

    const COLLECTIONS: [Collection; 3] = [Collection::Full, Collection::Energy, Collection::Timing];

    /// Check each `(writer, reader)` pair of collections on an in-memory
    /// store and a 2-shard disk store: the reader hits exactly when the
    /// writer's views include its own, a miss overwrites the entry so the
    /// next read hits, and every result equals a fresh run.
    fn assert_stored_entries_answer(pairs: impl IntoIterator<Item = (Collection, Collection)>) {
        let fresh = COLLECTIONS.map(|collect| {
            Campaign::smoke(&CampaignOptions {
                collect,
                ..CampaignOptions::default()
            })
        });
        let fresh_of = |collect| {
            let i = COLLECTIONS.iter().position(|c| *c == collect);
            &fresh[i.expect("a listed collection")]
        };
        let isa_mask = fresh[0].isa_mask;
        let holds = |writer: Collection, reader: Collection| {
            let written = writer.views(isa_mask);
            reader.views(isa_mask).iter().all(|v| written.contains(v))
        };
        let pairs: Vec<_> = pairs.into_iter().collect();
        for (disk, n) in [(false, 1), (true, 2)] {
            for &(writer, reader) in &pairs {
                let what = format!("{writer:?} then {reader:?}, disk {disk}");
                let dir = TempDir::new("collections");
                let store = Arc::new(if disk {
                    ResultStore::open(&dir).expect("open store")
                } else {
                    ResultStore::in_memory()
                });
                let run = |collect| {
                    Campaign::smoke(&CampaignOptions {
                        shards: ShardMode::Fixed(n),
                        collect,
                        ..store_opts(&store)
                    })
                };
                let written = run(writer);
                assert_eq!(written, *fresh_of(writer), "{what}");
                let read = run(reader);
                let expected = if holds(writer, reader) {
                    (6, 0)
                } else {
                    (0, 6)
                };
                assert_eq!((read.cache_hits, read.cache_misses), expected, "{what}");
                assert_eq!(read, *fresh_of(reader), "{what}");
                // An exact match is the stored summary itself.
                if !disk && writer == reader {
                    for (a, b) in written.results.iter().zip(&read.results) {
                        assert!(Arc::ptr_eq(&a.summary, &b.summary), "{what}");
                    }
                }
                // A miss overwrote the entry, so the reader now hits.
                let warm = run(reader);
                assert_eq!((warm.cache_hits, warm.cache_misses), (6, 0), "{what}");
                assert_eq!(warm, *fresh_of(reader), "{what}");
            }
        }
    }

    #[test]
    fn a_stored_entry_answers_every_collection_whose_views_it_holds() {
        assert_stored_entries_answer(
            COLLECTIONS
                .into_iter()
                .flat_map(|w| COLLECTIONS.into_iter().map(move |r| (w, r))),
        );
    }

    #[test]
    fn timing_reads_full_entries_and_full_never_reads_timing_ones() {
        assert_stored_entries_answer([
            (Collection::Full, Collection::Timing),
            (Collection::Timing, Collection::Full),
        ]);
    }

    #[test]
    fn run_report_rates_count_simulated_results_only() {
        let store = Arc::new(ResultStore::in_memory());
        let mut config = GpuConfig::baseline();
        config.sms = 2;
        let apps = |codes: &[&str]| -> Vec<Application> {
            codes
                .iter()
                .map(|c| Application::by_code(c).expect("app"))
                .collect()
        };
        let opts = CampaignOptions {
            par: Parallelism::Sequential,
            ..store_opts(&store)
        };
        Campaign::run_with_options(config.clone(), &apps(&["SGE"]), &opts);
        // SGE is a hit, VAD simulates: only VAD's instructions and wall
        // make the rates, though the total counts both.
        let mixed = Campaign::run_with_options(config.clone(), &apps(&["VAD", "SGE"]), &opts);
        let report = mixed.run_report();
        let vad = mixed.result("VAD");
        assert!(mixed.result("SGE").cached && !vad.cached);
        assert_eq!(report.simulated, 1);
        assert_eq!(
            report.total_instructions,
            vad.summary.dynamic_instructions + mixed.result("SGE").summary.dynamic_instructions
        );
        let vad_rate = vad.summary.dynamic_instructions as f64 / vad.wall.as_secs_f64();
        assert_eq!(report.serial_instructions_per_second, vad_rate);
        assert!(
            report.instructions_per_second <= vad_rate,
            "the campaign wall covers VAD's"
        );
        // An all-hit campaign simulated nothing and shows no rate.
        let warm = Campaign::run_with_options(config, &apps(&["VAD", "SGE"]), &opts);
        let report = warm.run_report();
        assert_eq!(report.simulated, 0);
        assert_eq!(report.instructions_per_second, 0.0);
        assert_eq!(report.serial_instructions_per_second, 0.0);
        let text = format!("{report}");
        assert!(!text.contains("instr/s"), "{text}");
        assert!(text.contains("cache: 2 hits, 0 misses"), "{text}");
    }

    /// Four members on 2-SM configurations: energy LRR, P100 and K80 and
    /// a full GTO, with `collect` and `trace_label` set per member.
    fn set_members(base: &CampaignOptions) -> Vec<(GpuConfig, CampaignOptions)> {
        let mut lrr = GpuConfig::baseline();
        lrr.scheduler = bvf_gpu::SchedulerKind::Lrr;
        [
            ("lrr", lrr, Collection::Energy),
            ("p100", GpuConfig::tesla_p100(), Collection::Energy),
            ("k80", GpuConfig::tesla_k80(), Collection::Energy),
            ("gto", GpuConfig::baseline(), Collection::Full),
        ]
        .into_iter()
        .map(|(label, mut config, collect)| {
            config.sms = 2;
            let opts = CampaignOptions {
                trace_label: label.to_string(),
                collect,
                ..base.clone()
            };
            (config, opts)
        })
        .collect()
    }

    #[test]
    fn a_set_equals_its_members_run_alone() {
        let apps: Vec<Application> = ["VAD", "BFS", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        // Every combination of shards, workers and store, half of them
        // with a fault: each of the three settings meets the fault both
        // ways.
        for (shards, workers, stored, fault) in (0..8usize).map(|k| {
            let fault = (k.count_ones() % 2 == 1).then(|| "BFS".to_string());
            ([1, 4][k & 1], [1, 3][(k >> 1) & 1], k & 4 != 0, fault)
        }) {
            let base = |store: Option<Arc<ResultStore>>| CampaignOptions {
                par: Parallelism::Fixed(workers),
                shards: ShardMode::Fixed(shards),
                store,
                fault: fault.clone(),
                ..CampaignOptions::default()
            };
            let new_store = || stored.then(|| Arc::new(ResultStore::in_memory()));
            let (set_store, alone_store) = (new_store(), new_store());
            // Cold, then warm from the same stores when there are stores.
            for pass in 0..if stored { 2 } else { 1 } {
                let case = format!(
                    "{shards} shards, {workers} workers, store {stored}, fault {fault:?}, pass {pass}"
                );
                let set = Campaign::run_set(&apps, &set_members(&base(set_store.clone())));
                assert_eq!(set.len(), 4);
                for (c, (config, opts)) in set.iter().zip(set_members(&base(alone_store.clone()))) {
                    let alone = Campaign::run_with_options(config, &apps, &opts);
                    assert_eq!(*c, alone, "{case}: {}", c.config.name);
                    assert_eq!(
                        (c.cache_hits, c.cache_misses, c.cache_verified, c.shards),
                        (
                            alone.cache_hits,
                            alone.cache_misses,
                            alone.cache_verified,
                            alone.shards
                        ),
                        "{case}: {}",
                        c.config.name
                    );
                    assert_eq!((c.set_size, alone.set_size), (4, 1));
                    assert_eq!(c.wall, set[0].wall, "members share the set's wall");
                }
                if let (Some(a), Some(b)) = (&set_store, &alone_store) {
                    let (a, b) = (a.stats(), b.stats());
                    assert_eq!(
                        (a.hits, a.misses, a.writes),
                        (b.hits, b.misses, b.writes),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_set_prepares_each_apps_inputs_once_per_worker() {
        let apps: Vec<Application> = ["VAD", "BFS", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        // The four members, all collecting the energy pair.
        let members: Vec<_> = set_members(&with_par(Parallelism::Sequential))
            .into_iter()
            .map(|(config, opts)| {
                let opts = CampaignOptions {
                    collect: Collection::Energy,
                    ..opts
                };
                (config, opts)
            })
            .collect();
        // Each arm on a fresh thread: the image memo starts empty.
        let on_fresh_thread = |f: &(dyn Fn() -> Vec<Campaign> + Sync)| {
            std::thread::scope(|s| s.spawn(f).join()).expect("campaign thread")
        };
        let set = on_fresh_thread(&|| Campaign::run_set(&apps, &members));
        let alone = on_fresh_thread(&|| {
            members
                .iter()
                .map(|(config, opts)| Campaign::run_with_options(config.clone(), &apps, opts))
                .collect()
        });
        let generations =
            |cs: &[Campaign]| cs.iter().map(|c| c.input_generations).collect::<Vec<_>>();
        // The first member's unit of each app generates its image; every
        // later member's unit of it reuses the image.
        assert_eq!(generations(&set), [3, 0, 0, 0]);
        assert_eq!(generations(&alone), [3, 3, 3, 3]);
        assert_eq!(set, alone);
        let report = format!("{}", set[1].run_report());
        assert!(
            report.contains("the wall of its set of 4 campaigns"),
            "{report}"
        );
        assert!(report.contains(", 0 input images generated"), "{report}");
    }

    #[test]
    #[should_panic(expected = "campaign set members may differ only in")]
    fn a_set_rejects_members_whose_shared_options_differ() {
        let apps = vec![Application::by_code("VAD").expect("app")];
        let mut members = set_members(&CampaignOptions::default());
        members[1].1.shards = ShardMode::Fixed(2);
        Campaign::run_set(&apps, &members);
    }

    #[test]
    fn sharded_failures_collapse_to_one_per_app_in_registry_order() {
        // Fail BFS: both of its shards panic, but the campaign must report
        // exactly one failure, in registry position, regardless of worker
        // count or the longest-first queue permutation.
        for workers in [1usize, 4] {
            let c = Campaign::smoke(&CampaignOptions {
                par: Parallelism::Fixed(workers),
                shards: ShardMode::Fixed(2),
                fault: Some("BFS".to_string()),
                ..CampaignOptions::default()
            });
            assert_eq!(c.results.len(), 5, "every other app still completes");
            assert_eq!(c.failures.len(), 1, "one failure per failed app");
            assert_eq!(c.failures[0].app, "BFS");
            assert!(c.failures[0].error.contains("injected fault"));
            assert!(c.try_result("BFS").is_none());
            // And the failing sharded campaign equals the failing
            // unsharded one — failures included.
            let plain = Campaign::smoke(&CampaignOptions {
                par: Parallelism::Fixed(workers),
                fault: Some("BFS".to_string()),
                ..CampaignOptions::default()
            });
            assert_eq!(plain, c);
        }
    }

    #[test]
    fn sharded_run_report_exposes_the_shorter_tail() {
        let c = Campaign::smoke(&CampaignOptions {
            par: Parallelism::Fixed(2),
            shards: ShardMode::Fixed(2),
            ..CampaignOptions::default()
        });
        let r = c.run_report();
        assert_eq!(r.shards, 2);
        assert!(r.max_item_wall > Duration::ZERO);
        assert!(
            r.max_item_wall <= r.max_app_wall,
            "one shard can never outlast its whole app"
        );
        assert!(format!("{r}").contains("sharded 2 per app"));
        let plain = Campaign::smoke(&with_par(Parallelism::Fixed(2))).run_report();
        assert_eq!(plain.shards, 1);
        assert_eq!(plain.max_item_wall, plain.max_app_wall);
    }

    #[test]
    fn heartbeat_line_counts_shards_when_sharding() {
        let p = Progress::new(12, "shards");
        p.started.store(9, Ordering::Relaxed);
        p.done.store(6, Ordering::Relaxed);
        p.busy.store(3, Ordering::Relaxed);
        let line = p.line(Duration::from_secs(1));
        assert!(line.contains("6/12 shards done"));
        assert!(line.contains("3 queued"));
    }

    #[test]
    fn cache_verification_catches_a_stale_entry() {
        let dir = TempDir::new("verify_stale");
        let store = Arc::new(
            ResultStore::open(&dir)
                .expect("open store")
                .with_verify_sample(6),
        );
        let cold = Campaign::smoke(&store_opts(&store));
        // Plant a stale entry: VAD's key now stores BLA's (validly encoded,
        // wrong) summary — exactly what a simulator change without a
        // STORE_FORMAT_VERSION bump would leave behind.
        let key = ResultStore::key(&cold.config, cold.arch, cold.isa_mask, "VAD");
        store.save(key, "VAD", &cold.result("BLA").summary);
        let warm = Campaign::smoke(&store_opts(&store));
        assert_eq!(warm.failures.len(), 1);
        assert_eq!(warm.failures[0].app, "VAD");
        assert!(warm.failures[0].error.contains("cache verification failed"));
        assert_eq!(warm.results.len(), 5, "other apps are unaffected");
    }

    #[test]
    fn eta_appears_once_items_complete_and_never_before() {
        let p = Progress::new(8, "apps");
        assert!(p.eta(0, 1).is_none(), "no ETA before the first completion");
        p.item_wall_nanos.store(4_000_000_000, Ordering::Relaxed);
        p.done.store(4, Ordering::Relaxed);
        p.busy.store(2, Ordering::Relaxed);
        // Mean 1 s per item, 4 remaining, 2 busy workers → 2 s.
        assert_eq!(p.eta(4, 2), Some(Duration::from_secs(2)));
        let line = p.line(Duration::from_secs(1));
        assert!(line.contains("~2.0s left"), "line: {line}");
        assert!(p.eta(8, 2).is_none(), "no ETA once the queue is drained");
        // A sequential pool (busy can read 0 between items) must not
        // divide by zero.
        assert_eq!(p.eta(4, 0), Some(Duration::from_secs(4)));
    }

    /// Run the smoke campaign with tracing on; return the scrubbed trace
    /// and the campaign.
    fn scrubbed_smoke(
        par: Parallelism,
        shards: ShardMode,
        fault: Option<&str>,
    ) -> (String, Campaign, TraceSink) {
        let tracer = TraceSink::enabled();
        let opts = CampaignOptions {
            par,
            shards,
            tracer: tracer.clone(),
            trace_label: "test".to_string(),
            sink: MetricsSink::enabled(),
            fault: fault.map(str::to_string),
            ..CampaignOptions::default()
        };
        let c = Campaign::smoke(&opts);
        let text = bvf_obs::trace::export_chrome(&tracer.events(), tracer.dropped());
        let scrubbed = bvf_obs::trace::scrub_chrome(&text).expect("trace parses");
        (scrubbed, c, tracer)
    }

    #[test]
    fn scrubbed_traces_are_identical_across_jobs_and_shards() {
        let (base, c1, _) = scrubbed_smoke(Parallelism::Sequential, ShardMode::Off, None);
        assert!(base.contains("campaign:test"), "campaign root missing");
        assert!(base.contains("app:SGE"), "app spans missing");
        assert!(base.contains("phase:"), "phase spans missing");
        for (par, shards) in [
            (Parallelism::Fixed(4), ShardMode::Off),
            (Parallelism::Fixed(4), ShardMode::Auto),
            (Parallelism::Sequential, ShardMode::Fixed(2)),
        ] {
            let (scrubbed, c, _) = scrubbed_smoke(par, shards, None);
            assert_eq!(
                scrubbed, base,
                "scrubbed trace differs for {par:?}/{shards:?}"
            );
            for (a, b) in c1.results.iter().zip(&c.results) {
                assert_eq!(
                    a.summary, b.summary,
                    "results differ for {par:?}/{shards:?}"
                );
            }
        }
    }

    #[test]
    fn panicking_worker_still_yields_a_deterministic_trace() {
        let (base, c, _) = scrubbed_smoke(Parallelism::Fixed(4), ShardMode::Off, Some("BFS"));
        assert_eq!(c.failures.len(), 1, "the fault must surface as a failure");
        assert!(
            base.contains(r#""failed":1"#),
            "failed app span missing from scrubbed trace: {base}"
        );
        let (other, _, _) = scrubbed_smoke(Parallelism::Sequential, ShardMode::Auto, Some("BFS"));
        assert_eq!(other, base, "panic runs must scrub identically too");
    }

    #[test]
    fn each_unit_traces_one_launch_with_its_phases() {
        for shards in [1u32, 2] {
            let store = Arc::new(ResultStore::in_memory().with_verify_sample(1));
            let tracer = TraceSink::enabled();
            let run = |label: &str| {
                Campaign::smoke(&CampaignOptions {
                    par: Parallelism::Sequential,
                    shards: ShardMode::Fixed(shards),
                    store: Some(Arc::clone(&store)),
                    sink: MetricsSink::enabled(),
                    tracer: tracer.clone(),
                    trace_label: label.to_string(),
                    ..CampaignOptions::default()
                })
            };
            let cold = run("cold");
            let warm = run("warm");
            assert_eq!((warm.cache_hits, warm.cache_verified), (6, 1));
            let events = tracer.events();
            let launches: Vec<&bvf_obs::TraceEvent> = events
                .iter()
                .filter(|e| e.name().starts_with("launch:"))
                .collect();
            assert!(launches
                .iter()
                .all(|e| e.cat == "gpu" && e.name() == "launch:0"));
            for r in &cold.results {
                // Exactly one launch per unit, and together they issued
                // the app's instructions.
                let mut instructions = 0;
                for s in 0..shards {
                    let path = format!("campaign:cold/app:{}/shard:{s}/launch:0", r.app.code);
                    let mine: Vec<_> = launches.iter().filter(|e| e.path == path).collect();
                    assert_eq!(mine.len(), 1, "{path}");
                    let args: HashMap<_, _> = mine[0].args.iter().copied().collect();
                    instructions += args["instructions"];
                }
                assert_eq!(
                    instructions, r.summary.dynamic_instructions,
                    "{}",
                    r.app.code
                );
            }
            // Each launch's phase children fit inside it.
            for l in &launches {
                let prefix = format!("{}/phase:", l.path);
                let phases = events.iter().filter(|e| e.path.starts_with(&prefix));
                let nanos: u64 = phases.map(|e| e.dur_ns).sum();
                assert!(nanos > 0 && nanos <= l.dur_ns, "{}", l.path);
            }
            // The warm run simulated only its verification, under the
            // consult item's `verify` scope.
            let warm_launches: Vec<&str> = launches
                .iter()
                .map(|e| e.path.as_str())
                .filter(|p| p.starts_with("campaign:warm/"))
                .collect();
            assert_eq!(warm_launches.len(), 1, "{warm_launches:?}");
            assert!(warm_launches[0].ends_with("/consult/verify/launch:0"));
            assert_eq!(launches.len(), cold.results.len() * shards as usize + 1);
        }
    }

    /// A deterministic stand-in for the tracing-overhead timing gate: a
    /// traced campaign records a fixed handful of spans per work item —
    /// the item itself, its launch and the launch's phases, at most one
    /// store operation (a consult's load, or the whole-app save of the
    /// unit that merged its app) and the merge — plus one
    /// span per app and per campaign at assembly (an app's phase spans fit
    /// in its items' slack). Every span takes the sink's lock once, so the
    /// lock is taken a number of times bounded by work items, never by
    /// simulated instructions: a span per CTA or per phase event exceeds
    /// the bound.
    #[test]
    fn trace_volume_is_bounded_by_work_items() {
        const PER_ITEM: usize = 1 + 1 + Phase::ALL.len() + 1 + 1;
        for shards in [1u32, 2] {
            let store = Arc::new(ResultStore::in_memory());
            let tracer = TraceSink::enabled();
            let run = |label: &str| {
                Campaign::smoke(&CampaignOptions {
                    par: Parallelism::Sequential,
                    shards: ShardMode::Fixed(shards),
                    store: Some(Arc::clone(&store)),
                    sink: MetricsSink::enabled(),
                    tracer: tracer.clone(),
                    trace_label: label.to_string(),
                    ..CampaignOptions::default()
                })
            };
            let cold = run("cold");
            let warm = run("warm");
            assert_eq!(warm.cache_hits, cold.results.len());
            let events = tracer.events();
            // A work item's span is the `sched` child of its app's span.
            let items: Vec<&bvf_obs::TraceEvent> = events
                .iter()
                .filter(|e| e.cat == "sched" && e.path.split('/').count() == 3)
                .collect();
            // A consult per app in both runs, and every shard of a cold app.
            let apps = cold.results.len();
            assert_eq!(items.len(), 2 * apps + apps * shards as usize);
            for item in &items {
                let prefix = format!("{}/", item.path);
                let own = 1 + events
                    .iter()
                    .filter(|e| e.path.starts_with(&prefix))
                    .count();
                assert!(own <= PER_ITEM, "{}: {own} spans", item.path);
            }
            let bound = PER_ITEM * items.len() + (apps + warm.results.len()) + 2;
            assert!(
                events.len() <= bound,
                "{} spans for {} work items at {shards} shards (bound {bound})",
                events.len(),
                items.len()
            );
        }
    }

    /// A sharded unit reads nothing from the store, on either backend: the
    /// only store span under a `shard:` item is the whole-app save of the
    /// unit that merged its app.
    #[test]
    fn a_sharded_unit_saves_only_its_merged_app_on_either_backend() {
        let dir = TempDir::new("shard_spans");
        let stores = [
            ResultStore::in_memory(),
            ResultStore::open(&dir).expect("open store"),
        ];
        for store in stores {
            let on_disk = store.root().is_some();
            let tracer = TraceSink::enabled();
            let cold = Campaign::smoke(&CampaignOptions {
                par: Parallelism::Fixed(2),
                shards: ShardMode::Fixed(2),
                store: Some(Arc::new(store)),
                tracer: tracer.clone(),
                ..CampaignOptions::default()
            });
            let apps = cold.results.len();
            assert_eq!((cold.cache_hits, cold.cache_misses), (0, apps));
            let store_spans: Vec<String> = tracer
                .events()
                .into_iter()
                .filter(|e| e.cat == "store" && e.path.contains("/shard:"))
                .map(|e| e.path)
                .collect();
            assert_eq!(
                store_spans.len(),
                apps,
                "on disk: {on_disk}, {store_spans:?}"
            );
            assert!(
                store_spans.iter().all(|p| p.ends_with("/store:save")),
                "{store_spans:?}"
            );
            let saved: std::collections::BTreeSet<&str> = store_spans
                .iter()
                .filter_map(|p| crate::trace_report::TraceReport::app_of(p))
                .collect();
            assert_eq!(saved.len(), apps, "one save per app: {store_spans:?}");
        }
    }

    #[test]
    fn sharded_trace_report_reads_the_merge_from_the_blocking_item() {
        let (_, c, tracer) = scrubbed_smoke(Parallelism::Fixed(2), ShardMode::Fixed(2), None);
        assert_eq!(c.shards, 2);
        let reports = crate::trace_report::TraceReport::from_events(&tracer.events());
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.rows_total_ns(), r.wall_ns);
        // The unit that finishes last is its app's last unit, so it merged.
        let merge = r.rows.iter().find(|x| x.label == "merge + DRAM replay");
        assert!(merge.expect("merge row").nanos > 0, "{r}");
        // Every app was merged exactly once, inside one of its items.
        let merges: Vec<String> = tracer
            .events()
            .into_iter()
            .filter(|e| e.name() == "merge")
            .map(|e| e.path)
            .collect();
        assert_eq!(merges.len(), 6, "{merges:?}");
        assert!(merges.iter().all(|p| p.contains("/shard:")));
    }

    #[test]
    fn trace_report_accounts_for_the_campaign_wall() {
        let (_, c, tracer) = scrubbed_smoke(Parallelism::Sequential, ShardMode::Off, None);
        let reports = crate::trace_report::TraceReport::from_events(&tracer.events());
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        // The rows partition the campaign span exactly…
        assert_eq!(r.rows_total_ns(), r.wall_ns);
        // …and the span tracks the measured campaign wall to within 1%
        // (the span additionally covers result assembly, which for an
        // unsharded sequential run is microseconds).
        let wall_ns = c.wall.as_nanos() as u64;
        assert!(r.wall_ns >= wall_ns, "span cannot be shorter than the wall");
        assert!(
            (r.wall_ns - wall_ns) as f64 <= 0.01 * wall_ns as f64,
            "span {} vs wall {wall_ns}: assembly tail exceeds 1%",
            r.wall_ns
        );
        // The analyzer's slowest item is the run report's slowest app.
        let slowest_app = c
            .results
            .iter()
            .max_by_key(|x| x.wall)
            .map(|x| x.app.code)
            .unwrap();
        assert_eq!(c.max_item_wall, c.result(slowest_app).wall);
        let (path, ns) = r.slowest_item.as_ref().expect("items were traced");
        assert_eq!(
            crate::trace_report::TraceReport::app_of(path),
            Some(slowest_app)
        );
        // The traced duration and the measured wall bracket the same work.
        let measured = c.max_item_wall.as_nanos() as u64;
        assert!(*ns >= measured, "item span contains the simulate call");
    }
}
