//! Application descriptors: kernel template + data profiles + launch shape.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use bvf_gpu::{GlobalMemory, Gpu, LaunchShard, TraceSummary};
use bvf_isa::ir::{BufferId, Kernel, LaunchConfig};

use crate::data::DataProfile;
use crate::kernels;

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia heterogeneous-computing suite.
    Rodinia,
    /// Parboil throughput-computing suite.
    Parboil,
    /// NVIDIA CUDA SDK samples.
    CudaSdk,
    /// SHOC scalable heterogeneous computing suite.
    Shoc,
    /// Lonestar irregular-algorithms suite.
    Lonestar,
    /// PolyBench/GPU linear-algebra kernels.
    Polybench,
    /// Workloads shipped with GPGPU-Sim.
    GpgpuSim,
}

/// The paper's memory- vs compute-intensity classification (Fig. 18/19:
/// memory-intensive applications save more chip energy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Dominated by memory-hierarchy and NoC traffic.
    MemoryIntensive,
    /// Dominated by execution-unit work.
    ComputeIntensive,
    /// In between.
    Balanced,
}

/// Which kernel template an application instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Streaming map (`kernels::streaming`).
    Streaming {
        /// Extra FFMA iterations per element.
        compute: u32,
    },
    /// 1-D stencil (`kernels::stencil`).
    Stencil {
        /// Extra FFMA iterations per element.
        compute: u32,
    },
    /// Index-driven gather (`kernels::gather`).
    Gather {
        /// Pointer-chase depth.
        hops: u32,
    },
    /// Strided, uncoalesced copy (`kernels::strided`).
    Strided {
        /// Element stride between consecutive lanes.
        stride: u32,
    },
    /// Shared-memory tree reduction (`kernels::reduction`).
    Reduction,
    /// Tiled inner product (`kernels::matmul`).
    Matmul {
        /// Inner-product length.
        k: u32,
    },
    /// Texture filtering (`kernels::texture_filter`).
    Texture {
        /// Filter taps.
        taps: u32,
    },
    /// Data-dependent branching (`kernels::divergent`).
    Divergent {
        /// Then-arm compute iterations.
        compute: u32,
    },
    /// Pure compute (`kernels::compute_bound`).
    ComputeBound {
        /// FFMA-tower iterations.
        iters: u32,
    },
    /// Shared-memory histogram (`kernels::histogram`).
    Histogram {
        /// Number of bins.
        bins: u32,
    },
}

/// One of the 58 evaluated applications.
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Three-letter code used across the paper's figures.
    pub code: &'static str,
    /// Long name of the application this one stands in for.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Memory/compute classification.
    pub class: AppClass,
    /// Kernel template.
    pub template: Template,
    /// Value distribution of the primary input buffer.
    pub input: DataProfile,
}

impl Application {
    /// All 58 applications, in suite order (see [`crate::suite`]).
    pub fn all() -> Vec<Application> {
        crate::suite::all()
    }

    /// Look up an application by its three-letter code.
    pub fn by_code(code: &str) -> Option<Application> {
        Self::all().into_iter().find(|a| a.code == code)
    }

    /// Deterministic per-app data seed.
    fn seed(&self) -> u64 {
        self.code.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// Problem size (words in the primary buffer), by class.
    pub fn problem_words(&self) -> usize {
        match self.class {
            AppClass::MemoryIntensive => 16 * 1024,
            AppClass::Balanced => 8 * 1024,
            AppClass::ComputeIntensive => 4 * 1024,
        }
    }

    /// Launch geometry, by class.
    pub fn launch_config(&self) -> LaunchConfig {
        match self.class {
            AppClass::MemoryIntensive => LaunchConfig::new(24, 128),
            AppClass::Balanced => LaunchConfig::new(16, 128),
            AppClass::ComputeIntensive => LaunchConfig::new(12, 128),
        }
    }

    /// Build the kernel for this application.
    pub fn kernel(&self) -> Kernel {
        let mut k = match self.template {
            Template::Streaming { compute } => kernels::streaming(compute),
            Template::Stencil { compute } => kernels::stencil(compute),
            Template::Gather { hops } => kernels::gather(hops),
            Template::Strided { stride } => kernels::strided(stride),
            Template::Reduction => kernels::reduction(),
            Template::Matmul { k } => kernels::matmul(k),
            Template::Texture { taps } => kernels::texture_filter(taps),
            Template::Divergent { compute } => kernels::divergent(compute),
            Template::ComputeBound { iters } => kernels::compute_bound(iters),
            Template::Histogram { bins } => kernels::histogram(bins),
        };
        k.name = format!("{}::{}", self.code, k.name);
        k
    }

    /// Register this application's buffers in `gpu`'s global memory.
    ///
    /// The image is a pure function of the application, so each thread
    /// keeps the last one it built: preparing the same application again
    /// on a fresh memory (its next shard, or its next campaign) installs a
    /// copy-on-write clone of that image instead of regenerating the data.
    /// Launches never write through to the kept image, since each store
    /// copies the buffer it hits. A GPU whose memory already holds buffers
    /// bypasses the memo. Every generation, and no memo hit, counts in
    /// [`input_generations`].
    ///
    /// # Panics
    ///
    /// Panics if the GPU already has buffers registered under the ids this
    /// application uses (run each app on a fresh [`Gpu`] or a fresh memory).
    pub fn prepare(&self, gpu: &mut Gpu) {
        let mem = gpu.memory_mut();
        if *mem != GlobalMemory::new() {
            self.generate(mem);
            return;
        }
        *mem = LAST_IMAGE.with(|last| {
            let mut last = last.borrow_mut();
            match &*last {
                Some((app, image)) if app == self => image.clone(),
                _ => {
                    let mut image = GlobalMemory::new();
                    self.generate(&mut image);
                    *last = Some((self.clone(), image.clone()));
                    image
                }
            }
        });
    }

    /// [`Application::add_buffers`], counted in [`input_generations`].
    fn generate(&self, mem: &mut GlobalMemory) {
        GENERATED_HERE.set(GENERATED_HERE.get() + 1);
        GENERATED.fetch_add(1, Ordering::Relaxed);
        self.add_buffers(mem);
    }

    /// Generate this application's input buffers into `mem`.
    fn add_buffers(&self, mem: &mut GlobalMemory) {
        let n = self.problem_words();
        let seed = self.seed();
        match self.template {
            Template::Streaming { .. } | Template::Matmul { .. } => {
                mem.add_buffer(BufferId(0), self.input.generate(seed, n));
                mem.add_buffer(BufferId(1), self.input.generate(seed ^ 1, n));
                mem.add_buffer(BufferId(2), vec![0; n]);
            }
            Template::Stencil { .. } => {
                mem.add_buffer(BufferId(0), self.input.generate(seed, n + 2));
                mem.add_buffer(BufferId(1), vec![0; n]);
            }
            Template::Strided { .. } => {
                mem.add_buffer(BufferId(0), self.input.generate(seed, n));
                mem.add_buffer(BufferId(1), vec![0; n]);
            }
            Template::Gather { .. } => {
                let idx = DataProfile::Indices { n: n as u32 };
                mem.add_buffer(BufferId(0), idx.generate(seed, n));
                mem.add_buffer(BufferId(1), self.input.generate(seed ^ 2, n));
                mem.add_buffer(BufferId(2), vec![0; n]);
            }
            Template::Reduction => {
                mem.add_buffer(BufferId(0), self.input.generate(seed, n));
                mem.add_buffer(
                    BufferId(1),
                    vec![0; self.launch_config().grid_ctas as usize],
                );
            }
            Template::Texture { .. } => {
                mem.add_buffer(BufferId(0), self.input.generate(seed, n));
                mem.add_buffer(
                    BufferId(1),
                    DataProfile::SmoothF32 { scale: 0.25 }.generate(seed ^ 3, 64),
                );
                mem.add_buffer(BufferId(2), vec![0; n]);
            }
            Template::Divergent { .. } | Template::ComputeBound { .. } => {
                mem.add_buffer(BufferId(0), self.input.generate(seed, n));
                mem.add_buffer(BufferId(1), vec![0; n]);
            }
            Template::Histogram { .. } => {
                mem.add_buffer(BufferId(0), self.input.generate(seed, n));
                mem.add_buffer(BufferId(1), vec![0; n]);
            }
        }
    }

    /// Prepare buffers and run the application to completion.
    pub fn run(&self, gpu: &mut Gpu) -> TraceSummary {
        self.prepare(gpu);
        gpu.launch(&self.kernel(), self.launch_config())
    }

    /// Prepare buffers and run one contiguous SM-range shard of the launch
    /// (shard `index` of `count`). Merging every shard's result with
    /// [`bvf_gpu::merge_shards`] is bit-identical to [`Application::run`].
    pub fn run_shard(&self, gpu: &mut Gpu, index: u32, count: u32) -> LaunchShard {
        self.prepare(gpu);
        gpu.launch_shard(&self.kernel(), self.launch_config(), index, count)
    }

    /// Rough per-app work estimate for longest-first shard scheduling:
    /// threads launched times problem words. Only the *ordering* between
    /// apps matters, so a coarse static proxy is enough.
    pub fn work_estimate(&self) -> u64 {
        let lc = self.launch_config();
        u64::from(lc.grid_ctas) * u64::from(lc.cta_threads) * self.problem_words() as u64
    }
}

thread_local! {
    /// The last prepared image on this thread, keyed by its application
    /// (see [`Application::prepare`]). One entry bounds the memory it keeps
    /// to one image per thread, and suffices because a campaign queues an
    /// application's units back to back: its shards, and under a campaign
    /// set every member's units of it.
    static LAST_IMAGE: RefCell<Option<(Application, GlobalMemory)>> = const { RefCell::new(None) };
    /// Images [`Application::prepare`] generated on this thread.
    static GENERATED_HERE: Cell<u64> = const { Cell::new(0) };
}

/// Images [`Application::prepare`] generated in this process.
static GENERATED: AtomicU64 = AtomicU64::new(0);

/// How many input images [`Application::prepare`] has generated on the
/// calling thread: a preparation that installs the memoized image does not
/// count. Read it before and after a unit of work for that unit's share.
pub fn input_generations() -> u64 {
    GENERATED_HERE.get()
}

/// [`input_generations`] summed over every thread of the process.
pub fn input_generations_total() -> u64 {
    GENERATED.load(Ordering::Relaxed)
}

impl core::fmt::Display for Application {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} ({})", self.code, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_gpu::{CodingView, GpuConfig};

    /// Compile-time audit: campaign workers move applications across
    /// threads, so the descriptor types must stay `Send + Sync` (no `Rc`,
    /// `RefCell`, or raw pointers may creep in).
    #[test]
    fn application_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Application>();
        assert_send_sync::<Suite>();
        assert_send_sync::<AppClass>();
        assert_send_sync::<Template>();
        assert_send_sync::<DataProfile>();
    }

    #[test]
    fn registry_has_58_unique_applications() {
        let apps = Application::all();
        assert_eq!(apps.len(), 58, "the paper evaluates exactly 58 apps");
        let mut codes: Vec<_> = apps.iter().map(|a| a.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 58, "duplicate application codes");
    }

    #[test]
    fn paper_highlighted_apps_are_present_and_classified() {
        for code in ["ATA", "BFS", "BIC", "CON", "COR", "GES", "SYK", "SYR", "MD"] {
            let a = Application::by_code(code).unwrap_or_else(|| panic!("missing {code}"));
            assert_eq!(
                a.class,
                AppClass::MemoryIntensive,
                "{code} must be memory-intensive per Fig. 18"
            );
        }
        for code in ["BLA", "CP", "DXT", "LIB", "NQU", "PAR", "PAT", "SGE"] {
            let a = Application::by_code(code).unwrap_or_else(|| panic!("missing {code}"));
            assert_eq!(
                a.class,
                AppClass::ComputeIntensive,
                "{code} must be compute-intensive per Fig. 18"
            );
        }
    }

    #[test]
    fn sharded_apps_merge_to_the_sequential_summary() {
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 4;
        // RED reduces 32 CTA partials into one output line; HST bounces
        // shared-memory conflicts — both are the worst case for any
        // cross-shard state leak.
        for code in ["VAD", "RED", "HST"] {
            let app = Application::by_code(code).unwrap_or_else(|| panic!("missing {code}"));
            let mut gpu = Gpu::new(cfg.clone(), vec![CodingView::baseline()]);
            let sequential = app.run(&mut gpu);
            for count in [1u32, 2, 3, 4] {
                let mut shards = Vec::new();
                for index in 0..count {
                    let mut gpu = Gpu::new(cfg.clone(), vec![CodingView::baseline()]);
                    shards.push(app.run_shard(&mut gpu, index, count));
                }
                let merged = bvf_gpu::merge_shards(&cfg, &shards);
                assert_eq!(merged, sequential, "{code} diverged at {count} shards");
            }
        }
    }

    /// The image `prepare` would generate with no memo.
    fn generated(app: &Application) -> GlobalMemory {
        let mut image = GlobalMemory::new();
        app.add_buffers(&mut image);
        image
    }

    #[test]
    fn memoized_image_survives_storing_and_panicking_launches() {
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 2;
        let app = Application::by_code("VAD").expect("VAD");
        let fresh = || Gpu::new(cfg.clone(), vec![CodingView::baseline()]);
        let mut gpu = fresh();
        app.run(&mut gpu);
        // The launch stored its output into its own memory...
        assert_ne!(gpu.memory(), &generated(&app));
        // ...and the next preparation still installs the untouched image.
        let mut gpu = fresh();
        app.prepare(&mut gpu);
        assert_eq!(gpu.memory(), &generated(&app));
        // A launch that panics after storing leaves it untouched as well.
        let mut kernel = app.kernel();
        kernel.body.push(bvf_isa::ir::Stmt::op3(
            bvf_isa::ir::Op::LdGlobal(BufferId(9)),
            1,
            bvf_isa::ir::Operand::Imm(0),
            bvf_isa::ir::Operand::Imm(0),
        ));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch(&kernel, app.launch_config());
        }));
        assert!(crashed.is_err(), "the launch must panic");
        let mut gpu = fresh();
        app.prepare(&mut gpu);
        assert_eq!(gpu.memory(), &generated(&app));
    }

    #[test]
    fn memo_is_bypassed_for_a_used_memory() {
        let app = Application::by_code("VAD").expect("VAD");
        let mut gpu = Gpu::new(GpuConfig::baseline(), vec![CodingView::baseline()]);
        gpu.memory_mut().add_buffer(BufferId(7), vec![1; 4]);
        app.prepare(&mut gpu);
        let mut expected = GlobalMemory::new();
        expected.add_buffer(BufferId(7), vec![1; 4]);
        app.add_buffers(&mut expected);
        assert_eq!(gpu.memory(), &expected);
    }

    #[test]
    fn only_generations_count_not_memo_hits() {
        let vad = Application::by_code("VAD").expect("VAD");
        let sge = Application::by_code("SGE").expect("SGE");
        let fresh = || Gpu::new(GpuConfig::baseline(), vec![CodingView::baseline()]);
        // A fresh thread starts with an empty memo and a zero count.
        let counts = std::thread::scope(|s| {
            s.spawn(|| {
                let mut counts = vec![input_generations()];
                for app in [&vad, &vad, &sge, &sge, &vad] {
                    app.prepare(&mut fresh());
                    counts.push(input_generations());
                }
                // A used memory bypasses the memo and generates.
                let mut gpu = fresh();
                gpu.memory_mut().add_buffer(BufferId(7), vec![1; 4]);
                vad.prepare(&mut gpu);
                counts.push(input_generations());
                counts
            })
            .join()
            .expect("counting thread")
        });
        assert_eq!(counts, [0, 1, 1, 2, 2, 3, 4]);
        assert!(
            input_generations_total() >= 4,
            "the process total sums threads"
        );
    }

    /// Per-thread reuse (the prepared-image memo and the collector's memo
    /// tables) changes no result: on one thread, apps run in two orders
    /// while alternating two ISA masks and 1 or 4 shards give the same
    /// summaries as runs that each start on a fresh thread.
    #[test]
    fn warm_thread_runs_match_fresh_thread_runs() {
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 4;
        let apps: Vec<Application> = ["VAD", "RED", "HST"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        let masks = [0u64, 0x0123_4567_89ab_cdef];
        let run = |app: &Application, mask: u64, count: u32| {
            let shards: Vec<LaunchShard> = (0..count)
                .map(|index| {
                    let mut gpu = Gpu::new(cfg.clone(), CodingView::standard_set(mask));
                    app.run_shard(&mut gpu, index, count)
                })
                .collect();
            bvf_gpu::merge_shards(&cfg, &shards)
        };
        let mut cases = Vec::new();
        for i in 0..apps.len() {
            for (j, &mask) in masks.iter().enumerate() {
                cases.push((i, mask, if (i + j) % 2 == 0 { 1 } else { 4 }));
            }
        }
        let reference: Vec<TraceSummary> = cases
            .iter()
            .map(|&(i, mask, count)| {
                std::thread::scope(|s| s.spawn(|| run(&apps[i], mask, count)).join())
                    .expect("fresh-thread run")
            })
            .collect();
        // First every app under alternating masks (each collector finds
        // the other mask's memos pooled), then the apps backwards grouped
        // by mask (each collector inherits another app's warm memos).
        let alternating: Vec<usize> = (0..cases.len()).collect();
        let mut grouped = alternating.clone();
        grouped.sort_by_key(|&k| (cases[k].1, std::cmp::Reverse(cases[k].0)));
        for order in [alternating, grouped] {
            for k in order {
                let (i, mask, count) = cases[k];
                assert_eq!(
                    run(&apps[i], mask, count),
                    reference[k],
                    "{} mask {mask:#x} at {count} shards",
                    apps[i].code
                );
            }
        }
    }

    #[test]
    fn work_estimate_orders_memory_intensive_apps_first() {
        let mem = Application::by_code("BFS").unwrap();
        let comp = Application::by_code("SGE").unwrap();
        assert!(mem.work_estimate() > comp.work_estimate());
    }

    #[test]
    fn every_suite_is_represented() {
        let apps = Application::all();
        for suite in [
            Suite::Rodinia,
            Suite::Parboil,
            Suite::CudaSdk,
            Suite::Shoc,
            Suite::Lonestar,
            Suite::Polybench,
            Suite::GpgpuSim,
        ] {
            assert!(
                apps.iter().any(|a| a.suite == suite),
                "no application from {suite:?}"
            );
        }
    }

    #[test]
    fn seeds_are_distinct() {
        let apps = Application::all();
        let mut seeds: Vec<u64> = apps.iter().map(|a| a.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 58);
    }

    #[test]
    fn one_app_per_template_family_runs() {
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 2;
        for code in [
            "VAD", "HOT", "BFS", "RED", "SGE", "IMD", "NQU", "BLA", "HST",
        ] {
            let app = Application::by_code(code).unwrap_or_else(|| panic!("missing {code}"));
            let mut gpu = Gpu::new(cfg.clone(), vec![CodingView::baseline()]);
            let s = app.run(&mut gpu);
            assert!(s.dynamic_instructions > 0, "{code} did not execute");
            assert!(s.cycles > 0, "{code} has no runtime");
        }
    }
}
