//! The 58 evaluated GPU applications.
//!
//! The paper profiles 58 applications drawn from Rodinia, Parboil, the CUDA
//! SDK, SHOC, Lonestar, Polybench and the GPGPU-Sim distribution. We cannot
//! ship those proprietary binaries and inputs, so each application here is a
//! *synthetic twin*: a kernel written in the `bvf-isa` IR whose memory
//! behavior (streaming / stencil / gather / reduction / tiled compute /
//! divergent), value distribution (zero-heavy integers, narrow values,
//! pixels, smooth physics floats, graph indices, dense random) and
//! compute-to-memory ratio follow the application it stands in for.
//!
//! Two aggregate properties are calibrated against the paper's profiling
//! and verified by tests:
//!
//! * ≈9 leading sign-equal bits per 32-bit word and ≈22/32 zero bits across
//!   the suite average (Figs. 8/9);
//! * warp lanes carry similar values, so a middle pivot lane beats lane 0
//!   on Hamming distance (Fig. 11).
//!
//! # Example
//!
//! ```
//! use bvf_workloads::Application;
//! use bvf_gpu::{Gpu, GpuConfig, CodingView};
//!
//! let app = Application::by_code("VAD").expect("vectorAdd is in the suite");
//! let mut cfg = GpuConfig::baseline();
//! cfg.sms = 2; // keep the doctest fast
//! let mut gpu = Gpu::new(cfg, CodingView::standard_set(0));
//! let summary = app.run(&mut gpu);
//! assert!(summary.dynamic_instructions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod data;
pub mod kernels;
pub mod suite;

pub use app::{input_generations, input_generations_total, AppClass, Application, Suite};
pub use data::DataProfile;
