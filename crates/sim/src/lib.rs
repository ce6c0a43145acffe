//! Experiment harness: regenerates every table and figure of the BVF paper.
//!
//! The entry point is a [`Campaign`]: one full pass over the 58 applications
//! on a given GPU configuration, producing a [`bvf_gpu::TraceSummary`] per
//! application (five coding views each, only the baseline/BVF energy
//! pair under [`Collection::Energy`], or none under the `bvf-serve`
//! [`Collection::Timing`]). From a campaign (or several, for
//! the scheduler/capacity sensitivities), the functions in [`figures`]
//! compute exactly the series each paper figure plots and render them as
//! fixed-width text tables.
//!
//! | paper exhibit | function |
//! |---|---|
//! | Fig. 5/6 (per-access energy) | [`figures::circuit::fig05_06`] |
//! | Fig. 8 (narrow-value profile) | [`figures::profile::fig08`] |
//! | Fig. 9 (0/1 ratio) | [`figures::profile::fig09`] |
//! | Fig. 11 (lane Hamming profile) | [`figures::profile::fig11`] |
//! | Fig. 12 (lane 21 vs optimum) | [`figures::profile::fig12`] |
//! | Fig. 14 (bit-position stats) | [`figures::profile::fig14`] |
//! | Table 2 (ISA masks) | [`figures::profile::table2`] |
//! | Fig. 16/17 (component energy) | [`figures::energy::fig16_17`] |
//! | Fig. 18/19 (chip energy) | [`figures::energy::fig18_19`] |
//! | Fig. 20 (DVFS) | [`figures::sensitivity::fig20`] |
//! | Fig. 21 (schedulers) | [`figures::sensitivity::fig21`] |
//! | Fig. 22 (SRAM capacity) | [`figures::sensitivity::fig22`] |
//! | Fig. 23 (6T vs 8T vs BVF) | [`figures::sensitivity::fig23`] |
//! | §6.3 (design overhead) | [`figures::overhead::overhead_table`] |
//! | §7.1 (6T-BVF stability) | [`figures::circuit::table_6t_stability`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod figures;
pub mod metrics;
pub mod serve;
pub mod store;
pub mod table;
pub mod trace_report;

pub use campaign::{
    parallel_map, AppFailure, AppResult, Campaign, CampaignOptions, Collection, Parallelism,
    RunReport, ShardMode,
};
pub use serve::{ServeOptions, Server};
pub use store::{ResultStore, STORE_FORMAT_VERSION};
pub use table::Table;
pub use trace_report::{TraceReport, TraceRow};
