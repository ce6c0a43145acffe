//! Observability layer for the BVF reproduction: cheap metrics and
//! machine-readable telemetry, with zero dependencies beyond `std`.
//!
//! The workspace builds in environments where the crates.io registry is
//! unreachable, so this crate hand-rolls the three pieces a metrics stack
//! normally imports:
//!
//! * [`metrics`] — timers, counters, and log2 histograms behind a
//!   [`MetricsSink`] handle. A *disabled* sink turns every record call into
//!   a branch on a `None` — the instrumented paths stay allocation-free
//!   and effectively free. An *enabled* sink records each write straight
//!   into a slab of shared atomics with a `fetch_add`, so cross-worker
//!   aggregation is lock-free and every write is visible at once.
//! * [`jsonl`] — JSON-lines records (hand-rolled serialization, also
//!   behind `bvf_sim::Table::to_json`) for run telemetry that other tools
//!   can parse.
//! * [`json`] — a minimal JSON parser, used to *validate* emitted telemetry
//!   (CI checks every line parses and carries the required keys) and to
//!   compare telemetry streams modulo their timing fields in tests.
//! * [`trace`] — hierarchical causal spans behind a [`TraceSink`] handle
//!   (same disabled/enabled regime split as [`metrics`]), merged in
//!   stable causal-id order and exported as Chrome trace-event JSON;
//!   [`trace::scrub_chrome`] strips the run-dependent fields so traces
//!   can be byte-compared across worker/shard configurations.
//!
//! The intended wiring: a campaign (or `bvf-serve`'s workers) builds one
//! enabled sink of each kind and is their only writer, recording per work
//! item, never per simulated event. The simulator never holds a sink: it
//! returns each launch's phase profile, and the campaign adds that profile
//! to the sink's timers and emits the launch and phase spans from it, each
//! straight into the sink. The caller then snapshots the aggregate or
//! emits JSON-lines records at the end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod trace;

pub use jsonl::Record;
pub use metrics::{
    validate_exposition, CounterId, HistogramId, MetricSnapshot, MetricValue, MetricsSink, TimerId,
};
pub use trace::{TraceEvent, TraceRecorder, TraceSink};
