//! Observability layer for the BVF reproduction: cheap metrics and
//! machine-readable telemetry, with zero dependencies beyond `std`.
//!
//! The workspace builds in environments where the crates.io registry is
//! unreachable, so this crate hand-rolls the three pieces a metrics stack
//! normally imports:
//!
//! * [`metrics`] — timers, counters, and log2 histograms behind a
//!   [`MetricsSink`] handle. A *disabled* sink turns every record call into
//!   a branch on a `None` — the instrumented hot paths stay allocation-free
//!   and effectively free. An *enabled* sink hands out per-thread
//!   [`Recorder`]s that accumulate into plain local integers and flush into
//!   shared atomics, so cross-worker aggregation is lock-free and workers
//!   never contend on the hot path.
//! * [`jsonl`] — a JSON-lines record builder (hand-rolled serialization in
//!   the style of `bvf_sim::Table::to_json`) for run telemetry that other
//!   tools can parse.
//! * [`json`] — a minimal JSON parser, used to *validate* emitted telemetry
//!   (CI checks every line parses and carries the required keys) and to
//!   compare telemetry streams modulo their timing fields in tests.
//! * [`trace`] — hierarchical causal spans behind a [`TraceSink`] handle
//!   (same disabled/enabled regime split as [`metrics`]), merged in
//!   stable causal-id order and exported as Chrome trace-event JSON;
//!   [`trace::scrub_chrome`] strips the run-dependent fields so traces
//!   can be byte-compared across worker/shard configurations.
//!
//! The intended wiring: the campaign driver builds one enabled sink of each
//! kind and is their only writer. The simulator never holds a sink: it
//! returns each launch's phase profile, and the campaign adds that profile
//! to the sink's timers and writes the launch and phase spans from it. The
//! driver then snapshots the aggregate or emits JSON-lines records at the
//! end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod trace;

pub use jsonl::Record;
pub use metrics::{
    validate_exposition, CounterId, HistogramId, MetricSnapshot, MetricValue, MetricsSink,
    Recorder, TimerId,
};
pub use trace::{SpanGuard, TraceEvent, TraceRecorder, TraceSink};
