//! Hierarchical causal spans with deterministic merge and Chrome
//! trace-event export.
//!
//! Every span carries a *stable causal id*: a `/`-separated path from the
//! campaign root down to the unit of work that produced it, e.g.
//! `campaign:main/app:VAD/shard:0/launch:0/phase:exec`. Ids are a pure
//! function of the work graph — never of thread ids, queue order, or the
//! clock — so the same campaign produces the same id set at any `--jobs`
//! or `--shards` setting.
//!
//! Recording follows the [`crate::metrics`] regime split: a
//! [`TraceSink::disabled`] sink makes every probe a no-op behind one
//! branch (no clock reads, no allocation); an enabled sink hands each
//! work item a [`TraceRecorder`] lane handle whose
//! [`TraceRecorder::emit`] pushes the event into the shared sink under
//! its mutex. A span is in the sink once it is recorded, so a panicking
//! worker still delivers every span it closed. The writers record a
//! handful of spans per work item, never per simulated event, so one
//! lock acquisition per span is all the recording costs.
//!
//! Merging is deterministic: [`TraceSink::events`] sorts by
//! `(path, seq)` — causal id order, i.e. registry/(app, shard) order —
//! not by arrival. The Chrome JSON written by [`export_chrome`] is
//! loadable in Perfetto / `chrome://tracing`; [`scrub_chrome`] strips the
//! run-dependent fields (`ts`, `dur`, `tid`, `pid`) and drops the
//! execution-detail categories, leaving a byte-comparable span tree the
//! same way record scrubbing drops `"timing"`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, Value};
use crate::jsonl::Record;

/// Hard cap on events retained by one sink. Beyond it, new events are
/// counted in [`TraceSink::dropped`] and discarded — tracing degrades to
/// a tally rather than growing without bound (overflow policy: drop
/// newest, never block, never reallocate under the lock).
pub const SINK_CAPACITY: usize = 1 << 20;

/// Categories whose events survive [`scrub_chrome`]: their existence,
/// ids, names, and args are a deterministic function of the workload.
/// Everything else (`sched`, `store`, `gpu`, …) describes one particular
/// execution — worker interleaving, cache state, shard split — and is
/// scrubbed along with timestamps.
pub const DETERMINISTIC_CATS: &[&str] = &["campaign", "app", "phase"];

/// One closed span (or instant, when `dur_ns` is 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stable causal id: `campaign:<label>/app:<code>/...`.
    pub path: String,
    /// Category (scrub survival class, see [`DETERMINISTIC_CATS`]).
    pub cat: &'static str,
    /// Deterministic tiebreak among events sharing a path (phase index,
    /// store op index, …).
    pub seq: u32,
    /// Display lane for Chrome export. Run-dependent; scrubbed.
    pub tid: u32,
    /// Start, nanoseconds since the sink epoch. Run-dependent; scrubbed.
    pub t0_ns: u64,
    /// Duration in nanoseconds. Run-dependent; scrubbed.
    pub dur_ns: u64,
    /// Deterministic counter args (instructions, cycles, event counts —
    /// never wall-clock-derived values).
    pub args: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// The last path segment — the span's display name.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Sort key for the deterministic merge.
    fn key(&self) -> (&str, u32, u64) {
        (&self.path, self.seq, self.t0_ns)
    }
}

struct TraceShared {
    epoch: Instant,
    capacity: usize,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceShared {
    fn absorb(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace sink poisoned");
        if events.len() < self.capacity {
            events.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A cloneable handle to a trace aggregate — or to nothing at all.
///
/// Mirrors [`crate::MetricsSink`]: cloning an enabled sink shares the
/// same event store, so a campaign hands one sink to every worker and
/// reads one merged, deterministically ordered event list at the end.
#[derive(Clone, Default)]
pub struct TraceSink {
    shared: Option<Arc<TraceShared>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceSink {
    /// The no-op sink: emitting records nothing and reads no clock.
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// A live sink. Its creation instant is the trace epoch: every
    /// event's `t0_ns` is relative to it.
    pub fn enabled() -> Self {
        Self::with_capacity(SINK_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> Self {
        Self {
            shared: Some(Arc::new(TraceShared {
                epoch: Instant::now(),
                capacity,
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Is this a live sink?
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Do both handles record into the same event store (or are both
    /// disabled)?
    pub fn shares(&self, other: &Self) -> bool {
        match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// A recorder whose events show on lane `tid` in the Chrome export.
    pub fn recorder(&self, tid: u32) -> TraceRecorder {
        TraceRecorder {
            shared: self.shared.clone(),
            tid,
        }
    }

    /// Events counted out after [`SINK_CAPACITY`] was reached.
    pub fn dropped(&self) -> u64 {
        match &self.shared {
            Some(s) => s.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// All recorded events, merged deterministically: sorted by
    /// `(path, seq)` — causal-id order — with `t0_ns` as a final
    /// tiebreak. Empty for a disabled sink.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(s) = &self.shared else {
            return Vec::new();
        };
        let mut events = s.events.lock().expect("trace sink poisoned").clone();
        events.sort_by(|a, b| a.key().cmp(&b.key()));
        events
    }
}

/// A lane handle on a [`TraceSink`]: every event it emits goes straight
/// into the sink, on lane `tid`.
pub struct TraceRecorder {
    shared: Option<Arc<TraceShared>>,
    tid: u32,
}

impl TraceRecorder {
    /// Nanoseconds since the sink epoch (0 when disabled). A span is timed
    /// by reading this before and after its body.
    pub fn now_ns(&self) -> u64 {
        match &self.shared {
            Some(s) => s.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Record one closed span into the sink. No-op when disabled. A caller
    /// that keeps its disabled path allocation-free builds `path` only
    /// when its sink is enabled ([`TraceSink::is_enabled`]).
    pub fn emit(
        &self,
        path: String,
        cat: &'static str,
        seq: u32,
        t0_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        if let Some(s) = &self.shared {
            s.absorb(TraceEvent {
                path,
                cat,
                seq,
                tid: self.tid,
                t0_ns,
                dur_ns,
                args,
            });
        }
    }
}

fn push_args_json(out: &mut String, args: &[(&'static str, u64)]) {
    let record = args.iter().fold(Record::object(), |r, &(k, v)| r.u64(k, v));
    out.push_str(&record.finish());
}

/// Serialize events (already merged/ordered by [`TraceSink::events`]) as
/// Chrome trace-event JSON: one `"X"` (complete) event per line inside a
/// `traceEvents` array. `ts`/`dur` are microseconds (the format's unit)
/// with nanosecond precision; `id` carries the stable causal path.
pub fn export_chrome(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":\"");
        out.push_str(&crate::jsonl::escape(e.name()));
        out.push_str("\",\"cat\":\"");
        out.push_str(e.cat);
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        out.push_str(&format!("{:.3}", e.t0_ns as f64 / 1e3));
        out.push_str(",\"dur\":");
        out.push_str(&format!("{:.3}", e.dur_ns as f64 / 1e3));
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"id\":\"");
        out.push_str(&crate::jsonl::escape(&e.path));
        out.push_str("\",\"seq\":");
        out.push_str(&e.seq.to_string());
        out.push_str(",\"args\":");
        push_args_json(&mut out, &e.args);
        out.push('}');
    }
    out.push_str("\n],\"droppedEvents\":");
    out.push_str(&dropped.to_string());
    out.push_str("}\n");
    out
}

/// Scrub a Chrome trace produced by [`export_chrome`]: drop every event
/// whose category is not in [`DETERMINISTIC_CATS`], strip the
/// run-dependent keys (`ts`, `dur`, `tid`, `pid`) from the survivors,
/// and re-serialize one event per line. Two runs of the same workload
/// scrub to byte-identical text regardless of `--jobs`, `--shards`, or
/// which worker recorded what — the trace-level analogue of dropping
/// `"timing"` from telemetry records.
pub fn scrub_chrome(text: &str) -> Result<String, json::ParseError> {
    let v = json::parse(text)?;
    let events = match v.get("traceEvents") {
        Some(Value::Array(items)) => items,
        _ => {
            return Err(json::ParseError {
                offset: 0,
                message: "no traceEvents array",
            })
        }
    };
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for e in events {
        let cat = e.get("cat").and_then(Value::as_str).unwrap_or("");
        if !DETERMINISTIC_CATS.contains(&cat) {
            continue;
        }
        let scrubbed = e.without("ts").without("dur").without("tid").without("pid");
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&scrubbed.to_json_string());
    }
    out.push_str("\n]}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rec: &TraceRecorder, path: &str, cat: &'static str, seq: u32) {
        let t0 = rec.now_ns();
        let dur = rec.now_ns() - t0;
        rec.emit(path.to_string(), cat, seq, t0, dur, Vec::new());
    }

    #[test]
    fn disabled_sink_records_nothing_and_reads_no_clock() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        let rec = sink.recorder(0);
        span(&rec, "", "sched", 0);
        rec.emit(String::new(), "sched", 0, 1, 2, Vec::new());
        assert!(sink.events().is_empty());
        assert_eq!(sink.dropped(), 0);
        assert_eq!(rec.now_ns(), 0);
    }

    #[test]
    fn events_merge_in_causal_id_order_not_arrival_order() {
        let sink = TraceSink::enabled();
        let a = sink.recorder(1);
        let b = sink.recorder(2);
        span(&b, "c:x/app:Z", "app", 0);
        span(&a, "c:x/app:A/shard:1", "sched", 0);
        span(&b, "c:x", "campaign", 0);
        span(&a, "c:x/app:A/shard:0", "sched", 0);
        let paths: Vec<String> = sink.events().into_iter().map(|e| e.path).collect();
        assert_eq!(
            paths,
            ["c:x", "c:x/app:A/shard:0", "c:x/app:A/shard:1", "c:x/app:Z"]
        );
    }

    #[test]
    fn seq_breaks_ties_within_a_path() {
        let sink = TraceSink::enabled();
        let rec = sink.recorder(0);
        rec.emit("p".into(), "phase", 2, 0, 0, vec![("n", 2)]);
        rec.emit("p".into(), "phase", 0, 9, 0, vec![("n", 0)]);
        rec.emit("p".into(), "phase", 1, 5, 0, vec![("n", 1)]);
        let seqs: Vec<u32> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn a_panicking_worker_keeps_the_spans_it_emitted() {
        let sink = TraceSink::enabled();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let rec = sink.recorder(0);
            span(&rec, "c/app:X/shard:0", "sched", 0);
            panic!("worker dies mid-item");
        }));
        assert!(res.is_err());
        // The closed span was in the sink before the unwind began.
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].path, "c/app:X/shard:0");
    }

    #[test]
    fn each_emitted_event_is_in_the_sink_at_once() {
        let sink = TraceSink::enabled();
        let rec = sink.recorder(0);
        for i in 0..3 {
            rec.emit(format!("e:{i}"), "sched", 0, i, 0, Vec::new());
            assert_eq!(sink.events().len(), i as usize + 1);
        }
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn name_is_last_path_segment() {
        let e = TraceEvent {
            path: "campaign:main/app:VAD/phase:exec".into(),
            cat: "phase",
            seq: 0,
            tid: 0,
            t0_ns: 0,
            dur_ns: 0,
            args: Vec::new(),
        };
        assert_eq!(e.name(), "phase:exec");
    }

    #[test]
    fn export_is_valid_json_and_scrub_drops_run_detail() {
        let sink = TraceSink::enabled();
        let rec = sink.recorder(7);
        rec.emit("c:q".into(), "campaign", 0, 100, 5000, vec![("apps", 2)]);
        rec.emit(
            "c:q/app:A".into(),
            "app",
            0,
            150,
            900,
            vec![("instructions", 42)],
        );
        rec.emit("c:q/app:A/shard:0".into(), "sched", 0, 150, 900, Vec::new());
        let text = export_chrome(&sink.events(), sink.dropped());
        let v = json::parse(&text).expect("export parses");
        let Some(Value::Array(items)) = v.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(items[0].get("ts").and_then(Value::as_f64), Some(0.1));
        let scrubbed = scrub_chrome(&text).expect("scrubs");
        assert!(!scrubbed.contains("shard:0"), "sched event must be dropped");
        assert!(scrubbed.contains("\"id\":\"c:q/app:A\""));
        assert!(!scrubbed.contains("\"ts\""), "timestamps must be scrubbed");
        assert!(!scrubbed.contains("\"tid\""), "lanes must be scrubbed");
        assert!(scrubbed.contains("\"instructions\":42"), "args survive");
        // Scrubbed output is itself valid JSON.
        json::parse(&scrubbed).expect("scrubbed parses");
    }

    #[test]
    fn scrubbed_text_is_identical_across_interleavings() {
        let run = |swap: bool| {
            let sink = TraceSink::enabled();
            let a = sink.recorder(0);
            let b = sink.recorder(1);
            let (first, second) = if swap { (&b, &a) } else { (&a, &b) };
            first.emit("c/app:A".into(), "app", 0, 7, 3, vec![("instructions", 1)]);
            second.emit("c/app:B".into(), "app", 0, 2, 9, vec![("instructions", 2)]);
            second.emit("c/app:B/shard:0".into(), "sched", 0, 2, 9, Vec::new());
            scrub_chrome(&export_chrome(&sink.events(), sink.dropped())).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sink_capacity_overflow_counts_drops() {
        let sink = TraceSink::with_capacity(4);
        let rec = sink.recorder(0);
        for i in 0..7 {
            rec.emit(format!("e:{i}"), "sched", 0, i, 0, Vec::new());
        }
        assert_eq!(sink.events().len(), 4, "sink never exceeds capacity");
        assert_eq!(sink.dropped(), 3, "overflow is counted, not silent");
        // Further events keep counting.
        rec.emit("late".into(), "sched", 0, 0, 0, Vec::new());
        assert_eq!(sink.dropped(), 4);
    }
}
