//! Timers, counters, and log2 histograms.
//!
//! Metrics are identified by `&'static str` names and registered against a
//! [`MetricsSink`]. Registration (rare, setup-time) takes a mutex;
//! recording ([`MetricsSink::add`], [`MetricsSink::add_span`],
//! [`MetricsSink::observe`]) goes straight into a fixed slab of shared
//! atomics — one to three `fetch_add`s, lock-free, and visible to every
//! reader at once. The writers record per work item, not per simulated
//! event, so there is nothing to batch.
//!
//! A sink built with [`MetricsSink::disabled`] makes every operation a
//! no-op behind a single branch: ids are dummies and snapshots are empty.
//! Instrumented code therefore never needs its own `if profiling { … }`
//! guards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Buckets per histogram: bucket `b` counts values in `[2^(b-1), 2^b)`
/// (bucket 0 counts zeros), which covers `u64` values up to `2^31`-ish
/// comfortably for the nanosecond/byte magnitudes recorded here; larger
/// values clamp into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Fixed slab capacity, in `u64` slots, of one enabled sink. A counter
/// takes 1 slot, a timer 2, a histogram `2 + HISTOGRAM_BUCKETS`; the cap
/// exists so aggregation storage never reallocates (reallocating under
/// concurrent `fetch_add` would need locking).
const SLOT_CAPACITY: usize = 4096;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered timer (accumulated nanoseconds + span count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Timer,
    Histogram,
}

fn slot_width(kind: Kind) -> u32 {
    match kind {
        Kind::Counter => 1,
        Kind::Timer => 2,                                // nanos, count
        Kind::Histogram => 2 + HISTOGRAM_BUCKETS as u32, // count, sum, buckets
    }
}

fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The Prometheus-legal series name a metric is exposed under: `bvf_` plus
/// the registered name with every non-alphanumeric character mapped to `_`.
fn sanitized(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("bvf_");
    out.extend(
        name.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
    );
    out
}

/// Every series name one metric contributes to [`MetricsSink::expose_text`].
/// Sanitization is lossy (`store.hits` and `store_hits` map to the same
/// series), so registration checks these sets for disjointness — a
/// collision would emit duplicate series with duplicate `# TYPE` lines, an
/// exposition Prometheus rejects wholesale.
fn exposed_names(name: &str, kind: Kind) -> Vec<String> {
    let base = sanitized(name);
    match kind {
        Kind::Counter => vec![base],
        Kind::Timer => vec![format!("{base}_nanos_total"), format!("{base}_count")],
        Kind::Histogram => vec![
            format!("{base}_bucket"),
            format!("{base}_sum"),
            format!("{base}_count"),
            // The family name itself: it owns the `# TYPE` line.
            base,
        ],
    }
}

#[derive(Debug)]
struct MetricDef {
    name: &'static str,
    kind: Kind,
    base: u32,
}

struct Shared {
    defs: Mutex<Vec<MetricDef>>,
    slots: Box<[AtomicU64]>,
}

impl Shared {
    fn register(&self, name: &'static str, kind: Kind) -> u32 {
        let mut defs = self.defs.lock().expect("metric registry poisoned");
        if let Some(d) = defs.iter().find(|d| d.name == name) {
            assert!(
                d.kind == kind,
                "metric {name:?} re-registered with a different kind"
            );
            return d.base;
        }
        // Reject registrations whose exposition names collide with an
        // already-registered metric: sanitization is lossy, and duplicate
        // series (with duplicate `# TYPE` lines) make `expose_text` an
        // invalid exposition that a Prometheus scraper rejects wholesale.
        let new_names = exposed_names(name, kind);
        for d in defs.iter() {
            if let Some(clash) = exposed_names(d.name, d.kind)
                .iter()
                .find(|n| new_names.contains(n))
            {
                panic!(
                    "metric {name:?} collides with {:?} in the text exposition \
                     (both expose the series {clash:?}); rename one of them",
                    d.name
                );
            }
        }
        let base = defs
            .last()
            .map(|d| d.base + slot_width(d.kind))
            .unwrap_or(0);
        assert!(
            (base + slot_width(kind)) as usize <= SLOT_CAPACITY,
            "metric slot capacity ({SLOT_CAPACITY}) exhausted registering {name:?}"
        );
        defs.push(MetricDef { name, kind, base });
        base
    }
}

/// A cloneable handle to a metrics aggregate — or to nothing at all.
///
/// Cloning an enabled sink shares the same aggregate (it is an `Arc`
/// internally), so a campaign can hand one sink to every worker and read a
/// combined [`MetricsSink::snapshot`] at the end.
#[derive(Clone, Default)]
pub struct MetricsSink {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl MetricsSink {
    /// The no-op sink: every id is a dummy, every record call a no-op.
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// A live sink with a fresh, empty aggregate.
    pub fn enabled() -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                defs: Mutex::new(Vec::new()),
                slots: (0..SLOT_CAPACITY).map(|_| AtomicU64::new(0)).collect(),
            })),
        }
    }

    /// Is this a live sink?
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Do both handles record into the same aggregate (or are both
    /// disabled)?
    pub fn shares(&self, other: &Self) -> bool {
        match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&self, name: &'static str) -> CounterId {
        CounterId(match &self.shared {
            Some(s) => s.register(name, Kind::Counter),
            None => 0,
        })
    }

    /// Register (or look up) a timer by name.
    pub fn timer(&self, name: &'static str) -> TimerId {
        TimerId(match &self.shared {
            Some(s) => s.register(name, Kind::Timer),
            None => 0,
        })
    }

    /// Register (or look up) a histogram by name.
    pub fn histogram(&self, name: &'static str) -> HistogramId {
        HistogramId(match &self.shared {
            Some(s) => s.register(name, Kind::Histogram),
            None => 0,
        })
    }

    /// Add `n` to a counter (one `fetch_add`).
    pub fn add(&self, c: CounterId, n: u64) {
        if let Some(s) = &self.shared {
            s.slots[c.0 as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count one span of `elapsed` on `timer`, measured by the caller —
    /// for work timed elsewhere (e.g. a campaign result's wall time).
    pub fn add_span(&self, timer: TimerId, elapsed: Duration) {
        if let Some(s) = &self.shared {
            let base = timer.0 as usize;
            s.slots[base].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            s.slots[base + 1].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one observation into a histogram.
    pub fn observe(&self, h: HistogramId, v: u64) {
        if let Some(s) = &self.shared {
            let base = h.0 as usize;
            s.slots[base].fetch_add(1, Ordering::Relaxed);
            s.slots[base + 1].fetch_add(v, Ordering::Relaxed);
            s.slots[base + 2 + bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current aggregated value of a counter (0 on a disabled sink).
    pub fn counter_value(&self, c: CounterId) -> u64 {
        match &self.shared {
            Some(s) => s.slots[c.0 as usize].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Current aggregated (nanos, count) of a timer (zeros on a disabled
    /// sink).
    pub fn timer_value(&self, t: TimerId) -> (u64, u64) {
        match &self.shared {
            Some(s) => (
                s.slots[t.0 as usize].load(Ordering::Relaxed),
                s.slots[t.0 as usize + 1].load(Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }

    /// Text exposition of the current [`MetricsSink::snapshot`] —
    /// Prometheus-style `# TYPE` + `name value` lines, the exact payload
    /// a `/metrics` endpoint returns. Deterministic given the aggregate
    /// state: metrics appear in registration order, names are sanitized
    /// (`.` → `_`) and prefixed `bvf_`. Counters expose one sample;
    /// timers expose `_nanos_total`/`_count`; histograms expose
    /// cumulative `_bucket{le="2^b - 1"}` samples (the log2 bucket `b`
    /// counts values in `[2^(b-1), 2^b)`, so for the integer values
    /// recorded here the inclusive upper bound of everything counted
    /// through bucket `b` is exactly `2^b - 1`) plus `_sum`/`_count`.
    /// Empty string for a disabled sink.
    ///
    /// Series names are guaranteed unique with exactly one `# TYPE` line
    /// each, declared before its samples: registration rejects any metric
    /// whose sanitized exposition names collide with an existing one (see
    /// [`validate_exposition`], which checks exactly these invariants).
    pub fn expose_text(&self) -> String {
        let mut out = String::new();
        for m in self.snapshot() {
            let name = sanitized(m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Timer { nanos, count } => {
                    out.push_str(&format!(
                        "# TYPE {name}_nanos_total counter\n{name}_nanos_total {nanos}\n\
                         # TYPE {name}_count counter\n{name}_count {count}\n"
                    ));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (b, n) in buckets.iter().enumerate() {
                        cum += n;
                        if b + 1 < HISTOGRAM_BUCKETS {
                            out.push_str(&format!(
                                "{name}_bucket{{le=\"{}\"}} {cum}\n",
                                (1u64 << b) - 1
                            ));
                        }
                    }
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"+Inf\"}} {cum}\n\
                         {name}_sum {sum}\n{name}_count {count}\n"
                    ));
                }
            }
        }
        out
    }

    /// Every registered metric with its aggregated value, in registration
    /// order. Empty for a disabled sink.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let Some(s) = &self.shared else {
            return Vec::new();
        };
        let defs = s.defs.lock().expect("metric registry poisoned");
        defs.iter()
            .map(|d| {
                let at = |off: u32| s.slots[(d.base + off) as usize].load(Ordering::Relaxed);
                let value = match d.kind {
                    Kind::Counter => MetricValue::Counter(at(0)),
                    Kind::Timer => MetricValue::Timer {
                        nanos: at(0),
                        count: at(1),
                    },
                    Kind::Histogram => MetricValue::Histogram {
                        count: at(0),
                        sum: at(1),
                        buckets: Box::new(core::array::from_fn(|b| at(2 + b as u32))),
                    },
                };
                MetricSnapshot {
                    name: d.name,
                    value,
                }
            })
            .collect()
    }
}

/// One metric's aggregated state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The name the metric was registered under.
    pub name: &'static str,
    /// Its aggregated value.
    pub value: MetricValue,
}

/// Aggregated value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Accumulated span time and number of spans.
    Timer {
        /// Total nanoseconds across all closed spans.
        nanos: u64,
        /// Number of closed spans.
        count: u64,
    },
    /// Log2-bucketed value distribution.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Bucket `b` counts observations in `[2^(b-1), 2^b)`. Boxed so
        /// the variant doesn't dominate the enum's size.
        buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
    },
}

/// Check that a Prometheus-style text exposition is well-formed enough for
/// a scraper to accept it:
///
/// * every `# TYPE` line names a distinct family with a known kind,
/// * every sample's family has a `# TYPE` line *above* it (histogram
///   `_bucket`/`_sum`/`_count` samples resolve to their family name),
/// * no two samples share a name + label set,
/// * every sample line parses as `name[{labels}] value` with a finite
///   numeric value (`+Inf` bucket bounds live in the label, which is not
///   parsed as a number).
///
/// Used by the exposition tests here and by `bvf-serve`'s CI smoke job to
/// validate a live `/metrics` scrape. Returns the first violation found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashSet;
    let mut families: HashSet<&str> = HashSet::new();
    let mut seen_series: HashSet<&str> = HashSet::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed # TYPE line: {line:?}"));
            };
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown metric kind {kind:?}"));
            }
            if !families.insert(name) {
                return Err(format!("line {n}: duplicate # TYPE for {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (e.g. # HELP) are legal anywhere
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {n}: sample without a value: {line:?}"));
        };
        match value.parse::<f64>() {
            Ok(v) if v.is_finite() => {}
            _ => return Err(format!("line {n}: non-numeric sample value {value:?}")),
        }
        let name = series.split('{').next().unwrap_or_default();
        let legal_name = !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c == '_' || c == ':' || c.is_ascii_alphanumeric());
        if !legal_name {
            return Err(format!("line {n}: illegal series name {name:?}"));
        }
        // Histogram samples belong to the family their suffix strips to —
        // but only when that family is declared (a *counter* named `x_count`
        // is its own family).
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix).filter(|b| families.contains(b)))
            .unwrap_or(name);
        if !families.contains(family) {
            return Err(format!(
                "line {n}: sample {name:?} has no preceding # TYPE line for {family:?}"
            ));
        }
        if !seen_series.insert(series) {
            return Err(format!("line {n}: duplicate series {series:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_timers_aggregate_in_the_sink() {
        let sink = MetricsSink::enabled();
        let c = sink.counter("events");
        let t = sink.timer("work");
        sink.add(c, 3);
        sink.add(c, 4);
        sink.add_span(t, Duration::from_micros(50));
        assert_eq!(sink.counter_value(c), 7);
        assert_eq!(sink.timer_value(t), (50_000, 1));
    }

    #[test]
    fn add_span_counts_a_measured_duration() {
        let sink = MetricsSink::enabled();
        let t = sink.timer("work");
        sink.add_span(t, Duration::from_micros(3));
        sink.add_span(t, Duration::from_nanos(5));
        assert_eq!(sink.timer_value(t), (3_005, 2));
        let off = MetricsSink::disabled();
        off.add_span(off.timer("work"), Duration::from_secs(1));
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn aggregation_across_threads_is_exact() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let sink = MetricsSink::enabled();
        let c = sink.counter("spins");
        let t = sink.timer("spans");
        let h = sink.histogram("values");
        std::thread::scope(|scope| {
            for k in 0..THREADS {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        sink.add(c, 1);
                        sink.observe(h, k * PER_THREAD + i);
                        sink.add_span(t, Duration::from_nanos(1));
                    }
                });
            }
        });
        assert_eq!(sink.counter_value(c), THREADS * PER_THREAD);
        assert_eq!(
            sink.timer_value(t),
            (THREADS * PER_THREAD, THREADS * PER_THREAD)
        );
        let snap = sink.snapshot();
        let hist = snap.iter().find(|m| m.name == "values").expect("hist");
        match &hist.value {
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                assert_eq!(*count, THREADS * PER_THREAD);
                let n = THREADS * PER_THREAD;
                assert_eq!(*sum, n * (n - 1) / 2);
                assert_eq!(buckets.iter().sum::<u64>(), n);
            }
            v => panic!("wrong kind: {v:?}"),
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = MetricsSink::disabled();
        assert!(!sink.is_enabled());
        let c = sink.counter("a");
        let t = sink.timer("b");
        let h = sink.histogram("c");
        sink.add(c, 5);
        sink.observe(h, 123);
        sink.add_span(t, Duration::from_nanos(7));
        sink.add(c, 9);
        assert_eq!(sink.counter_value(c), 0);
        assert_eq!(sink.timer_value(t), (0, 0));
        assert!(sink.snapshot().is_empty(), "disabled sink must stay empty");
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let sink = MetricsSink::enabled();
        let a = sink.counter("x");
        let b = sink.counter("x");
        assert_eq!(a, b);
        let t1 = sink.timer("y");
        let t2 = sink.timer("y");
        assert_eq!(t1, t2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let sink = MetricsSink::enabled();
        let _ = sink.counter("same");
        let _ = sink.timer("same");
    }

    #[test]
    fn direct_add_is_visible_immediately() {
        let sink = MetricsSink::enabled();
        let c = sink.counter("live");
        sink.add(c, 10);
        sink.add(c, 5);
        assert_eq!(sink.counter_value(c), 15);
    }

    #[test]
    fn histogram_bucketing() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn snapshot_preserves_registration_order() {
        let sink = MetricsSink::enabled();
        sink.counter("first");
        sink.timer("second");
        sink.histogram("third");
        let names: Vec<_> = sink.snapshot().iter().map(|m| m.name).collect();
        assert_eq!(names, ["first", "second", "third"]);
    }

    #[test]
    fn expose_text_renders_all_kinds_deterministically() {
        let sink = MetricsSink::enabled();
        let c = sink.counter("store.hit");
        let t = sink.timer("phase.exec");
        let h = sink.histogram("item.bytes");
        sink.add(c, 6);
        sink.add_span(t, Duration::from_nanos(40));
        sink.observe(h, 0);
        sink.observe(h, 1);
        sink.observe(h, 5);
        let text = sink.expose_text();
        assert!(text.contains("# TYPE bvf_store_hit counter\nbvf_store_hit 6\n"));
        assert!(text.contains("# TYPE bvf_phase_exec_nanos_total counter\n"));
        assert!(text.contains("bvf_phase_exec_nanos_total 40\n"));
        assert!(text.contains("bvf_phase_exec_count 1\n"));
        assert!(text.contains("# TYPE bvf_item_bytes histogram\n"));
        // Cumulative buckets: le="0" counts the zero, le="1" adds the 1,
        // le="7" includes the 5; +Inf carries the total.
        assert!(text.contains("bvf_item_bytes_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("bvf_item_bytes_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("bvf_item_bytes_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("bvf_item_bytes_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("bvf_item_bytes_sum 6\n"));
        assert!(text.contains("bvf_item_bytes_count 3\n"));
        // Registration order is exposition order, and the text is a pure
        // function of the aggregate.
        let hit = text.find("bvf_store_hit ").unwrap();
        let step = text.find("bvf_phase_exec_nanos_total ").unwrap();
        assert!(hit < step);
        let text2 = sink.expose_text();
        assert_eq!(text, text2);
        // And the whole payload is a valid exposition: unique names, one
        // `# TYPE` per family, declared before its samples.
        validate_exposition(&text).expect("exposition must validate");
    }

    #[test]
    fn colliding_sanitized_names_are_rejected_at_registration() {
        // `store.hits` and `store_hits` are distinct registered names but
        // sanitize to the same exposed series — accepting both would emit
        // duplicate `# TYPE` lines, an exposition Prometheus rejects.
        let sink = MetricsSink::enabled();
        let _ = sink.counter("store.hits");
        let clash =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.counter("store_hits")));
        assert!(
            clash.is_err(),
            "sanitize-colliding counter must be rejected"
        );

        // Cross-kind collisions through derived series names too: a timer
        // `x` exposes `x_count`, which a counter named `x.count` would
        // duplicate.
        let sink = MetricsSink::enabled();
        let _ = sink.timer("x");
        let clash =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.counter("x.count")));
        assert!(clash.is_err(), "derived-series collision must be rejected");

        // A histogram owns its family name: a counter equal to it collides.
        let sink = MetricsSink::enabled();
        let _ = sink.histogram("bytes.in");
        let clash =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.counter("bytes_in")));
        assert!(
            clash.is_err(),
            "histogram family collision must be rejected"
        );

        // Distinct names that sanitize apart still register fine, and
        // re-registering the same name stays idempotent.
        let sink = MetricsSink::enabled();
        let a = sink.counter("store.hits");
        let _ = sink.counter("store.misses");
        assert_eq!(sink.counter("store.hits"), a);
        validate_exposition(&sink.expose_text()).expect("clean registry validates");
    }

    #[test]
    fn validate_exposition_catches_each_violation() {
        validate_exposition("").expect("empty exposition is valid");
        let ok = "# TYPE a counter\na 1\n# TYPE b histogram\nb_bucket{le=\"1\"} 1\n\
                  b_bucket{le=\"+Inf\"} 1\nb_sum 1\nb_count 1\n";
        validate_exposition(ok).expect("well-formed exposition");
        for (bad, why) in [
            (
                "# TYPE a counter\n# TYPE a counter\na 1\n",
                "duplicate # TYPE",
            ),
            ("a 1\n", "no preceding # TYPE"),
            ("# TYPE a counter\na 1\na 1\n", "duplicate series"),
            ("# TYPE a counter\na one\n", "non-numeric sample"),
            ("# TYPE a widget\na 1\n", "unknown metric kind"),
            ("# TYPE a counter\n9a 1\n", "illegal series name"),
        ] {
            let err = validate_exposition(bad).expect_err(why);
            assert!(
                err.contains(why),
                "expected {why:?} in the error, got {err:?}"
            );
        }
    }

    #[test]
    fn expose_text_is_empty_when_disabled() {
        assert_eq!(MetricsSink::disabled().expose_text(), "");
    }
}
