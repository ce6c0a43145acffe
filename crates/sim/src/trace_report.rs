//! Critical-path analysis of a campaign trace.
//!
//! [`TraceReport::from_events`] takes the merged span stream of a traced
//! run (see [`bvf_obs::trace`]) and attributes each campaign's wall time
//! to the chain that actually blocked it: setup before the first item
//! started, queue time until the *blocking* item (the one that finished
//! last) began, the blocking item itself decomposed into store consult,
//! simulation, store save, and the shard merge / DRAM replay it performed
//! as its application's last unit, and the assembly tail after it. A
//! member of a campaign set shares its span with its siblings: their
//! items end its setup and count as its queue wait.
//!
//! The rows are a *partition* of the campaign span: they are computed as
//! differences of the span's own boundary timestamps, so by construction
//! they sum back to the measured wall (the acceptance test holds this to
//! within 1%, leaving room only for the saturating clamps on pathological
//! timer skew).

use std::fmt;

use bvf_obs::TraceEvent;

/// One attribution row: a label and its self-time share of the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRow {
    /// What the time went to (e.g. `"simulate (launches)"`).
    pub label: &'static str,
    /// Self time in nanoseconds. Rows are disjoint and sum to
    /// [`TraceReport::wall_ns`].
    pub nanos: u64,
}

/// Critical-path attribution for one traced campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// The campaign's causal root, `campaign:<label>`.
    pub campaign: String,
    /// The campaign span's measured duration.
    pub wall_ns: u64,
    /// Disjoint self-time rows summing to `wall_ns`.
    pub rows: Vec<TraceRow>,
    /// The item with the largest duration (its causal path and nanos) —
    /// must name the same item as `RunReport.max_item_wall`.
    pub slowest_item: Option<(String, u64)>,
    /// The item that finished last — the one assembly waited on.
    pub blocking_item: Option<(String, u64)>,
}

/// An item span: a worker-side `.../app:<code>/shard:<s>` unit or
/// `.../app:<code>/consult` whole-app store consult.
fn is_item(e: &TraceEvent) -> bool {
    e.cat == "sched" && (e.name().starts_with("shard:") || e.name() == "consult")
}

impl TraceReport {
    /// Analyze every campaign in a merged event stream (a traced
    /// `reproduce` run records several campaigns into one sink), in the
    /// order their roots appear.
    pub fn from_events(events: &[TraceEvent]) -> Vec<TraceReport> {
        let mut out = Vec::new();
        for root in events.iter().filter(|e| e.cat == "campaign") {
            out.push(Self::for_campaign(root, events));
        }
        out
    }

    fn for_campaign(root: &TraceEvent, events: &[TraceEvent]) -> TraceReport {
        let prefix = format!("{}/", root.path);
        let c0 = root.t0_ns;
        let c1 = root.t0_ns + root.dur_ns;
        let items: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.path.starts_with(&prefix) && is_item(e))
            .collect();
        let slowest_item = items
            .iter()
            .max_by_key(|e| (e.dur_ns, &e.path))
            .map(|e| (e.path.clone(), e.dur_ns));
        let blocking = items
            .iter()
            .max_by_key(|e| (e.t0_ns + e.dur_ns, &e.path))
            .copied();
        let blocking_item = blocking.map(|e| (e.path.clone(), e.dur_ns));

        // Items of other campaigns that ran inside this campaign's span —
        // a campaign set's sibling members — held it up as queued work
        // does: they end the setup and extend the queue wait.
        let siblings: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| is_item(e) && e.t0_ns >= c0 && e.t0_ns + e.dur_ns <= c1)
            .collect();
        let first_start = items
            .iter()
            .chain(&siblings)
            .map(|e| e.t0_ns)
            .min()
            .unwrap_or(c1)
            .clamp(c0, c1);
        let (block_start, block_end) = blocking
            .map(|e| {
                (
                    (e.t0_ns).clamp(first_start, c1),
                    (e.t0_ns + e.dur_ns).clamp(first_start, c1),
                )
            })
            .unwrap_or((first_start, first_start));

        // Decompose the blocking item by its own child spans.
        let mut consult = 0u64;
        let mut simulate = 0u64;
        let mut save = 0u64;
        let mut merge = 0u64;
        if let Some(block) = blocking {
            let child_prefix = format!("{}/", block.path);
            for e in events.iter().filter(|e| e.path.starts_with(&child_prefix)) {
                match e.name() {
                    "store:load" => consult += e.dur_ns,
                    "store:save" => save += e.dur_ns,
                    // The shard merge plus the launch-global DRAM replay
                    // inside `merge_shards`, run by the app's last unit.
                    "merge" if e.cat == "sched" => merge += e.dur_ns,
                    name if name.starts_with("launch:") && e.cat == "gpu" => {
                        // Direct launches only — a cache-verify resim lives
                        // under `.../verify/launch:n` and is store-consult
                        // work, not the item's own simulation.
                        if e.path[child_prefix.len()..].split('/').count() == 1 {
                            simulate += e.dur_ns;
                        } else {
                            consult += e.dur_ns;
                        }
                    }
                    _ => {}
                }
            }
        }
        let block_dur = block_end - block_start;
        // Clamp the decomposition into the item's own duration so the
        // partition stays exact even under timer skew.
        consult = consult.min(block_dur);
        simulate = simulate.min(block_dur - consult);
        save = save.min(block_dur - consult - simulate);
        merge = merge.min(block_dur - consult - simulate - save);
        let item_overhead = block_dur - consult - simulate - save - merge;
        let tail_start = siblings
            .iter()
            .map(|e| e.t0_ns + e.dur_ns)
            .fold(block_end, u64::max);
        // Tail: last item end → campaign end, on the main thread.
        let assembly = c1 - tail_start;

        let rows = vec![
            TraceRow {
                label: "setup",
                nanos: first_start - c0,
            },
            TraceRow {
                label: "queue wait",
                nanos: (block_start - first_start) + (tail_start - block_end),
            },
            TraceRow {
                label: "store consult",
                nanos: consult,
            },
            TraceRow {
                label: "simulate (launches)",
                nanos: simulate,
            },
            TraceRow {
                label: "store save",
                nanos: save,
            },
            TraceRow {
                label: "item overhead",
                nanos: item_overhead,
            },
            TraceRow {
                label: "merge + DRAM replay",
                nanos: merge,
            },
            TraceRow {
                label: "assembly",
                nanos: assembly,
            },
        ];
        TraceReport {
            campaign: root.path.clone(),
            wall_ns: root.dur_ns,
            rows,
            slowest_item,
            blocking_item,
        }
    }

    /// The sum of the self-time rows (equals `wall_ns` by construction).
    pub fn rows_total_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.nanos).sum()
    }

    /// The application code inside an item path, if present.
    pub fn app_of(path: &str) -> Option<&str> {
        path.split('/').find_map(|seg| seg.strip_prefix("app:"))
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        writeln!(f, "critical path — {}", self.campaign)?;
        let wall = self.wall_ns.max(1);
        for row in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>12.3} ms  {:>5.1}%",
                row.label,
                ms(row.nanos),
                row.nanos as f64 * 100.0 / wall as f64,
            )?;
        }
        writeln!(
            f,
            "  {:<22} {:>12.3} ms  100.0%",
            "campaign wall",
            ms(self.wall_ns)
        )?;
        if let Some((path, ns)) = &self.slowest_item {
            writeln!(f, "  slowest item   {path} ({:.3} ms)", ms(*ns))?;
        }
        if let Some((path, ns)) = &self.blocking_item {
            writeln!(f, "  blocking item  {path} ({:.3} ms)", ms(*ns))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(path: &str, cat: &'static str, t0: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            path: path.to_string(),
            cat,
            seq: 0,
            tid: 0,
            t0_ns: t0,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn partition_sums_to_campaign_wall() {
        let events = vec![
            ev("campaign:t", "campaign", 100, 1000),
            ev("campaign:t/app:AAA/shard:0", "sched", 150, 300),
            ev("campaign:t/app:AAA/shard:0/store:load", "store", 150, 10),
            ev("campaign:t/app:AAA/shard:0/launch:0", "gpu", 170, 250),
            ev("campaign:t/app:AAA/shard:0/store:save", "store", 430, 15),
            ev("campaign:t/app:AAA/shard:0/merge", "sched", 445, 4),
            ev("campaign:t/app:BBB/shard:0", "sched", 150, 700),
            ev("campaign:t/app:BBB/shard:0/launch:0", "gpu", 160, 600),
            ev("campaign:t/app:BBB/shard:0/merge", "sched", 770, 60),
        ];
        let reports = TraceReport::from_events(&events);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.wall_ns, 1000);
        assert_eq!(r.rows_total_ns(), r.wall_ns);
        let row = |label: &str| r.rows.iter().find(|x| x.label == label).unwrap().nanos;
        assert_eq!(row("setup"), 50); // 100 → 150
        assert_eq!(row("queue wait"), 0); // blocking item started first
        assert_eq!(row("simulate (launches)"), 600);
        // Only the blocking item's own merge is on the critical path.
        assert_eq!(row("merge + DRAM replay"), 60);
        assert_eq!(row("item overhead"), 40); // 700 − 600 − 60
        assert_eq!(row("assembly"), 250); // the whole 850→1100 tail
        assert_eq!(
            r.slowest_item.as_deref_path(),
            Some(("campaign:t/app:BBB/shard:0", 700))
        );
        assert_eq!(
            r.blocking_item.as_deref_path(),
            Some(("campaign:t/app:BBB/shard:0", 700))
        );
    }

    // Small helper so the assertions above read naturally.
    trait DerefPath {
        fn as_deref_path(&self) -> Option<(&str, u64)>;
    }
    impl DerefPath for Option<(String, u64)> {
        fn as_deref_path(&self) -> Option<(&str, u64)> {
            self.as_ref().map(|(p, n)| (p.as_str(), *n))
        }
    }

    #[test]
    fn sibling_items_after_the_blocking_item_are_queue_wait() {
        // Two members of one set: both roots span the set, and B's last
        // unit runs after A's.
        let events = vec![
            ev("campaign:a", "campaign", 0, 1000),
            ev("campaign:a/app:AAA/shard:0", "sched", 10, 200),
            ev("campaign:b", "campaign", 0, 1010),
            ev("campaign:b/app:AAA/shard:0", "sched", 210, 300),
            ev("campaign:b/app:BBB/shard:0", "sched", 510, 400),
            // A later campaign's item ends outside both spans.
            ev("campaign:c", "campaign", 1100, 100),
            ev("campaign:c/app:AAA/shard:0", "sched", 1110, 50),
        ];
        let reports = TraceReport::from_events(&events);
        let row =
            |r: &TraceReport, label: &str| r.rows.iter().find(|x| x.label == label).unwrap().nanos;
        let a = &reports[0];
        assert_eq!(a.rows_total_ns(), a.wall_ns);
        assert_eq!(row(a, "queue wait"), 700); // B's units, 210 → 910
        assert_eq!(row(a, "assembly"), 90);
        let b = &reports[1];
        assert_eq!(b.rows_total_ns(), b.wall_ns);
        assert_eq!(row(b, "setup"), 10); // A's unit started first
        assert_eq!(row(b, "queue wait"), 500);
        assert_eq!(row(b, "assembly"), 100);
        let c = &reports[2];
        assert_eq!(row(c, "queue wait"), 0);
    }

    #[test]
    fn verify_launches_count_as_consult_not_simulate() {
        let events = vec![
            ev("campaign:t", "campaign", 0, 500),
            ev("campaign:t/app:AAA/shard:0", "sched", 0, 400),
            ev("campaign:t/app:AAA/shard:0/store:load", "store", 0, 20),
            ev("campaign:t/app:AAA/shard:0/verify/launch:0", "gpu", 30, 300),
        ];
        let r = &TraceReport::from_events(&events)[0];
        let row = |label: &str| r.rows.iter().find(|x| x.label == label).unwrap().nanos;
        assert_eq!(row("store consult"), 320);
        assert_eq!(row("simulate (launches)"), 0);
        assert_eq!(r.rows_total_ns(), 500);
    }

    #[test]
    fn a_whole_app_consult_is_an_item() {
        let events = vec![
            ev("campaign:t", "campaign", 0, 100),
            ev("campaign:t/app:AAA/consult", "sched", 10, 30),
            ev("campaign:t/app:AAA/consult/store:load", "store", 10, 25),
        ];
        let r = &TraceReport::from_events(&events)[0];
        let row = |label: &str| r.rows.iter().find(|x| x.label == label).unwrap().nanos;
        assert_eq!(row("setup"), 10);
        assert_eq!(row("store consult"), 25);
        assert_eq!(row("assembly"), 60);
        assert_eq!(
            r.blocking_item.as_deref_path(),
            Some(("campaign:t/app:AAA/consult", 30))
        );
    }

    #[test]
    fn empty_campaign_attributes_everything_to_setup_and_assembly() {
        let events = vec![ev("campaign:t", "campaign", 10, 90)];
        let r = &TraceReport::from_events(&events)[0];
        assert_eq!(r.rows_total_ns(), 90);
        assert!(r.slowest_item.is_none());
        let row = |label: &str| r.rows.iter().find(|x| x.label == label).unwrap().nanos;
        assert_eq!(row("setup"), 90);
    }

    #[test]
    fn app_of_extracts_code() {
        assert_eq!(
            TraceReport::app_of("campaign:t/app:SGE/shard:3"),
            Some("SGE")
        );
        assert_eq!(TraceReport::app_of("campaign:t"), None);
    }
}
