//! Campaign telemetry: JSON-lines records for `reproduce --metrics`.
//!
//! Each record is one JSON object per line, built with
//! [`bvf_obs::jsonl::Record`] so the byte layout is a deterministic
//! function of the values. Three kinds are emitted:
//!
//! - `"app"` — one per application result,
//! - `"campaign"` — one per campaign (fan-out totals, merged phase profile),
//! - `"exhibit"` — one per rendered paper table.
//!
//! **Every run-dependent field lives under the `"timing"` key.** Wall
//! times, throughputs, worker counts, shard counts, and phase profiles vary
//! run to run; everything else (counters, rates, exhibit tables) is a pure
//! function of the simulated workload. Scrubbing `"timing"` from two
//! telemetry streams must therefore leave byte-identical lines whatever
//! `--jobs` or `--shards` was — the determinism test in `reproduce.rs`
//! holds the simulator to exactly that.

use bvf_gpu::TraceSummary;
use bvf_obs::jsonl::Record;
use bvf_workloads::Application;

use crate::campaign::{AppResult, Campaign};
use crate::table::Table;

/// The run-independent fields of an app record: everything that is a pure
/// function of the simulated workload, in the field order both
/// [`app_record`] and [`app_record_scrubbed`] emit.
fn app_record_base(campaign: &str, app: &Application, summary: &TraceSummary) -> Record {
    Record::new("app")
        .str("campaign", campaign)
        .str("app", app.code)
        .str("name", app.name)
        .u64("cycles", summary.cycles)
        .u64("instructions", summary.dynamic_instructions)
        .f64("l1d_hit_rate", summary.l1d_hit_rate)
        .f64("l2_hit_rate", summary.l2_hit_rate)
        .u64("dram_requests", summary.dram.requests)
}

/// Telemetry for one application result within a labelled campaign.
///
/// `cached` lives under `"timing"`: whether a result came from the store
/// varies run to run (cold vs warm), while the result itself does not —
/// that placement is what keeps scrubbed cold and warm streams
/// byte-identical.
pub fn app_record(campaign: &str, r: &AppResult) -> String {
    let timing = Record::object()
        .u64("wall_ns", r.wall.as_nanos() as u64)
        .f64("instructions_per_second", r.instructions_per_second)
        .bool("cached", r.cached)
        .u64("shards", u64::from(r.shards))
        .finish();
    app_record_base(campaign, &r.app, &r.summary)
        .raw("timing", &timing)
        .finish()
}

/// An [`app_record`] with the `"timing"` object never emitted: byte-for-byte
/// what scrubbing `"timing"` from an app record leaves. This is the line
/// `bvf-serve` streams per application — response bodies must be a pure
/// function of the request (N clients attached to one single-flight
/// simulation each get the same bytes, equal to a direct campaign's
/// scrubbed telemetry), so the run-dependent story is omitted at the
/// source instead of scrubbed after the fact.
pub fn app_record_scrubbed(campaign: &str, app: &Application, summary: &TraceSummary) -> String {
    app_record_base(campaign, app, summary).finish()
}

/// Telemetry for one campaign: workload identity and totals, with the
/// fan-out's wall-clock story (and the merged phase profile, when the run
/// was profiled) nested under `"timing"`.
pub fn campaign_record(label: &str, c: &Campaign) -> String {
    let report = c.run_report();
    let mut timing = Record::object()
        .u64("wall_ns", report.wall.as_nanos() as u64)
        .u64("workers", report.workers as u64)
        .u64("cache_hits", report.cache_hits as u64)
        .u64("cache_misses", report.cache_misses as u64)
        .u64("cache_verified", report.cache_verified as u64)
        .u64("input_generations", report.input_generations)
        .u64("set_size", report.set_size as u64)
        .u64("min_app_wall_ns", report.min_app_wall.as_nanos() as u64)
        .u64("mean_app_wall_ns", report.mean_app_wall.as_nanos() as u64)
        .u64("max_app_wall_ns", report.max_app_wall.as_nanos() as u64)
        .f64("instructions_per_second", report.instructions_per_second)
        .u64("shards", u64::from(report.shards))
        .u64("max_item_wall_ns", report.max_item_wall.as_nanos() as u64);
    if let Some((code, wall)) = report.slowest {
        timing = timing
            .str("slowest_app", code)
            .u64("slowest_app_wall_ns", wall.as_nanos() as u64);
    }
    let profile = c.merged_profile();
    if profile.is_enabled() {
        let slices: Vec<String> = profile
            .slices
            .iter()
            .map(|s| {
                Record::object()
                    .str("phase", s.phase.name())
                    .u64("nanos", s.nanos)
                    .u64("events", s.events)
                    .finish()
            })
            .collect();
        timing = timing
            .u64("launch_nanos", profile.launch_nanos)
            .raw("phases", &format!("[{}]", slices.join(",")));
    }
    let mut rec = Record::new("campaign")
        .str("campaign", label)
        .u64("apps", c.results.len() as u64)
        .u64("failed", c.failures.len() as u64)
        .str("isa_mask", &format!("{:#018x}", c.isa_mask))
        .u64("total_instructions", report.total_instructions);
    // Failures are deterministic given the invocation (a panic is a
    // simulator property, not a scheduling accident), so they sit outside
    // "timing" where the determinism checks will catch a flaky one.
    if !c.failures.is_empty() {
        let fails: Vec<String> = c
            .failures
            .iter()
            .map(|f| {
                Record::object()
                    .str("app", f.app)
                    .str("error", &f.error)
                    .finish()
            })
            .collect();
        rec = rec.raw("failures", &format!("[{}]", fails.join(",")));
    }
    rec.raw("timing", &timing.finish()).finish()
}

/// Telemetry for one rendered exhibit (a paper table/figure).
pub fn exhibit_record(t: &Table) -> String {
    Record::new("exhibit")
        .str("exhibit", &t.id)
        .raw("table", &t.to_json())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignOptions, Parallelism};
    use bvf_gpu::GpuConfig;
    use bvf_obs::json;
    use bvf_obs::MetricsSink;

    fn tiny_campaign(sink: MetricsSink) -> Campaign {
        let mut config = GpuConfig::baseline();
        config.sms = 1;
        let apps: Vec<Application> = ["VAD", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        Campaign::run_with_options(
            config,
            &apps,
            &CampaignOptions {
                par: Parallelism::Sequential,
                sink,
                ..CampaignOptions::default()
            },
        )
    }

    #[test]
    fn records_parse_and_isolate_timing() {
        let c = tiny_campaign(MetricsSink::enabled());
        for line in [
            app_record("main", &c.results[0]),
            campaign_record("main", &c),
        ] {
            let v = json::parse(&line).expect("valid JSON");
            assert!(v.get("record").is_some(), "missing kind tag: {line}");
            assert!(
                matches!(v.get("timing"), Some(json::Value::Object(_))),
                "timing must be a nested object: {line}"
            );
            // Scrubbing "timing" removes every run-dependent field; what
            // remains must not mention nanoseconds or throughput.
            let scrubbed = v.without("timing").to_json_string();
            for needle in ["_ns\"", "per_second", "nanos"] {
                assert!(
                    !scrubbed.contains(needle),
                    "run-dependent field {needle} escaped timing: {scrubbed}"
                );
            }
        }
    }

    #[test]
    fn scrubbed_app_record_equals_scrubbing_the_full_record() {
        // bvf-serve streams `app_record_scrubbed` lines and promises they
        // are byte-identical to a direct campaign's telemetry with
        // "timing" scrubbed — pin the two construction paths together.
        let c = tiny_campaign(MetricsSink::enabled());
        for r in &c.results {
            let scrubbed = app_record_scrubbed("serve", &r.app, &r.summary);
            let full = json::parse(&app_record("serve", r))
                .expect("valid JSON")
                .without("timing")
                .to_json_string();
            assert_eq!(scrubbed, full);
        }
    }

    #[test]
    fn profiled_campaign_record_carries_phases() {
        let c = tiny_campaign(MetricsSink::enabled());
        let v = json::parse(&campaign_record("main", &c)).expect("valid JSON");
        let timing = v.get("timing").expect("timing object");
        let json::Value::Array(phases) = timing.get("phases").expect("phases") else {
            panic!("phases must be an array");
        };
        assert_eq!(phases.len(), 9);
        assert_eq!(
            phases[0].get("phase").and_then(json::Value::as_str),
            Some("exec")
        );
    }

    #[test]
    fn unprofiled_campaign_record_omits_phases() {
        let c = tiny_campaign(MetricsSink::disabled());
        let v = json::parse(&campaign_record("main", &c)).expect("valid JSON");
        assert!(v.get("timing").expect("timing").get("phases").is_none());
    }

    #[test]
    fn cache_traffic_is_timing_and_failures_are_not() {
        let c = tiny_campaign(MetricsSink::disabled());
        let v = json::parse(&campaign_record("main", &c)).expect("valid JSON");
        let timing = v.get("timing").expect("timing object");
        // Hit/miss counts vary cold vs warm, so they must be scrubbed with
        // the rest of the run-dependent story.
        assert!(timing.get("cache_hits").is_some());
        assert!(timing.get("cache_misses").is_some());
        assert!(timing.get("cache_verified").is_some());
        assert_eq!(v.get("failed").and_then(json::Value::as_f64), Some(0.0));
        assert!(v.get("failures").is_none(), "no failures key when clean");
        // An app record carries its cache provenance under timing too.
        let a = json::parse(&app_record("main", &c.results[0])).expect("valid JSON");
        assert_eq!(
            a.get("timing").expect("timing").get("cached"),
            Some(&json::Value::Bool(false))
        );
    }

    #[test]
    fn scrubbed_records_are_shard_count_invariant() {
        use crate::campaign::ShardMode;
        let run = |shards| {
            let mut config = GpuConfig::baseline();
            config.sms = 2;
            let apps: Vec<Application> = ["VAD", "SGE"]
                .iter()
                .map(|c| Application::by_code(c).expect("app"))
                .collect();
            Campaign::run_with_options(
                config,
                &apps,
                &CampaignOptions {
                    par: Parallelism::Fixed(2),
                    shards,
                    ..CampaignOptions::default()
                },
            )
        };
        let plain = run(ShardMode::Off);
        let sharded = run(ShardMode::Fixed(2));
        // The shard count is visible under "timing"...
        let v = json::parse(&campaign_record("main", &sharded)).expect("valid JSON");
        let timing = v.get("timing").expect("timing object");
        assert_eq!(
            timing.get("shards").and_then(json::Value::as_f64),
            Some(2.0)
        );
        assert!(timing.get("max_item_wall_ns").is_some());
        let a = json::parse(&app_record("main", &sharded.results[0])).expect("valid JSON");
        assert_eq!(
            a.get("timing")
                .expect("timing")
                .get("shards")
                .and_then(json::Value::as_f64),
            Some(2.0)
        );
        // ...and ONLY under "timing": scrubbed records cannot tell how the
        // work was split.
        for (p, s) in [
            (
                campaign_record("main", &plain),
                campaign_record("main", &sharded),
            ),
            (
                app_record("main", &plain.results[1]),
                app_record("main", &sharded.results[1]),
            ),
        ] {
            let scrub = |line: &str| {
                json::parse(line)
                    .expect("valid JSON")
                    .without("timing")
                    .to_json_string()
            };
            assert_eq!(scrub(&p), scrub(&s));
        }
    }

    #[test]
    fn failed_campaign_record_lists_the_failures() {
        let mut config = GpuConfig::baseline();
        config.sms = 1;
        let apps: Vec<Application> = ["VAD", "SGE"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect();
        let c = Campaign::run_with_options(
            config,
            &apps,
            &CampaignOptions {
                par: Parallelism::Sequential,
                fault: Some("SGE".to_string()),
                ..CampaignOptions::default()
            },
        );
        let v = json::parse(&campaign_record("main", &c)).expect("valid JSON");
        assert_eq!(v.get("apps").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(v.get("failed").and_then(json::Value::as_f64), Some(1.0));
        let json::Value::Array(fails) = v.get("failures").expect("failures") else {
            panic!("failures must be an array");
        };
        assert_eq!(
            fails[0].get("app").and_then(json::Value::as_str),
            Some("SGE")
        );
        assert!(fails[0]
            .get("error")
            .and_then(json::Value::as_str)
            .expect("error string")
            .contains("injected fault"));
    }

    #[test]
    fn exhibit_record_embeds_the_table() {
        let mut t = Table::new("fig_test", "A test table", vec!["x".into()]);
        t.push("row \"one\"", vec![1.5]);
        let v = json::parse(&exhibit_record(&t)).expect("valid JSON");
        assert_eq!(
            v.get("exhibit").and_then(json::Value::as_str),
            Some("fig_test")
        );
        let table = v.get("table").expect("table");
        assert_eq!(
            table.get("id").and_then(json::Value::as_str),
            Some("fig_test")
        );
    }
}
