//! The two `reproduce` workloads. Every timed pass runs the `reproduce`
//! binary itself on the full exhibit set with one worker and
//! `--metrics FILE`. Cold adds `--cache DIR`, an empty result store made
//! for the pass. Sharded adds `--shards 4` instead, with no store: its
//! five small-file writes per app would make it time the file system
//! rather than the per-shard launch set-up it is there to measure. Each
//! pass's standard output is checked against the reference digest, and
//! its per-app telemetry records give the latencies.
//!
//! Each pass's set-up is the smoke check a user runs first,
//! `reproduce quick --jobs 1` (the 6-app subset), made twice and checked
//! against its own digest; `setup_s` is the median wall of all of them.
//! Spreading them over the run, rather than making them all at its
//! start, keeps a burst of host contention from setting the figure.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bvf_circuit::{PState, ProcessNode};
use bvf_gpu::{merge_shards, CodingView, Gpu, GpuConfig, Phase, TraceSummary};
use bvf_obs::json::{self, Value};
use bvf_obs::{MetricsSink, TraceEvent};
use bvf_power::{EnergyReport, PowerModel};
use bvf_sim::{metrics, Campaign, ResultStore, ShardMode, TraceReport};
use bvf_workloads::Application;

use crate::exhibits::{campaign_configs, run_pass, Probe, ARCH, REFERENCE, REFERENCE_QUICK};
use crate::host::HostSpeed;
use crate::measure::{self, median, samples_needed, Digest, LatencySummary};
use crate::report::{Layers, Outcome};

/// Shards per app in the sharded workload.
pub const SHARDS: u32 = 4;
/// Fewest exhibit passes a run measures, however long each takes.
const MIN_PASSES: usize = 3;
/// Smoke runs before each timed pass.
const SMOKES_PER_PASS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Sharded,
}

/// What one app record of a pass's telemetry says.
#[derive(Debug, Clone, PartialEq)]
struct AppRecord {
    instructions: u64,
    wall_ns: u64,
    cached: bool,
    /// The record without its `"timing"`: a pure function of the app's
    /// simulated result.
    scrubbed: Value,
}

/// The telemetry a pass appended with `--metrics`.
#[derive(Debug, Default, PartialEq)]
struct Telemetry {
    apps: Vec<AppRecord>,
    /// Failed apps over every campaign record.
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Telemetry {
    /// App results plus failed apps.
    fn operations(&self) -> u64 {
        self.apps.len() as u64 + self.failed
    }

    /// Read the `"app"` and `"campaign"` records of a JSON-lines stream;
    /// other records are skipped.
    fn parse(text: &str) -> Result<Self, String> {
        let number = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .map(|x| x as u64)
                .ok_or(format!("telemetry record without {key:?}"))
        };
        let mut t = Telemetry::default();
        for line in text.lines() {
            let v = json::parse(line).map_err(|e| format!("bad telemetry line: {e:?}"))?;
            let timing = || v.get("timing").ok_or("telemetry record without timing");
            match v.get("record").and_then(Value::as_str) {
                Some("app") => t.apps.push(AppRecord {
                    instructions: number(&v, "instructions")?,
                    wall_ns: number(timing()?, "wall_ns")?,
                    cached: matches!(timing()?.get("cached"), Some(Value::Bool(true))),
                    scrubbed: v.without("timing"),
                }),
                Some("campaign") => {
                    t.failed += number(&v, "failed")?;
                    t.cache_hits += number(timing()?, "cache_hits")?;
                    t.cache_misses += number(timing()?, "cache_misses")?;
                }
                _ => {}
            }
        }
        Ok(t)
    }
}

/// One run of the `reproduce` binary.
struct BinaryPass {
    wall: Duration,
    stdout: String,
    telemetry: Telemetry,
}

/// Runs passes of the binary, each in a fresh directory under `root`.
struct Runner<'a> {
    binary: &'a Path,
    kind: Kind,
    root: PathBuf,
    made: usize,
}

impl Runner<'_> {
    /// A fresh pass directory; the caller removes it.
    fn prepare(&mut self) -> Result<PathBuf, String> {
        let dir = self.root.join(format!("pass-{}", self.made));
        self.made += 1;
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// One smoke run, its output checked; returns its wall time.
    fn smoke(&self, tally: &mut Tally) -> Result<Duration, String> {
        let t0 = Instant::now();
        let out = Command::new(self.binary)
            .args(["quick", "--jobs", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.binary.display()))?;
        let wall = t0.elapsed();
        if !out.status.success() {
            return Err(format!("reproduce quick exited with {}", out.status));
        }
        if Digest::of(&String::from_utf8_lossy(&out.stdout)) != REFERENCE_QUICK {
            tally
                .errors
                .push("reproduce quick output differs from its reference".to_string());
        }
        Ok(wall)
    }

    /// One timed pass in `dir`; with `trace`, it also writes
    /// `dir/trace.json`.
    fn pass(&self, dir: &Path, trace: bool) -> Result<BinaryPass, String> {
        let metrics = dir.join("metrics.jsonl");
        let mut cmd = Command::new(self.binary);
        cmd.arg("--jobs").arg("1").arg("--metrics").arg(&metrics);
        match self.kind {
            Kind::Cold => cmd.arg("--cache").arg(dir.join("store")),
            Kind::Sharded => cmd.arg("--shards").arg(SHARDS.to_string()),
        };
        if trace {
            cmd.arg("--trace").arg(dir.join("trace.json"));
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let t0 = Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.binary.display()))?;
        let wall = t0.elapsed();
        let text = std::fs::read_to_string(&metrics)
            .map_err(|e| format!("cannot read {}: {e}", metrics.display()))?;
        let telemetry = Telemetry::parse(&text)?;
        // `reproduce` exits 1 when an app failed, and only then.
        let expected = if telemetry.failed > 0 { 1 } else { 0 };
        if out.status.code() != Some(expected) {
            return Err(format!(
                "reproduce exited with {} after {} failed apps: {}",
                out.status,
                telemetry.failed,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok(BinaryPass {
            wall,
            stdout: String::from_utf8(out.stdout).map_err(|_| "reproduce printed non-UTF-8")?,
            telemetry,
        })
    }
}

fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
}

/// What the timed passes of one run add up to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    walls: Vec<f64>,
    setup: Vec<f64>,
    latencies_ms: Vec<f64>,
    /// Per pass: warp instructions simulated per host second of the
    /// apps' simulation (store hits excluded).
    instr_per_s: Vec<f64>,
    /// Per pass: operations per second of its wall.
    ops_per_s: Vec<f64>,
}

impl Tally {
    /// Check a text against the reference, recording a mismatch.
    fn check(&mut self, what: &str, text: &str) -> bool {
        let digest = Digest::of(text);
        if digest != REFERENCE && self.errors.len() < 4 {
            self.errors.push(format!(
                "{what} differs from reproduce: got {digest}, want {REFERENCE}"
            ));
        }
        digest == REFERENCE
    }

    /// Check a pass's output against the reference and count its
    /// operations: one per app result or failed app. A pass whose text
    /// differs counts every operation failed.
    fn record(&mut self, pass: &BinaryPass) {
        let ops = pass.telemetry.operations();
        self.attempted += ops;
        self.failed += if self.check("standard output", &pass.stdout) {
            pass.telemetry.failed
        } else {
            ops
        };
        self.walls.push(pass.wall.as_secs_f64());
        self.ops_per_s.push(ops as f64 / pass.wall.as_secs_f64());
        let (mut instructions, mut nanos) = (0u64, 0u64);
        for r in &pass.telemetry.apps {
            self.latencies_ms.push(r.wall_ns as f64 / 1e6);
            if !r.cached {
                instructions += r.instructions;
                nanos += r.wall_ns;
            }
        }
        self.instr_per_s
            .push(instructions as f64 / (nanos as f64 / 1e9));
    }

    fn enough(&self, started: Instant, seconds: f64) -> bool {
        started.elapsed().as_secs_f64() >= seconds
            && self.walls.len() >= MIN_PASSES
            && self.latencies_ms.len() >= samples_needed(99.0)
    }
}

/// Run one `reproduce` workload for `seconds` and report its metrics:
/// the end-to-end set, or with `traced` the per-layer set.
pub fn run(
    kind: Kind,
    binary: &Path,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut runner = Runner {
        binary,
        kind,
        root: work.to_path_buf(),
        made: 0,
    };
    let mut tally = Tally::default();
    let started = Instant::now();
    let outcome = if traced {
        let mut untraced = Vec::new();
        let mut traced_walls = Vec::new();
        let mut layers = Layers::default();
        while untraced.len() < 2 || started.elapsed().as_secs_f64() < seconds {
            let dir = runner.prepare()?;
            let pass = runner.pass(&dir, false)?;
            tally.record(&pass);
            untraced.push(pass.wall.as_secs_f64());
            remove(&dir)?;

            let dir = runner.prepare()?;
            let pass = runner.pass(&dir, true)?;
            tally.record(&pass);
            traced_walls.push(pass.wall.as_secs_f64());
            let mut sample = traced_layers(&dir, &pass, &mut tally)?;
            remove(&dir)?;

            let dir = runner.prepare()?;
            let store = Arc::new(
                ResultStore::open(dir.join("store"))
                    .map_err(|e| format!("cannot open the walk's store: {e}"))?,
            );
            walk(
                kind,
                &store,
                &pass.telemetry,
                &mut sample,
                &mut tally.errors,
            );
            replay(store, &mut sample, &mut tally);
            remove(&dir)?;
            layers.push(sample);
        }
        let overhead = (median(&traced_walls) / median(&untraced) - 1.0) * 100.0;
        layers.finish(overhead)
    } else {
        let mut host = HostSpeed::default();
        while !tally.enough(started, seconds) {
            host.sample();
            for _ in 0..SMOKES_PER_PASS {
                let wall = runner.smoke(&mut tally)?;
                tally.setup.push(wall.as_secs_f64());
            }
            host.sample();
            let dir = runner.prepare()?;
            let pass = runner.pass(&dir, false)?;
            tally.record(&pass);
            remove(&dir)?;
        }
        eprintln!(
            "{} passes; walls (s): {:.4?}\ncalibration loops (s): {:.4?}\n{}",
            tally.walls.len(),
            tally.walls,
            host.samples(),
            host.describe()
        );
        // Every time here is CPU work of one process, so all of them
        // are scaled to the reference host.
        let latencies: Vec<f64> = tally.latencies_ms.iter().map(|&t| host.time(t)).collect();
        let latency = LatencySummary::of(&latencies)?;
        eprintln!("{}", latency.describe("app results"));
        Outcome::end_to_end(
            host.time(median(&tally.walls)),
            host.rate(median(&tally.instr_per_s)),
            host.rate(median(&tally.ops_per_s)),
            &latency,
            host.time(median(&tally.setup)),
            measure::children_peak_rss_mb()?,
        )
    };
    Ok(outcome.with_counts(tally.attempted, tally.failed, tally.errors))
}

/// Per-layer figures of a traced binary pass: the critical-path
/// partition of every campaign in its trace, and its store hit ratio.
fn traced_layers(
    dir: &Path,
    pass: &BinaryPass,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let ops = pass.telemetry.operations() as f64;
    let per_op = |nanos: u64| nanos as f64 / 1e6 / ops;
    let mut rows = [0u64; 7];
    let events = read_trace(&dir.join("trace.json"))?;
    let reports = TraceReport::from_events(&events);
    if reports.len() != campaign_configs().len() {
        tally.errors.push(format!(
            "the trace holds {} campaigns, the exhibit set runs {}",
            reports.len(),
            campaign_configs().len()
        ));
    }
    for report in reports {
        if report.rows_total_ns() != report.wall_ns {
            tally.errors.push(format!(
                "{}: trace rows sum to {} ns, campaign wall is {} ns",
                report.campaign,
                report.rows_total_ns(),
                report.wall_ns
            ));
        }
        for row in &report.rows {
            let slot = match row.label {
                "setup" => 0,
                "queue wait" => 1,
                "store consult" | "store save" => 2,
                "simulate (launches)" => 3,
                "item overhead" => 4,
                "merge + DRAM replay" => 5,
                _ => 6,
            };
            rows[slot] += row.nanos;
        }
    }
    let t = &pass.telemetry;
    Ok(vec![
        ("campaign.setup_ms", per_op(rows[0])),
        ("campaign.queue_wait_ms", per_op(rows[1])),
        ("campaign.store_ms", per_op(rows[2])),
        ("campaign.simulate_ms", per_op(rows[3])),
        ("campaign.item_overhead_ms", per_op(rows[4])),
        ("campaign.merge_ms", per_op(rows[5])),
        ("campaign.assembly_ms", per_op(rows[6])),
        (
            "store.hit_ratio",
            t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
        ),
    ])
}

/// The events of a Chrome trace file `reproduce --trace` wrote, in file
/// order. Timestamps come back to whole nanoseconds: the file keeps
/// microseconds to three decimals.
fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("bad trace file: {e:?}"))?;
    if v.get("droppedEvents").and_then(Value::as_f64) != Some(0.0) {
        return Err("the trace dropped events".to_string());
    }
    let Some(Value::Array(items)) = v.get("traceEvents") else {
        return Err("the trace has no traceEvents list".to_string());
    };
    let number = |e: &Value, key: &str| -> Result<f64, String> {
        e.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("trace event without {key:?}"))
    };
    let nanos = |e: &Value, key: &str| number(e, key).map(|us| (us * 1e3).round() as u64);
    let text_of = |e: &Value, key: &str| -> Result<String, String> {
        e.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("trace event without {key:?}"))
    };
    items
        .iter()
        .map(|e| {
            Ok(TraceEvent {
                path: text_of(e, "id")?,
                cat: category(&text_of(e, "cat")?),
                seq: number(e, "seq")? as u32,
                tid: 0,
                t0_ns: nanos(e, "ts")?,
                dur_ns: nanos(e, "dur")?,
                args: Vec::new(),
            })
        })
        .collect()
}

/// A trace category as the `&'static str` events carry.
fn category(name: &str) -> &'static str {
    const KNOWN: [&str; 6] = ["campaign", "app", "phase", "sched", "store", "gpu"];
    KNOWN
        .iter()
        .find(|k| **k == name)
        .copied()
        .unwrap_or("other")
}

/// Replay the exhibit set through the library over the store the layer
/// walk filled: every app is a store hit, so this times the `figures::*`
/// builders. Its text must match the reference, and reading the walk's
/// entries back must find none corrupt.
fn replay(store: Arc<ResultStore>, out: &mut Vec<(&'static str, f64)>, tally: &mut Tally) {
    let pass = run_pass(store.clone(), ShardMode::Off);
    tally.check("library replay", &pass.text);
    if pass.failures() > 0 {
        tally.errors.push(format!(
            "{} apps failed in the library replay",
            pass.failures()
        ));
    }
    out.push((
        "figures.render_ms",
        pass.probe.nanos("figures.render_ms") as f64 / 1e6 / pass.operations() as f64,
    ));
    out.push(("store.quarantined", store.stats().quarantined as f64));
}

/// Phase time and event totals over the launches a walk simulated.
#[derive(Default)]
struct Phases {
    nanos: [u64; 7],
    events: [u64; 7],
    launches: u64,
    instructions: u64,
}

/// Each launch phase with its two per-layer metrics.
const PHASES: [(Phase, &str, &str); 7] = [
    (
        Phase::Exec,
        "gpu.phase.exec_ms",
        "gpu.phase.exec_ns_per_event",
    ),
    (
        Phase::Ifetch,
        "gpu.phase.ifetch_ms",
        "gpu.phase.ifetch_ns_per_event",
    ),
    (
        Phase::DataMemory,
        "gpu.phase.data_memory_ms",
        "gpu.phase.data_memory_ns_per_event",
    ),
    (
        Phase::StatsInstr,
        "gpu.phase.stats_instr_ms",
        "gpu.phase.stats_instr_ns_per_event",
    ),
    (
        Phase::StatsData,
        "gpu.phase.stats_data_ms",
        "gpu.phase.stats_data_ns_per_event",
    ),
    (
        Phase::DramDrain,
        "gpu.phase.dram_drain_ms",
        "gpu.phase.dram_drain_ns_per_event",
    ),
    (
        Phase::Other,
        "gpu.phase.other_ms",
        "gpu.phase.other_ns_per_event",
    ),
];

impl Phases {
    fn add(&mut self, summary: &TraceSummary, launches: u64, errors: &mut Vec<String>) {
        let p = &summary.profile;
        let sum: u64 = p.slices.iter().map(|s| s.nanos).sum();
        if sum != p.launch_nanos {
            errors.push(format!(
                "phase slices sum to {sum} ns, launch_nanos is {}",
                p.launch_nanos
            ));
        }
        for (i, (phase, _, _)) in PHASES.iter().enumerate() {
            if let Some(s) = p.slice(*phase) {
                self.nanos[i] += s.nanos;
                self.events[i] += s.events;
            }
        }
        self.launches += launches;
    }
}

/// Replay the workload's per-app pipeline through each crate's public
/// functions, timing every call: mask derivation, kernel build, GPU
/// construction, buffer preparation, launch (or shard launches and their
/// merge), store reads and writes (cold only), and one power evaluation
/// per result. Every result must match the binary's app record for the
/// same app, and lands in `store` for the library replay (untimed on
/// sharded, whose workload has no store).
fn walk(
    kind: Kind,
    store: &ResultStore,
    binary: &Telemetry,
    out: &mut Vec<(&'static str, f64)>,
    errors: &mut Vec<String>,
) {
    let recorded: BTreeMap<(&str, &str), &Value> = binary
        .apps
        .iter()
        .filter_map(|r| {
            let field = |k| r.scrubbed.get(k).and_then(Value::as_str);
            Some(((field("campaign")?, field("app")?), &r.scrubbed))
        })
        .collect();
    let mut probe = Probe::default();
    let mut phases = Phases::default();
    let sink = MetricsSink::enabled();
    let apps = Application::all();
    for (label, config) in campaign_configs() {
        let mask = probe.time("isa.derive_mask_ms", || {
            Campaign::derive_isa_mask(ARCH, &apps)
        });
        let views = CodingView::standard_set(mask);
        for app in &apps {
            let key = ResultStore::key(&config, ARCH, mask, app.code);
            let summary = match kind {
                Kind::Sharded => {
                    let summary =
                        walk_sharded(&mut probe, &mut phases, errors, &config, &views, &sink, app);
                    store.save(key, app.code, &summary);
                    summary
                }
                Kind::Cold => match probe.time("store.load_ms", || store.load(key, app.code)) {
                    Some(summary) => summary,
                    None => {
                        let kernel = probe.time("workloads.kernel_ms", || app.kernel());
                        let mut gpu = new_gpu(&mut probe, &config, &views, &sink);
                        probe.time("workloads.prepare_ms", || app.prepare(&mut gpu));
                        let summary = probe
                            .time("gpu.launch_ms", || gpu.launch(&kernel, app.launch_config()));
                        phases.instructions += summary.dynamic_instructions;
                        phases.add(&summary, 1, errors);
                        probe.time("store.save_ms", || store.save(key, app.code, &summary));
                        summary
                    }
                },
            };
            probe.time("power.evaluate_ms", || {
                let model = PowerModel::new(ProcessNode::N28, PState::P0, config.clone());
                EnergyReport::standard(&model, &summary)
            });
            let walked = json::parse(&metrics::app_record_scrubbed(label, app, &summary)).ok();
            if walked.as_ref() != recorded.get(&(label, app.code)).copied() {
                errors.push(format!(
                    "{label}/{}: layer-by-layer result differs from the binary's record",
                    app.code
                ));
            }
        }
    }
    let ops = binary.operations() as f64;
    let per_op = |nanos: u64| nanos as f64 / 1e6 / ops;
    for layer in [
        "gpu.launch_ms",
        "gpu.new_ms",
        "gpu.launch_shard_ms",
        "gpu.merge_shards_ms",
        "workloads.kernel_ms",
        "workloads.prepare_ms",
        "isa.derive_mask_ms",
        "store.load_ms",
        "store.save_ms",
        "power.evaluate_ms",
    ] {
        out.push((layer, per_op(probe.nanos(layer))));
    }
    let gpu_nanos = probe.nanos("gpu.launch_ms")
        + probe.nanos("gpu.launch_shard_ms")
        + probe.nanos("gpu.merge_shards_ms");
    out.push((
        "gpu.ns_per_instr",
        ratio(gpu_nanos as f64, phases.instructions as f64),
    ));
    for (i, (phase, ms, ns_per_event)) in PHASES.iter().enumerate() {
        // `other` records no events: its time is per launch.
        let events = if *phase == Phase::Other {
            phases.launches
        } else {
            phases.events[i]
        };
        out.push((ms, per_op(phases.nanos[i])));
        out.push((ns_per_event, ratio(phases.nanos[i] as f64, events as f64)));
    }
}

fn new_gpu(probe: &mut Probe, config: &GpuConfig, views: &[CodingView], sink: &MetricsSink) -> Gpu {
    let mut gpu = probe.time("gpu.new_ms", || Gpu::new(config.clone(), views.to_vec()));
    gpu.set_architecture(ARCH);
    gpu.set_metrics(sink.clone());
    gpu
}

/// One app of the sharded pipeline: each shard simulated on its own GPU,
/// then merged.
fn walk_sharded(
    probe: &mut Probe,
    phases: &mut Phases,
    errors: &mut Vec<String>,
    config: &GpuConfig,
    views: &[CodingView],
    sink: &MetricsSink,
    app: &Application,
) -> TraceSummary {
    let mut shards = Vec::with_capacity(SHARDS as usize);
    for s in 0..SHARDS {
        let kernel = probe.time("workloads.kernel_ms", || app.kernel());
        let mut gpu = new_gpu(probe, config, views, sink);
        probe.time("workloads.prepare_ms", || app.prepare(&mut gpu));
        let shard = probe.time("gpu.launch_shard_ms", || {
            gpu.launch_shard(&kernel, app.launch_config(), s, SHARDS)
        });
        phases.instructions += shard.dynamic_instructions;
        shards.push(shard);
    }
    let summary = probe.time("gpu.merge_shards_ms", || merge_shards(config, &shards));
    phases.add(&summary, u64::from(SHARDS), errors);
    summary
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_reads_app_and_campaign_records() {
        let text = concat!(
            r#"{"record":"exhibit","exhibit":"fig05","table":{}}"#,
            "\n",
            r#"{"record":"app","campaign":"main","app":"VAD","instructions":1200,"timing":{"wall_ns":3000000,"cached":false}}"#,
            "\n",
            r#"{"record":"app","campaign":"main","app":"SGE","instructions":800,"timing":{"wall_ns":20000,"cached":true}}"#,
            "\n",
            r#"{"record":"campaign","campaign":"main","apps":2,"failed":1,"timing":{"cache_hits":1,"cache_misses":2}}"#,
            "\n",
        );
        let t = Telemetry::parse(text).expect("valid telemetry");
        let read: Vec<(u64, u64, bool)> = t
            .apps
            .iter()
            .map(|r| (r.instructions, r.wall_ns, r.cached))
            .collect();
        assert_eq!(read, vec![(1200, 3_000_000, false), (800, 20_000, true)]);
        assert_eq!(
            t.apps[0].scrubbed,
            json::parse(r#"{"record":"app","campaign":"main","app":"VAD","instructions":1200}"#)
                .expect("valid JSON")
        );
        assert_eq!(t.operations(), 3);
        assert_eq!((t.failed, t.cache_hits, t.cache_misses), (1, 1, 2));
        assert!(Telemetry::parse(r#"{"record":"app","instructions":1}"#).is_err());
    }

    #[test]
    fn a_chrome_trace_reads_back_to_the_same_events() {
        let event = |path: &str, cat: &'static str, seq, t0_ns, dur_ns| TraceEvent {
            path: path.to_string(),
            cat,
            seq,
            tid: 0,
            t0_ns,
            dur_ns,
            args: Vec::new(),
        };
        let events = vec![
            event("campaign:main", "campaign", 0, 1_000, 3_000_000_123),
            event(
                "campaign:main/app:VAD/shard:0",
                "sched",
                2,
                1_500,
                2_999_999_001,
            ),
            event(
                "campaign:main/app:VAD/shard:0/store:save",
                "store",
                7,
                7_777,
                1,
            ),
        ];
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.json");
        std::fs::write(&path, bvf_obs::trace::export_chrome(&events, 0)).expect("write trace");
        let back = read_trace(&path);
        std::fs::write(&path, bvf_obs::trace::export_chrome(&events, 3)).expect("write trace");
        let dropped = read_trace(&path);
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
        assert_eq!(back, Ok(events));
        assert!(dropped.is_err(), "a trace that dropped events is refused");
    }
}
