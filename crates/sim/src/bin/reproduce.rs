//! Regenerate every table and figure of the BVF paper in one run.
//!
//! ```text
//! cargo run --release -p bvf-sim --bin reproduce                    # everything
//! cargo run --release -p bvf-sim --bin reproduce -- quick           # smoke subset
//! cargo run --release -p bvf-sim --bin reproduce -- --jobs 8        # worker count
//! cargo run --release -p bvf-sim --bin reproduce -- --jobs 1        # sequential
//! cargo run --release -p bvf-sim --bin reproduce -- --shards auto   # split each
//!                                                   # app across the workers
//! cargo run --release -p bvf-sim --bin reproduce -- --export DIR    # also write
//!                                                   # one .csv + .json per exhibit
//! cargo run --release -p bvf-sim --bin reproduce -- --progress      # heartbeat line
//! cargo run --release -p bvf-sim --bin reproduce -- --profile       # phase breakdown
//! cargo run --release -p bvf-sim --bin reproduce -- --metrics F     # append JSONL
//!                                                   # telemetry records to F
//! cargo run --release -p bvf-sim --bin reproduce -- --cache DIR     # reuse results
//!                                                   # from a persistent store
//! ```
//!
//! Every run simulates each (configuration, ISA, app) key at most once:
//! without `--cache` an in-memory store serves the campaigns that repeat
//! an earlier campaign's keys, and the `store:` line on stderr counts its
//! hits and misses.
//!
//! The full run executes seven campaigns over the 58 applications (the
//! baseline, three warp schedulers and three SRAM-capacity configurations)
//! and prints each exhibit as a fixed-width table. The LRR, two-level,
//! P100 and K80 campaigns collect only the baseline/BVF energy pair that
//! Figs. 21 and 22 read. The six sensitivity campaigns run as one
//! campaign set, app by app, so a worker generates each app's inputs once
//! for all of them; the last stderr lines count the store's traffic and
//! the input images generated. Campaigns fan out over a
//! worker pool — one worker per core unless `--jobs N` pins the count — and
//! each prints a `campaign:` run report to stderr. The output of this binary
//! is the source of `EXPERIMENTS.md`.
//!
//! `--shards N|auto` additionally splits every application into SM-range
//! shards so the pool's tail fills with fractional apps instead of idling
//! behind the longest one. Sharding is an execution detail: exhibits and
//! scrubbed telemetry are bit-identical to an unsharded run.
//!
//! Observability flags never change what is computed: exhibit tables on
//! stdout are bit-identical with and without them. `--progress` and
//! `--profile` write to stderr; `--metrics FILE` appends one JSON object
//! per line (`"app"`, `"campaign"`, and `"exhibit"` records — see
//! `bvf_sim::metrics`), with every run-dependent field nested under the
//! record's `"timing"` key so telemetry from different worker counts can be
//! diffed after scrubbing it. `--cache DIR` keeps that guarantee across
//! cold and warm runs: cached results are bit-identical to simulated ones,
//! so only the `"timing"` story changes.
//!
//! `--trace FILE` records every campaign as a causal span tree and writes
//! it as Chrome trace-event JSON (open in Perfetto or chrome://tracing);
//! after scrubbing the run-dependent fields (`scrub_trace` example) the
//! trace is byte-identical across `--jobs` and `--shards` settings.
//! `--trace-report` prints a per-campaign critical-path table on stderr
//! attributing the campaign wall to its blocking chain.

use std::cell::RefCell;
use std::io::Write;
use std::sync::Arc;

use bvf_circuit::ProcessNode;
use bvf_gpu::{GpuConfig, SchedulerKind};
use bvf_sim::figures::{ablation, circuit, energy, overhead, profile, sensitivity};
use bvf_sim::{
    metrics, Campaign, CampaignOptions, Collection, Parallelism, ResultStore, ShardMode,
};
use bvf_workloads::Application;

const USAGE: &str =
    "usage: reproduce [quick] [--jobs N] [--shards N|auto] [--export DIR] [--metrics FILE]
                 [--progress] [--profile] [--cache DIR] [--cache-verify N]
                 [--trace FILE] [--trace-report] [--inject-panic APP]

  quick           smoke subset (6 apps, 2 SMs) instead of the full 58-app run
  --jobs N        worker count (N >= 1; 1 = sequential)
  --shards N|auto split each app into N SM-range shards (auto = one per
                  worker, capped at the SM count) and merge deterministically;
                  exhibits are bit-identical to an unsharded run
  --export DIR    also write one .csv + .json per exhibit into DIR
  --metrics FILE  append JSON-lines telemetry (app/campaign/exhibit records)
  --progress      live heartbeat line on stderr while campaigns run
  --profile       per-phase simulator time breakdown per campaign (stderr)
  --cache DIR     persistent result store: reuse per-app results whose
                  configuration, ISA, and app are unchanged; write the rest
  --cache-verify N  re-simulate N sampled cache hits per campaign and
                  require bit-identical summaries (needs --cache)
  --trace FILE    write a Chrome trace-event JSON span tree of every
                  campaign to FILE (load in Perfetto / chrome://tracing)
  --trace-report  print a per-campaign critical-path table on stderr
  --inject-panic APP  fault drill: panic the worker simulating APP; the run
                  must still complete every other app and exit 1";

/// Parsed command line. Parsing is strict: unknown flags, missing values,
/// and `--jobs 0` are errors (exit 2), so a typo cannot silently run a
/// multi-minute campaign with default settings.
struct Args {
    quick: bool,
    par: Parallelism,
    shards: ShardMode,
    export_dir: Option<String>,
    metrics_path: Option<String>,
    progress: bool,
    profile: bool,
    cache_dir: Option<String>,
    cache_verify: Option<usize>,
    trace_path: Option<String>,
    trace_report: bool,
    inject_panic: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        par: Parallelism::Auto,
        shards: ShardMode::Off,
        export_dir: None,
        metrics_path: None,
        progress: false,
        profile: false,
        cache_dir: None,
        cache_verify: None,
        trace_path: None,
        trace_report: false,
        inject_panic: None,
    };
    let mut i = 1;
    // A flag's value may not itself look like a flag: `--metrics --profile`
    // is a missing value, not a file named "--profile".
    let value_of = |i: usize, flag: &str| -> Result<String, String> {
        match argv.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} needs a value")),
        }
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "quick" => args.quick = true,
            "--jobs" => {
                let v = value_of(i, "--jobs")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs needs a positive integer, got {v:?}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                args.par = if n == 1 {
                    Parallelism::Sequential
                } else {
                    Parallelism::Fixed(n)
                };
                i += 1;
            }
            "--shards" => {
                let v = value_of(i, "--shards")?;
                args.shards = if v == "auto" {
                    ShardMode::Auto
                } else {
                    let n: u32 = v.parse().map_err(|_| {
                        format!("--shards needs a positive integer or \"auto\", got {v:?}")
                    })?;
                    if n == 0 {
                        return Err("--shards must be at least 1".to_string());
                    }
                    ShardMode::Fixed(n)
                };
                i += 1;
            }
            "--export" => {
                args.export_dir = Some(value_of(i, "--export")?);
                i += 1;
            }
            "--metrics" => {
                args.metrics_path = Some(value_of(i, "--metrics")?);
                i += 1;
            }
            "--progress" => args.progress = true,
            "--profile" => args.profile = true,
            "--cache" => {
                args.cache_dir = Some(value_of(i, "--cache")?);
                i += 1;
            }
            "--cache-verify" => {
                let v = value_of(i, "--cache-verify")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--cache-verify needs an integer, got {v:?}"))?;
                args.cache_verify = Some(n);
                i += 1;
            }
            "--trace" => {
                args.trace_path = Some(value_of(i, "--trace")?);
                i += 1;
            }
            "--trace-report" => args.trace_report = true,
            "--inject-panic" => {
                args.inject_panic = Some(value_of(i, "--inject-panic")?);
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.cache_verify.is_some() && args.cache_dir.is_none() {
        return Err("--cache-verify needs --cache".to_string());
    }
    Ok(args)
}

/// JSON-lines telemetry stream (`--metrics FILE`, append mode). With no
/// path this is a no-op sink.
struct Telemetry {
    out: Option<(String, std::io::BufWriter<std::fs::File>)>,
}

/// Report a failed write and give up. Exhibits and telemetry are the whole
/// point of the run: truncated output that *looks* complete is worse than a
/// loud exit, and the path tells the user which flag to fix.
fn io_bail(what: &str, path: &std::path::Path, e: &std::io::Error) -> ! {
    eprintln!("error: cannot write {what} {}: {e}", path.display());
    std::process::exit(1);
}

impl Telemetry {
    fn open(path: Option<&str>) -> Self {
        let out = path.map(|p| {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .unwrap_or_else(|e| {
                    eprintln!("cannot open metrics file {p:?}: {e}");
                    std::process::exit(2);
                });
            (p.to_string(), std::io::BufWriter::new(f))
        });
        Self { out }
    }

    fn line(&mut self, record: &str) {
        if let Some((path, w)) = &mut self.out {
            if let Err(e) = writeln!(w, "{record}") {
                io_bail("metrics file", std::path::Path::new(path), &e);
            }
        }
    }

    /// Flush buffered records; called once everything is emitted so a full
    /// disk surfaces as an error, not a silently truncated stream.
    fn finish(&mut self) {
        if let Some((path, w)) = &mut self.out {
            if let Err(e) = w.flush() {
                io_bail("metrics file", std::path::Path::new(path), &e);
            }
        }
    }

    /// One `"app"` record per result plus the `"campaign"` rollup.
    fn campaign(&mut self, label: &str, c: &Campaign) {
        if self.out.is_none() {
            return;
        }
        for r in &c.results {
            let rec = metrics::app_record(label, r);
            self.line(&rec);
        }
        let rec = metrics::campaign_record(label, c);
        self.line(&rec);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Without `--cache`, an in-memory store still dedupes the campaigns
    // that repeat a (config, ISA, app) key: GTO and GTX-480 are the
    // baseline's own scheduler and capacity point.
    let store = Arc::new(match &args.cache_dir {
        Some(dir) => ResultStore::open(dir)
            .unwrap_or_else(|e| {
                eprintln!("cannot open cache directory {dir:?}: {e}");
                std::process::exit(2);
            })
            .with_verify_sample(args.cache_verify.unwrap_or(0)),
        None => ResultStore::in_memory(),
    });
    let tracing = args.trace_path.is_some() || args.trace_report;
    let tracer = if tracing {
        bvf_obs::TraceSink::enabled()
    } else {
        bvf_obs::TraceSink::disabled()
    };
    let opts = CampaignOptions {
        par: args.par,
        progress: args.progress,
        // The logical phase spans in a trace are derived from the phase
        // profiles, so tracing implies the metrics sink.
        sink: if args.profile || tracing {
            bvf_obs::MetricsSink::enabled()
        } else {
            bvf_obs::MetricsSink::disabled()
        },
        store: Some(Arc::clone(&store)),
        fault: args.inject_panic.clone(),
        shards: args.shards,
        tracer: tracer.clone(),
        ..CampaignOptions::default()
    };
    // Each campaign gets its own causal root (`campaign:<label>`) in the
    // shared trace sink.
    let opts_for = |label: &str| CampaignOptions {
        trace_label: label.to_string(),
        ..opts.clone()
    };
    let mut telemetry = Telemetry::open(args.metrics_path.as_deref());
    if let Some(dir) = &args.export_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            io_bail("export directory", std::path::Path::new(dir), &e);
        }
    }
    let emit = |t: &bvf_sim::Table, telemetry: &mut Telemetry| {
        println!("{t}");
        if let Some(dir) = &args.export_dir {
            let base = std::path::Path::new(dir).join(&t.id);
            let csv = base.with_extension("csv");
            if let Err(e) = std::fs::write(&csv, t.to_csv()) {
                io_bail("exhibit", &csv, &e);
            }
            let json = base.with_extension("json");
            if let Err(e) = std::fs::write(&json, t.to_json()) {
                io_bail("exhibit", &json, &e);
            }
        }
        telemetry.line(&metrics::exhibit_record(t));
    };
    // Failed applications across every campaign: reported together at the
    // end (and via exit 1), after all salvageable exhibits are emitted.
    let failures: RefCell<Vec<(String, &'static str, String)>> = RefCell::new(Vec::new());
    // Run one campaign: print its run report (and, under --profile, its
    // phase breakdown) to stderr, append its telemetry records.
    let finish_campaign = |label: &str, c: &Campaign, telemetry: &mut Telemetry| {
        eprintln!("[{label}] {}", c.run_report());
        if let Some(t) = c.phase_table() {
            eprintln!("[{label}] {t}");
        }
        for f in &c.failures {
            failures
                .borrow_mut()
                .push((label.to_string(), f.app, f.error.clone()));
        }
        telemetry.campaign(label, c);
    };

    // ---- Circuit-level exhibits (no simulation needed) --------------------
    emit(&circuit::fig05_06(ProcessNode::N28), &mut telemetry);
    emit(&circuit::fig05_06(ProcessNode::N40), &mut telemetry);
    emit(&circuit::table_6t_stability(), &mut telemetry);

    let apps = Application::all();
    emit(
        &profile::fig14(&apps, bvf_isa::Architecture::Pascal),
        &mut telemetry,
    );
    emit(&profile::table2(&apps), &mut telemetry);
    emit(
        &overhead::overhead_table(&GpuConfig::baseline()),
        &mut telemetry,
    );
    emit(
        &overhead::overhead_inventory(&GpuConfig::baseline()),
        &mut telemetry,
    );

    // ---- Main campaign -----------------------------------------------------
    eprintln!(
        "running {} campaign...",
        if args.quick { "smoke" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let main_campaign = if args.quick {
        Campaign::smoke(&opts_for("main"))
    } else {
        Campaign::run_with_options(GpuConfig::baseline(), &apps, &opts_for("main"))
    };
    finish_campaign("main", &main_campaign, &mut telemetry);

    emit(&profile::fig08(&main_campaign), &mut telemetry);
    emit(&profile::fig09(&main_campaign), &mut telemetry);
    emit(&profile::fig11(&main_campaign), &mut telemetry);
    emit(&profile::fig12(&main_campaign), &mut telemetry);
    emit(
        &energy::fig16_17(&main_campaign, ProcessNode::N28),
        &mut telemetry,
    );
    emit(
        &energy::fig16_17(&main_campaign, ProcessNode::N40),
        &mut telemetry,
    );
    emit(
        &energy::fig18_19(&main_campaign, ProcessNode::N28),
        &mut telemetry,
    );
    emit(
        &energy::fig18_19(&main_campaign, ProcessNode::N40),
        &mut telemetry,
    );
    emit(&sensitivity::fig20(&main_campaign), &mut telemetry);
    emit(&sensitivity::fig23(&main_campaign), &mut telemetry);

    // ---- Scheduler and capacity sensitivity (Figs. 21 and 22) -------------
    // The six campaigns run as one set, app by app, so a worker prepares
    // each app's inputs once for all of them. Figs. 21 and 22 read only
    // the baseline and BVF views, so every member collects that pair;
    // GTO and GTX-480 repeat the main campaign's keys, and its full
    // entries answer them.
    eprintln!("running scheduler and capacity campaigns...");
    let sensitivity_apps: Vec<Application> = if args.quick {
        ["VAD", "BFS", "BLA"]
            .iter()
            .map(|c| Application::by_code(c).expect("app"))
            .collect()
    } else {
        Application::all()
    };
    // `quick` runs every configuration on at most 2 SMs.
    let sized = |mut c: GpuConfig| {
        if args.quick {
            c.sms = c.sms.min(2);
        }
        c
    };
    let scheduler = |kind| {
        sized(GpuConfig {
            scheduler: kind,
            ..GpuConfig::baseline()
        })
    };
    let members = [
        ("sched-gto", scheduler(SchedulerKind::Gto)),
        ("sched-lrr", scheduler(SchedulerKind::Lrr)),
        ("sched-two-level", scheduler(SchedulerKind::TwoLevel)),
        ("cap-gtx480", sized(GpuConfig::gtx480())),
        ("cap-p100", sized(GpuConfig::tesla_p100())),
        ("cap-k80", sized(GpuConfig::tesla_k80())),
    ];
    let labels = members.each_ref().map(|(label, _)| *label);
    let set: Vec<(GpuConfig, CampaignOptions)> = members
        .into_iter()
        .map(|(label, config)| {
            let opts = CampaignOptions {
                collect: Collection::Energy,
                ..opts_for(label)
            };
            (config, opts)
        })
        .collect();
    let campaigns = Campaign::run_set(&sensitivity_apps, &set);
    // Reports, records and exhibits go out in the order the campaigns
    // used to run one by one: the schedulers and Fig. 21, then capacity.
    let finish_members = |members: std::ops::Range<usize>, telemetry: &mut Telemetry| {
        for k in members {
            finish_campaign(labels[k], &campaigns[k], telemetry);
        }
    };
    finish_members(0..3, &mut telemetry);
    emit(
        &sensitivity::fig21(&[
            ("GTO", &campaigns[0]),
            ("LRR", &campaigns[1]),
            ("Two-Level", &campaigns[2]),
        ]),
        &mut telemetry,
    );
    finish_members(3..6, &mut telemetry);
    emit(
        &sensitivity::fig22(&[
            ("GTX-480", &campaigns[3]),
            ("Tesla-P100", &campaigns[4]),
            ("Tesla-K80", &campaigns[5]),
        ]),
        &mut telemetry,
    );

    // ---- Ablations (DESIGN.md §5) -------------------------------------------
    eprintln!("running ablations...");
    emit(&ablation::bus_invert_ablation(), &mut telemetry);
    emit(
        &ablation::isa_mask_ablation(&apps, bvf_isa::Architecture::Pascal),
        &mut telemetry,
    );
    let pivot_apps: Vec<Application> = ["OCE", "SCP", "HOT", "BFS"]
        .iter()
        .map(|c| Application::by_code(c).expect("pivot app"))
        .collect();
    let mut pivot_cfg = GpuConfig::baseline();
    if args.quick {
        pivot_cfg.sms = 2;
    }
    emit(
        &ablation::pivot_ablation(&pivot_cfg, &pivot_apps, args.par),
        &mut telemetry,
    );
    emit(
        &ablation::edram_substrate(&main_campaign, ProcessNode::N40),
        &mut telemetry,
    );

    telemetry.finish();
    if tracing {
        let events = tracer.events();
        if let Some(path) = &args.trace_path {
            let text = bvf_obs::trace::export_chrome(&events, tracer.dropped());
            if let Err(e) = std::fs::write(path, text) {
                io_bail("trace file", std::path::Path::new(path), &e);
            }
            eprintln!("trace: {} events written to {path}", events.len());
        }
        if args.trace_report {
            for report in bvf_sim::TraceReport::from_events(&events) {
                eprintln!("{report}");
            }
        }
    }
    let s = store.stats();
    eprintln!(
        "store: {} hits, {} misses ({} corrupt), {} writes {}",
        s.hits,
        s.misses,
        s.corrupt,
        s.writes,
        store.root().map_or("in memory".to_string(), |dir| format!(
            "under {}",
            dir.display()
        )),
    );
    eprintln!(
        "inputs: {} images generated",
        bvf_workloads::input_generations_total()
    );
    eprintln!("all exhibits regenerated in {:?}", t0.elapsed());
    let failures = failures.into_inner();
    if !failures.is_empty() {
        eprintln!("FAILED: {} application worker(s) panicked:", failures.len());
        for (label, app, error) in &failures {
            eprintln!("  [{label}] {app}: {error}");
        }
        std::process::exit(1);
    }
}
