//! Campaign throughput snapshot and regression gate for CI.
//!
//! Runs the full 58-app baseline campaign sequentially (best of three runs,
//! to damp scheduler noise), then with every app split into 4 shards, also
//! on one worker and best of three, writes both measurements to
//! `BENCH_collector.json` in the current directory, and — when
//! `--baseline <file>` is given — fails with a non-zero exit if the
//! measured sequential throughput drops below 90% of the committed
//! baseline's `instructions_per_second`, or the sharded throughput below
//! 90% of its `shard_instructions_per_second` (when the baseline carries
//! that key).
//!
//! The gate is **two-sided**: throughput more than 25% *above* a baseline
//! also fails. A genuine speedup must land together with a reviewed bump of
//! `ci/bench_baseline.json` — otherwise the floor silently decays into a
//! number the current code beats by multiples, and the next real regression
//! sails under it.
//!
//! ```text
//! cargo run --release -p bvf-sim --example bench_snapshot -- \
//!     --baseline ci/bench_baseline.json
//! ```
//!
//! The baseline is a deliberate floor, not a record of the fastest machine:
//! CI hardware varies, so the committed value is chosen low enough that an
//! ordinary runner passes comfortably while a hot-path regression back to
//! pre-scalarizer throughput still fails the gate — and the 125% ceiling is
//! loose enough that runner-to-runner variance never trips it.

use std::io::Write;

use bvf_gpu::GpuConfig;
use bvf_obs::Record;
use bvf_sim::{Campaign, CampaignOptions, Parallelism, ShardMode};
use bvf_workloads::Application;

/// Extract a numeric field from a flat JSON object without a JSON parser:
/// finds `"name":` and reads the number that follows.
fn json_number(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The short commit id of the working tree, for history records;
/// `"unknown"` outside a git checkout (an exported tarball, say).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1));

    // The full 58-app baseline campaign on one worker, sharded or not.
    let full_baseline = |shards| {
        Campaign::run_with_options(
            GpuConfig::baseline(),
            &Application::all(),
            &CampaignOptions {
                par: Parallelism::Sequential,
                shards,
                ..CampaignOptions::default()
            },
        )
        .run_report()
    };

    const RUNS: usize = 3;
    let mut best: Option<bvf_sim::RunReport> = None;
    for run in 1..=RUNS {
        let report = full_baseline(ShardMode::Off);
        println!(
            "run {run}/{RUNS}: {:.3?} wall, {:.0} instr/s sequential",
            report.wall, report.serial_instructions_per_second
        );
        let better = best.as_ref().is_none_or(|b| {
            report.serial_instructions_per_second > b.serial_instructions_per_second
        });
        if better {
            best = Some(report);
        }
    }
    let best = best.expect("at least one run");
    let ips = best.serial_instructions_per_second;

    // The same campaign with every app split into 4 SM-range shards, on
    // one worker, best of three like the sequential row. One worker makes
    // the row a measure of the shard-and-merge path itself (per-shard
    // launch setup, merge, DRAM replay) rather than of the runner's core
    // count, so a 2-core and a 64-core runner read the same number.
    const SHARDS: u32 = 4;
    let mut sharded: Option<bvf_sim::RunReport> = None;
    for run in 1..=RUNS {
        let report = full_baseline(ShardMode::Fixed(SHARDS));
        println!(
            "sharded run {run}/{RUNS}: {:.3?} wall, {} shards/app, {:.0} instr/s",
            report.wall, report.shards, report.instructions_per_second
        );
        if sharded
            .as_ref()
            .is_none_or(|b| report.instructions_per_second > b.instructions_per_second)
        {
            sharded = Some(report);
        }
    }
    let sharded = sharded.expect("at least one sharded run");
    let shard_ips = sharded.instructions_per_second;

    let snapshot = format!(
        concat!(
            "{{\"record\":\"bench_collector\",",
            "\"apps\":{},",
            "\"total_instructions\":{},",
            "\"wall_ms\":{:.3},",
            "\"instructions_per_second\":{:.0},",
            "\"shards\":{},",
            "\"shard_wall_ms\":{:.3},",
            "\"shard_instructions_per_second\":{:.0}}}\n"
        ),
        best.apps,
        best.total_instructions,
        best.wall.as_secs_f64() * 1e3,
        ips,
        sharded.shards,
        sharded.wall.as_secs_f64() * 1e3,
        shard_ips,
    );
    std::fs::write("BENCH_collector.json", &snapshot).expect("write BENCH_collector.json");
    print!("wrote BENCH_collector.json: {snapshot}");

    // Append this measurement to the running history, keyed by commit and
    // configuration — never by wall-clock time, so re-running a commit
    // appends a comparable record instead of inventing a new key. The
    // history lets a slow drift be spotted even when every single step
    // stays inside the 10% gate.
    let history = Record::new("bench_history")
        .str("commit", &git_commit())
        .str("config", "full_baseline")
        .u64("apps", best.apps as u64)
        .u64("total_instructions", best.total_instructions)
        .f64("wall_ms", best.wall.as_secs_f64() * 1e3)
        .f64("instructions_per_second", ips)
        .u64("shards", u64::from(sharded.shards))
        .f64("shard_wall_ms", sharded.wall.as_secs_f64() * 1e3)
        .f64("shard_instructions_per_second", shard_ips)
        .finish();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_history.jsonl")
        .expect("open BENCH_history.jsonl");
    writeln!(f, "{history}").expect("append BENCH_history.jsonl");
    println!("appended to BENCH_history.jsonl: {history}");

    if let Some(path) = baseline_path {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let baseline = json_number(&text, "instructions_per_second")
            .unwrap_or_else(|| panic!("no instructions_per_second in {path}"));
        let floor = baseline * 0.9;
        println!("baseline {baseline:.0} instr/s, gate at {floor:.0} (90%)");
        if ips < floor {
            eprintln!(
                "FAIL: sequential throughput {ips:.0} instr/s regressed more than 10% \
                 below the committed baseline {baseline:.0}"
            );
            std::process::exit(1);
        }
        println!("PASS: {ips:.0} instr/s >= {floor:.0}");
        let ceiling = baseline * 1.25;
        if ips > ceiling {
            eprintln!(
                "FAIL: sequential throughput {ips:.0} instr/s exceeds the committed \
                 baseline {baseline:.0} by more than 25% — a real speedup must raise \
                 ci/bench_baseline.json in the same PR so the floor keeps tracking it"
            );
            std::process::exit(1);
        }
        println!("PASS: {ips:.0} instr/s <= {ceiling:.0} (125% ceiling)");
        // Gate the sharded path only when the baseline knows about it, so
        // an old baseline file does not fail a new binary.
        if let Some(shard_baseline) = json_number(&text, "shard_instructions_per_second") {
            let shard_floor = shard_baseline * 0.9;
            println!(
                "sharded baseline {shard_baseline:.0} instr/s, gate at {shard_floor:.0} (90%)"
            );
            if shard_ips < shard_floor {
                eprintln!(
                    "FAIL: sharded throughput {shard_ips:.0} instr/s regressed more than \
                     10% below the committed baseline {shard_baseline:.0}"
                );
                std::process::exit(1);
            }
            println!("PASS: {shard_ips:.0} instr/s >= {shard_floor:.0} sharded");
            let shard_ceiling = shard_baseline * 1.25;
            if shard_ips > shard_ceiling {
                eprintln!(
                    "FAIL: sharded throughput {shard_ips:.0} instr/s exceeds the \
                     committed baseline {shard_baseline:.0} by more than 25% — raise \
                     shard_instructions_per_second in ci/bench_baseline.json in the \
                     same PR"
                );
                std::process::exit(1);
            }
            println!("PASS: {shard_ips:.0} instr/s <= {shard_ceiling:.0} sharded (125% ceiling)");
        }
    }
}
