//! End-to-end and per-layer benchmark of the BVF reproduction.
//!
//! ```text
//! bvf-perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//!               [--reproduce PATH]
//! ```
//!
//! The reproduce workloads time the `reproduce` binary at `--reproduce`.
//! Workloads: `reproduce_cold`, `reproduce_sharded` and `serve_mixed`
//! (see README.md). With `--trace 0` the run reports
//! the end-to-end metrics; with `--trace 1` the per-layer ones. A table
//! goes to stderr; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Result stores live
//! under `--work-dir`, which the run creates and removes.

mod exhibits;
mod host;
mod measure;
mod report;
mod reproduce;
mod serve_mix;

use std::path::PathBuf;

use reproduce::Kind;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    reproduce: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut reproduce = None;
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--reproduce" => reproduce = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
        reproduce,
    })
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let work = &args.work_dir;
    let binary = || {
        args.reproduce
            .as_deref()
            .ok_or("the reproduce workloads need --reproduce PATH".to_string())
    };
    match args.workload.as_str() {
        "reproduce_cold" => reproduce::run(Kind::Cold, binary()?, args.seconds, args.trace, work),
        "reproduce_sharded" => {
            reproduce::run(Kind::Sharded, binary()?, args.seconds, args.trace, work)
        }
        "serve_mixed" => serve_mix::run(args.seed, args.seconds, args.trace, work),
        other => Err(format!(
            "unknown workload {other:?} (expected reproduce_cold, reproduce_sharded \
             or serve_mixed)"
        )),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let outcome = run(&args);
    if let Err(e) = std::fs::remove_dir_all(&args.work_dir) {
        eprintln!("error: cannot remove {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    match outcome {
        Ok(outcome) => {
            eprintln!(
                "{} (seed {}, {} s, trace {}):\n{}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                outcome.table()
            );
            println!("{}", outcome.json());
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
