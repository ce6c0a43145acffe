//! End-to-end tests of the `reproduce` binary: strict argument handling
//! and the determinism contract of `--metrics` telemetry across worker
//! counts.

use std::path::PathBuf;
use std::process::Command;

use bvf_obs::json::{self, Value};

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

#[test]
fn bad_arguments_exit_2_without_running() {
    for argv in [
        &["--jobs", "0"][..],
        &["--jobs", "eight"],
        &["--jobs"],
        &["--export"],
        &["--metrics"],
        &["--metrics", "--profile"], // flag where a value belongs
        &["--frobnicate"],
        &["qwick"],
        &["--cache"],
        &["--cache-verify", "two", "--cache", "d"],
        &["--cache-verify", "2"], // verification without a store
        &["--inject-panic"],
        &["--shards"],
        &["--shards", "0"],
        &["--shards", "many"],
        &["--trace"],
        &["--trace", "--profile"], // flag where a value belongs
    ] {
        let out = reproduce().args(argv).output().expect("spawn reproduce");
        assert_eq!(
            out.status.code(),
            Some(2),
            "argv {argv:?} must exit 2, got {:?}",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "argv {argv:?} printed no usage");
        assert!(
            out.stdout.is_empty(),
            "argv {argv:?} produced exhibits despite the error"
        );
    }
}

#[test]
fn help_exits_0() {
    let out = reproduce().arg("--help").output().expect("spawn reproduce");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--metrics"));
}

/// A record with its `"timing"` subtree removed and re-serialized: the
/// run-independent residue that must not vary with `--jobs`.
fn scrub(line: &str) -> String {
    json::parse(line)
        .unwrap_or_else(|e| panic!("metrics line is not JSON ({e}): {line}"))
        .without("timing")
        .to_json_string()
}

#[test]
fn metrics_are_deterministic_across_worker_counts_modulo_timing() {
    let dir = std::env::temp_dir();
    let mine = |name: &str| -> PathBuf {
        dir.join(format!("bvf_reproduce_cli_{}_{name}", std::process::id()))
    };
    let m1 = mine("jobs1.jsonl");
    let m3 = mine("jobs3.jsonl");
    for p in [&m1, &m3] {
        let _ = std::fs::remove_file(p); // --metrics appends
    }

    let run1 = reproduce()
        .args(["quick", "--jobs", "1", "--metrics"])
        .arg(&m1)
        .output()
        .expect("spawn reproduce");
    assert!(run1.status.success(), "jobs 1 run failed: {run1:?}");
    // The parallel run also turns on --profile and --progress: the
    // observability flags must not leak into stdout or the scrubbed records.
    let run3 = reproduce()
        .args([
            "quick",
            "--jobs",
            "3",
            "--profile",
            "--progress",
            "--metrics",
        ])
        .arg(&m3)
        .output()
        .expect("spawn reproduce");
    assert!(run3.status.success(), "jobs 3 run failed: {run3:?}");

    assert_eq!(
        String::from_utf8_lossy(&run1.stdout),
        String::from_utf8_lossy(&run3.stdout),
        "exhibit tables must be bit-identical whatever the flags"
    );

    let lines = |p: &PathBuf| -> Vec<String> {
        std::fs::read_to_string(p)
            .expect("metrics file")
            .lines()
            .map(scrub)
            .collect()
    };
    let a = lines(&m1);
    let b = lines(&m3);
    assert!(!a.is_empty(), "no telemetry was written");
    assert_eq!(a.len(), b.len(), "record counts differ");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "record {i} differs after scrubbing timing");
    }

    // The profiled run's campaign records carry the phase breakdown —
    // under "timing", where the scrub above just proved it stays.
    let raw3 = std::fs::read_to_string(&m3).expect("metrics file");
    let profiled = raw3.lines().any(|l| {
        let v = json::parse(l).expect("valid JSON");
        v.get("record").and_then(Value::as_str) == Some("campaign")
            && v.get("timing").and_then(|t| t.get("phases")).is_some()
    });
    assert!(profiled, "--profile produced no phase telemetry");

    for p in [&m1, &m3] {
        let _ = std::fs::remove_file(p);
    }
}

fn mine(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bvf_reproduce_cli_{}_{name}", std::process::id()))
}

/// The sharding contract end to end: `--shards auto` splits every app
/// across the pool, yet stdout, every export, and the scrubbed telemetry
/// are byte-identical to a sequential unsharded run.
#[test]
fn sharded_run_is_byte_identical_to_sequential() {
    let (exp_seq, exp_shard) = (mine("shard_exp_seq"), mine("shard_exp_auto"));
    let (met_seq, met_shard) = (mine("shard_seq.jsonl"), mine("shard_auto.jsonl"));
    for p in [&exp_seq, &exp_shard] {
        let _ = std::fs::remove_dir_all(p);
    }
    for p in [&met_seq, &met_shard] {
        let _ = std::fs::remove_file(p);
    }
    let run = |extra: &[&str], exp: &PathBuf, met: &PathBuf| {
        let out = reproduce()
            .args(["quick"])
            .args(extra)
            .arg("--export")
            .arg(exp)
            .arg("--metrics")
            .arg(met)
            .output()
            .expect("spawn reproduce");
        assert!(out.status.success(), "run {extra:?} failed: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let seq = run(&["--jobs", "1"], &exp_seq, &met_seq);
    let sharded = run(&["--jobs", "3", "--shards", "auto"], &exp_shard, &met_shard);
    assert_eq!(seq, sharded, "exhibits must not depend on --shards");

    let mut files: Vec<_> = std::fs::read_dir(&exp_seq)
        .expect("export dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    files.sort();
    assert!(files.len() >= 20, "suspiciously few exports: {files:?}");
    for name in &files {
        let a = std::fs::read(exp_seq.join(name)).expect("sequential export");
        let b = std::fs::read(exp_shard.join(name)).expect("sharded export");
        assert_eq!(a, b, "export {name:?} differs under sharding");
    }

    let scrubbed = |p: &PathBuf| -> Vec<String> {
        std::fs::read_to_string(p)
            .expect("metrics")
            .lines()
            .map(scrub)
            .collect()
    };
    let a = scrubbed(&met_seq);
    assert!(!a.is_empty(), "no telemetry was written");
    assert_eq!(
        a,
        scrubbed(&met_shard),
        "scrubbed telemetry differs under sharding"
    );
    // The sharded run's campaign records carry the shard count — under
    // "timing", which the scrub above just proved.
    let carries_shards = std::fs::read_to_string(&met_shard)
        .expect("metrics")
        .lines()
        .any(|l| {
            let v = json::parse(l).expect("valid JSON");
            v.get("record").and_then(Value::as_str) == Some("campaign")
                && v.get("timing")
                    .and_then(|t| t.get("shards"))
                    .and_then(Value::as_f64)
                    == Some(2.0) // quick config has 2 SMs: auto caps there
        });
    assert!(carries_shards, "no campaign record reported 2 shards");

    for p in [&exp_seq, &exp_shard] {
        let _ = std::fs::remove_dir_all(p);
    }
    for p in [&met_seq, &met_shard] {
        let _ = std::fs::remove_file(p);
    }
}

/// Failure determinism: a failing run must report the same failures in the
/// same order whatever the worker count or sharding — completion order of
/// a parallel pool must never leak into the failure list.
#[test]
fn failing_runs_are_deterministic_across_worker_counts() {
    let (met_1, met_4) = (mine("fail_jobs1.jsonl"), mine("fail_jobs4.jsonl"));
    for p in [&met_1, &met_4] {
        let _ = std::fs::remove_file(p);
    }
    let run = |extra: &[&str], met: &PathBuf| {
        let out = reproduce()
            .args(["quick", "--inject-panic", "BFS"])
            .args(extra)
            .arg("--metrics")
            .arg(met)
            .output()
            .expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(1), "failing run must exit 1");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let one = run(&["--jobs", "1"], &met_1);
    // Four workers AND two shards per app: the faulting app fails twice at
    // the shard level, but the reported failure list must be identical.
    let four = run(&["--jobs", "4", "--shards", "2"], &met_4);
    assert_eq!(one, four, "failing exhibits must not depend on the pool");

    let scrubbed = |p: &PathBuf| -> Vec<String> {
        std::fs::read_to_string(p)
            .expect("metrics")
            .lines()
            .map(scrub)
            .collect()
    };
    let a = scrubbed(&met_1);
    assert!(!a.is_empty(), "no telemetry was written");
    assert_eq!(a, scrubbed(&met_4), "scrubbed failure telemetry differs");
    // Failures sit OUTSIDE "timing" (they are deterministic), so the
    // scrubbed comparison above covered them; sanity-check one is there.
    let failures_present = std::fs::read_to_string(&met_1)
        .expect("metrics")
        .lines()
        .any(|l| {
            let v = json::parse(l).expect("valid JSON");
            v.get("failures").is_some()
        });
    assert!(failures_present, "no campaign record listed the failure");

    for p in [&met_1, &met_4] {
        let _ = std::fs::remove_file(p);
    }
}

/// An unwritable `--export` path must name the failing path on stderr and
/// exit 1 — not panic (the pre-fix behavior was an `.expect()` unwind).
#[test]
fn unwritable_export_path_exits_1_and_names_the_path() {
    let blocker = mine("export_blocker");
    std::fs::write(&blocker, b"a file where a directory must go").expect("blocker");
    let target = blocker.join("exhibits");
    let out = reproduce()
        .args(["quick", "--export"])
        .arg(&target)
        .output()
        .expect("spawn reproduce");
    assert_eq!(out.status.code(), Some(1), "I/O failure must exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&target.display().to_string()),
        "stderr must name the failing path: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "an I/O error is a reported failure, not a panic: {err}"
    );
    let _ = std::fs::remove_file(&blocker);
}

/// The incremental-reproduction contract: a warm `--cache` run skips every
/// simulation (misses = 0 in the campaign telemetry) yet produces
/// byte-identical exhibits, exports, and scrubbed telemetry.
#[test]
fn warm_cache_run_is_byte_identical_and_fully_cached() {
    let cache = mine("cache_store");
    let (exp_a, exp_b) = (mine("cache_exp_a"), mine("cache_exp_b"));
    let (met_a, met_b) = (mine("cache_a.jsonl"), mine("cache_b.jsonl"));
    for p in [&cache, &exp_a, &exp_b] {
        let _ = std::fs::remove_dir_all(p);
    }
    for p in [&met_a, &met_b] {
        let _ = std::fs::remove_file(p);
    }
    let run = |exp: &PathBuf, met: &PathBuf| {
        let out = reproduce()
            .args(["quick", "--jobs", "2", "--cache"])
            .arg(&cache)
            .arg("--export")
            .arg(exp)
            .arg("--metrics")
            .arg(met)
            .output()
            .expect("spawn reproduce");
        assert!(out.status.success(), "cached run failed: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cold = run(&exp_a, &met_a);
    let warm = run(&exp_b, &met_b);
    assert_eq!(cold, warm, "exhibit tables must not depend on cache state");

    // Every exported exhibit is byte-for-byte identical across runs.
    let mut files: Vec<_> = std::fs::read_dir(&exp_a)
        .expect("export dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    files.sort();
    assert!(files.len() >= 20, "suspiciously few exports: {files:?}");
    for name in &files {
        let a = std::fs::read(exp_a.join(name)).expect("cold export");
        let b = std::fs::read(exp_b.join(name)).expect("warm export");
        assert_eq!(a, b, "export {name:?} differs between cold and warm");
    }

    // Campaign telemetry: the warm run simulated nothing (its misses are
    // all zero) and the scrubbed streams are byte-identical.
    let campaign_traffic = |p: &PathBuf| -> Vec<(String, (f64, f64))> {
        let mut traffic = Vec::new();
        for line in std::fs::read_to_string(p).expect("metrics").lines() {
            let v = json::parse(line).expect("valid JSON");
            if v.get("record").and_then(Value::as_str) != Some("campaign") {
                continue;
            }
            let label = v.get("campaign").and_then(Value::as_str).expect("label");
            let t = v.get("timing").expect("timing");
            let count = |k: &str| t.get(k).and_then(Value::as_f64).expect(k);
            let counts = (count("cache_hits"), count("cache_misses"));
            traffic.push((label.to_string(), counts));
        }
        traffic
    };
    let total = |traffic: &[(String, (f64, f64))]| {
        traffic
            .iter()
            .fold((0.0, 0.0), |(h, m), (_, c)| (h + c.0, m + c.1))
    };
    let cold_traffic = campaign_traffic(&met_a);
    let (cold_hits, cold_misses) = total(&cold_traffic);
    let (warm_hits, warm_misses) = total(&campaign_traffic(&met_b));
    assert!(cold_misses > 0.0, "cold run must simulate");
    assert_eq!(warm_misses, 0.0, "warm run must skip every simulation");
    assert_eq!(warm_hits, cold_hits + cold_misses);
    // GTO and GTX-480 repeat the main campaign's keys, and its full
    // entries answer their energy collection already in the cold run.
    for label in ["sched-gto", "cap-gtx480"] {
        let counts = cold_traffic.iter().find(|(l, _)| l == label);
        assert_eq!(counts.map(|(_, c)| *c), Some((3.0, 0.0)), "{label}");
    }
    let scrubbed = |p: &PathBuf| -> Vec<String> {
        std::fs::read_to_string(p)
            .expect("metrics")
            .lines()
            .map(scrub)
            .collect()
    };
    assert_eq!(
        scrubbed(&met_a),
        scrubbed(&met_b),
        "scrubbed telemetry differs between cold and warm"
    );

    for p in [&cache, &exp_a, &exp_b] {
        let _ = std::fs::remove_dir_all(p);
    }
    for p in [&met_a, &met_b] {
        let _ = std::fs::remove_file(p);
    }
}

/// Fault isolation end to end: a panicking app worker must not tear down
/// the run — every exhibit that does not need the lost app still prints,
/// the failure is summarized on stderr, and the process exits 1.
#[test]
fn injected_panic_completes_the_run_and_exits_1() {
    let out = reproduce()
        .args(["quick", "--jobs", "2", "--inject-panic", "BFS"])
        .output()
        .expect("spawn reproduce");
    assert_eq!(out.status.code(), Some(1), "failures must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The ablations run after every campaign that loses BFS: reaching
    // their exhibits proves no campaign aborted the run.
    assert!(
        stdout.contains("ablation-pivot"),
        "late exhibits missing — the run was torn down early"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("FAILED"), "no failure summary: {err}");
    assert!(
        err.contains("BFS") && err.contains("injected fault"),
        "summary must name the app and the panic payload: {err}"
    );
}

/// Read a trace file and scrub it down to its deterministic core.
fn scrubbed_trace(p: &PathBuf) -> String {
    let text = std::fs::read_to_string(p).expect("trace file");
    bvf_obs::trace::scrub_chrome(&text)
        .unwrap_or_else(|e| panic!("{} is not a valid trace: {e}", p.display()))
}

/// The tracing contract end to end: `--trace` writes a Chrome trace-event
/// file whose scrubbed form is byte-identical whatever `--jobs` and
/// `--shards` were, and `--trace-report` prints a critical-path table
/// whose rows account for the campaign wall.
#[test]
fn traced_runs_scrub_identically_across_jobs_and_shards() {
    let (t_seq, t_par) = (mine("trace_seq.json"), mine("trace_par.json"));
    let seq = reproduce()
        .args(["quick", "--jobs", "1", "--trace-report", "--trace"])
        .arg(&t_seq)
        .output()
        .expect("spawn reproduce");
    assert!(
        seq.status.success(),
        "sequential traced run failed: {seq:?}"
    );
    let par = reproduce()
        .args(["quick", "--jobs", "3", "--shards", "auto", "--trace"])
        .arg(&t_par)
        .output()
        .expect("spawn reproduce");
    assert!(par.status.success(), "sharded traced run failed: {par:?}");

    assert_eq!(
        String::from_utf8_lossy(&seq.stdout),
        String::from_utf8_lossy(&par.stdout),
        "tracing must not change the exhibits"
    );
    // The raw files are valid Chrome trace JSON with span events.
    let raw = std::fs::read_to_string(&t_seq).expect("trace file");
    let v = json::parse(&raw).expect("trace is JSON");
    let Some(Value::Array(events)) = v.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    assert!(!events.is_empty(), "empty trace");
    assert_eq!(
        v.get("droppedEvents").and_then(Value::as_f64),
        Some(0.0),
        "a quick run must not overflow the sink"
    );
    // Scrubbed, the two traces agree byte for byte.
    assert_eq!(
        scrubbed_trace(&t_seq),
        scrubbed_trace(&t_par),
        "scrubbed traces differ between modes"
    );
    // The report ran on stderr: one table per campaign, each naming the
    // partition rows and the slowest item.
    let err = String::from_utf8_lossy(&seq.stderr);
    assert!(
        err.contains("critical path — campaign:main"),
        "no report: {err}"
    );
    assert!(err.contains("campaign wall"), "no wall row: {err}");
    assert!(err.contains("slowest item"), "no slowest item: {err}");

    for p in [&t_seq, &t_par] {
        let _ = std::fs::remove_file(p);
    }
}

/// A worker panic mid-campaign must not lose or perturb the deterministic
/// trace: the spans flushed before the unwind plus the failure span scrub
/// to the same bytes whatever the worker count or shard mode.
#[test]
fn panicking_traced_runs_scrub_identically() {
    let (t_a, t_b) = (mine("trace_panic_a.json"), mine("trace_panic_b.json"));
    let a = reproduce()
        .args(["quick", "--jobs", "2", "--inject-panic", "BFS", "--trace"])
        .arg(&t_a)
        .output()
        .expect("spawn reproduce");
    assert_eq!(a.status.code(), Some(1), "failures must still exit 1");
    let b = reproduce()
        .args([
            "quick",
            "--jobs",
            "1",
            "--shards",
            "auto",
            "--inject-panic",
            "BFS",
            "--trace",
        ])
        .arg(&t_b)
        .output()
        .expect("spawn reproduce");
    assert_eq!(b.status.code(), Some(1));
    let s = scrubbed_trace(&t_a);
    assert!(
        s.contains(r#""failed":1"#),
        "failure span missing from scrubbed trace"
    );
    assert_eq!(s, scrubbed_trace(&t_b), "panic traces differ between modes");
    for p in [&t_a, &t_b] {
        let _ = std::fs::remove_file(p);
    }
}
