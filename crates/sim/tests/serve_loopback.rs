//! Loopback integration tests for `bvf-serve`: a real [`Server`] on
//! 127.0.0.1, real sockets, concurrent clients.
//!
//! The claims under test are the serving layer's contract:
//!
//! * **single-flight** — N concurrent identical cold requests perform
//!   exactly one simulation, and every response body is byte-identical to
//!   what a direct [`Campaign`] run would produce;
//! * **backpressure** — a full queue answers `429` with `Retry-After`,
//!   and admission is all-or-nothing;
//! * **fault isolation** — an `inject_panic` request gets a structured
//!   failure record while the server keeps serving, and the drill cannot
//!   poison a concurrent clean request;
//! * **observability** — `/metrics` is a valid Prometheus exposition.
//!
//! Tests that depend on overlapping requests use the request `hold_ms`
//! hook (the worker sleeps *inside* the flight, before consulting store
//! or simulator), which keeps the in-flight window wide open while
//! clients connect — no scheduling luck required.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bvf_obs::MetricValue;
use bvf_sim::serve::{client, protocol, ServeOptions, Server};
use bvf_sim::{Campaign, CampaignOptions, Parallelism};

const TIMEOUT: Duration = Duration::from_secs(120);

fn start(workers: usize, queue_capacity: usize) -> Server {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        store: None,
    })
    .expect("server starts")
}

/// The body a direct campaign produces for `body`'s request — the
/// byte-identity oracle.
fn direct_body(body: &str) -> String {
    let req = protocol::parse_request(body).expect("request parses");
    let campaign = Campaign::run_with_options(
        req.config.clone(),
        &req.apps,
        &CampaignOptions {
            par: Parallelism::Sequential,
            arch: req.arch,
            fault: req.fault.clone(),
            ..CampaignOptions::default()
        },
    );
    protocol::body_from_campaign(&req, &campaign)
}

fn counter(server: &Server, name: &'static str) -> u64 {
    let id = server.sink().counter(name);
    server.sink().counter_value(id)
}

#[test]
fn single_flight_runs_one_simulation_for_n_identical_requests() {
    let server = start(2, 16);
    let addr = server.addr().to_string();
    // `hold_ms` keeps the first job in flight while the stragglers
    // arrive, so every one of the N requests overlaps deterministically.
    let body = r#"{"apps":["VAD"],"sms":1,"hold_ms":1500}"#;
    const N: usize = 4;
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let addr = &addr;
                scope.spawn(move || {
                    let resp = client::post_run(addr, body, TIMEOUT).expect("request succeeds");
                    assert_eq!(resp.status, 200);
                    resp.body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for b in &bodies[1..] {
        assert_eq!(*b, bodies[0], "all attached responses must be identical");
    }
    assert_eq!(
        bodies[0],
        direct_body(body),
        "served bytes must equal a direct campaign's scrubbed telemetry"
    );
    assert_eq!(
        counter(&server, "serve.simulations"),
        1,
        "N identical cold requests must cost exactly one simulation"
    );
    assert_eq!(counter(&server, "serve.attached"), (N - 1) as u64);
    assert_eq!(counter(&server, "serve.requests"), N as u64);
    server.shutdown();
}

#[test]
fn distinct_requests_simulate_independently() {
    let server = start(2, 16);
    let addr = server.addr().to_string();
    let bodies = [r#"{"apps":["VAD"],"sms":1}"#, r#"{"apps":["SGE"],"sms":1}"#];
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| {
                let addr = &addr;
                scope.spawn(move || {
                    let resp = client::post_run(addr, body, TIMEOUT).expect("request succeeds");
                    assert_eq!(resp.status, 200);
                    resp.body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (body, response) in bodies.iter().zip(&responses) {
        assert_eq!(*response, direct_body(body));
    }
    assert_eq!(counter(&server, "serve.simulations"), 2);
    assert_eq!(counter(&server, "serve.attached"), 0);
    server.shutdown();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, one queue slot. A held job occupies the worker, the
    // next request occupies the slot, the third bounces.
    let server = start(1, 1);
    let addr = server.addr().to_string();
    let held = r#"{"apps":["VAD"],"sms":1,"hold_ms":2000}"#;
    let queued = r#"{"apps":["SGE"],"sms":1}"#;
    let bounced = r#"{"apps":["SAD"],"sms":1}"#;
    std::thread::scope(|scope| {
        let first = {
            let addr = &addr;
            scope.spawn(move || client::post_run(addr, held, TIMEOUT).expect("held request"))
        };
        // Give the worker time to pop the held job off the queue.
        std::thread::sleep(Duration::from_millis(500));
        let second = {
            let addr = &addr;
            scope.spawn(move || client::post_run(addr, queued, TIMEOUT).expect("queued request"))
        };
        std::thread::sleep(Duration::from_millis(300));
        let reject = client::post_run(&addr, bounced, TIMEOUT).expect("bounced request");
        assert_eq!(reject.status, 429, "full queue must answer 429");
        assert_eq!(
            reject.header("Retry-After"),
            Some("1"),
            "429 must carry a Retry-After hint"
        );
        assert!(reject.body.contains("queue full"), "{}", reject.body);
        // The admitted requests complete normally despite the rejection.
        assert_eq!(first.join().expect("held client").status, 200);
        assert_eq!(second.join().expect("queued client").status, 200);
    });
    assert_eq!(counter(&server, "serve.rejected"), 1);
    // Capacity freed: the bounced request succeeds on retry.
    let retry = client::post_run(&addr, bounced, TIMEOUT).expect("retry");
    assert_eq!(retry.status, 200);
    assert_eq!(retry.body, direct_body(bounced));
    server.shutdown();
}

#[test]
fn injected_panic_is_a_structured_failure_and_cannot_poison_clean_flights() {
    let server = start(2, 16);
    let addr = server.addr().to_string();
    let drill = r#"{"apps":["VAD","SGE"],"sms":1,"inject_panic":"SGE","hold_ms":1000}"#;
    let clean = r#"{"apps":["VAD","SGE"],"sms":1,"hold_ms":1000}"#;
    // Overlap a fault drill with a clean request over the same apps: the
    // drill's panicking job must not be attachable, so the clean request
    // still gets a real SGE result.
    let (drill_body, clean_body) = std::thread::scope(|scope| {
        let d = {
            let addr = &addr;
            scope.spawn(move || client::post_run(addr, drill, TIMEOUT).expect("drill request"))
        };
        let c = {
            let addr = &addr;
            scope.spawn(move || client::post_run(addr, clean, TIMEOUT).expect("clean request"))
        };
        let d = d.join().expect("drill client");
        let c = c.join().expect("clean client");
        assert_eq!(d.status, 200);
        assert_eq!(c.status, 200);
        (d.body, c.body)
    });
    assert_eq!(drill_body, direct_body(drill));
    assert!(
        drill_body.contains(r#""record":"failure","app":"SGE""#),
        "{drill_body}"
    );
    assert!(
        drill_body.contains("injected fault: worker asked to fail on SGE"),
        "{drill_body}"
    );
    assert!(
        drill_body.contains(r#""record":"done","apps":2,"failed":1"#),
        "{drill_body}"
    );
    assert_eq!(
        clean_body,
        direct_body(clean),
        "a concurrent drill must not leak its failure into a clean request"
    );
    assert_eq!(counter(&server, "serve.job_failures"), 1);
    // The server is still fully alive after the caught panic.
    let after = client::post_run(&addr, r#"{"apps":["VAD"],"sms":1}"#, TIMEOUT).expect("request");
    assert_eq!(after.status, 200);
    server.shutdown();
}

#[test]
fn metrics_scrape_is_a_valid_exposition() {
    let server = start(1, 4);
    let addr = server.addr().to_string();
    let resp =
        client::post_run(&addr, r#"{"apps":["VAD"],"sms":1}"#, TIMEOUT).expect("run request");
    assert_eq!(resp.status, 200);
    let scrape = client::scrape_metrics(&addr, TIMEOUT).expect("scrape");
    assert_eq!(scrape.status, 200);
    assert!(
        scrape
            .header("Content-Type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "{:?}",
        scrape.headers
    );
    bvf_obs::validate_exposition(&scrape.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", scrape.body));
    for needle in [
        "# TYPE bvf_serve_requests counter",
        "bvf_serve_simulations 1",
        "# TYPE bvf_serve_queue_wait_ns histogram",
    ] {
        assert!(scrape.body.contains(needle), "missing {needle}");
    }
    server.shutdown();
}

/// A job's queue wait reaches the sink when its worker picks the job up,
/// not when the job ends: a scrape during a held job already counts it.
#[test]
fn queue_wait_is_visible_when_a_job_starts() {
    let server = start(1, 4);
    let addr = server.addr().to_string();
    let queue_waits = || {
        let snapshot = server.sink().snapshot();
        let wait = snapshot
            .iter()
            .find(|m| m.name == "serve.queue_wait_ns")
            .expect("the server registers its queue-wait histogram");
        match wait.value {
            MetricValue::Histogram { count, .. } => count,
            ref v => panic!("serve.queue_wait_ns is not a histogram: {v:?}"),
        }
    };
    let deadline = Duration::from_millis(1000);
    let sent = Instant::now();
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let body = r#"{"apps":["VAD"],"sms":1,"hold_ms":2000}"#;
            client::post_run(&addr, body, TIMEOUT).expect("request succeeds")
        });
        while queue_waits() != 1 {
            assert!(
                sent.elapsed() < deadline,
                "the queue wait was not counted within {deadline:?} of sending, \
                 while the job was still held"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(client.join().expect("client thread").status, 200);
    });
    assert_eq!(queue_waits(), 1);
    server.shutdown();
}

#[test]
fn malformed_and_hostile_requests_get_4xx_and_the_server_survives() {
    let server = start(1, 4);
    let addr = server.addr().to_string();
    // A depth bomb through the real socket path: the parser's depth cap
    // (the satellite bugfix) turns a stack-overflow kill into a 400.
    let bomb = "[".repeat(50_000);
    let resp = client::post_run(&addr, &bomb, TIMEOUT).expect("bomb request");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("nesting too deep"), "{}", resp.body);
    // Other client errors map to their statuses.
    let bad = client::post_run(&addr, r#"{"apps":["NOPE"]}"#, TIMEOUT).expect("bad app");
    assert_eq!(bad.status, 400);
    let oversized = "x".repeat(100 * 1024);
    let big = client::post_run(&addr, &oversized, TIMEOUT).expect("oversized");
    assert_eq!(big.status, 413);
    let lost = client::request(&addr, "GET", "/nowhere", "", TIMEOUT).expect("404");
    assert_eq!(lost.status, 404);
    let health = client::request(&addr, "GET", "/healthz", "", TIMEOUT).expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");
    // And real work still runs after all of that.
    let ok = client::post_run(&addr, r#"{"apps":["VAD"],"sms":1}"#, TIMEOUT).expect("request");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, direct_body(r#"{"apps":["VAD"],"sms":1}"#));
    server.shutdown();
}

#[test]
fn a_head_without_a_newline_gets_413_at_the_cap() {
    use std::io::{Read, Write};
    let server = start(1, 4);
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // 4 MiB and no newline: far past the 16 KiB head cap. The server must
    // answer at the cap, not buffer until its own read timeout.
    let _ = stream.write_all(&vec![b'a'; 4 << 20]);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 413"),
        "expected 413, got {:?}",
        &response[..response.len().min(80)]
    );
    assert_eq!(counter(&server, "serve.bad_requests"), 1);
    drop(stream);
    server.shutdown();
}

#[test]
fn warm_store_serves_hits_without_resimulating() {
    let dir = std::env::temp_dir().join(format!("bvf_serve_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(bvf_sim::ResultStore::open(&dir).expect("open store"));
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        store: Some(store),
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    let body = r#"{"apps":["VAD"],"sms":1}"#;
    let cold = client::post_run(&addr, body, TIMEOUT).expect("cold");
    let warm = client::post_run(&addr, body, TIMEOUT).expect("warm");
    assert_eq!(cold.status, 200);
    assert_eq!(warm.status, 200);
    assert_eq!(
        cold.body, warm.body,
        "a store hit must serve the same bytes as the cold simulation"
    );
    assert_eq!(counter(&server, "serve.simulations"), 1);
    assert_eq!(counter(&server, "serve.store_hits"), 1);
    assert_eq!(counter(&server, "serve.store_misses"), 1);
    // `serve.simulate` times the fresh simulation only, never the hit.
    let (nanos, spans) = server
        .sink()
        .timer_value(server.sink().timer("serve.simulate"));
    assert_eq!(spans, 1);
    assert!(nanos > 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_hits_the_entries_a_direct_campaign_stored() {
    // One execution path: a store filled by `Campaign::run_with_options`
    // serves every app of the same request, under the same keys.
    let dir = std::env::temp_dir().join(format!("bvf_serve_shared_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(bvf_sim::ResultStore::open(&dir).expect("open store"));
    let body = r#"{"apps":["VAD","SGE","BFS"],"sms":1}"#;
    let req = protocol::parse_request(body).expect("request parses");
    let filled = Campaign::run_with_options(
        req.config.clone(),
        &req.apps,
        &CampaignOptions {
            par: Parallelism::Sequential,
            arch: req.arch,
            store: Some(store.clone()),
            ..CampaignOptions::default()
        },
    );
    assert_eq!(filled.cache_misses, 3);
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 4,
        store: Some(store),
    })
    .expect("server starts");
    let resp = client::post_run(&server.addr().to_string(), body, TIMEOUT).expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, direct_body(body));
    assert_eq!(counter(&server, "serve.store_hits"), 3);
    assert_eq!(counter(&server, "serve.store_misses"), 0);
    assert_eq!(counter(&server, "serve.simulations"), 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn apps_list_identity_is_part_of_the_flight_key() {
    // ["VAD"] and ["VAD","SGE"] both simulate VAD, but under different
    // derived ISA masks — they are different results and must not share a
    // flight. Overlap them and check both bodies are exact.
    let server = start(2, 16);
    let addr = server.addr().to_string();
    let solo = r#"{"apps":["VAD"],"sms":1,"hold_ms":800}"#;
    let pair = r#"{"apps":["VAD","SGE"],"sms":1,"hold_ms":800}"#;
    let (solo_body, pair_body) = std::thread::scope(|scope| {
        let s = {
            let addr = &addr;
            scope.spawn(move || client::post_run(addr, solo, TIMEOUT).expect("solo"))
        };
        let p = {
            let addr = &addr;
            scope.spawn(move || client::post_run(addr, pair, TIMEOUT).expect("pair"))
        };
        (
            s.join().expect("solo client").body,
            p.join().expect("pair client").body,
        )
    });
    assert_eq!(solo_body, direct_body(solo));
    assert_eq!(pair_body, direct_body(pair));
    assert_eq!(
        counter(&server, "serve.attached"),
        0,
        "different app sets must never share a flight"
    );
    assert_eq!(counter(&server, "serve.simulations"), 3);
    server.shutdown();
}
