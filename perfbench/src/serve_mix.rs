//! The `serve_mixed` workload: an in-process `bvf-serve` on loopback,
//! driven by a closed loop of two clients sending a seeded request mix.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bvf_sim::serve::{client, protocol};
use bvf_sim::{Campaign, CampaignOptions, Parallelism, ResultStore, ServeOptions, Server};
use bvf_workloads::Application;

use crate::exhibits::Probe;
use crate::host::HostSpeed;
use crate::measure::{self, median, samples_needed, LatencySummary};
use crate::report::{Layers, Outcome};

/// Client connections, and server workers: one per core of the
/// two-core machine the baseline was measured on.
pub const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// One request in every block of this many is fresh. The share is an
/// assumption, not a recorded load: README.md shows how the serve
/// metrics move at 1/8 and 1/32.
pub const FRESH_EVERY: u64 = 16;
/// The requests set-up warms and repeats re-send: the two request
/// shapes of the repository's CI `serve-smoke` job, the served-vs-direct
/// request and the `bvf_serve bench` load.
pub const WARM: [&str; 2] = [
    r#"{"apps":["VAD","SGE","BFS"],"sms":4}"#,
    r#"{"apps":["VAD"],"sms":8}"#,
];
/// Completed requests per unit of fixed work (`wall_s`).
const BLOCK: usize = 64;
/// The closed loop runs in this many segments with set-ups and host
/// calibrations before each, so that `setup_s` and the host's speed are
/// sampled over the whole run rather than its first second.
const SEGMENTS: usize = 10;
/// Times set-up starts a server and warms it before each segment; the
/// first segment's include the measured server. `setup_s` is the median.
const SETUPS_PER_SEGMENT: usize = 3;
/// Calibration loops before each segment and after the last.
const CALIBRATIONS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(60);

const CONFIGS: [&str; 4] = ["baseline", "gtx480", "tesla_k80", "tesla_p100"];
const SCHEDULERS: [&str; 3] = ["gto", "lrr", "two_level"];
const ARCHS: [&str; 4] = ["fermi", "kepler", "maxwell", "pascal"];

/// SplitMix64 of `seed` and two stream coordinates.
fn hash(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether request `i` repeats warm request `.0` or is fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Warm(usize),
    Fresh,
}

/// The seeded request stream. Repeats re-send the [`WARM`] requests.
/// Each fresh request names one app, like the distinct-request load of
/// EXPERIMENTS.md's saturation exhibit, on a 1- or 2-SM configuration no
/// earlier request used, so the server must simulate it.
///
/// Fresh requests come in rounds that name every app once, in a seeded
/// order. Apps differ in simulation cost by orders of magnitude, so the
/// seed chooses the order and the configurations but never which apps
/// the tail is made of: every seed loads the server alike.
pub struct Mix {
    seed: u64,
    apps: Vec<&'static str>,
    /// Every (named config, SM count, scheduler, ISA generation).
    configs: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        let apps = Application::all().iter().map(|a| a.code).collect();
        let mut configs = Vec::new();
        for config in CONFIGS {
            for sms in [1, 2] {
                for scheduler in SCHEDULERS {
                    for arch in ARCHS {
                        configs.push(format!(
                            "\"config\":\"{config}\",\"sms\":{sms},\
                             \"scheduler\":\"{scheduler}\",\"arch\":\"{arch}\""
                        ));
                    }
                }
            }
        }
        Self {
            seed,
            apps,
            configs,
        }
    }

    /// Entry `i` of a seeded permutation of `0..n`: Fisher–Yates on the
    /// stream `(tag, key)`.
    fn permuted(&self, tag: u64, key: u64, n: usize, i: usize) -> usize {
        let mut order: Vec<usize> = (0..n).collect();
        for j in (1..n).rev() {
            let k = (hash(self.seed, tag, key * n as u64 + j as u64) % (j as u64 + 1)) as usize;
            order.swap(j, k);
        }
        order[i]
    }

    /// Fresh request `k`: round `k / apps` names app `order[k % apps]`,
    /// on that app's configuration for the round. Each app walks its
    /// own seeded order of the configurations, so no (app,
    /// configuration) pair repeats within [`Mix::capacity`].
    fn fresh(&self, k: u64) -> String {
        let n = self.apps.len() as u64;
        let (round, at) = (k / n, (k % n) as usize);
        let app = self.permuted(8, round, self.apps.len(), at);
        let config = self.permuted(9, app as u64, self.configs.len(), round as usize);
        format!(
            "{{\"apps\":[\"{}\"],{}}}",
            self.apps[app], self.configs[config]
        )
    }

    /// Request `i` of the stream: in each block of [`FRESH_EVERY`], one
    /// seeded position is fresh and the rest repeat seeded warm requests.
    /// The body is built on demand.
    pub fn request(&self, i: u64) -> (Slot, String) {
        let block = i / FRESH_EVERY;
        if i % FRESH_EVERY == hash(self.seed, 6, block) % FRESH_EVERY {
            return (Slot::Fresh, self.fresh(block));
        }
        let w = (hash(self.seed, 7, i) % WARM.len() as u64) as usize;
        (Slot::Warm(w), WARM[w].to_string())
    }

    /// Requests the stream can send before a fresh configuration repeats.
    pub fn capacity(&self) -> u64 {
        (self.apps.len() * self.configs.len()) as u64 * FRESH_EVERY
    }
}

/// One request of a closed loop, timed from its send to its last byte.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub index: u64,
    pub start: Duration,
    pub end: Duration,
    pub ok: bool,
}

impl Sample {
    pub fn latency(&self) -> Duration {
        self.end - self.start
    }
}

/// Drive `send` from `clients` threads, each sending its next request
/// only when the previous one completed, until `stop(completed,
/// elapsed)` holds. Requests are numbered from `first` in send order.
/// Returns the samples in completion order.
pub fn closed_loop(
    clients: usize,
    first: u64,
    stop: &(dyn Fn(usize, Duration) -> bool + Sync),
    send: &(dyn Fn(u64) -> bool + Sync),
) -> Vec<Sample> {
    let next = AtomicU64::new(first);
    let done = AtomicUsize::new(0);
    let halt = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while !halt.load(Ordering::SeqCst) {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let start = t0.elapsed();
                        let ok = send(index);
                        let end = t0.elapsed();
                        mine.push(Sample {
                            index,
                            start,
                            end,
                            ok,
                        });
                        if stop(done.fetch_add(1, Ordering::SeqCst) + 1, end) {
                            halt.store(true, Ordering::SeqCst);
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.end);
    samples
}

/// Wall time of each run of [`BLOCK`] consecutive completions.
fn block_walls(samples: &[Sample]) -> Vec<f64> {
    let mut walls = Vec::new();
    let mut from = Duration::ZERO;
    for block in samples.chunks_exact(BLOCK) {
        let to = block[BLOCK - 1].end;
        walls.push((to - from).as_secs_f64());
        from = to;
    }
    walls
}

/// The serve counters of one `/metrics` scrape.
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let resp = client::scrape_metrics(addr, TIMEOUT).map_err(|e| format!("scrape failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("scrape answered {}", resp.status));
    }
    Ok(resp
        .body
        .lines()
        .filter(|l| l.starts_with("bvf_serve_") && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Change of one counter between two scrapes.
fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    let get = |m: &BTreeMap<String, f64>| m.get(name).copied().unwrap_or(0.0);
    get(after) - get(before)
}

/// The body a direct campaign gives for `body` — the served == direct
/// oracle — and the warp instructions its results cover.
fn direct(body: &str) -> Result<(String, u64), String> {
    let req = protocol::parse_request(body)?;
    let opts = CampaignOptions {
        par: Parallelism::Sequential,
        arch: req.arch,
        ..CampaignOptions::default()
    };
    let c = Campaign::run_with_options(req.config.clone(), &req.apps, &opts);
    let instructions = c
        .results
        .iter()
        .map(|r| r.summary.dynamic_instructions)
        .sum();
    Ok((protocol::body_from_campaign(&req, &c), instructions))
}

/// Start a server over a fresh store and send every warm request once.
fn start_warm(dir: &Path, oracles: &[String]) -> Result<(Server, Arc<ResultStore>), String> {
    let store = Arc::new(
        ResultStore::open(dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?,
    );
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_capacity: 64,
        store: Some(store.clone()),
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = server.addr().to_string();
    for (body, oracle) in WARM.iter().zip(oracles) {
        match client::post_run(&addr, body, TIMEOUT) {
            Ok(r) if r.status == 200 && r.body == *oracle => {}
            Ok(r) => return Err(format!("warm-up request answered {}: {body}", r.status)),
            Err(e) => return Err(format!("warm-up request failed: {e}")),
        }
    }
    Ok((server, store))
}

/// Run `serve_mixed` for `seconds`: the end-to-end metrics, or with
/// `traced` the per-layer ones. The traced run sends the same traffic;
/// the server has no tracing switch, so the per-layer figures come from
/// a `/metrics` scrape and walks over the sent requests after the loop.
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Result<Outcome, String> {
    let mix = Mix::new(seed);
    let oracles = WARM
        .iter()
        .map(|b| direct(b).map(|(body, _)| body))
        .collect::<Result<Vec<_>, _>>()?;

    let remove =
        |dir: &Path| std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove store: {e}"));
    // Each set-up's wall seconds, and the CPU seconds the process spent
    // in it.
    let mut setup: Vec<(f64, f64)> = Vec::new();
    let mut set_up = |k: usize| -> Result<(Server, Arc<ResultStore>, PathBuf), String> {
        let dir = work.join(format!("serve-store-{k}"));
        let cpu = measure::process_cpu_seconds()?;
        let t0 = Instant::now();
        let (server, store) = start_warm(&dir, &oracles)?;
        let wall = t0.elapsed().as_secs_f64();
        setup.push((wall, measure::process_cpu_seconds()? - cpu));
        Ok((server, store, dir))
    };
    let (server, store, dir) = set_up(0)?;
    let addr = server.addr().to_string();
    let before = scrape(&addr)?;
    let store_before = store.stats();

    let fresh_bodies: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    let send = |i: u64| -> bool {
        let (slot, body) = mix.request(i);
        match client::post_run(&addr, &body, TIMEOUT) {
            Ok(r) if r.status == 200 => match slot {
                Slot::Warm(w) => r.body == oracles[w],
                Slot::Fresh => {
                    fresh_bodies
                        .lock()
                        .expect("fresh log lock")
                        .push((i, r.body));
                    true
                }
            },
            _ => false,
        }
    };
    let needed = samples_needed(99.0).div_ceil(SEGMENTS);
    let stop = |done: usize, elapsed: Duration| {
        elapsed.as_secs_f64() >= seconds / SEGMENTS as f64 && done >= needed
    };
    let mut host = HostSpeed::default();
    let mut samples = Vec::new();
    let mut walls = Vec::new();
    for segment in 0..SEGMENTS {
        for _ in 0..CALIBRATIONS {
            host.sample();
        }
        // The measured server idles while these start, warm and stop.
        for k in usize::from(segment == 0)..SETUPS_PER_SEGMENT {
            let (extra, _, extra_dir) = set_up(segment * SETUPS_PER_SEGMENT + k)?;
            Server::shutdown(extra);
            remove(&extra_dir)?;
        }
        let part = closed_loop(CLIENTS, samples.len() as u64, &stop, &send);
        walls.extend(block_walls(&part));
        samples.extend(part);
    }
    for _ in 0..CALIBRATIONS {
        host.sample();
    }
    let rss = measure::peak_rss_mb()?;
    let after = scrape(&addr)?;
    let store_after = store.stats();
    Server::shutdown(server);

    if samples.len() as u64 >= mix.capacity() {
        return Err("the run outgrew the fresh configurations of the mix".to_string());
    }
    let mut failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let mut errors = Vec::new();
    let mut fresh_instructions = 0u64;
    for (i, got) in fresh_bodies.into_inner().expect("fresh log lock") {
        let (want, instructions) = direct(&mix.request(i).1)?;
        fresh_instructions += instructions;
        if got != want {
            failed += 1;
            if errors.len() < 4 {
                errors.push(format!(
                    "request {i}: served body differs from a direct campaign"
                ));
            }
        }
    }

    let outcome = if traced {
        let requests = delta(&before, &after, "bvf_serve_requests").max(1.0);
        let hits = delta(&before, &after, "bvf_serve_store_hits");
        let misses = delta(&before, &after, "bvf_serve_store_misses");
        let attached = delta(&before, &after, "bvf_serve_attached");
        let queue_wait_ms = delta(&before, &after, "bvf_serve_queue_wait_ns_sum") / 1e6 / requests;
        let simulate_ms = delta(&before, &after, "bvf_serve_simulate_nanos_total") / 1e6 / requests;
        let mean_latency_ms = samples
            .iter()
            .map(|s| s.latency().as_secs_f64())
            .sum::<f64>()
            * 1e3
            / samples.len() as f64;
        let (derive_mask_ms, store_load_ms) = walk(&mix, &store, &samples)?;
        let store_hits = (store_after.hits - store_before.hits) as f64;
        let store_misses = (store_after.misses - store_before.misses) as f64;
        let mut layers = Layers::default();
        layers.push(vec![
            ("serve.queue_wait_ms", queue_wait_ms),
            ("serve.simulate_ms", simulate_ms),
            (
                "serve.attach_ratio",
                attached / (attached + hits + misses).max(1.0),
            ),
            ("serve.store_hit_ratio", hits / (hits + misses).max(1.0)),
            (
                "serve.simulations_per_request",
                delta(&before, &after, "bvf_serve_simulations") / requests,
            ),
            (
                "serve.residual_ms",
                mean_latency_ms - queue_wait_ms - simulate_ms,
            ),
            ("isa.derive_mask_ms", derive_mask_ms),
            ("store.load_ms", store_load_ms),
            (
                "store.hit_ratio",
                store_hits / (store_hits + store_misses).max(1.0),
            ),
            (
                "store.quarantined",
                (store_after.quarantined - store_before.quarantined) as f64,
            ),
        ]);
        // Nothing to switch on in the server, so no tracing cost.
        layers.finish(0.0)
    } else {
        let latencies: Vec<f64> = samples
            .iter()
            .map(|s| s.latency().as_secs_f64() * 1e3)
            .collect();
        let latency = LatencySummary::of(&latencies)?;
        let what = format!("requests from {CLIENTS} closed-loop clients");
        eprintln!("{}\n{}", latency.describe(&what), host.describe());
        let setup_walls: Vec<f64> = setup.iter().map(|s| s.0).collect();
        let shares: Vec<f64> = setup.iter().map(|s| s.1 / s.0).collect();
        eprintln!(
            "set-up: {} set-ups, median wall {:.4} s, median share on a CPU {:.3}",
            setup.len(),
            median(&setup_walls),
            median(&shares)
        );
        for (name, fresh) in [("repeat", false), ("fresh", true)] {
            let mut v: Vec<f64> = samples
                .iter()
                .filter(|s| (mix.request(s.index).0 == Slot::Fresh) == fresh)
                .map(|s| s.latency().as_secs_f64() * 1e3)
                .collect();
            v.sort_by(f64::total_cmp);
            eprintln!(
                "  {name}: {} requests, p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms",
                v.len(),
                measure::percentile(&v, 50.0),
                measure::percentile(&v, 90.0),
                v[v.len() - 1]
            );
        }
        let simulate_s = delta(&before, &after, "bvf_serve_simulate_nanos_total") / 1e9;
        let block_wall = median(&walls);
        // The simulation rate is host CPU work and is scaled to the
        // reference host. The accept loop's fixed 5 ms sleep sets the
        // median and the throughput, so those stay in host time: scaling
        // them would add the host's swings instead of removing them. The
        // tail is a fresh request's simulation on top of what a repeat
        // takes, so only its excess over the median is scaled, and of
        // set-up only the share the process spent on a CPU.
        let scaled_tail = LatencySummary {
            p99: host.above(latency.p50, latency.p99),
            ..latency
        };
        Outcome::end_to_end(
            block_wall,
            host.rate(fresh_instructions as f64 / simulate_s.max(1e-9)),
            BLOCK as f64 / block_wall,
            &scaled_tail,
            median(
                &setup
                    .iter()
                    .map(|&(wall, cpu)| host.on_cpu(wall, cpu))
                    .collect::<Vec<_>>(),
            ),
            rss,
        )
    };
    remove(&dir)?;
    Ok(outcome.with_counts(samples.len() as u64, failed, errors))
}

/// Host ms per sent request of the two server steps a repeat takes
/// before its store reads finish: deriving the request's ISA mask, and
/// reading its apps' results from the store.
fn walk(mix: &Mix, store: &ResultStore, sent: &[Sample]) -> Result<(f64, f64), String> {
    let mut probe = Probe::default();
    for s in sent {
        let req = protocol::parse_request(&mix.request(s.index).1)?;
        let mask = probe.time("isa.derive_mask_ms", || req.isa_mask());
        for app in &req.apps {
            let key = ResultStore::key(&req.config, req.arch, mask, app.code);
            if probe
                .time("store.load_ms", || store.load(key, app.code))
                .is_none()
            {
                return Err(format!(
                    "request {}: {} is not in the store",
                    s.index, app.code
                ));
            }
        }
    }
    let per_request = |layer| probe.nanos(layer) as f64 / 1e6 / sent.len().max(1) as f64;
    Ok((
        per_request("isa.derive_mask_ms"),
        per_request("store.load_ms"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_and_fixed_fresh_share() {
        let (a, b, c) = (Mix::new(7), Mix::new(7), Mix::new(8));
        let stream = |m: &Mix| -> Vec<(Slot, String)> {
            (0..4096)
                .map(|i| {
                    let (slot, body) = m.request(i);
                    (slot, body.to_string())
                })
                .collect()
        };
        assert_eq!(stream(&a), stream(&b));
        assert_ne!(stream(&a), stream(&c));
        for m in [&a, &c] {
            let s = stream(m);
            for block in s.chunks(FRESH_EVERY as usize) {
                let fresh = block
                    .iter()
                    .filter(|(slot, _)| *slot == Slot::Fresh)
                    .count();
                assert_eq!(fresh, 1, "exactly one fresh request per block");
            }
            // Fresh requests never repeat, and never coincide with a warm one.
            let fresh: Vec<&String> = s
                .iter()
                .filter(|(slot, _)| *slot == Slot::Fresh)
                .map(|(_, b)| b)
                .collect();
            let distinct: HashSet<&String> = fresh.iter().copied().collect();
            assert_eq!(distinct.len(), fresh.len());
            assert!(fresh.iter().all(|b| !WARM.contains(&b.as_str())));
        }
    }

    #[test]
    fn every_generated_request_parses() {
        let m = Mix::new(3);
        for i in 0..256 {
            let (_, body) = m.request(i);
            let req = protocol::parse_request(&body).expect("generated bodies are valid");
            assert!((1..=3).contains(&req.apps.len()));
        }
        assert!(
            m.capacity() > 30_000,
            "enough fresh configurations for a minute"
        );
    }

    #[test]
    fn every_round_of_fresh_requests_names_every_app_once() {
        let apps = Application::all().len();
        for seed in [1, 2] {
            let m = Mix::new(seed);
            let fresh: Vec<String> = (0..)
                .map(|i| m.request(i))
                .filter(|(slot, _)| *slot == Slot::Fresh)
                .map(|(_, body)| body)
                .take(3 * apps)
                .collect();
            for round in fresh.chunks(apps) {
                let named: HashSet<String> = round
                    .iter()
                    .map(|b| {
                        protocol::parse_request(b).expect("valid").apps[0]
                            .code
                            .to_string()
                    })
                    .collect();
                assert_eq!(named.len(), apps, "seed {seed}");
            }
        }
    }

    #[test]
    fn closed_loop_accounts_each_request_from_send_to_completion() {
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let service = Duration::from_millis(2);
        let send = |i: u64| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(service);
            in_flight.fetch_sub(1, Ordering::SeqCst);
            !i.is_multiple_of(5)
        };
        let stop = |done: usize, _: Duration| done >= 40;
        let samples = closed_loop(2, 100, &stop, &send);
        let wall = samples.last().expect("the loop ran").end;
        // A closed loop never has more requests outstanding than clients,
        // and stops within one request per client of the stop condition.
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert!((40..=41).contains(&samples.len()));
        let mut indices: Vec<u64> = samples.iter().map(|s| s.index).collect();
        indices.sort_unstable();
        assert_eq!(
            indices,
            (100..100 + samples.len() as u64).collect::<Vec<_>>()
        );
        for s in &samples {
            assert!(s.latency() >= service);
            assert_eq!(s.ok, !s.index.is_multiple_of(5));
        }
        // Each client is busy until the last completion: summed latency
        // cannot exceed clients x that time, and is most of it.
        let busy: Duration = samples.iter().map(Sample::latency).sum();
        assert!(busy <= wall * 2);
        assert!(busy * 10 >= wall * 2 * 8);
        assert!(samples.windows(2).all(|w| w[0].end <= w[1].end));
    }

    #[test]
    fn blocks_cover_consecutive_completions() {
        let at = |ms: u64| Sample {
            index: ms,
            start: Duration::ZERO,
            end: Duration::from_millis(ms),
            ok: true,
        };
        let samples: Vec<Sample> = (1..=(2 * BLOCK as u64 + 5)).map(at).collect();
        let walls = block_walls(&samples);
        assert_eq!(walls.len(), 2);
        assert!((walls[0] - BLOCK as f64 / 1e3).abs() < 1e-9);
        assert!((walls[1] - BLOCK as f64 / 1e3).abs() < 1e-9);
    }
}
