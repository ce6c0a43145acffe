//! `bvf-serve`: the campaign-as-a-service frontend.
//!
//! A [`Server`] owns a `TcpListener` accept loop, a pool of simulation
//! workers draining a bounded priority queue, and a live [`MetricsSink`].
//! One connection-handler thread per connection parses a JSON campaign
//! request (`POST /run`), registers each application's work with the
//! scheduler, and streams results back as chunked JSONL the moment each
//! application completes — in request order, so the body is a
//! deterministic function of the request.
//!
//! **One execution path.** A worker runs each job — one application of an
//! admitted request — as a one-app [`Campaign`] under the request's ISA
//! mask: the campaign's (app, shard) unit pipeline does the store consult
//! and write-back, the fault drill, panic isolation, simulation and merge,
//! exactly as for `reproduce`. Serve itself is only admission: HTTP, the
//! single-flight map, the bounded priority queue and the drain.
//!
//! **Timing collection.** A response reports only each app's cycles,
//! instructions, L1D/L2 hit rates and DRAM requests, so every job runs
//! under [`Collection::Timing`]: no coding views and no value profiles.
//! Those fields do not depend on the collection, so a served body equals
//! a direct Full campaign's byte for byte. Every collection shares the
//! whole-app keys, and a stored entry answers any campaign whose views it
//! holds: an entry `reproduce` or a direct campaign wrote answers serve,
//! and an entry serve wrote, holding no views, is a Full or Energy miss.
//!
//! **Single-flight.** Each application's work is keyed by its
//! [`ResultStore`] content address — [`ResultStore::key`] over the
//! resolved config, ISA generation, derived ISA mask, and app code, i.e.
//! exactly the identity the disk cache uses. If a request names work whose
//! key is already in flight, the handler *attaches* to the existing
//! flight instead of enqueuing a duplicate job: N concurrent identical
//! requests cost one simulation, and all N response bodies are
//! byte-identical. Fault-drill jobs (`inject_panic`) bypass the
//! single-flight map, and the pipeline fails them before the store
//! consult, so a drill can never poison a clean request's flight or leave
//! a poisoned cache entry.
//!
//! **Backpressure.** The queue is bounded ([`ServeOptions::queue_capacity`]).
//! Admission is per request and atomic: either every job the request needs
//! fits, or nothing is enqueued and the client gets `429 Too Many
//! Requests` with a `Retry-After` hint. Attaching to an existing flight
//! consumes no queue slot.
//!
//! **Priorities.** Jobs carry the request's `priority` (higher first);
//! ties break FIFO by submission sequence, so equal-priority work is
//! served in arrival order and nothing starves behind later peers.

pub mod client;
pub mod http;
pub mod protocol;

use std::collections::{BinaryHeap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bvf_gpu::{GpuConfig, TraceSummary};
use bvf_isa::Architecture;
use bvf_obs::{CounterId, HistogramId, MetricsSink, TimerId};
use bvf_workloads::Application;

use crate::campaign::{Campaign, CampaignOptions, Collection, Parallelism};
use crate::store::ResultStore;

use self::http::{ChunkedWriter, Request, RequestError};
use self::protocol::SimRequest;

/// How long a connection handler waits for one application's flight
/// before reporting a timeout failure. Generous: a full-size app on a
/// loaded box is minutes, and a lost worker should fail the request
/// rather than hang the client forever.
const FLIGHT_TIMEOUT: Duration = Duration::from_secs(600);

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Simulation worker threads draining the queue.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs across all requests.
    pub queue_capacity: usize,
    /// Shared persistent result store consulted before simulating and
    /// written back after a miss. `None` simulates everything.
    pub store: Option<Arc<ResultStore>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            store: None,
        }
    }
}

/// Metric handles registered once at startup, so `/metrics` lists every
/// series from the first scrape.
#[derive(Clone, Copy)]
struct Ids {
    /// Accepted `/run` requests (a 200 stream was started).
    requests: CounterId,
    /// Requests rejected with 429 (queue full).
    rejected: CounterId,
    /// Malformed or oversized requests answered 4xx.
    bad_requests: CounterId,
    /// App jobs that attached to an in-flight identical job.
    attached: CounterId,
    /// Fresh simulations executed by workers.
    simulations: CounterId,
    /// Jobs that ended in a (caught) panic.
    failures: CounterId,
    /// Store consultations that returned a usable entry.
    store_hits: CounterId,
    /// Store consultations that missed.
    store_misses: CounterId,
    /// `/metrics` scrapes served.
    scrapes: CounterId,
    /// Wall time of fresh jobs' simulation and merge: the one-app
    /// campaign's [`crate::AppResult::wall`] (no store I/O, no hits).
    simulate: TimerId,
    /// Nanoseconds a job sat queued before a worker picked it up.
    queue_wait: HistogramId,
}

impl Ids {
    fn register(sink: &MetricsSink) -> Self {
        Self {
            requests: sink.counter("serve.requests"),
            rejected: sink.counter("serve.rejected"),
            bad_requests: sink.counter("serve.bad_requests"),
            attached: sink.counter("serve.attached"),
            simulations: sink.counter("serve.simulations"),
            failures: sink.counter("serve.job_failures"),
            store_hits: sink.counter("serve.store_hits"),
            store_misses: sink.counter("serve.store_misses"),
            scrapes: sink.counter("serve.scrapes"),
            simulate: sink.timer("serve.simulate"),
            queue_wait: sink.histogram("serve.queue_wait_ns"),
        }
    }
}

/// The outcome one flight publishes to every handler waiting on it.
type Outcome = Result<Arc<TraceSummary>, String>;

/// One in-flight unit of work: the rendezvous between the worker that
/// runs it and every connection handler waiting for it.
struct FlightSlot {
    outcome: Mutex<Option<Outcome>>,
    ready: Condvar,
}

impl FlightSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn publish(&self, outcome: Outcome) {
        let mut slot = self.outcome.lock().expect("flight lock");
        *slot = Some(outcome);
        self.ready.notify_all();
    }

    /// Wait until the outcome is published, or `timeout` elapses.
    fn wait(&self, timeout: Duration) -> Option<Outcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.outcome.lock().expect("flight lock");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self.ready.wait_timeout(slot, left).expect("flight lock");
            slot = guard;
        }
    }
}

/// One queued unit of work. Ordering: higher `priority` first, then FIFO
/// by submission sequence.
struct Job {
    priority: u32,
    seq: u64,
    app: Application,
    key: u64,
    /// Whether `key` is registered in the single-flight map. Only
    /// fault-drill jobs are not: they must not be attachable.
    registered: bool,
    config: GpuConfig,
    arch: Architecture,
    isa_mask: u64,
    hold: Duration,
    slot: Arc<FlightSlot>,
    enqueued: Instant,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Job {}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Job {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, std::cmp::Reverse(self.seq))
            .cmp(&(other.priority, std::cmp::Reverse(other.seq)))
    }
}

/// Scheduler state behind one mutex: the priority queue and the
/// single-flight map change together (admission registers flights and
/// enqueues jobs atomically), so one lock keeps them consistent.
struct SchedState {
    queue: BinaryHeap<Job>,
    inflight: HashMap<u64, Arc<FlightSlot>>,
    shutdown: bool,
}

/// Everything the accept loop, handlers, and workers share.
struct Shared {
    state: Mutex<SchedState>,
    work_ready: Condvar,
    capacity: usize,
    seq: AtomicU64,
    sink: MetricsSink,
    ids: Ids,
    store: Option<Arc<ResultStore>>,
    active_connections: AtomicUsize,
}

/// Why a request could not be admitted.
enum SubmitError {
    /// The queue cannot hold the request's jobs → 429.
    Full,
    /// The server is draining → 503.
    ShuttingDown,
}

impl Shared {
    /// Atomically admit one request: attach each app to an identical
    /// in-flight job where one exists, enqueue the rest — all or nothing
    /// against the queue capacity. Returns the flight each app waits on,
    /// in request order.
    fn submit(&self, req: &SimRequest) -> Result<Vec<(Application, Arc<FlightSlot>)>, SubmitError> {
        let isa_mask = req.isa_mask();
        let mut state = self.state.lock().expect("scheduler lock");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        // Plan first, commit after the capacity check: `staged_map` lets a
        // request that names the same app twice attach to its own first
        // instance, without touching the shared map until admission.
        let mut staged: Vec<Job> = Vec::new();
        let mut staged_map: HashMap<u64, Arc<FlightSlot>> = HashMap::new();
        let mut waiters = Vec::with_capacity(req.apps.len());
        let mut attached = 0u64;
        for app in &req.apps {
            let key = ResultStore::key(&req.config, req.arch, isa_mask, app.code);
            let fault = req.fault.as_deref() == Some(app.code);
            if !fault {
                if let Some(slot) = state.inflight.get(&key).or_else(|| staged_map.get(&key)) {
                    attached += 1;
                    waiters.push((app.clone(), slot.clone()));
                    continue;
                }
            }
            let slot = FlightSlot::new();
            if !fault {
                staged_map.insert(key, slot.clone());
            }
            staged.push(Job {
                priority: req.priority,
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                app: app.clone(),
                key,
                registered: !fault,
                config: req.config.clone(),
                arch: req.arch,
                isa_mask,
                hold: Duration::from_millis(req.hold_ms),
                slot: slot.clone(),
                enqueued: Instant::now(),
            });
            waiters.push((app.clone(), slot));
        }
        if state.queue.len() + staged.len() > self.capacity {
            return Err(SubmitError::Full);
        }
        state.inflight.extend(staged_map);
        for job in staged {
            state.queue.push(job);
        }
        drop(state);
        self.work_ready.notify_all();
        self.sink.add(self.ids.attached, attached);
        Ok(waiters)
    }

    /// Worker body: drain the queue (highest priority first) until
    /// shutdown, publishing each job's outcome to its flight.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("scheduler lock");
                loop {
                    if let Some(job) = state.queue.pop() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = self.work_ready.wait(state).expect("scheduler lock");
                }
            };
            self.sink.observe(
                self.ids.queue_wait,
                job.enqueued.elapsed().as_nanos() as u64,
            );
            self.run_job(job);
        }
    }

    /// Run one job as a one-app timing campaign under its request's ISA
    /// mask, then count it in the sink, publish the outcome and retire the
    /// flight. Counting first means a client that reads the counters after
    /// its response (`/metrics`, or the sink in tests) sees this job
    /// counted. Publishing before retiring means a handler that attaches
    /// between the two steps gets its result immediately; one that looks
    /// up after removal starts a fresh flight — never a deadlock, at worst
    /// a duplicate simulation.
    fn run_job(&self, job: Job) {
        if !job.hold.is_zero() {
            std::thread::sleep(job.hold);
        }
        let opts = CampaignOptions {
            par: Parallelism::Sequential,
            arch: job.arch,
            sink: self.sink.clone(),
            store: self.store.clone(),
            fault: (!job.registered).then(|| job.app.code.to_string()),
            collect: Collection::Timing,
            ..CampaignOptions::default()
        };
        let mut campaign = Campaign::run_with_mask(
            job.config,
            std::slice::from_ref(&job.app),
            job.isa_mask,
            &opts,
        );
        self.sink
            .add(self.ids.store_hits, campaign.cache_hits as u64);
        self.sink
            .add(self.ids.store_misses, campaign.cache_misses as u64);
        let outcome = match campaign.results.pop() {
            Some(result) => {
                if !result.cached {
                    self.sink.add(self.ids.simulations, 1);
                    self.sink.add_span(self.ids.simulate, result.wall);
                }
                Ok(result.summary)
            }
            None => {
                self.sink.add(self.ids.failures, 1);
                Err(campaign.failures.remove(0).error)
            }
        };
        job.slot.publish(outcome);
        if job.registered {
            let mut state = self.state.lock().expect("scheduler lock");
            state.inflight.remove(&job.key);
        }
    }
}

/// Decrement-on-drop guard for the live-connection count, so a panicking
/// handler cannot wedge graceful shutdown.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running `bvf-serve` instance: accept loop, worker pool, metrics.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop_accept: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return. The server
    /// runs until [`Server::shutdown`].
    pub fn start(opts: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let sink = MetricsSink::enabled();
        let ids = Ids::register(&sink);
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: BinaryHeap::new(),
                inflight: HashMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            capacity: opts.queue_capacity.max(1),
            seq: AtomicU64::new(0),
            sink,
            ids,
            store: opts.store,
            active_connections: AtomicUsize::new(0),
        });
        let workers = (0..opts.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("bvf-serve-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        let stop_accept = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shared = shared.clone();
            let stop = stop_accept.clone();
            std::thread::Builder::new()
                .name("bvf-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &stop))
                .expect("spawn accept loop")
        };
        Ok(Self {
            addr,
            shared,
            stop_accept,
            accept_thread,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics sink `/metrics` exposes.
    pub fn sink(&self) -> &MetricsSink {
        &self.shared.sink
    }

    /// Graceful shutdown: stop accepting, let in-flight connections and
    /// queued jobs drain, then join the workers. Returns when everything
    /// has stopped (drain waits are bounded, not infinite).
    pub fn shutdown(self) {
        self.stop_accept.store(true, Ordering::SeqCst);
        let _ = self.accept_thread.join();
        // Existing connections keep being served: their jobs are already
        // queued (or running), and workers drain the queue below before
        // exiting. Bound the wait so a wedged client cannot hold shutdown
        // hostage forever.
        let drain_deadline = Instant::now() + Duration::from_secs(30);
        while self.shared.active_connections.load(Ordering::SeqCst) > 0
            && Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                let handler_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("bvf-serve-conn".to_string())
                    .spawn(move || {
                        let guard = ConnGuard(handler_shared.clone());
                        handle_connection(&handler_shared, stream);
                        drop(guard);
                    });
                if spawned.is_err() {
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    // A peer that stalls mid-request (or stops reading its response) gets
    // disconnected instead of pinning this thread.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(RequestError::TooLarge) => {
            shared.sink.add(shared.ids.bad_requests, 1);
            let _ = http::respond(
                &mut stream,
                413,
                "Payload Too Large",
                &[],
                "application/json",
                &protocol::error_body("request exceeds the size limit"),
            );
            drain_unread(&mut stream);
            return;
        }
        Err(RequestError::Malformed(why)) => {
            shared.sink.add(shared.ids.bad_requests, 1);
            let _ = http::respond(
                &mut stream,
                400,
                "Bad Request",
                &[],
                "application/json",
                &protocol::error_body(why),
            );
            drain_unread(&mut stream);
            return;
        }
        Err(RequestError::Io(_)) => return,
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = http::respond(&mut stream, 200, "OK", &[], "text/plain", "ok\n");
        }
        ("GET", "/metrics") => {
            shared.sink.add(shared.ids.scrapes, 1);
            let body = shared.sink.expose_text();
            let _ = http::respond(
                &mut stream,
                200,
                "OK",
                &[],
                "text/plain; version=0.0.4",
                &body,
            );
        }
        ("POST", "/run") => handle_run(shared, &mut stream, &request),
        _ => {
            shared.sink.add(shared.ids.bad_requests, 1);
            let _ = http::respond(
                &mut stream,
                404,
                "Not Found",
                &[],
                "application/json",
                &protocol::error_body("no such endpoint (try POST /run or GET /metrics)"),
            );
        }
    }
}

/// After rejecting a request whose body was never read, consume what the
/// peer already sent before closing. Closing with unread bytes queued
/// makes the kernel send RST, which can destroy the rejection response in
/// the peer's receive buffer before it reads it. Bounded in bytes and
/// time: this is courtesy, not an obligation to a hostile peer.
fn drain_unread(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = [0u8; 8192];
    let mut total = 0usize;
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        total += n;
        if total > 8 * 1024 * 1024 {
            break;
        }
    }
}

fn handle_run(shared: &Arc<Shared>, stream: &mut TcpStream, request: &Request) {
    let req = match protocol::parse_request(&request.body) {
        Ok(r) => r,
        Err(message) => {
            shared.sink.add(shared.ids.bad_requests, 1);
            let _ = http::respond(
                stream,
                400,
                "Bad Request",
                &[],
                "application/json",
                &protocol::error_body(&message),
            );
            return;
        }
    };
    let waiters = match shared.submit(&req) {
        Ok(w) => w,
        Err(SubmitError::Full) => {
            shared.sink.add(shared.ids.rejected, 1);
            let _ = http::respond(
                stream,
                429,
                "Too Many Requests",
                &[("Retry-After", "1")],
                "application/json",
                &protocol::error_body("queue full, retry shortly"),
            );
            return;
        }
        Err(SubmitError::ShuttingDown) => {
            let _ = http::respond(
                stream,
                503,
                "Service Unavailable",
                &[],
                "application/json",
                &protocol::error_body("server is shutting down"),
            );
            return;
        }
    };
    shared.sink.add(shared.ids.requests, 1);
    let isa_mask = req.isa_mask();
    let Ok(mut out) = ChunkedWriter::begin(stream, 200, "OK", "application/x-ndjson") else {
        return;
    };
    if out
        .line(&protocol::accepted_line(req.apps.len(), isa_mask))
        .is_err()
    {
        return;
    }
    let mut failed = 0usize;
    for (app, slot) in waiters {
        let line = match slot.wait(FLIGHT_TIMEOUT) {
            Some(Ok(summary)) => protocol::app_line(&app, &summary),
            Some(Err(error)) => {
                failed += 1;
                protocol::failure_line(app.code, &error)
            }
            None => {
                failed += 1;
                protocol::failure_line(app.code, "timed out waiting for the result")
            }
        };
        if out.line(&line).is_err() {
            // The client is gone; its jobs complete (and retire their
            // flights) regardless.
            return;
        }
    }
    let _ = out.line(&protocol::done_line(req.apps.len(), failed));
    let _ = out.finish();
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::http::{read_request, RequestError, MAX_BODY_BYTES};
    use super::protocol::{parse_request, MAX_HOLD_MS, MAX_PRIORITY};

    const VALID_HTTP: &str = "POST /run HTTP/1.1\r\nHost: localhost\r\n\
                              Content-Length: 24\r\n\r\n{\"apps\":[\"VAD\"],\"sms\":1}";
    const VALID_JSON: &str = r#"{"apps":["VAD","SGE"],"config":"gtx480","sms":2,
        "scheduler":"lrr","arch":"kepler","priority":7,"inject_panic":"SGE","hold_ms":5}"#;

    /// Apply byte edits `(position, byte, kind)` to `bytes`: overwrite,
    /// insert, delete, or truncate at the position (taken modulo length).
    fn mutate(mut bytes: Vec<u8>, edits: &[(u16, u8, u8)]) -> Vec<u8> {
        for &(pos, byte, kind) in edits {
            let at = usize::from(pos) % (bytes.len() + 1);
            match kind % 4 {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                3 => bytes.truncate(at),
                _ => {}
            }
        }
        bytes
    }

    /// A request head never panics the reader: it parses within the caps
    /// or is an error.
    fn read_never_panics(bytes: &[u8]) {
        match read_request(bytes) {
            Ok(r) => {
                assert!(!r.method.is_empty());
                assert!(r.body.len() <= MAX_BODY_BYTES);
            }
            Err(RequestError::TooLarge | RequestError::Malformed(_) | RequestError::Io(_)) => {}
        }
    }

    /// A request body never panics the parser: it validates within the
    /// documented bounds or is an error message.
    fn parse_never_panics(bytes: &[u8]) {
        if let Ok(r) = parse_request(&String::from_utf8_lossy(bytes)) {
            assert!((1..=64).contains(&r.apps.len()));
            assert!(r.config.sms >= 1);
            assert!(u64::from(r.priority) <= MAX_PRIORITY);
            assert!(r.hold_ms <= MAX_HOLD_MS);
            if let Some(code) = &r.fault {
                assert!(r.apps.iter().any(|a| a.code == code));
            }
        }
    }

    #[test]
    fn the_valid_seeds_parse() {
        let r = read_request(VALID_HTTP.as_bytes()).expect("valid request");
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/run"));
        parse_request(&r.body).expect("valid body");
        parse_request(VALID_JSON).expect("valid body");
    }

    #[test]
    fn content_length_must_be_one_decimal_number() {
        let request = |headers: &str| {
            let head = format!("POST /run HTTP/1.1\r\nHost: localhost\r\n{headers}\r\n");
            read_request(format!("{head}hello").as_bytes())
        };
        let body = |headers| request(headers).expect("valid request").body;
        assert_eq!(body("Content-Length: 5\r\n"), "hello");
        assert_eq!(body("content-length:\t3 \r\n"), "hel");
        assert_eq!(body(""), "", "no Content-Length, no body");
        for headers in [
            "Content-Length: +5\r\n",
            "Content-Length: -5\r\n",
            "Content-Length: 0x5\r\n",
            "Content-Length: 5 5\r\n",
            "Content-Length: \r\n",
            "Content-Length: 99999999999999999999999\r\n",
            "Content-Length: 5\r\nContent-Length: 5\r\n",
            "Content-Length: 3\r\ncontent-length: 5\r\n",
        ] {
            assert!(
                matches!(request(headers), Err(RequestError::Malformed(_))),
                "{headers:?}"
            );
        }
    }

    #[test]
    fn an_endless_head_is_cut_off_at_the_cap() {
        let endless = std::io::Read::chain(&b"GET /"[..], std::io::repeat(b'a'));
        assert!(matches!(read_request(endless), Err(RequestError::TooLarge)));
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_request_reader(bytes in vec(any::<u8>(), 0..512)) {
            read_never_panics(&bytes);
        }

        #[test]
        fn mutated_requests_never_panic_the_request_reader(
            edits in vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..8),
        ) {
            read_never_panics(&mutate(VALID_HTTP.as_bytes().to_vec(), &edits));
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_request_parser(bytes in vec(any::<u8>(), 0..512)) {
            parse_never_panics(&bytes);
        }

        #[test]
        fn mutated_bodies_never_panic_the_request_parser(
            edits in vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..8),
        ) {
            parse_never_panics(&mutate(VALID_JSON.as_bytes().to_vec(), &edits));
        }
    }
}
