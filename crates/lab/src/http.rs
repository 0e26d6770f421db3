//! The serve front end: a nonblocking HTTP/1.1 JSON endpoint on epoll.
//!
//! No async runtime and no HTTP dependency. One event-loop thread owns a
//! nonblocking [`std::net::TcpListener`] plus every live connection,
//! multiplexed through [`crate::epoll::Epoll`] (level-triggered). Cheap
//! requests (`GET /status`, `/metrics`, `/cells`) are answered directly
//! on the loop; `POST /run` — which may compute a whole grid — is handed
//! to a bounded pool of worker threads, and the finished response comes
//! back to the loop through a completion queue plus an
//! [`crate::epoll::EventFd`] doorbell. Concurrency is therefore bounded
//! by file descriptors, not threads: thousands of simultaneous clients
//! cost one `Conn` struct each, while at most `workers` grids compute.
//!
//! Connections are persistent per HTTP/1.1: a request without
//! `Connection: close` keeps the connection open after the response, and
//! because requests are framed by `Content-Length` a client may pipeline
//! — buffered bytes beyond one request are kept and dispatched as soon as
//! the previous response drains. A connection is a little state machine:
//! **Reading** (accumulate bytes until the request is complete),
//! **Running** (a worker owns the response), **Writing** (drain the
//! response until done or `WouldBlock`), then back to Reading on
//! keep-alive. Responses are counted and their latency observed the
//! moment the last byte is written (request-received to
//! response-written), not at close. Connections idle in Reading/Writing
//! past `IDLE_TIMEOUT` are reaped, so stalled or half-open peers cannot
//! leak descriptors.
//!
//! Routes:
//!
//! * `GET /status` — store + service counters (cells, segments, shards,
//!   staleness, cache hits/misses, serve-latency histogram mean).
//! * `GET /metrics` — the live metrics plane: a full counter snapshot,
//!   histogram summaries, the scheduler's cache hit rate, and the serve
//!   loop's own accept/response/close counters, all read from the same
//!   service registry `/status` reports, so the two endpoints agree.
//! * `GET /cells?exp=NAME` — every cached cell of one experiment, payload
//!   rows included.
//! * `POST /run` — body `{"exp":"NAME","smoke":true,"tier":"sampled:8"}`
//!   (`smoke` and `tier` optional): run the named registered experiment's
//!   grid through the store (incremental: cached cells are hits) at the
//!   requested observability [`Tier`] and report the hit/miss split. The
//!   tier never enters the cache key, so dialing recording depth up or
//!   down cannot fork the store. Instead of `"exp"` the body may carry
//!   `"scenario":"<document text>"` — a scenario document (its one-line
//!   `repro()` form fits a JSON string natively; multi-line text uses
//!   `\n` escapes) parsed, compiled, run and audited by the registered
//!   [`ScenarioRunner`]. Exactly one of the two fields must be present.

use crate::epoll::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::jsonio::{clip, encode_rows_into, escape, escape_into, Cursor};
use crate::scheduler::{run_grid, CellSpec, GridReport, GridSpec, Job};
use crate::shard::ShardedStore;
use bvl_obs::{Counter, Hist, Registry, Tier};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A runnable experiment the service can execute on demand: a named grid
/// plus the per-cell measurement body. Implementations live next to the
/// experiment binaries (`bvl_bench::labexp`) so the CLI, the HTTP service
/// and the `exp_*` bins share one grid definition — and therefore one set
/// of cache keys.
pub trait Experiment: Send + Sync {
    /// Stable experiment name (the store grouping key and URL parameter).
    fn name(&self) -> &str;
    /// Build the requested grids (`smoke` selects the reduced CI shape).
    /// An experiment may span several grids when its sweeps use different
    /// master seeds; every grid's `exp` should equal [`Experiment::name`].
    fn grids(&self, smoke: bool) -> Vec<GridSpec>;
    /// Compute one cell.
    fn run_cell(&self, cell: &CellSpec, job: Job) -> Vec<Vec<String>>;
    /// Audit a completed grid's rows (`rows[i]` belongs to
    /// `grid.cells[i]`) against whatever invariants the experiment can
    /// prove — e.g. the BSS communication lower bounds. Each returned
    /// string is one violation; any violation **fails the run** (a
    /// measured cost below a proven bound is a simulator bug, not a fast
    /// run). The default audits nothing.
    fn audit(&self, _grid: &GridSpec, _rows: &[Vec<Vec<String>>]) -> Vec<String> {
        Vec::new()
    }
}

/// How a scenario run failed: a bad document (client error) or a failed
/// execution/audit (server error). The split drives the HTTP status.
#[derive(Debug)]
pub enum ScenarioError {
    /// The document did not parse or compile.
    Invalid(String),
    /// The document ran but a grid failed or a bounds audit fired.
    Failed(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(e) => write!(f, "invalid scenario: {e}"),
            ScenarioError::Failed(e) => write!(f, "{e}"),
        }
    }
}

/// Runs scenario documents submitted as data (`POST /run` with a
/// `"scenario"` body, `lab run --scenario`). The lab crate cannot lower
/// documents itself — cell bodies live next to the experiment binaries —
/// so the binary that builds the [`Service`] registers a runner via
/// [`Service::with_scenario_runner`].
pub trait ScenarioRunner: Send + Sync {
    /// Parse, compile, run and audit `text` through `store`, returning the
    /// scenario name and the merged report.
    fn run_scenario(
        &self,
        text: &str,
        store: &ShardedStore,
        registry: &Registry,
        smoke: bool,
        tier: Option<Tier>,
    ) -> Result<(String, GridReport), ScenarioError>;
}

/// The serve loop's own lifecycle counters, surfaced on `GET /metrics` so
/// a load generator can reconcile what it saw with what the server did.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Responses fully written.
    pub responses: AtomicU64,
    /// Connections closed (every accept ends here, with or without a
    /// response — disconnects, timeouts and malformed requests included).
    pub closed: AtomicU64,
}

impl ServeStats {
    fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.accepted.load(Ordering::Relaxed),
            self.responses.load(Ordering::Relaxed),
            self.closed.load(Ordering::Relaxed),
        )
    }
}

/// Shared state behind the front end: the sharded store, the service
/// registry and the registered experiments. The store carries its own
/// per-shard locks, so the service needs no outer mutex — concurrent
/// grid runs contend only when they touch the same shard.
pub struct Service {
    /// The persistent result store (1..N digest-routed shards).
    pub store: ShardedStore,
    /// Service metrics (cache hits/misses, serve latency).
    pub registry: Registry,
    /// Serve-loop lifecycle counters.
    pub stats: ServeStats,
    exps: Vec<Box<dyn Experiment>>,
    scenario: Option<Box<dyn ScenarioRunner>>,
}

impl Service {
    /// Bundle a store, a registry and the runnable experiments.
    pub fn new(
        store: ShardedStore,
        registry: Registry,
        exps: Vec<Box<dyn Experiment>>,
    ) -> Service {
        Service {
            store,
            registry,
            stats: ServeStats::default(),
            exps,
            scenario: None,
        }
    }

    /// Enable `POST /run` scenario bodies by registering a runner.
    pub fn with_scenario_runner(mut self, runner: Box<dyn ScenarioRunner>) -> Service {
        self.scenario = Some(runner);
        self
    }

    /// Run a scenario document through the registered [`ScenarioRunner`].
    /// `None` when no runner is registered.
    pub fn run_scenario(
        &self,
        text: &str,
        smoke: bool,
        tier: Option<Tier>,
    ) -> Option<Result<(String, GridReport), ScenarioError>> {
        let runner = self.scenario.as_ref()?;
        Some(runner.run_scenario(text, &self.store, &self.registry, smoke, tier))
    }

    /// Registered experiment names.
    pub fn names(&self) -> Vec<&str> {
        self.exps.iter().map(|e| e.name()).collect()
    }

    /// Look up a registered experiment.
    pub fn experiment(&self, name: &str) -> Option<&dyn Experiment> {
        self.exps.iter().find(|e| e.name() == name).map(|e| e.as_ref())
    }

    /// Run a registered experiment's grids through the store, merging the
    /// per-grid reports into one. `tier` (when given) overrides the grids'
    /// observability tier for this run's live cells; it is excluded from
    /// cell keys, so cached results are shared across tiers.
    pub fn run(
        &self,
        name: &str,
        smoke: bool,
        tier: Option<Tier>,
    ) -> Option<io::Result<GridReport>> {
        let exp = self.experiment(name)?;
        let mut merged = GridReport::empty();
        for mut grid in exp.grids(smoke) {
            if let Some(t) = tier {
                grid.opts = grid.opts.clone().obs(t);
            }
            let rep = match run_grid(&grid, Some(&self.store), &self.registry, |cell, job| {
                exp.run_cell(cell, job)
            }) {
                Ok(rep) => rep,
                Err(e) => return Some(Err(e)),
            };
            let violations = exp.audit(&grid, &rep.rows);
            if !violations.is_empty() {
                return Some(Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "bounds audit failed ({} violation{}): {}",
                        violations.len(),
                        if violations.len() == 1 { "" } else { "s" },
                        violations.join("; ")
                    ),
                )));
            }
            merged.merge(rep);
        }
        Some(Ok(merged))
    }
}

/// Reap a connection stuck in Reading/Writing for this long. Connections
/// in Running are exempt — a long grid compute is progress, not a stall.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// After [`Server::stop`], wait at most this long for in-flight runs.
const STOP_GRACE: Duration = Duration::from_secs(30);
/// Reject a request whose head (request line + headers) exceeds this.
const MAX_HEAD: usize = 64 * 1024;
/// Reject a request whose declared body exceeds this.
const MAX_BODY: usize = 8 * 1024 * 1024;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// A running HTTP server; dropping it does **not** stop the threads —
/// call [`Server::stop`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Arc<EventFd>,
    event_loop: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// The bound address (useful with a `:0` listen request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown, wake the event loop, and join every thread.
    /// In-flight runs complete (bounded by a grace period); new
    /// connections stop being accepted immediately.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.wake.ring();
        let _ = self.event_loop.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// One `POST /run` handed to the worker pool.
struct RunJob {
    token: u64,
    req: RunRequest,
    /// Framing the worker must bake into the response bytes.
    keep_alive: bool,
}

/// Start serving `service` on `addr` (e.g. `"127.0.0.1:0"`). The event
/// loop is nonblocking epoll, so concurrent *connections* are limited
/// only by descriptors; `workers` bounds how many `POST /run` grids
/// compute simultaneously (queued jobs run in arrival order).
pub fn serve(addr: &str, service: Arc<Service>, workers: usize) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // Widen the accept backlog past std's 128 so a concurrent-connect
    // storm establishes promptly instead of parking in SYN_RECV. Best
    // effort: the server works (slower under storms) at the default.
    let _ = crate::epoll::widen_backlog(listener.as_raw_fd(), 4096);
    let workers = workers.max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let wake = Arc::new(EventFd::new()?);
    let completions: CompletionQueue = Arc::new(Mutex::new(Vec::new()));
    let (work_tx, work_rx) = channel::<RunJob>();
    let work_rx = Arc::new(Mutex::new(work_rx));

    let mut worker_handles = Vec::new();
    for _ in 0..workers {
        let work_rx = Arc::clone(&work_rx);
        let service = Arc::clone(&service);
        let completions = Arc::clone(&completions);
        let wake = Arc::clone(&wake);
        worker_handles.push(std::thread::spawn(move || loop {
            let job = {
                let rx = work_rx.lock().expect("work rx poisoned");
                match rx.recv() {
                    Ok(job) => job,
                    Err(_) => break, // event loop exited: shutdown
                }
            };
            let (status, body) = run_response(&service, &job.req);
            completions
                .lock()
                .expect("completions poisoned")
                .push((job.token, response_bytes(status, &body, job.keep_alive)));
            let _ = wake.ring();
        }));
    }

    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(wake.raw(), EPOLLIN, TOKEN_WAKE)?;

    let loop_stop = Arc::clone(&stop);
    let loop_wake = Arc::clone(&wake);
    let event_loop = std::thread::spawn(move || {
        event_loop(
            listener,
            epoll,
            loop_wake,
            service,
            loop_stop,
            completions,
            work_tx,
        );
    });

    Ok(Server {
        addr: local,
        stop,
        wake,
        event_loop,
        workers: worker_handles,
    })
}

/// Completed `POST /run` responses, keyed by connection token, handed
/// from the worker pool back to the event loop.
type CompletionQueue = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;

/// Connection lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// A worker thread owns the response.
    Running,
    /// Draining the response buffer.
    Writing,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    buf: Vec<u8>,
    out: Vec<u8>,
    written: usize,
    /// When the in-flight request was fully received (serve latency is
    /// request-received → response-written); accept time until then.
    t0: Instant,
    last_activity: Instant,
    /// Whether the in-flight request asked to keep the connection open
    /// (HTTP/1.1 default; `Connection: close` or HTTP/1.0 opt out).
    keep_alive: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            state: ConnState::Reading,
            buf: Vec::new(),
            out: Vec::new(),
            written: 0,
            t0: now,
            last_activity: now,
            keep_alive: false,
        }
    }
}

/// What the loop should do with a connection after handling an event.
enum Action {
    Keep,
    Close { responded: bool },
    /// A keep-alive response was fully written: count it, return the
    /// connection to Reading, and dispatch any pipelined request already
    /// buffered.
    Responded,
}

#[allow(clippy::too_many_lines)]
fn event_loop(
    listener: TcpListener,
    epoll: Epoll,
    wake: Arc<EventFd>,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    completions: CompletionQueue,
    work_tx: Sender<RunJob>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![crate::epoll::EpollEvent { events: 0, data: 0 }; 512];
    let mut accepting = true;
    let mut stopped_at: Option<Instant> = None;

    while let Ok(n) = epoll.wait(&mut events, 100) {
        let ready: Vec<(u64, u32)> = events[..n].iter().map(|e| (e.data, e.events)).collect();
        for (token, bits) in ready {
            match token {
                TOKEN_LISTENER => {
                    if !accepting {
                        continue;
                    }
                    accept_ready(&listener, &epoll, &service, &mut conns, &mut next_token);
                }
                TOKEN_WAKE => {
                    let _ = wake.drain();
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    let action = handle_conn_event(conn, bits, token, &epoll, &service, &work_tx);
                    finish(action, token, &mut conns, &epoll, &service, &work_tx);
                }
            }
        }

        // Deliver worker completions: attach the response and start
        // draining it on the owning connection.
        let done: Vec<(u64, Vec<u8>)> = {
            let mut q = completions.lock().expect("completions poisoned");
            std::mem::take(&mut *q)
        };
        for (token, bytes) in done {
            let Some(conn) = conns.get_mut(&token) else {
                continue; // client vanished mid-run; drop the response
            };
            let action = start_writing(conn, bytes, token, &epoll);
            finish(action, token, &mut conns, &epoll, &service, &work_tx);
        }

        // Reap connections idle in Reading/Writing (half-open peers,
        // stalled readers). Running is exempt: the worker owns it.
        let now = Instant::now();
        let idle: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| {
                c.state != ConnState::Running && now - c.last_activity > IDLE_TIMEOUT
            })
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            finish(
                Action::Close { responded: false },
                token,
                &mut conns,
                &epoll,
                &service,
                &work_tx,
            );
        }

        if stop.load(Ordering::SeqCst) {
            if accepting {
                accepting = false;
                let _ = epoll.del(listener.as_raw_fd());
                stopped_at = Some(Instant::now());
            }
            let grace_over = stopped_at.is_some_and(|t| t.elapsed() > STOP_GRACE);
            if conns.is_empty() || grace_over {
                break;
            }
        }
    }
    // Dropping `work_tx` here hangs up the worker channel; workers drain
    // queued jobs, then exit. Remaining connections close with the loop.
    for (_, conn) in conns.drain() {
        let _ = epoll.del(conn.stream.as_raw_fd());
        service.stats.closed.fetch_add(1, Ordering::Relaxed);
    }
}

fn accept_ready(
    listener: &TcpListener,
    epoll: &Epoll,
    service: &Service,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if epoll
                    .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                    .is_err()
                {
                    continue; // fd table pressure: shed the connection
                }
                conns.insert(token, Conn::new(stream));
                service.stats.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Apply `action`. On close, deregister and drop the connection (closing
/// its descriptor), counting the response if one was written. On
/// `Responded` (keep-alive), count the response, return the connection to
/// Reading, and immediately dispatch the next pipelined request if one is
/// already buffered — looping, since that request may complete in turn.
fn finish(
    mut action: Action,
    token: u64,
    conns: &mut HashMap<u64, Conn>,
    epoll: &Epoll,
    service: &Service,
    work_tx: &Sender<RunJob>,
) {
    loop {
        match action {
            Action::Keep => return,
            Action::Close { responded } => {
                if let Some(conn) = conns.remove(&token) {
                    let _ = epoll.del(conn.stream.as_raw_fd());
                    service.stats.closed.fetch_add(1, Ordering::Relaxed);
                    if responded {
                        count_response(service, &conn);
                    }
                    // `conn.stream` drops here, closing the fd — the only
                    // close path, so every accepted descriptor is
                    // released exactly once.
                }
                return;
            }
            Action::Responded => {
                let Some(conn) = conns.get_mut(&token) else { return };
                count_response(service, conn);
                conn.state = ConnState::Reading;
                conn.out.clear();
                conn.written = 0;
                let now = Instant::now();
                conn.t0 = now;
                conn.last_activity = now;
                let _ = epoll.modify(conn.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token);
                match try_dispatch(conn, token, epoll, service, work_tx) {
                    None => return, // no complete pipelined request yet
                    Some(a) => action = a,
                }
            }
        }
    }
}

/// Count a fully-written response and observe its latency (request
/// received → last byte written).
fn count_response(service: &Service, conn: &Conn) {
    service.stats.responses.fetch_add(1, Ordering::Relaxed);
    service
        .registry
        .observe(Hist::ServeLatency, conn.t0.elapsed().as_micros() as u64);
}

fn handle_conn_event(
    conn: &mut Conn,
    bits: u32,
    token: u64,
    epoll: &Epoll,
    service: &Service,
    work_tx: &Sender<RunJob>,
) -> Action {
    if bits & (EPOLLERR | EPOLLHUP) != 0 {
        return Action::Close { responded: false };
    }
    conn.last_activity = Instant::now();
    match conn.state {
        ConnState::Reading => {
            let mut peer_eof = false;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        peer_eof = true;
                        break;
                    }
                    Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return Action::Close { responded: false },
                }
            }
            match try_dispatch(conn, token, epoll, service, work_tx) {
                Some(action) => action,
                None if peer_eof => Action::Close { responded: false },
                None => Action::Keep,
            }
        }
        // A worker owns the response; only ERR/HUP (handled above) close.
        ConnState::Running => Action::Keep,
        ConnState::Writing => flush_out(conn, token, epoll),
    }
}

/// If `conn.buf` now holds a complete request, route it. `None` = need
/// more bytes.
fn try_dispatch(
    conn: &mut Conn,
    token: u64,
    epoll: &Epoll,
    service: &Service,
    work_tx: &Sender<RunJob>,
) -> Option<Action> {
    let head = match parse_head(&conn.buf) {
        Ok(Some(head)) => head,
        Ok(None) => {
            if conn.buf.len() > MAX_HEAD {
                conn.keep_alive = false; // unframed: cannot resync the stream
                return Some(respond(conn, token, epoll, "400 Bad Request", &err_body("request head too large")));
            }
            return None;
        }
        Err(e) => {
            conn.keep_alive = false;
            return Some(respond(conn, token, epoll, "400 Bad Request", &err_body(&e)));
        }
    };
    if head.content_length > MAX_BODY {
        conn.keep_alive = false; // the oversized body is never read
        return Some(respond(conn, token, epoll, "400 Bad Request", &err_body("request body too large")));
    }
    if conn.buf.len() < head.head_end + head.content_length {
        return None; // body still arriving
    }
    let body_bytes = &conn.buf[head.head_end..head.head_end + head.content_length];
    let body = String::from_utf8_lossy(body_bytes).into_owned();
    // The request is complete: consume its bytes (pipelined successors
    // stay buffered), adopt its framing, and start its latency clock.
    conn.buf.drain(..head.head_end + head.content_length);
    conn.keep_alive = head.keep_alive;
    conn.t0 = Instant::now();

    let (path, query) = match head.target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (head.target.clone(), String::new()),
    };
    let query_param = |name: &str| -> Option<String> {
        query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.to_string())
    };

    Some(match (head.method.as_str(), path.as_str()) {
        ("GET", "/status") => respond(conn, token, epoll, "200 OK", &status_body(service)),
        ("GET", "/metrics") => respond(conn, token, epoll, "200 OK", &metrics_body(service)),
        ("GET", "/cells") => match query_param("exp") {
            None => respond(conn, token, epoll, "400 Bad Request", &err_body("missing ?exp=")),
            Some(exp) => respond(conn, token, epoll, "200 OK", &cells_body(service, &exp)),
        },
        ("POST", "/run") => match parse_run_body(&body) {
            Err(e) => respond(conn, token, epoll, "400 Bad Request", &err_body(&e)),
            Ok(req) => {
                // Hand the grid to the worker pool; stop watching for
                // input (level-triggered EPOLLIN would spin on any
                // pipelined bytes). ERR/HUP still arrive unrequested.
                conn.state = ConnState::Running;
                let _ = epoll.modify(conn.stream.as_raw_fd(), 0, token);
                let keep_alive = conn.keep_alive;
                if work_tx.send(RunJob { token, req, keep_alive }).is_err() {
                    // Shutdown race: workers are gone.
                    return Some(respond(
                        conn,
                        token,
                        epoll,
                        "503 Service Unavailable",
                        &err_body("server is stopping"),
                    ));
                }
                Action::Keep
            }
        },
        ("GET", _) => respond(conn, token, epoll, "404 Not Found", &err_body("no such route")),
        _ => respond(conn, token, epoll, "405 Method Not Allowed", &err_body("GET or POST only")),
    })
}

/// Attach a response (framed for the connection's keep-alive decision)
/// and start draining it.
fn respond(conn: &mut Conn, token: u64, epoll: &Epoll, status: &str, body: &str) -> Action {
    let bytes = response_bytes(status, body, conn.keep_alive);
    start_writing(conn, bytes, token, epoll)
}

fn start_writing(conn: &mut Conn, bytes: Vec<u8>, token: u64, epoll: &Epoll) -> Action {
    conn.out = bytes;
    conn.written = 0;
    conn.state = ConnState::Writing;
    conn.last_activity = Instant::now();
    let action = flush_out(conn, token, epoll);
    if matches!(action, Action::Keep) {
        // Socket buffer is full: wait for EPOLLOUT.
        let _ = epoll.modify(conn.stream.as_raw_fd(), EPOLLOUT, token);
    }
    action
}

/// Drain `conn.out`. Fully written → `Responded` (keep-alive) or
/// close-with-response; keep (armed for EPOLLOUT) on `WouldBlock`; close
/// silently on a write error.
fn flush_out(conn: &mut Conn, _token: u64, _epoll: &Epoll) -> Action {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return Action::Close { responded: false },
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Action::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Action::Close { responded: false },
        }
    }
    let _ = conn.stream.flush();
    if conn.keep_alive {
        Action::Responded
    } else {
        Action::Close { responded: true }
    }
}

/// A parsed request head.
struct Head {
    method: String,
    target: String,
    content_length: usize,
    /// Byte offset where the body starts.
    head_end: usize,
    /// Whether the request asks for a persistent connection: the
    /// HTTP/1.1 default unless `Connection: close`; HTTP/1.0 only with
    /// an explicit `Connection: keep-alive`.
    keep_alive: bool,
}

/// Find the end of the head (`\r\n\r\n`, or bare `\n\n` from sloppy
/// clients) and parse the request line + `Content-Length` +
/// `Connection`. `Ok(None)` = incomplete; `Err` = malformed.
fn parse_head(buf: &[u8]) -> Result<Option<Head>, String> {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None => return Ok(None),
    };
    let text = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err("malformed request line".into()),
    };
    let http10 = parts.next() == Some("HTTP/1.0");
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in lines {
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:").map(str::trim) {
            content_length = v.parse().map_err(|_| "bad content-length".to_string())?;
        } else if let Some(v) = lower.strip_prefix("connection:").map(str::trim) {
            connection = v.to_string();
        }
    }
    let keep_alive = if http10 {
        connection == "keep-alive"
    } else {
        connection != "close"
    };
    Ok(Some(Head {
        method,
        target,
        content_length,
        head_end,
        keep_alive,
    }))
}

/// End of the head: just past the first blank line, whether it is written
/// `\r\n\r\n` or (sloppy clients) `\n\n`. The earliest terminator wins,
/// so a body's own blank line never frames the head.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.iter().enumerate().find_map(|(i, &b)| {
        if b != b'\n' {
            return None;
        }
        match &buf[i + 1..] {
            [b'\n', ..] => Some(i + 2),
            [b'\r', b'\n', ..] if i > 0 && buf[i - 1] == b'\r' => Some(i + 3),
            _ => None,
        }
    })
}

fn response_bytes(status: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape(msg))
}

/// Execute a parsed `POST /run` request (on a worker thread) and return
/// `(status, body)`.
fn run_response(service: &Service, req: &RunRequest) -> (&'static str, String) {
    if let Some(text) = req.scenario.as_deref() {
        return match service.run_scenario(text, req.smoke, req.tier) {
            None => (
                "400 Bad Request",
                err_body("this service has no scenario runner registered"),
            ),
            Some(Err(ScenarioError::Invalid(e))) => ("400 Bad Request", err_body(&e)),
            Some(Err(ScenarioError::Failed(e))) => ("500 Internal Server Error", err_body(&e)),
            Some(Ok((name, rep))) => (
                "200 OK",
                run_report_body("scenario", &name, req.smoke, req.tier, &rep),
            ),
        };
    }
    let exp = req.exp.as_deref().unwrap_or_default();
    match service.run(exp, req.smoke, req.tier) {
        None => (
            "400 Bad Request",
            err_body(&format!(
                "unknown experiment '{}' (registered: {})",
                clip(exp),
                service.names().join(", ")
            )),
        ),
        Some(Err(e)) => (
            "500 Internal Server Error",
            err_body(&format!("grid failed: {e}")),
        ),
        Some(Ok(rep)) => (
            "200 OK",
            run_report_body("exp", exp, req.smoke, req.tier, &rep),
        ),
    }
}

/// A decoded `POST /run` body: exactly one of `exp` (a registered
/// experiment name) or `scenario` (a scenario document as text) plus the
/// optional `smoke` and `tier` knobs.
#[derive(Debug, PartialEq)]
struct RunRequest {
    exp: Option<String>,
    scenario: Option<String>,
    smoke: bool,
    tier: Option<Tier>,
}

/// Parse `{"exp":"NAME"}` or `{"scenario":"TEXT"}` with optional
/// `"smoke":BOOL` and `"tier":"off|counters|sampled[:rate]|full"` fields,
/// in any order.
fn parse_run_body(body: &str) -> Result<RunRequest, String> {
    let mut cur = Cursor::new(body);
    cur.expect(b'{')?;
    let mut exp = None;
    let mut scenario = None;
    let mut smoke = false;
    let mut tier = None;
    loop {
        let field = cur.string()?;
        cur.expect(b':')?;
        match field.as_str() {
            "exp" => exp = Some(cur.string()?),
            "scenario" => scenario = Some(cur.string()?),
            "smoke" => smoke = cur.boolean()?,
            "tier" => {
                let label = cur.string()?;
                tier = Some(
                    Tier::parse(&label).ok_or_else(|| format!("unknown tier '{}'", clip(&label)))?,
                );
            }
            other => return Err(format!("unknown field '{}'", clip(other))),
        }
        if !cur.eat(b',') {
            break;
        }
    }
    cur.expect(b'}')?;
    match (&exp, &scenario) {
        (None, None) => Err("missing \"exp\"".into()),
        (Some(_), Some(_)) => Err("\"exp\" and \"scenario\" are mutually exclusive".into()),
        _ => Ok(RunRequest {
            exp,
            scenario,
            smoke,
            tier,
        }),
    }
}

/// The `POST /run` success body, shared by experiment and scenario runs —
/// only the leading field name (`"exp"` vs `"scenario"`) differs.
fn run_report_body(
    kind: &str,
    name: &str,
    smoke: bool,
    tier: Option<Tier>,
    rep: &GridReport,
) -> String {
    format!(
        "{{\"{kind}\":\"{}\",\"smoke\":{smoke},\"tier\":\"{}\",\"cells\":{},\
         \"hits\":{},\"misses\":{},\"forced\":{},\"elapsed_ms\":{}}}",
        escape(name),
        tier.unwrap_or_default().label(),
        rep.rows.len(),
        rep.hits,
        rep.misses,
        rep.forced,
        rep.elapsed.as_millis()
    )
}

fn status_body(service: &Service) -> String {
    let store = &service.store;
    let segments = store.segment_count();
    let exps: Vec<String> = store
        .experiments()
        .into_iter()
        .map(|(name, cells)| format!("{{\"name\":\"{}\",\"cells\":{cells}}}", escape(&name)))
        .collect();
    let serve = service.registry.histogram(Hist::ServeLatency);
    format!(
        "{{\"code\":\"{}\",\"stale\":{},\"cells\":{},\"segments\":{segments},\
         \"shards\":{},\"torn\":{},\
         \"experiments\":[{}],\"registered\":[{}],\"cache_hits\":{},\"cache_misses\":{},\
         \"serve_mean_us\":{:.0}}}",
        escape(store.code().as_str()),
        store
            .stale()
            .map_or_else(|| "null".into(), |c| format!("\"{}\"", escape(&c))),
        store.len(),
        store.shard_count(),
        store.torn(),
        exps.join(","),
        service
            .names()
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect::<Vec<_>>()
            .join(","),
        service.registry.counter(Counter::CacheHits),
        service.registry.counter(Counter::CacheMisses),
        serve.mean(),
    )
}

/// The live metrics plane: every counter, a summary of every histogram,
/// the scheduler's cache hit rate, and the serve loop's lifecycle
/// counters — all read from `service.registry` and `service.stats`, the
/// same sources `/status` reports, so the two endpoints agree by
/// construction.
fn metrics_body(service: &Service) -> String {
    let reg = &service.registry;
    let counters: Vec<String> = Counter::ALL
        .iter()
        .map(|&c| format!("\"{}\":{}", c.as_str(), reg.counter(c)))
        .collect();
    let hists: Vec<String> = Hist::ALL
        .iter()
        .map(|&h| {
            let s = reg.histogram(h);
            format!(
                "\"{}\":{{\"count\":{},\"mean\":{:.2}}}",
                h.as_str(),
                s.count,
                s.mean()
            )
        })
        .collect();
    let hits = reg.counter(Counter::CacheHits);
    let misses = reg.counter(Counter::CacheMisses);
    let total = hits + misses;
    let hit_rate = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    };
    let (accepted, responses, closed) = service.stats.snapshot();
    format!(
        "{{\"tier\":\"{}\",\"spans_dropped\":{},\"counters\":{{{}}},\"hists\":{{{}}},\
         \"scheduler\":{{\"cache_hits\":{hits},\"cache_misses\":{misses},\
         \"hit_rate\":{hit_rate:.4}}},\
         \"serve\":{{\"accepted\":{accepted},\"responses\":{responses},\
         \"closed\":{closed},\"active\":{}}}}}",
        reg.tier().label(),
        reg.spans_dropped(),
        counters.join(","),
        hists.join(","),
        accepted - closed,
    )
}

/// The `GET /cells` body, written from the experiment's cells borrowed
/// under the shard locks into one buffer sized for the unescaped text.
fn cells_body(service: &Service, exp: &str) -> String {
    service.store.with_cells_for(exp, |cells| {
        let hint: usize = cells.iter().map(|c| c.encoded_len_hint()).sum();
        let mut out = String::with_capacity(64 + exp.len() + hint);
        out.push_str("{\"exp\":\"");
        escape_into(&mut out, exp);
        let _ = write!(out, "\",\"count\":{},\"cells\":[", cells.len());
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":\"");
            escape_into(&mut out, &c.key);
            out.push_str("\",\"domain\":\"");
            escape_into(&mut out, &c.domain);
            let _ = write!(out, "\",\"index\":{},\"params\":\"", c.index);
            escape_into(&mut out, &c.params);
            out.push_str("\",\"plan\":");
            match &c.plan {
                Some(plan) => {
                    out.push('"');
                    escape_into(&mut out, plan);
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"payload\":");
            encode_rows_into(&mut out, &c.rows);
            out.push('}');
        }
        out.push_str("]}");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_req(exp: &str, smoke: bool, tier: Option<Tier>) -> RunRequest {
        RunRequest {
            exp: Some(exp.into()),
            scenario: None,
            smoke,
            tier,
        }
    }

    #[test]
    fn run_body_parses_both_orders_and_rejects_junk() {
        assert_eq!(
            parse_run_body("{\"exp\":\"t\",\"smoke\":true}").unwrap(),
            exp_req("t", true, None)
        );
        assert_eq!(
            parse_run_body("{\"smoke\":false,\"exp\":\"t\"}").unwrap(),
            exp_req("t", false, None)
        );
        assert_eq!(
            parse_run_body("{\"exp\":\"t\"}").unwrap(),
            exp_req("t", false, None)
        );
        assert!(parse_run_body("{\"smoke\":true}").is_err());
        assert!(parse_run_body("not json").is_err());
        assert!(parse_run_body("{\"exp\":\"t\",\"extra\":1}").is_err());
    }

    #[test]
    fn run_body_parses_the_tier_field() {
        assert_eq!(
            parse_run_body("{\"exp\":\"t\",\"tier\":\"sampled:4\"}").unwrap(),
            exp_req("t", false, Some(Tier::Sampled { rate: 4 }))
        );
        assert_eq!(
            parse_run_body("{\"tier\":\"counters\",\"smoke\":true,\"exp\":\"t\"}").unwrap(),
            exp_req("t", true, Some(Tier::CountersOnly))
        );
        assert!(parse_run_body("{\"exp\":\"t\",\"tier\":\"loud\"}").is_err());
    }

    #[test]
    fn run_body_accepts_a_scenario_but_not_both() {
        let req =
            parse_run_body("{\"scenario\":\"scenario s; grid exp=e master=1\",\"smoke\":true}")
                .unwrap();
        assert_eq!(req.exp, None);
        assert_eq!(
            req.scenario.as_deref(),
            Some("scenario s; grid exp=e master=1")
        );
        assert!(req.smoke);
        // Embedded newlines arrive through the JSON string escape.
        let multiline = parse_run_body("{\"scenario\":\"scenario s\\ngrid exp=e master=1\"}")
            .unwrap();
        assert_eq!(
            multiline.scenario.as_deref(),
            Some("scenario s\ngrid exp=e master=1")
        );
        assert!(parse_run_body("{\"exp\":\"t\",\"scenario\":\"scenario s\"}").is_err());
    }

    #[test]
    fn head_parsing_handles_split_arrivals_and_rejects_garbage() {
        let full = b"POST /run HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"exp\":\"t\"}";
        // Incomplete prefixes ask for more bytes rather than erroring.
        for cut in [0, 5, 20, 40] {
            assert!(parse_head(&full[..cut.min(43)]).unwrap().is_none());
        }
        let head = parse_head(full).unwrap().unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.target, "/run");
        assert_eq!(head.content_length, 11);
        assert_eq!(&full[head.head_end..], b"{\"exp\":\"t\"}");
        // Bare-\n heads (sloppy clients) still terminate.
        let sloppy = b"GET /status HTTP/1.1\ncontent-length: 0\n\n";
        assert_eq!(parse_head(sloppy).unwrap().unwrap().target, "/status");
        // A complete head with no request line is malformed, not pending.
        assert!(parse_head(b"\r\n\r\n").is_err());
        assert!(parse_head(b"GET /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n").is_err());
    }

    #[test]
    fn head_ends_at_the_earliest_terminator() {
        // A bare-LF head whose body holds a CRLF blank line: the head ends
        // at the first blank line, not at the body's.
        let body = b"{\"exp\":\"t\",\r\n\r\n\"smoke\":true}";
        let mut req = format!(
            "POST /run HTTP/1.1\nContent-Length: {}\nConnection: close\n\n",
            body.len()
        )
        .into_bytes();
        let head_len = req.len();
        req.extend_from_slice(body);
        let head = parse_head(&req).unwrap().unwrap();
        assert_eq!(head.head_end, head_len);
        assert_eq!(head.content_length, body.len());
        assert!(!head.keep_alive);
        assert_eq!(&req[head.head_end..], body);
        // And the other way round: a CRLF head before a body with a bare
        // blank line.
        let req = b"POST /run HTTP/1.1\r\nContent-Length: 6\r\n\r\n{\n\n }";
        let head = parse_head(req).unwrap().unwrap();
        assert_eq!(&req[head.head_end..], b"{\n\n }");
    }

    #[test]
    fn keep_alive_follows_the_version_defaults() {
        let ka = |head: &[u8]| parse_head(head).unwrap().unwrap().keep_alive;
        // HTTP/1.1 persists by default; `Connection: close` opts out.
        assert!(ka(b"GET /status HTTP/1.1\r\n\r\n"));
        assert!(!ka(b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(ka(b"GET /status HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n"));
        // HTTP/1.0 closes by default; keep-alive is an explicit opt-in.
        assert!(!ka(b"GET /status HTTP/1.0\r\n\r\n"));
        assert!(ka(b"GET /status HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    }
}
