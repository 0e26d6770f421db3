//! The three workloads: set-up, timed passes and requests, the checks on
//! every output, and the traced stage-by-stage replay.

use crate::client::{json_u64, Client, Response};
use crate::digest::{fnv64, rows_digest, CellRows};
use crate::gen::{self, Req};
use crate::stats::{median, tail};
use crate::sys::{minor_faults, status_kb};
use crate::trace::Tracer;
use bvl_bench::scn;
use bvl_bsp::BspParams;
use bvl_core::slowdown::theorem1_bound;
use bvl_core::{simulate_logp_on_bsp, Theorem1Config};
use bvl_exec::RunOptions;
use bvl_lab::jsonio::{encode_rows, escape, Cursor};
use bvl_lab::{
    serve, Cell, CodeFingerprint, GridReport, Job, OnStale, ScenarioRunner, Server, Service,
    ShardedStore,
};
use bvl_logp::{LogpConfig, LogpMachine, LogpParams, Op, Script};
use bvl_model::rngutil::SeedStream;
use bvl_model::{Payload, ProcId};
use bvl_obs::{Counter, Hist, Registry, Tier};
use bvl_scenario::{audit_grid, compile, parse, HostWl, Work};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run. The run is cut into this many equal segments, each
/// opened by a set-up, so `setup_s` (their median) samples the whole run.
/// Later set-ups reuse the memory the first one faulted in, as every
/// timed pass does.
const SETUPS: usize = 12;
/// Timed cold passes per segment, at the least, however short `--seconds`.
const MIN_PASSES: usize = 1;
/// Requests each client sends in the warm leg after a cold pass: the next
/// three blocks of its schedule.
const LEG: usize = 3 * gen::BLOCK;
/// warm_serve's throughput is the median rate over intervals this long
/// (or a whole segment, if shorter), so a stall or a short host phase
/// moves one interval, not the figure.
const RATE_INTERVAL: Duration = Duration::from_millis(500);
/// Closed-loop clients: one per vCPU of the reference host.
const CLIENTS: usize = 2;
/// `lab serve`'s default worker count.
const WORKERS: usize = 4;
/// Requests per client the warm_serve replay takes from the schedule: two
/// rounds over the three documents.
const REPLAY_REQS: usize = 6 * gen::BLOCK;
/// Untraced and traced replays per traced run, each; the fastest of each
/// kind price the tracing overhead, so a replay slowed by the host drops
/// out.
const PAIRS: usize = 4;

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for this run's stores, under the working directory.
    pub dir: PathBuf,
    pub stamp: String,
    /// A wedged server fails the run at this instant instead of hanging it.
    pub deadline: Instant,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Lines printed before the result: digests, tails, trace path.
    pub notes: Vec<String>,
    pub chrome: Option<String>,
}

impl Outcome {
    /// Count one operation; a failure keeps its message (the first few).
    fn check(&mut self, res: Result<(), String>) -> bool {
        self.attempted += 1;
        match res {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A generated document and what the benchmark knows about it.
struct Doc {
    exp: String,
    text: String,
    /// `(domain, index)` of each cell, in the order rows come back.
    ids: Vec<(String, usize)>,
    /// The `POST /run` body re-submitting this document.
    run_body: String,
}

impl Doc {
    fn new(text: String) -> Result<Doc, String> {
        let compiled = compile(&parse(&text).map_err(err)?, false).map_err(err)?;
        let ids: Vec<(String, usize)> = compiled
            .grids
            .iter()
            .flat_map(|g| g.spec.cells.iter().map(|c| (c.domain.clone(), c.index)))
            .collect();
        Ok(Doc {
            exp: compiled.grids[0].spec.exp.clone(),
            run_body: format!("{{\"scenario\":\"{}\"}}", escape(&text)),
            text,
            ids,
        })
    }

    fn cells(&self) -> usize {
        self.ids.len()
    }

    /// The rows digest of a report's rows, which come in cell order.
    fn digest(&self, rows: &[Vec<Vec<String>>]) -> Result<String, String> {
        if rows.len() != self.ids.len() {
            return Err(format!("{} rows for {} cells", rows.len(), self.ids.len()));
        }
        let cells: Vec<CellRows> = self
            .ids
            .iter()
            .zip(rows)
            .map(|((d, i), r)| (d.clone(), *i, r.clone()))
            .collect();
        Ok(rows_digest(&cells))
    }
}

fn open_store(dir: &Path) -> Result<ShardedStore, String> {
    ShardedStore::open(dir, 1, CodeFingerprint::current(), OnStale::Invalidate).map_err(err)
}

/// One pass through the `lab run --scenario` path: parse, compile,
/// `run_grid` and audit, at the default thread count.
fn lab_run(text: &str, store: &ShardedStore, reg: &Registry) -> Result<GridReport, String> {
    scn::Runner
        .run_scenario(text, store, reg, false, Some(Tier::Full))
        .map(|(_, rep)| rep)
        .map_err(err)
}

/// A `lab serve` over a store: built the way the CLI builds it.
struct Live {
    svc: Arc<Service>,
    server: Server,
    dir: PathBuf,
}

/// The service `lab serve` puts behind HTTP, over the store in `dir`.
fn service(dir: &Path) -> Result<Service, String> {
    Ok(
        Service::new(open_store(dir)?, Registry::enabled(1), scn::experiments())
            .with_scenario_runner(Box::new(scn::Runner)),
    )
}

impl Live {
    fn start(dir: PathBuf) -> Result<Live, String> {
        let svc = Arc::new(service(&dir)?);
        let server = serve("127.0.0.1:0", Arc::clone(&svc), WORKERS).map_err(err)?;
        Ok(Live { svc, server, dir })
    }

    fn stop(self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What served responses must match: the documents, their rows digests,
/// and the `GET /cells` bodies verified at set-up.
struct Served {
    docs: Vec<Doc>,
    want: Vec<String>,
    cells_body: Vec<u64>,
}

impl Served {
    fn total_cells(&self) -> usize {
        self.docs.iter().map(Doc::cells).sum()
    }

    /// A request fails if it errors or times out, answers other than 200,
    /// or its content is wrong: a run that is not all hits, cells whose
    /// body differs from the verified one, a status or metrics body that
    /// records a cache miss.
    fn check(&self, req: Req, res: io::Result<Response>) -> Result<(), String> {
        let r = res.map_err(|e| format!("{}: {e}", req.route()))?;
        let body = r.text();
        if r.status != 200 {
            return Err(format!("{} answered {}: {body}", req.route(), r.status));
        }
        let ok = match req {
            Req::Run(i) => {
                let n = Some(self.docs[i].cells() as u64);
                json_u64(body, "cells") == n
                    && json_u64(body, "hits") == n
                    && json_u64(body, "misses") == Some(0)
            }
            Req::Cells(i) => fnv64(&r.body) == self.cells_body[i],
            Req::Status => {
                json_u64(body, "cells") == Some(self.total_cells() as u64)
                    && json_u64(body, "cache_misses") == Some(0)
            }
            Req::Metrics => json_u64(body, "cache_misses") == Some(0),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{} returned unexpected content", req.route()))
        }
    }
}

fn send(client: &mut Client, docs: &[Doc], req: Req) -> io::Result<Response> {
    match req {
        Req::Run(i) => client.post("/run", &docs[i].run_body),
        Req::Cells(i) => client.get(&format!("/cells?exp={}", docs[i].exp)),
        Req::Status => client.get("/status"),
        Req::Metrics => client.get("/metrics"),
    }
}

/// Parse a `GET /cells` body into `(domain, index, rows)` cells.
fn served_cells(body: &str) -> Result<Vec<CellRows>, String> {
    let mut c = Cursor::new(body);
    c.expect(b'{')?;
    let mut out = Vec::new();
    loop {
        match c.string()?.as_str() {
            "cells" => {
                c.expect(b':')?;
                c.expect(b'[')?;
                while !c.eat(b']') {
                    c.eat(b',');
                    c.expect(b'{')?;
                    let (mut domain, mut index, mut rows) = (String::new(), 0, Vec::new());
                    loop {
                        let field = c.string()?;
                        c.expect(b':')?;
                        match field.as_str() {
                            "domain" => domain = c.string()?,
                            "index" => index = c.u64()? as usize,
                            "payload" => rows = c.rows()?,
                            "plan" if c.eat(b'n') => {
                                for b in *b"ull" {
                                    c.expect(b)?;
                                }
                            }
                            _ => {
                                c.string()?;
                            }
                        }
                        if !c.eat(b',') {
                            break;
                        }
                    }
                    c.expect(b'}')?;
                    out.push((domain, index, rows));
                }
            }
            "count" => {
                c.expect(b':')?;
                c.u64()?;
            }
            _ => {
                c.expect(b':')?;
                c.string()?;
            }
        }
        if !c.eat(b',') {
            break;
        }
    }
    c.expect(b'}')?;
    Ok(out)
}

/// Fetch each experiment's cells once, check the served rows against the
/// in-process digest, and keep a hash of the body for the timed checks.
fn verify_cells(
    out: &mut Outcome,
    addr: SocketAddr,
    docs: &[Doc],
    want: &[String],
) -> Result<Vec<u64>, String> {
    let mut client = Client::connect(addr).map_err(err)?;
    let mut hashes = Vec::new();
    for (d, w) in docs.iter().zip(want) {
        let r = client.get(&format!("/cells?exp={}", d.exp)).map_err(err)?;
        let got = served_cells(r.text()).map(|c| rows_digest(&c));
        out.check(match got {
            Ok(g) if &g == w && r.status == 200 => Ok(()),
            other => Err(format!(
                "served rows of {} differ from the in-process rows: {other:?}",
                d.exp
            )),
        });
        hashes.push(fnv64(&r.body));
    }
    Ok(hashes)
}

/// A pass fails if it errors (the audit firing included), computes other
/// than `misses` cells, or its rows digest differs from `want`.
fn check_pass(
    doc: &Doc,
    rep: Result<GridReport, String>,
    misses: usize,
    want: &str,
) -> Result<(), String> {
    let rep = rep?;
    let got = doc.digest(&rep.rows)?;
    if rep.misses != misses {
        return Err(format!("pass computed {} cells, not {misses}", rep.misses));
    }
    if got != want {
        return Err(format!("pass rows digest {got} != {want}"));
    }
    Ok(())
}

/// The digest a workload's rows must have: the one kept with the
/// benchmark for this seed, else the first pass's.
fn reference(out: &mut Outcome, ctx: &Ctx, first: &str) -> String {
    out.notes
        .push(format!("digest {} {} {first}", ctx.workload, ctx.seed));
    match crate::digest::expected(ctx.workload, ctx.seed) {
        Some(kept) => {
            out.check(if kept == first {
                Ok(())
            } else {
                Err(format!("rows digest {first} differs from the kept {kept}"))
            });
            kept.to_string()
        }
        None => first.to_string(),
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Latencies by route, in milliseconds, for requests that passed.
#[derive(Default)]
struct Latencies(BTreeMap<&'static str, Vec<f64>>);

impl Latencies {
    fn add(&mut self, req: Req, d: Duration) {
        self.0.entry(req.route()).or_default().push(secs(d) * 1e3);
    }

    /// `NaN` if no request of the route passed.
    fn p50(&self, route: &str) -> f64 {
        self.0.get(route).map_or(f64::NAN, |v| median(v))
    }
}

/// End-of-run service counters from `/metrics` and `/status`.
fn service_counters(out: &mut Outcome, addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(err)?;
    let m = client.get("/metrics").map_err(err)?;
    let s = client.get("/status").map_err(err)?;
    let (hits, misses) = (
        json_u64(m.text(), "cache_hits"),
        json_u64(m.text(), "cache_misses"),
    );
    out.check(if misses == Some(0) {
        Ok(())
    } else {
        Err(format!("warm requests missed the cache: {misses:?}"))
    });
    out.put("http.cache_hits", hits.unwrap_or(0) as f64, "count");
    out.put("http.cache_misses", misses.unwrap_or(0) as f64, "count");
    out.put(
        "http.serve_mean_us",
        json_u64(s.text(), "serve_mean_us").unwrap_or(0) as f64,
        "us",
    );
    Ok(())
}

/// One request as a client saw it: route, completion time from the start
/// of its loop, latency, and the outcome of its check.
type Logged = (Req, Duration, Duration, Result<(), String>);

/// Drive `clients` in a closed loop, one thread each: client `c` sends
/// `next(c, i)` for `i = 0, 1, …` until it returns `None` or `until`
/// passes, and waits for each reply before the next request.
fn closed_loop(
    served: &Served,
    addr: SocketAddr,
    clients: &mut [Client],
    next: impl Fn(usize, usize) -> Option<Req> + Sync,
    until: Instant,
) -> Vec<Vec<Logged>> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let next = &next;
                s.spawn(move || {
                    let mut log = Vec::new();
                    let mut i = 0;
                    while let Some(req) = next(c, i) {
                        if Instant::now() >= until {
                            break;
                        }
                        i += 1;
                        let t = Instant::now();
                        let res = send(client, &served.docs, req);
                        let dt = t.elapsed();
                        let ok = served.check(req, res);
                        let failed = ok.is_err();
                        log.push((req, start.elapsed(), dt, ok));
                        if failed {
                            match Client::connect(addr) {
                                Ok(fresh) => *client = fresh,
                                Err(e) => {
                                    log.push((
                                        req,
                                        start.elapsed(),
                                        Duration::ZERO,
                                        Err(e.to_string()),
                                    ));
                                    break;
                                }
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn past_deadline(ctx: &Ctx) -> Result<(), String> {
    if Instant::now() >= ctx.deadline {
        return Err("the run passed its deadline: the server stopped answering".into());
    }
    Ok(())
}

fn connect_all(addr: SocketAddr) -> Result<Vec<Client>, String> {
    (0..CLIENTS)
        .map(|_| Client::connect(addr).map_err(err))
        .collect()
}

/// When segment `k` of a run that began at `start` ends.
fn segment_end(ctx: &Ctx, start: Instant, k: usize) -> Instant {
    start + Duration::from_secs_f64(ctx.seconds * (k + 1) as f64 / SETUPS as f64)
}

/// Send each client's next requests of its seeded schedule over the
/// served documents, at most `limit` each, in a closed loop until `until`,
/// and advance `sent` past them.
fn schedule_leg(
    ctx: &Ctx,
    served: &Served,
    addr: SocketAddr,
    clients: &mut [Client],
    sent: &mut [usize; CLIENTS],
    limit: usize,
    until: Instant,
) -> Vec<Vec<Logged>> {
    let (base, docs) = (*sent, served.docs.len());
    let logs = closed_loop(
        served,
        addr,
        clients,
        |c, i| (i < limit).then(|| gen::request(ctx.seed, c, base[c] + i, docs)),
        until,
    );
    for (n, log) in sent.iter_mut().zip(&logs) {
        *n += log.len();
    }
    logs
}

/// A `POST /run` of `text` as the server's worker runs it: the service's
/// scenario runner over its store, at the request's default tier.
fn service_run(svc: &Service, text: &str) -> Result<GridReport, String> {
    match svc.run_scenario(text, false, None) {
        Some(res) => res.map(|(_, rep)| rep).map_err(err),
        None => Err("the service has no scenario runner".into()),
    }
}

/// cold_grid and bigp_host. The run is `SETUPS` segments, each opened by
/// a set-up: generate the document, open an empty store, the warm-up pass
/// (a cold pass that fills it), reopen, start `lab serve`. The rest of the
/// segment repeats three steps: a timed `lab run` pass on an empty store
/// (`cold_s`); a warm leg of requests to the server, which feeds the
/// per-layer `http.*` metrics and the served-rows checks; and a timed
/// service pass, the document submitted on an empty store as a `POST /run`
/// worker runs it, on this thread (`run_p50_ms`, and per segment the
/// passes per second of pass time, `serve_rps`).
///
/// The service pass stands in for the client's view of a `POST /run`
/// because on these workloads that view times the host, not the program.
/// A warm run's client latency is mostly thread hand-offs, transfer and
/// queueing (`http.run_overhead_ms`); a cold one computes on a server
/// worker, in a second allocator arena whose resident memory varies from
/// run to run. See `README.md`.
pub fn cold(ctx: &Ctx, make: fn(u64) -> String, max_p: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setup, mut cold, mut faults) = (Vec::new(), Vec::new(), Vec::new());
    let mut lat = Latencies::default();
    let (mut svc_ms, mut svc_rate) = (Vec::new(), Vec::new());
    let mut want = None;
    let mut faults_first = 0;
    let mut sent = [0usize; CLIENTS];
    let mut last: Option<(Live, Served)> = None;
    let mut pass = 0;
    let start = Instant::now();
    for k in 0..SETUPS {
        if let Some((live, _)) = last.take() {
            live.stop();
        }
        let t0 = Instant::now();
        let doc = Doc::new(make(ctx.seed))?;
        let dir = ctx.dir.join(format!("serve-{k}"));
        let store = open_store(&dir)?;
        let f0 = minor_faults();
        let warmup = lab_run(&doc.text, &store, &Registry::enabled(1));
        let f1 = minor_faults();
        drop(store);
        let live = Live::start(dir)?;
        setup.push(secs(t0.elapsed()));
        if k == 0 {
            faults_first = f1 - f0;
        }
        let got = doc.digest(&warmup?.rows)?;
        let w = want
            .get_or_insert_with(|| reference(&mut out, ctx, &got))
            .clone();
        out.check(if got == w {
            Ok(())
        } else {
            Err(format!("warm-up rows digest {got} != {w}"))
        });
        let addr = live.server.addr();
        let hashes = verify_cells(
            &mut out,
            addr,
            std::slice::from_ref(&doc),
            std::slice::from_ref(&w),
        )?;
        let served = Served {
            docs: vec![doc],
            want: vec![w],
            cells_body: hashes,
        };
        let doc = &served.docs[0];

        let mut clients = connect_all(addr)?;
        let (end, mut passes) = (segment_end(ctx, start, k), 0);
        let (mut svc_passes, mut svc_time) = (0, Duration::ZERO);
        while passes < MIN_PASSES || Instant::now() < end {
            passes += 1;
            let dir = ctx.dir.join(format!("pass-{pass}"));
            pass += 1;
            let store = open_store(&dir)?;
            let reg = Registry::enabled(1);
            let f0 = minor_faults();
            let t = Instant::now();
            let rep = lab_run(&doc.text, &store, &reg);
            let dt = t.elapsed();
            faults.push((minor_faults() - f0) as f64);
            if out.check(check_pass(doc, rep, doc.cells(), &served.want[0])) {
                cold.push(secs(dt));
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);

            let logs = schedule_leg(
                ctx,
                &served,
                addr,
                &mut clients,
                &mut sent,
                LEG,
                ctx.deadline,
            );
            for (req, _, dt, res) in logs.into_iter().flatten() {
                if out.check(res) {
                    lat.add(req, dt);
                }
            }

            let dir = ctx.dir.join(format!("svc-{pass}"));
            let svc = service(&dir)?;
            let t = Instant::now();
            let rep = service_run(&svc, &doc.text);
            let dt = t.elapsed();
            if out.check(check_pass(doc, rep, doc.cells(), &served.want[0])) {
                svc_ms.push(secs(dt) * 1e3);
                svc_passes += 1;
                svc_time += dt;
            }
            drop(svc);
            let _ = std::fs::remove_dir_all(&dir);
            past_deadline(ctx)?;
        }
        if svc_passes > 0 {
            svc_rate.push(svc_passes as f64 / secs(svc_time));
        }
        last = Some((live, served));
    }
    let (live, served) = last.expect("at least one set-up");

    out.put("setup_s", median(&setup), "s");
    out.put("cold_s", median(&cold), "s");
    out.put("run_p50_ms", median(&svc_ms), "ms");
    out.put("serve_rps", median(&svc_rate), "1/s");
    if ctx.trace {
        service_counters(&mut out, live.server.addr())?;
        http_layer(&mut out, &lat);
        out.put("mem.faults_first", faults_first as f64, "count");
        out.put("mem.faults_pass", median(&faults), "count");
        replay(&mut out, ctx, |tr, acc, n| {
            let dir = ctx.dir.join(format!("replay-{n}"));
            let (store, rows) = acc.root(tr, "pass.cold", |tr, acc| {
                let store = tr.span("lab.open", |_| open_store(&dir))?;
                let rows = replay_run(tr, &served.docs[0], &store, acc)?;
                Ok::<_, String>((store, rows))
            })?;
            acc.append_bytes = store.segments().map_err(err)?.iter().map(|s| s.1).sum();
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            acc.digest(&served.want[0], Ok(rows));
            for c in 0..CLIENTS {
                for i in 0..LEG {
                    let req = gen::request(ctx.seed, c, i, 1);
                    replay_request(tr, acc, &served, &live.svc, req);
                }
            }
            Ok(())
        })?;
        out.put(
            "mem.rss_kb_per_proc",
            status_kb("VmHWM") as f64 / max_p as f64,
            "kB",
        );
    }
    out.put("peak_rss_mb", status_kb("VmHWM") as f64 / 1024.0, "MB");
    live.stop();
    Ok(out)
}

/// Fill a store with the documents through the `lab run` path; the
/// reports come back in document order.
fn fill(docs: &[Doc], store: &ShardedStore) -> Vec<Result<GridReport, String>> {
    let reg = Registry::enabled(1);
    docs.iter().map(|d| lab_run(&d.text, store, &reg)).collect()
}

/// warm_serve. The run is `SETUPS` segments, each opened by a set-up:
/// generate the three documents, fill an empty store with them, reopen it
/// behind `lab serve`, and send one round of the mix over the three
/// documents as the warm-up pass. The rest of the segment alternates a
/// timed fill of a fresh store (`cold_s`) with an interval of closed-loop
/// keep-alive traffic, each client continuing its seeded schedule.
pub fn warm_serve(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setup, mut fills, mut rates, mut faults) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut lat = Latencies::default();
    let mut want: Option<Vec<String>> = None;
    let mut faults_first = 0;
    let mut sent = [0usize; CLIENTS];
    let mut last: Option<(Live, Served)> = None;
    let mut filled = 0;
    let start = Instant::now();
    let interval = RATE_INTERVAL.min(Duration::from_secs_f64(ctx.seconds / SETUPS as f64));
    for k in 0..SETUPS {
        if let Some((live, _)) = last.take() {
            live.stop();
        }
        let t0 = Instant::now();
        let docs = gen::serve_docs(ctx.seed)
            .into_iter()
            .map(Doc::new)
            .collect::<Result<Vec<_>, _>>()?;
        let dir = ctx.dir.join(format!("serve-{k}"));
        let store = open_store(&dir)?;
        let f0 = minor_faults();
        let reports = fill(&docs, &store);
        if k == 0 {
            faults_first = minor_faults() - f0;
        }
        drop(store);
        let live = Live::start(dir)?;
        let addr = live.server.addr();
        let mut client = Client::connect(addr).map_err(err)?;
        let warmup: Vec<(Req, io::Result<Response>)> = (0..docs.len() * gen::BLOCK)
            .map(|n| {
                let req = gen::request(ctx.seed, 0, n, docs.len());
                (req, send(&mut client, &docs, req))
            })
            .collect();
        setup.push(secs(t0.elapsed()));

        let mut got = Vec::new();
        for (d, rep) in docs.iter().zip(reports) {
            got.push(d.digest(&rep?.rows)?);
        }
        let w = want
            .get_or_insert_with(|| {
                reference(
                    &mut out,
                    ctx,
                    &format!("{:016x}", fnv64(got.join(" ").as_bytes())),
                );
                got.clone()
            })
            .clone();
        out.check(if got == w {
            Ok(())
        } else {
            Err("fill rows differ between set-ups".into())
        });
        let hashes = verify_cells(&mut out, addr, &docs, &w)?;
        let served = Served {
            docs,
            want: w,
            cells_body: hashes,
        };
        for (req, res) in warmup {
            out.check(served.check(req, res));
        }

        let mut clients = connect_all(addr)?;
        let (end, mut rounds) = (segment_end(ctx, start, k), 0);
        while rounds < MIN_PASSES || Instant::now() < end {
            rounds += 1;
            let dir = ctx.dir.join(format!("fill-{filled}"));
            filled += 1;
            let store = open_store(&dir)?;
            let f0 = minor_faults();
            let t = Instant::now();
            let reports = fill(&served.docs, &store);
            let dt = t.elapsed();
            faults.push((minor_faults() - f0) as f64);
            drop(store);
            let mut ok = true;
            for ((d, rep), w) in served.docs.iter().zip(reports).zip(&served.want) {
                ok &= out.check(check_pass(d, rep, d.cells(), w));
            }
            if ok {
                fills.push(secs(dt));
            }
            let _ = std::fs::remove_dir_all(&dir);

            let until = (Instant::now() + interval).min(ctx.deadline);
            let logs = schedule_leg(
                ctx,
                &served,
                addr,
                &mut clients,
                &mut sent,
                usize::MAX,
                until,
            );
            let mut done = 0;
            for (req, at, dt, res) in logs.into_iter().flatten() {
                if out.check(res) {
                    lat.add(req, dt);
                    done += u64::from(at <= interval);
                }
            }
            rates.push(done as f64 / secs(interval));
            past_deadline(ctx)?;
        }
        last = Some((live, served));
    }
    let (live, served) = last.expect("at least one set-up");

    out.put("setup_s", median(&setup), "s");
    out.put("cold_s", median(&fills), "s");
    out.put("run_p50_ms", lat.p50("run"), "ms");
    out.put("serve_rps", median(&rates), "1/s");
    if ctx.trace {
        service_counters(&mut out, live.server.addr())?;
        http_layer(&mut out, &lat);
        out.put("mem.faults_first", faults_first as f64, "count");
        out.put("mem.faults_pass", median(&faults), "count");
        replay(&mut out, ctx, |tr, acc, _| {
            acc.root(tr, "req.open", |tr, _| {
                tr.span("lab.open", |_| open_store(&live.dir))
            })?;
            for n in 0..REPLAY_REQS {
                for c in 0..CLIENTS {
                    let req = gen::request(ctx.seed, c, n, served.docs.len());
                    replay_request(tr, acc, &served, &live.svc, req);
                }
            }
            // Every replayed cell is a hit: no engine runs on this path.
            acc.checks.push(if acc.cells.is_empty() {
                Ok(())
            } else {
                Err(format!("the warm replay computed cells: {:?}", acc.cells))
            });
            Ok(())
        })?;
        out.put(
            "mem.rss_kb_per_proc",
            status_kb("VmHWM") as f64 / 64.0,
            "kB",
        );
    }
    out.put("peak_rss_mb", status_kb("VmHWM") as f64 / 1024.0, "MB");
    live.stop();
    Ok(out)
}

/// `http.<route>_p50_ms` and the run tail, from the timed requests.
fn http_layer(out: &mut Outcome, lat: &Latencies) {
    for route in ["run", "cells", "status", "metrics"] {
        out.put(&format!("http.{route}_p50_ms"), lat.p50(route), "ms");
    }
    let runs = lat.0.get("run").cloned().unwrap_or_default();
    let (pct, value) = tail(&runs).unwrap_or((f64::NAN, f64::NAN));
    out.notes.push(format!(
        "tail run p{pct}={value:.4}ms samples={}",
        runs.len()
    ));
    out.put("http.run_tail_ms", value, "ms");
    out.put("http.run_tail_pct", pct, "%");
    out.put("http.run_tail_samples", runs.len() as f64, "count");
}

/// The engine counters the replay reports as `obs.*`.
const OBS: [Counter; 4] = [
    Counter::Submitted,
    Counter::Delivered,
    Counter::LocalOps,
    Counter::StallSteps,
];

/// How one replay runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Untraced, the program run as the lab runs it.
    Plain,
    /// Traced, the program run as the lab runs it.
    Traced,
    /// Untraced, with the engine counters of the host legs on.
    Counted,
}

/// Counts gathered while replaying.
#[derive(Default)]
struct Acc {
    /// Attach `Tier::CountersOnly` registries to the host legs.
    count: bool,
    /// Wall time of the top-level spans: the replayed work itself.
    total: Duration,
    cells: BTreeMap<&'static str, u64>,
    /// Engine counters of the host legs, in [`OBS`] order.
    obs: [u64; 4],
    native_delivered: u64,
    append_bytes: u64,
    /// The check of each replayed output against its expected digest.
    checks: Vec<Result<(), String>>,
}

impl Acc {
    /// Run one top-level span (a pass or a request) and add its wall time.
    fn root<R>(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer, &mut Acc) -> R,
    ) -> R {
        let t = Instant::now();
        let out = tr.span(name, |tr| f(tr, self));
        self.total += t.elapsed();
        out
    }

    fn digest(&mut self, want: &str, cells: Result<Vec<CellRows>, String>) {
        self.checks.push(cells.and_then(|c| {
            let got = rows_digest(&c);
            if got == want {
                Ok(())
            } else {
                Err(format!("replayed rows digest {got} != {want}"))
            }
        }));
    }
}

/// Replay the workload's inputs on one thread: untraced and traced in
/// turn, `PAIRS` times each, then twice counted. The untraced and traced
/// replays run the program as the lab does, without registries: the
/// fastest traced replay gives the per-layer self times, and against the
/// fastest untraced one it prices the tracing overhead. The two counted
/// replays give the `obs.*` counts, which must agree. The traced stages
/// must cover all but 5 % of the replay's wall time.
fn replay(
    out: &mut Outcome,
    ctx: &Ctx,
    mut body: impl FnMut(&mut Tracer, &mut Acc, usize) -> Result<(), String>,
) -> Result<(), String> {
    use Mode::*;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(err)?;
    let (mut plain, mut traced) = (Duration::MAX, Duration::MAX);
    let (mut kept, mut counts) = (None, Vec::new());
    let modes = [Plain, Traced].repeat(PAIRS);
    for (n, mode) in modes.into_iter().chain([Counted, Counted]).enumerate() {
        let mut tr = Tracer::new(mode == Traced);
        let mut acc = Acc {
            count: mode == Counted,
            ..Acc::default()
        };
        pool.install(|| body(&mut tr, &mut acc, n))?;
        for c in acc.checks.drain(..) {
            out.check(c);
        }
        match mode {
            Plain => plain = plain.min(acc.total),
            Traced if acc.total < traced => {
                traced = acc.total;
                kept = Some((tr, acc));
            }
            Traced => {}
            Counted => counts.push((acc.obs, acc.native_delivered)),
        }
    }
    let (tr, acc) = kept.expect("a traced replay");
    let (obs, native_delivered) = counts[0];
    out.check(if counts[0] == counts[1] {
        Ok(())
    } else {
        Err(format!(
            "engine counters differ between two replays: {:?} != {:?}",
            counts[0], counts[1]
        ))
    });
    let own = tr.self_ns();
    let ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let stages: u64 = own
        .iter()
        .filter(|(k, _)| !is_root(k))
        .map(|(_, v)| v)
        .sum();
    let total = acc.total.as_nanos() as f64;

    for name in [
        "scenario.parse",
        "scenario.compile",
        "scenario.audit",
        "lab.open",
        "lab.key",
        "lab.lookup",
        "lab.append",
        "lab.scan",
        "lab.encode",
        "lab.status",
        "obs.snapshot",
        "logp.run",
        "core.logp_on_bsp",
    ] {
        out.put(&format!("{name}_ms"), ms(name), "ms");
    }
    out.put("lab.append_bytes", acc.append_bytes as f64, "bytes");
    for span in COMPUTE_SPANS {
        out.put(&format!("{span}_ms"), ms(span), "ms");
        out.put(
            &format!("{span}_cells"),
            acc.cells.get(span).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    let mut note = format!("obs {} {}", ctx.workload, ctx.seed);
    for (c, n) in OBS.iter().zip(obs) {
        out.put(&format!("obs.{}", c.as_str()), n as f64, "count");
        let _ = write!(note, " {}={n}", c.as_str());
    }
    out.notes.push(note);
    // No host cell ran (warm_serve): no message to price.
    let per_msg = if native_delivered == 0 {
        0.0
    } else {
        ms("logp.run") * 1e6 / native_delivered as f64
    };
    out.put("logp.ns_per_msg", per_msg, "ns");
    for route in ["run", "cells", "status", "metrics"] {
        let in_process = median(&tr.stage_sums(&format!("req.{route}"))) / 1e6;
        let p50 = out
            .metrics
            .get(&format!("http.{route}_p50_ms"))
            .map_or(f64::NAN, |m| m.0);
        out.put(&format!("http.{route}_overhead_ms"), p50 - in_process, "ms");
    }
    let residual = 100.0 * (total - stages as f64) / total;
    out.check(if residual <= 5.0 {
        Ok(())
    } else {
        Err(format!(
            "the traced stages leave {residual:.2} % of the replay uncovered"
        ))
    });
    out.put("trace.total_ms", total / 1e6, "ms");
    out.put("trace.residual_pct", residual, "%");
    out.put(
        "trace.overhead_pct",
        100.0 * (secs(traced) / secs(plain) - 1.0),
        "%",
    );
    let pid = ["cold_grid", "warm_serve", "bigp_host"]
        .iter()
        .position(|w| *w == ctx.workload)
        .unwrap_or(0) as u32
        + 1;
    out.chrome = Some(tr.chrome_json(pid, ctx.workload, &ctx.stamp));
    Ok(())
}

fn is_root(name: &str) -> bool {
    name.starts_with("req.") || name.starts_with("pass.")
}

/// The compute span of every `Work` kind, in `Work` declaration order.
const COMPUTE_SPANS: [&str; 10] = [
    "compute.measure",
    "compute.host",
    "compute.route",
    "compute.route-big",
    "compute.superstep",
    "compute.conformance",
    "compute.stack",
    "compute.sort",
    "compute.stream",
    "compute.bsf",
];

fn compute_span(work: &Work) -> &'static str {
    let kind = match work {
        Work::Measure { .. } => 0,
        Work::Host { .. } => 1,
        Work::Route { .. } => 2,
        Work::RouteBig { .. } => 3,
        Work::Superstep { .. } => 4,
        Work::Conformance { .. } => 5,
        Work::Stack { .. } => 6,
        Work::Sort { .. } => 7,
        Work::Stream { .. } => 8,
        Work::Bsf { .. } => 9,
    };
    COMPUTE_SPANS[kind]
}

/// Replay one request in-process, stage by stage, under its own span.
fn replay_request(tr: &mut Tracer, acc: &mut Acc, served: &Served, svc: &Service, req: Req) {
    tr.request(tr.spans.len() as u64);
    match req {
        Req::Run(i) => {
            let cells = acc.root(tr, "req.run", |tr, acc| {
                replay_run(tr, &served.docs[i], &svc.store, acc)
            });
            acc.digest(&served.want[i], cells);
        }
        Req::Cells(i) => {
            let cells = acc.root(tr, "req.cells", |tr, _| {
                let cells = tr.span("lab.scan", |_| svc.store.cells_for(&served.docs[i].exp));
                tr.span("lab.encode", |_| {
                    cells
                        .iter()
                        .map(|c| encode_rows(&c.rows).len())
                        .sum::<usize>()
                });
                cells
            });
            let cells = cells.into_iter().map(|c| (c.domain, c.index, c.rows));
            acc.digest(&served.want[i], Ok(cells.collect()));
        }
        Req::Status => acc.root(tr, "req.status", |tr, _| {
            tr.span("lab.status", |_| {
                let s = &svc.store;
                let _ = std::hint::black_box((
                    s.experiments(),
                    s.segments().map(|v| v.len()),
                    s.len(),
                    s.torn(),
                    s.stale(),
                ));
            })
        }),
        Req::Metrics => acc.root(tr, "req.metrics", |tr, _| {
            tr.span("obs.snapshot", |_| {
                let reg = &svc.registry;
                let c: u64 = Counter::ALL.iter().map(|&c| reg.counter(c)).sum();
                let h: u64 = Hist::ALL.iter().map(|&h| reg.histogram(h).count).sum();
                std::hint::black_box((c, h));
            })
        }),
    }
}

/// `run_grid`'s stages for one document, on this thread, through the
/// public calls: parse, compile, then per grid the keys, the lookups that
/// split hits from misses, compute + append for each miss, and the audit.
/// Returns the cells with their rows.
fn replay_run(
    tr: &mut Tracer,
    doc: &Doc,
    store: &ShardedStore,
    acc: &mut Acc,
) -> Result<Vec<CellRows>, String> {
    let parsed = tr
        .span("scenario.parse", |_| parse(&doc.text))
        .map_err(err)?;
    let compiled = tr
        .span("scenario.compile", |_| compile(&parsed, false))
        .map_err(err)?;
    let code = store.code().clone();
    let mut out = Vec::with_capacity(doc.cells());
    for grid in &compiled.grids {
        let spec = &grid.spec;
        let keys: Vec<String> = tr.span("lab.key", |_| {
            spec.cells.iter().map(|c| spec.key_of(&code, c)).collect()
        });
        let cached: Vec<_> = tr.span("lab.lookup", |_| {
            keys.iter().map(|k| store.rows_of(k)).collect()
        });
        let seeds = SeedStream::new(spec.master);
        let mut rows = Vec::with_capacity(keys.len());
        for (((cell, work), key), hit) in spec.cells.iter().zip(&grid.work).zip(keys).zip(cached) {
            if let Some(hit) = hit {
                rows.push(hit);
                continue;
            }
            let job = Job {
                index: cell.index,
                rng: seeds.derive(&cell.domain, cell.index as u64),
                opts: spec.opts.clone(),
            };
            let span = compute_span(work);
            *acc.cells.entry(span).or_default() += 1;
            let computed = tr.span(span, |tr| match work {
                Work::Host { logp, fg, fl, wl } => {
                    host_legs(tr, acc, *logp, *fg, *fl, wl, &job.opts)
                }
                _ => Ok(scn::run_work(work, cell, job, None).0),
            })?;
            let record = Cell {
                key,
                exp: spec.exp.clone(),
                domain: cell.domain.clone(),
                index: cell.index,
                params: cell.params.clone(),
                plan: cell.plan.clone(),
                rows: computed.clone(),
            };
            tr.span("lab.append", |_| store.put(record)).map_err(err)?;
            rows.push(computed);
        }
        let violations = tr.span("scenario.audit", |_| audit_grid(spec, &grid.work, &rows));
        if let Some(v) = violations.first() {
            return Err(format!("audit fired on replay: {v}"));
        }
        out.extend(
            spec.cells
                .iter()
                .zip(rows)
                .map(|(c, r)| (c.domain.clone(), c.index, r)),
        );
    }
    Ok(out)
}

fn guest_scripts(p: usize, wl: &HostWl) -> Vec<Script> {
    (0..p)
        .map(|me| {
            let mut ops = Vec::new();
            match wl {
                HostWl::Ring { rounds } => {
                    for r in 0..*rounds {
                        ops.push(Op::Send {
                            dst: ProcId(((me + 1) % p) as u32),
                            payload: Payload::word(r as u32, me as i64),
                        });
                        ops.push(Op::Recv);
                    }
                }
                HostWl::AllToAll => {
                    for t in 0..p - 1 {
                        ops.push(Op::Send {
                            dst: ProcId(((me + 1 + t) % p) as u32),
                            payload: Payload::word(0, me as i64),
                        });
                    }
                    ops.extend(std::iter::repeat_n(Op::Recv, p - 1));
                }
            }
            Script::new(ops)
        })
        .collect()
}

/// A Theorem 1 `host` cell split into its two legs, each under its own
/// span: the native LogP run (`LogpMachine::run`) and the hosted run
/// (`simulate_logp_on_bsp`). Like the lab, it runs both without a
/// registry, unless the replay counts: then each leg gets one at
/// `Tier::CountersOnly`. The row is the one the lab computes; the replay's
/// digest check holds it to that.
fn host_legs(
    tr: &mut Tracer,
    acc: &mut Acc,
    logp: LogpParams,
    fg: u64,
    fl: u64,
    wl: &HostWl,
    opts: &RunOptions,
) -> Result<Vec<Vec<String>>, String> {
    let regs = acc
        .count
        .then(|| [0, 1].map(|_| Registry::tiered(logp.p, Tier::CountersOnly, 0)));
    let counted = |i: usize| match &regs {
        Some(r) => opts.clone().registry(&r[i]).obs(Tier::CountersOnly),
        None => opts.clone(),
    };
    let native_opts = counted(0);
    let native = tr
        .span("logp.run", |_| {
            let mut m =
                LogpMachine::with_config(logp, LogpConfig::stall_free(), guest_scripts(logp.p, wl));
            if regs.is_some() {
                m.instrument(&native_opts);
            }
            m.run().map(|r| r.makespan)
        })
        .map_err(err)?;
    let bsp = BspParams::new(logp.p, logp.g * fg, logp.l * fl).map_err(err)?;
    let hosted_opts = counted(1);
    let rep = tr
        .span("core.logp_on_bsp", |_| {
            simulate_logp_on_bsp(
                logp,
                bsp,
                guest_scripts(logp.p, wl),
                Theorem1Config::default(),
                &hosted_opts,
            )
        })
        .map_err(err)?;
    if let Some([native_reg, hosted_reg]) = &regs {
        for reg in [native_reg, hosted_reg] {
            for (sum, &c) in acc.obs.iter_mut().zip(&OBS) {
                *sum += reg.counter(c);
            }
        }
        acc.native_delivered += native_reg.counter(Counter::Delivered);
    }
    let name = match wl {
        HostWl::Ring { rounds } => format!("ring x{rounds}"),
        HostWl::AllToAll => "all-to-all".into(),
    };
    let slowdown = rep.bsp.cost.get() as f64 / native.get() as f64;
    let bound = theorem1_bound(bsp.g, bsp.l, logp.g, logp.l);
    Ok(vec![vec![
        name,
        logp.p.to_string(),
        format!("{fg}x/{fl}x"),
        native.get().to_string(),
        rep.bsp.cost.get().to_string(),
        bvl_bench::f2(slowdown),
        bvl_bench::f2(bound),
        bvl_bench::f2(slowdown / bound),
    ]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_row_in_the_store_fails_the_pass() {
        let dir = PathBuf::from(format!(".bench_run/test-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let doc = Doc::new(gen::serve_docs(5).remove(0)).unwrap();
        let store = open_store(&dir).unwrap();
        let cold = lab_run(&doc.text, &store, &Registry::enabled(1)).unwrap();
        let want = doc.digest(&cold.rows).unwrap();
        let warm = lab_run(&doc.text, &store, &Registry::enabled(1));
        assert_eq!(check_pass(&doc, warm, 0, &want), Ok(()));

        // Overwrite one cached cell's rows, as a damaged store would serve them.
        let code = store.code().clone();
        let compiled = compile(&parse(&doc.text).unwrap(), false).unwrap();
        let spec = &compiled.grids[0].spec;
        let key = spec.key_of(&code, &spec.cells[3]);
        let mut cell = store.get(&key).unwrap();
        cell.rows[0][1] = "999999".into();
        store.put(cell).unwrap();

        let mut out = Outcome::default();
        let warm = lab_run(&doc.text, &store, &Registry::enabled(1));
        out.check(check_pass(&doc, warm, 0, &want));
        assert_eq!((out.attempted, out.failed), (1, 1));
        let mut acc = Acc::default();
        let replayed = replay_run(&mut Tracer::new(false), &doc, &store, &mut acc);
        acc.digest(&want, replayed);
        assert!(acc.checks[0].is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn served_cells_parse_back_to_their_rows() {
        let body = "{\"exp\":\"x\",\"count\":2,\"cells\":[\
            {\"key\":\"k1\",\"domain\":\"d\",\"index\":1,\"params\":\"p\",\"plan\":null,\"payload\":[[\"a\",\"b\"]]},\
            {\"key\":\"k0\",\"domain\":\"d\",\"index\":0,\"params\":\"p\",\"plan\":\"seed=1,dup=3\",\"payload\":[[\"c\"]]}]}";
        let cells = served_cells(body).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1], ("d".to_string(), 0, vec![vec!["c".to_string()]]));
    }
}
