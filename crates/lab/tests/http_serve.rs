//! Front-end integration: the HTTP endpoint under concurrent clients.
//!
//! Acceptance floor (ISSUE 5): the endpoint must serve ≥ 8 concurrent
//! `query` clients correctly. The test registers a synthetic experiment,
//! warms its grid through `POST /run`, then fires 8 client threads × 4
//! requests each at `GET /cells` / `GET /status` and checks every
//! response is complete and consistent.

use bvl_lab::{
    serve, CellSpec, CodeFingerprint, Experiment, GridSpec, Job, OnStale, Service, ShardedStore,
};
use bvl_obs::Registry;
use rand::RngCore;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

struct Square;

impl Experiment for Square {
    fn name(&self) -> &str {
        "square"
    }

    fn grids(&self, smoke: bool) -> Vec<GridSpec> {
        let n = if smoke { 4 } else { 16 };
        let mut g = GridSpec::new("square", 7);
        for i in 0..n {
            g = g.cell(CellSpec::new("square-cells", i, format!("i={i}")));
        }
        vec![g]
    }

    fn run_cell(&self, cell: &CellSpec, mut job: Job) -> Vec<Vec<String>> {
        vec![vec![
            cell.params.clone(),
            (job.index * job.index).to_string(),
            job.rng.next_u64().to_string(),
        ]]
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-lab-http-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One HTTP/1.1 request over a fresh connection; returns (status, body).
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: lab\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let status = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn http_serves_eight_concurrent_query_clients() {
    let dir = tmpdir("concurrent");
    let code = CodeFingerprint::from_parts("http-test-api", "0");
    let store = ShardedStore::open(&dir, 1, code, OnStale::Error).unwrap();
    let service = Arc::new(Service::new(store, Registry::enabled(1), vec![Box::new(Square)]));
    // 4 workers < 8 clients: the bounded pool must queue, not drop.
    let server = serve("127.0.0.1:0", Arc::clone(&service), 4).unwrap();
    let addr = server.addr();

    // Warm the grid over the wire.
    let (status, body) = request(addr, "POST", "/run", "{\"exp\":\"square\"}");
    assert_eq!(status, "200", "POST /run failed: {body}");
    assert!(body.contains("\"hits\":0") && body.contains("\"misses\":16"), "{body}");

    // A second run is incremental: all hits.
    let (status, body) = request(addr, "POST", "/run", "{\"exp\":\"square\",\"smoke\":false}");
    assert_eq!(status, "200");
    assert!(body.contains("\"hits\":16") && body.contains("\"misses\":0"), "{body}");

    // The metrics plane reads the same registry /status reports, so the
    // scheduler counters agree: 16 misses then 16 hits is a 0.5 hit rate.
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, "200");
    assert!(body.contains("\"cache_hits\":16"), "{body}");
    assert!(body.contains("\"cache_misses\":16"), "{body}");
    assert!(body.contains("\"hit_rate\":0.5000"), "{body}");
    assert!(body.contains("\"tier\":\"full\""), "{body}");
    assert!(body.contains("\"cell_compute_us\""), "{body}");

    // Per-run tier selection never enters the cache key: a counters-only
    // re-run is still all hits. Unknown tiers are a client error.
    let (status, body) =
        request(addr, "POST", "/run", "{\"exp\":\"square\",\"tier\":\"counters\"}");
    assert_eq!(status, "200");
    assert!(body.contains("\"tier\":\"counters\"") && body.contains("\"hits\":16"), "{body}");
    assert_eq!(
        request(addr, "POST", "/run", "{\"exp\":\"square\",\"tier\":\"loud\"}").0,
        "400"
    );

    // 8 concurrent clients, 4 requests each, mixing /cells and /status.
    let reference = request(addr, "GET", "/cells?exp=square", "").1;
    assert!(reference.contains("\"count\":16"), "{reference}");
    std::thread::scope(|scope| {
        for client in 0..8 {
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..4 {
                    if (client + round) % 2 == 0 {
                        let (status, body) = request(addr, "GET", "/cells?exp=square", "");
                        assert_eq!(status, "200", "client {client} round {round}");
                        assert_eq!(&body, reference, "client {client} saw a different payload");
                    } else {
                        let (status, body) = request(addr, "GET", "/status", "");
                        assert_eq!(status, "200", "client {client} round {round}");
                        assert!(body.contains("\"cells\":16"), "{body}");
                        assert!(body.contains("\"stale\":null"), "{body}");
                    }
                }
            });
        }
    });

    // Error paths stay well-formed under the same pool.
    assert_eq!(request(addr, "GET", "/nope", "").0, "404");
    assert_eq!(request(addr, "GET", "/cells", "").0, "400");
    assert_eq!(request(addr, "PUT", "/run", "").0, "405");
    assert_eq!(request(addr, "POST", "/run", "{\"exp\":\"unknown\"}").0, "400");
    assert_eq!(request(addr, "POST", "/run", "garbage").0, "400");

    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A persistent connection: sends framed requests and reads framed
/// responses, carrying leftover pipelined bytes between reads.
struct KeepAliveClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAliveClient {
    fn connect(addr: std::net::SocketAddr) -> KeepAliveClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("timeout");
        KeepAliveClient { stream, buf: Vec::new() }
    }

    fn request_bytes(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: lab\r\nContent-Length: {}{}\r\n\r\n{body}",
            body.len(),
            if close { "\r\nConnection: close" } else { "" }
        )
        .into_bytes()
    }

    fn send(&mut self, method: &str, path: &str, body: &str, close: bool) {
        self.stream
            .write_all(&Self::request_bytes(method, path, body, close))
            .expect("send");
    }

    /// Read one response; returns (status, connection header, body).
    fn recv(&mut self) -> (String, String, String) {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "eof before response head");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let header = |name: &str| -> Option<String> {
            head.lines().find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix(&format!("{name}:"))
                    .map(|v| v.trim().to_string())
            })
        };
        let len: usize = header("content-length")
            .expect("content-length")
            .parse()
            .expect("numeric length");
        while self.buf.len() < head_end + len {
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "eof mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let status = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap_or("")
            .to_string();
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + len]).to_string();
        self.buf.drain(..head_end + len);
        (status, header("connection").unwrap_or_default(), body)
    }
}

#[test]
fn keep_alive_reuses_one_connection_for_sequential_and_pipelined_requests() {
    let dir = tmpdir("keepalive");
    let code = CodeFingerprint::from_parts("http-test-api", "0");
    let store = ShardedStore::open(&dir, 1, code, OnStale::Error).unwrap();
    let service = Arc::new(Service::new(store, Registry::enabled(1), vec![Box::new(Square)]));
    let server = serve("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
    let addr = server.addr();

    let mut c = KeepAliveClient::connect(addr);

    // Sequential reuse: HTTP/1.1 without `Connection: close` persists.
    for _ in 0..3 {
        c.send("GET", "/status", "", false);
        let (status, connection, _) = c.recv();
        assert_eq!(status, "200");
        assert_eq!(connection, "keep-alive");
    }

    // Pipelining: three requests written back-to-back, three complete
    // responses in order.
    let mut burst = Vec::new();
    burst.extend(KeepAliveClient::request_bytes("GET", "/status", "", false));
    burst.extend(KeepAliveClient::request_bytes("GET", "/metrics", "", false));
    burst.extend(KeepAliveClient::request_bytes("GET", "/cells?exp=square", "", false));
    c.stream.write_all(&burst).expect("pipelined burst");
    let (s1, _, b1) = c.recv();
    let (s2, _, b2) = c.recv();
    let (s3, _, b3) = c.recv();
    assert_eq!((s1.as_str(), s2.as_str(), s3.as_str()), ("200", "200", "200"));
    assert!(b1.contains("\"cells\""), "{b1}");
    assert!(b2.contains("\"scheduler\""), "{b2}");
    assert!(b3.contains("\"exp\":\"square\""), "{b3}");

    // The connection survives a worker-pool round trip (Running state).
    c.send("POST", "/run", "{\"exp\":\"square\",\"smoke\":true}", false);
    let (status, connection, body) = c.recv();
    assert_eq!(status, "200", "{body}");
    assert_eq!(connection, "keep-alive");
    assert!(body.contains("\"cells\":4"), "{body}");
    c.send("GET", "/status", "", false);
    assert_eq!(c.recv().0, "200");

    // Everything so far rode one accepted connection.
    c.send("GET", "/metrics", "", false);
    let (_, _, metrics) = c.recv();
    let accepted: u64 = metrics
        .split("\"accepted\":")
        .nth(1)
        .and_then(|r| r.split(|ch: char| !ch.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .expect("accepted counter");
    assert_eq!(accepted, 1, "{metrics}");

    // An explicit `Connection: close` is honored: final response, then EOF.
    c.send("GET", "/status", "", true);
    let (status, connection, _) = c.recv();
    assert_eq!(status, "200");
    assert_eq!(connection, "close");
    let mut rest = Vec::new();
    c.stream.read_to_end(&mut rest).expect("drain to eof");
    assert!(rest.is_empty(), "bytes after close: {rest:?}");

    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_then_query_round_trips_payloads() {
    let dir = tmpdir("roundtrip");
    let code = CodeFingerprint::from_parts("http-test-api", "0");
    let store = ShardedStore::open(&dir, 1, code, OnStale::Error).unwrap();
    let service = Arc::new(Service::new(store, Registry::disabled(), vec![Box::new(Square)]));
    let rep = service.run("square", true, None).unwrap().unwrap();
    assert_eq!(rep.rows.len(), 4);
    let server = serve("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
    let (status, body) = request(server.addr(), "GET", "/cells?exp=square", "");
    assert_eq!(status, "200");
    // Cell 3 of the smoke grid: params i=3, square 9, and its seeded draw.
    assert!(body.contains("\"params\":\"i=3\""), "{body}");
    assert!(body.contains(&format!("\"{}\"", rep.rows[3][0][1])), "{body}");
    assert!(body.contains(&rep.rows[3][0][2]), "{body}");
    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A bare-LF head followed by a body that contains a CRLF blank line is
/// framed at the head's own blank line and answered at once, not left
/// waiting for body bytes until the idle reaper closes the connection.
#[test]
fn bare_lf_head_with_crlf_in_the_body_is_answered() {
    let dir = tmpdir("barelf");
    let code = CodeFingerprint::from_parts("http-test-api", "0");
    let store = ShardedStore::open(&dir, 1, code, OnStale::Error).unwrap();
    let service = Arc::new(Service::new(store, Registry::disabled(), vec![Box::new(Square)]));
    let server = serve("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
    let body = "{\"exp\":\"square\",\r\n\r\n\"smoke\":true}";
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let req = format!(
        "POST /run HTTP/1.1\nContent-Length: {}\nConnection: close\n\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("a response before the read timeout");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"cells\":4"), "{response}");
    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
