//! A minimal keep-alive HTTP/1.1 client for the lab service.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A request that takes longer than this fails.
const TIMEOUT: Duration = Duration::from_secs(10);

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        let head = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.round_trip(head.as_bytes())
    }

    pub fn post(&mut self, target: &str, body: &str) -> io::Result<Response> {
        let mut req = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body.as_bytes());
        self.round_trip(&req)
    }

    /// Send one request and read its whole response (head, then exactly
    /// `Content-Length` body bytes).
    fn round_trip(&mut self, req: &[u8]) -> io::Result<Response> {
        self.stream.write_all(req)?;
        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        let mut body = self.buf.split_off(head_end);
        if body.len() > len {
            return Err(bad("bytes beyond the response body"));
        }
        let have = body.len();
        body.resize(len, 0);
        self.stream.read_exact(&mut body[have..])?;
        Ok(Response { status, body })
    }
}

/// The first unsigned integer after `"key":` in a flat JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
