//! Minimal epoll + eventfd bindings for the nonblocking front end.
//!
//! The workspace vendors no `libc`, so the handful of syscalls the event
//! loop needs are declared here directly against the C ABI. This is the one
//! module in the crate allowed to contain `unsafe`; everything it exports
//! is a safe wrapper owning its file descriptor ([`Epoll`], [`EventFd`])
//! plus the handful of `EPOLL*` interest bits the loop uses.
//!
//! Level-triggered only: the HTTP loop re-arms interest explicitly on
//! state transitions (read → run → write), and level-triggered wakeups
//! make "forgot to re-arm" a performance bug instead of a hang.
#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint};

/// Readable interest (connection has bytes, or listener has an accept).
pub const EPOLLIN: u32 = 0x001;
/// Writable interest (send buffer has room again).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to request).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to request).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86_64 (the kernel ABI
/// packs it there so 32- and 64-bit layouts agree); naturally aligned on
/// other architectures.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLL*` bit set.
    pub events: u32,
    /// Caller token, echoed back verbatim on readiness.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
}

/// Re-issue `listen(2)` on an already-listening socket to widen its
/// accept backlog. `std`'s `TcpListener::bind` hardcodes 128, which a
/// storm of simultaneous connects overflows — overflowed handshakes
/// complete client-side but park in `SYN_RECV` server-side until a
/// SYN-ACK retransmit timer fires, adding seconds of latency the event
/// loop never sees. Linux applies the new backlog to an already-listening
/// socket; the kernel caps it at `net.core.somaxconn`.
pub fn widen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    // SAFETY: `fd` is a live socket owned by the caller; `listen` only
    // inspects it.
    cvt(unsafe { listen(fd, backlog as c_int) }).map(drop)
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a failure is a -1 that
        // `cvt` turns into an error.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: epoll_create1 returned a fresh fd we now uniquely own.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` is a live, correctly-laid-out epoll_event; the fds
        // are open (callers register fds they own).
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with interest `events`, tagged `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`; pre-2.6.9 kernels demand a non-null event
        // pointer for DEL, so pass one unconditionally.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Wait up to `timeout_ms` (−1 = forever) and fill `events`. Returns
    /// the number of ready entries; retries transparently on `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer outlives the call and maxevents matches
            // its length; the kernel writes at most that many entries.
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms as c_int,
                )
            };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A nonblocking eventfd: the loop's cross-thread wakeup doorbell.
///
/// Worker threads [`EventFd::ring`] it when a response is ready (or the
/// server is stopping); the event loop registers it `EPOLLIN` and
/// [`EventFd::drain`]s it on wakeup.
#[derive(Debug)]
pub struct EventFd {
    file: File,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers; a failure is a -1 that `cvt`
        // turns into an error.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: eventfd returned a fresh fd we now uniquely own; File
        // gives us read/write/close without further unsafe.
        Ok(EventFd { file: unsafe { File::from_raw_fd(fd) } })
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Add 1 to the counter, waking any epoll_wait watching it.
    pub fn ring(&self) -> io::Result<()> {
        match (&self.file).write_all(&1u64.to_ne_bytes()) {
            Ok(()) => Ok(()),
            // Counter saturated: the loop is already guaranteed a wakeup.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Reset the counter so the next [`EventFd::ring`] wakes the loop
    /// again. Returns the count drained (0 if it was already clear).
    pub fn drain(&self) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        match (&self.file).read_exact(&mut buf) {
            Ok(()) => Ok(u64::from_ne_bytes(buf)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_rings_and_drains_through_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), EPOLLIN, 7).unwrap();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing rung yet: a zero-timeout wait reports nothing.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
        ev.ring().unwrap();
        ev.ring().unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let token = buf[0].data; // copy out: packed fields can't be borrowed
        assert_eq!(token, 7);
        assert_eq!(ev.drain().unwrap(), 2);
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0, "drained ⇒ level clears");
    }

    #[test]
    fn socket_readiness_reports_the_registered_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 42).unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 8];
        let n = ep.wait(&mut buf, 2000).unwrap();
        assert_eq!(n, 1);
        let token = buf[0].data;
        assert_eq!(token, 42, "accept readiness carries the token");
        let (server_side, _) = listener.accept().unwrap();
        // A connected peer with pending bytes is EPOLLIN-ready too.
        server_side.set_nonblocking(true).unwrap();
        ep.add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 43).unwrap();
        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut buf, 2000).unwrap();
        assert!(n >= 1);
        assert!(buf[..n].iter().any(|e| e.data == 43));
        ep.del(server_side.as_raw_fd()).unwrap();
        drop(client);
    }
}
