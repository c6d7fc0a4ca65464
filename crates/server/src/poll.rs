//! Raw `epoll(7)`/`eventfd(2)` readiness primitives, declared by hand.
//!
//! The offline dependency set has no `libc`/`mio`, but std links the
//! platform C library anyway, so — exactly like the `signal(2)` handler
//! in [`crate::signal`] — the event loop declares the four syscall
//! wrappers it needs itself and hides them behind two safe types:
//!
//! - [`Poller`]: an `epoll` instance. Registration is level-triggered
//!   (the loop toggles read/write *interest* for backpressure instead of
//!   draining edge notifications), tokens are caller-chosen `u64`s, and
//!   [`Poller::wait`] translates the raw event mask into a plain
//!   [`Event`].
//! - [`EventFd`]: a nonblocking wakeup channel. Any thread may
//!   [`ring`](EventFd::ring) it; the owning event loop drains it and
//!   checks its mailboxes. This is how the acceptor hands over fresh
//!   connections and how estimation workers deliver finished responses.
//!
//! Errors surface as [`std::io::Error`] (std reads `errno` itself via
//! `Error::last_os_error`), so `EINTR`/`EAGAIN` handling stays idiomatic
//! `ErrorKind` matching. Everything here is Linux-only, like the event
//! loop that uses it; on other targets the module is not compiled and
//! the server reports that serving is unsupported.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// Values from the Linux UAPI headers (stable kernel ABI, not glibc
// internals): include/uapi/linux/eventpoll.h and fcntl.h.
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// `struct epoll_event`. The kernel packs it on x86-64 (12 bytes) and
/// leaves it naturally aligned elsewhere; both layouts are part of the
/// stable UAPI.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// See the x86-64 variant above.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn listen(sockfd: i32, backlog: i32) -> i32;
}

/// Re-issues `listen(2)` on an already-listening socket to raise its
/// accept backlog (std's `TcpListener::bind` hard-codes 128, far too
/// small for a 10k-connection ramp; Linux allows updating the backlog on
/// a live listener).
pub fn raise_listen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    // SAFETY: `listen` on a valid listening socket fd only adjusts the
    // kernel-side queue length.
    if unsafe { listen(fd, backlog) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can accept more written bytes.
    pub writable: bool,
    /// The socket errored or hung up in both directions (`EPOLLERR`/
    /// `EPOLLHUP`); nothing queued can be delivered anymore.
    pub closed: bool,
    /// The peer shut down its write side (`EPOLLRDHUP`): no more bytes
    /// will ever arrive, but the socket can still accept responses.
    pub rdhup: bool,
}

/// Which readiness notifications a registered fd should deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Deliver readable events.
    pub readable: bool,
    /// Deliver writable events.
    pub writable: bool,
    /// Deliver `EPOLLRDHUP` (peer half-close). Armed by default so a
    /// hang-up surfaces even while `EPOLLIN` is masked; the event loop
    /// disarms it once observed — level-triggered, it would otherwise
    /// re-fire on every wait for as long as the connection lingers.
    pub rdhup: bool,
}

impl Interest {
    /// Read-only interest (the idle/parsing state).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
        rdhup: true,
    };

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        if self.rdhup {
            m |= EPOLLRDHUP;
        }
        m
    }
}

/// A level-triggered `epoll` instance. Closed on drop.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates the epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers (no memory to
        // mis-describe); failure comes back as -1, checked below. The
        // fd is owned (and closed) by the Poller, never duplicated.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Changes a registered fd's interest.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Deregisters `fd` (safe to call right before closing it).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `out` (cleared first). `timeout` of
    /// `None` blocks indefinitely. A signal-interrupted wait returns an
    /// empty batch rather than an error — callers poll their shutdown
    /// flag every pass anyway.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let mut raw = [EpollEvent { events: 0, data: 0 }; 128];
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => i32::try_from(t.as_millis()).unwrap_or(i32::MAX).max(0),
        };
        // SAFETY: the buffer is a stack array of the declared length.
        let n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in raw.iter().take(n as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP) != 0,
                rdhup: bits & EPOLLRDHUP != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing the fd this struct owns.
        unsafe { close(self.epfd) };
    }
}

/// A nonblocking `eventfd` used as a cross-thread doorbell. Cloneable
/// handles are not needed — the fd lives in an `Arc`'d mailbox shared by
/// every writer, so it stays open until the last worker is done with it.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates the eventfd (counter semantics, nonblocking).
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: `eventfd` takes no pointers, so there is no memory to
        // mis-describe; a failure comes back as -1 and is checked below.
        // The returned fd is owned (and closed) by the EventFd.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for registration with a [`Poller`].
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Wakes the owning event loop. Infallible by design: the only
    /// failure modes are a full counter (the loop is already guaranteed
    /// to wake) or a torn-down loop (nobody left to wake).
    pub fn ring(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a stack value to an owned fd.
        unsafe { write(self.fd, (&raw const one).cast::<u8>(), 8) };
    }

    /// Drains the counter so the next [`ring`](EventFd::ring) triggers a
    /// fresh readiness event.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reading 8 bytes into a stack buffer from an owned fd.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: closing the fd this struct owns.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_rings_through_epoll() {
        let poller = Poller::new().unwrap();
        let efd = EventFd::new().unwrap();
        poller.add(efd.raw(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing rung yet: a zero-timeout wait comes back empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty());

        efd.ring();
        efd.ring(); // coalesces into one readiness event
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Drained, the level-triggered fd goes quiet again.
        efd.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn sockets_report_read_write_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .add(
                server_side.as_raw_fd(),
                1,
                Interest {
                    readable: true,
                    writable: true,
                    rdhup: true,
                },
            )
            .unwrap();

        // A fresh socket is writable; after the client sends, readable too.
        client.write_all(b"hi").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);
        assert!(events[0].readable);
        assert!(!events[0].closed);
        assert!(!events[0].rdhup);

        // Interest can be narrowed to read-only…
        poller
            .modify(server_side.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert!(events.iter().all(|e| !e.writable));

        // …and a peer disconnect surfaces as a half-close (`EPOLLRDHUP`):
        // the peer's FIN arrived, but our write side is still usable, so
        // the fatal `closed` (ERR/HUP) bits stay clear.
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert!(events.iter().any(|e| e.rdhup), "{events:?}");

        poller.remove(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn listener_backlog_can_be_raised() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        raise_listen_backlog(listener.as_raw_fd(), 4096).unwrap();
        // Still accepts after the backlog bump.
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        listener.accept().unwrap();
    }
}
