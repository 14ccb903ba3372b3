//! Zero-dependency readiness polling: thin `extern "C"` bindings to the
//! epoll calls of the C library the standard library already links,
//! wrapped in a safe [`Poller`]; plus the open-file limit a server
//! raises ([`raise_nofile_limit`]) and the stop-signal flag it drains on
//! ([`catch_stop_signals`]).
//!
//! The workspace deliberately carries no external crates, so the
//! event-driven acceptor cannot lean on `libc`/`mio`; declaring the half
//! dozen syscall wrappers it needs resolves them against the C library
//! `std` links anyway. The interface is epoll's level-triggered one:
//! register a file descriptor under a caller-chosen token, wait, and get
//! back `(token, readable, writable, hangup)` reports.
//!
//! Linux is the one platform: the epoll calls and every constant below
//! (`RLIMIT_NOFILE` among them) are Linux's, so another target fails to
//! compile here instead of failing to link, or raising the wrong limit.

#[cfg(not(target_os = "linux"))]
compile_error!("rect-addr-serve runs on Linux only: its event loop is built on epoll");

use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// Reading would not block (includes EOF and errors: a read will
    /// return 0 or the error rather than blocking).
    pub readable: bool,
    /// Writing would not block.
    pub writable: bool,
    /// The descriptor hung up or failed (`EPOLLHUP`/`EPOLLERR`): for a
    /// socket, the peer closed both directions. Reported whatever the
    /// interest; a peer that only shut its write side reports end of
    /// input as `readable` instead.
    pub hangup: bool,
}

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

// ---------------------------------------------------------------------
// Raw bindings.
// ---------------------------------------------------------------------

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;

// Matches the kernel ABI: packed on x86-64 (the one architecture whose
// kernel struct is unaligned), natural alignment elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
/// What `signal(2)` returns on failure.
const SIG_ERR: usize = usize::MAX;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn close(fd: i32) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Raises the process's soft open-file limit to its hard limit, returning
/// the resulting soft limit. Tens of thousands of connections need tens
/// of thousands of descriptors; the default soft limit (often 1024) is
/// the first wall an event-driven server hits.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: lim is a valid, writable Rlimit the call fills in.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(last_os_error());
    }
    if lim.rlim_cur < lim.rlim_max {
        let raised = Rlimit {
            rlim_cur: lim.rlim_max,
            rlim_max: lim.rlim_max,
        };
        // SAFETY: raised is a valid Rlimit for the call's whole duration.
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } != 0 {
            // Keeping the old soft limit is not fatal; report what stands.
            return Ok(lim.rlim_cur);
        }
        return Ok(raised.rlim_cur);
    }
    Ok(lim.rlim_cur)
}

static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn request_stop(_signum: i32) {
    STOP_REQUESTED.store(true, Ordering::SeqCst);
}

/// Makes SIGTERM and SIGINT set the process-wide [`stop_requested`] flag
/// instead of killing the process, so a server can drain before it
/// exits.
pub fn catch_stop_signals() -> io::Result<()> {
    for signum in [SIGTERM, SIGINT] {
        // SAFETY: the handler has the C signature signal(2) expects and
        // only stores to a lock-free atomic, which is async-signal-safe.
        if unsafe { signal(signum, request_stop) } == SIG_ERR {
            return Err(last_os_error());
        }
    }
    Ok(())
}

/// Whether SIGTERM or SIGINT arrived since [`catch_stop_signals`].
pub fn stop_requested() -> bool {
    STOP_REQUESTED.load(Ordering::SeqCst)
}

/// The most readiness reports one [`Poller::wait`] returns. Descriptors
/// ready beyond it are reported by the next wait: epoll is
/// level-triggered, so their readiness stays pending.
const MAX_EVENTS: usize = 1024;

/// A level-triggered epoll instance. The caller owns each descriptor and
/// its current interest, so the poller keeps neither.
pub struct Poller {
    epfd: RawFd,
    /// The kernel's report buffer, reused by every [`Poller::wait`].
    reports: Vec<EpollEvent>,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall; a negative return is the error case.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Poller {
            epfd,
            reports: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: (if interest.readable { EPOLLIN } else { 0 })
                | (if interest.writable { EPOLLOUT } else { 0 }),
            data: token,
        };
        // SAFETY: ev is valid for the call (DEL ignores it on kernels
        // since 2.6.9, but older ones want a valid pointer); a stale or
        // foreign fd is an error return, not a memory access.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token`; an fd registered twice is an
    /// `EEXIST` error.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest of a registered `fd` (e.g. adding WRITE when
    /// a connection's outbound queue becomes non-empty). An fd with an
    /// empty interest still reports a hang-up.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd`'s registration. Call it *before* closing the fd: a
    /// closed descriptor can no longer be named.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let none = Interest {
            readable: false,
            writable: false,
        };
        self.ctl(EPOLL_CTL_DEL, fd, 0, none)
    }

    /// Blocks until at least one registered descriptor is ready (or the
    /// timeout lapses — `None` waits forever), appending readiness
    /// reports to `events` (cleared first). Interrupted waits (`EINTR`)
    /// report zero events rather than erroring.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
        };
        // SAFETY: reports holds MAX_EVENTS writable entries for the call
        // (`new` allocates that many and nothing resizes the private field),
        // and the kernel writes at most `maxevents` of them.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.reports.as_mut_ptr(),
                MAX_EVENTS as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        events.extend(self.reports[..n as usize].iter().map(|report| {
            // Copy out of the (possibly packed) struct before use.
            let (bits, token) = (report.events, report.data);
            let hangup = bits & (EPOLLERR | EPOLLHUP) != 0;
            Event {
                token,
                // Errors/hangups surface as readable too: the next read
                // returns 0 or the error instead of blocking.
                readable: bits & EPOLLIN != 0 || hangup,
                writable: bits & EPOLLOUT != 0 || hangup,
                hangup,
            }
        }));
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd was created by epoll_create1 and is only closed
        // here.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::unix::io::AsRawFd as _;
    use std::os::unix::net::UnixStream;

    #[test]
    fn default_backend_reports_readiness() {
        let mut poller = Poller::new().expect("poller");
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let fd = a.as_raw_fd();
        poller.register(fd, 7, Interest::READ).unwrap();

        // Nothing written yet: a short wait reports no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "idle socket must not report readiness");

        b.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: the byte is still there, so readiness repeats
        // until it is consumed.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(a.read(&mut buf).unwrap(), 1);

        // Write interest on an empty kernel buffer reports writable.
        poller.modify(fd, 7, Interest::READ_WRITE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(fd).unwrap();
        b.write_all(b"y").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd must stay silent");
    }

    #[test]
    fn peer_hangup_reports_readable() {
        let mut poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        poller.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(b);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "hangup must wake the reader"
        );
    }

    #[test]
    fn hung_up_fd_reports_hangup_whatever_the_interest() {
        let none = Interest {
            readable: false,
            writable: false,
        };
        for interest in [none, Interest::READ, Interest::READ_WRITE] {
            let mut poller = Poller::new().unwrap();
            let (a, b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            let fd = a.as_raw_fd();
            poller.register(fd, 1, Interest::READ).unwrap();
            poller.modify(fd, 1, interest).unwrap();
            // A half-close is end of input, not a hang-up.
            b.shutdown(std::net::Shutdown::Write).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.iter().all(|e| !e.hangup), "{interest:?}: {events:?}");
            drop(b);
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.hangup),
                "{interest:?}: {events:?}"
            );
            poller.deregister(fd).unwrap();
        }
    }

    #[test]
    fn nofile_limit_is_reported() {
        let soft = raise_nofile_limit().expect("rlimit");
        assert!(soft > 0);
    }
}
