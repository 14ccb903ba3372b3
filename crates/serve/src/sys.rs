//! Zero-dependency readiness polling: thin `extern "C"` bindings to the
//! libc the standard library already links (`epoll` on Linux, portable
//! `poll(2)` everywhere), wrapped in a safe [`Poller`]; plus the
//! stop-signal flag a server drains on ([`catch_stop_signals`]).
//!
//! The workspace deliberately carries no external crates, so the
//! event-driven acceptor cannot lean on `libc`/`mio`; declaring the half
//! dozen syscall wrappers it needs resolves them against the C library
//! `std` links anyway. Both backends expose the same level-triggered
//! interface: register a file descriptor under a caller-chosen token,
//! wait, and get back `(token, readable, writable, hangup)` reports.
//!
//! The `poll(2)` backend is not dead fallback code — it is
//! runtime-selectable (see [`Poller::new_with`]) and exercised by the
//! event-loop tests on every platform, so a regression in either backend
//! fails CI on Linux rather than only on the platform that uses it.

use std::collections::HashMap;
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
    /// The descriptor hung up or failed (`EPOLLHUP`/`EPOLLERR`,
    /// `POLLHUP`/`POLLERR`): for a socket, the peer closed both
    /// directions. Reported whatever the interest; a peer that only shut
    /// its write side reports end of input as `readable` instead.
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
// Raw bindings. Linux-only symbols live behind cfg(target_os = "linux");
// poll(2) and the rlimit pair are POSIX.
// ---------------------------------------------------------------------

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

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
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn close(fd: i32) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

#[cfg(target_os = "linux")]
mod epoll_sys {
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;

    // Matches the kernel ABI: packed on x86-64 (the one architecture
    // whose kernel struct is unaligned), natural alignment elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
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

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        /// Registered interests, kept for [`Poller::wait`]'s capacity and
        /// for re-registration bookkeeping parity with the poll backend.
        interests: HashMap<u64, (RawFd, Interest)>,
    },
    Poll {
        /// token → (fd, interest); materialized into a `pollfd` array per
        /// wait. O(n) per wait against epoll's O(ready) — which is exactly
        /// why epoll is the Linux default and this the portable fallback.
        interests: HashMap<u64, (RawFd, Interest)>,
    },
}

/// A level-triggered readiness poller over one of the two backends.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// The platform-preferred backend: epoll on Linux, poll elsewhere.
    pub fn new() -> io::Result<Poller> {
        Poller::new_with(false)
    }

    /// `force_poll` selects the portable `poll(2)` backend even where
    /// epoll is available — how the tests keep the fallback honest on
    /// Linux CI.
    pub fn new_with(force_poll: bool) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        if !force_poll {
            // SAFETY: plain syscall; a negative return is the error case.
            let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_os_error());
            }
            return Ok(Poller {
                backend: Backend::Epoll {
                    epfd,
                    interests: HashMap::new(),
                },
            });
        }
        let _ = force_poll;
        Ok(Poller {
            backend: Backend::Poll {
                interests: HashMap::new(),
            },
        })
    }

    /// Whether this poller runs the portable `poll(2)` backend.
    pub fn is_poll_backend(&self) -> bool {
        matches!(self.backend, Backend::Poll { .. })
    }

    /// Registers `fd` under `token`. Tokens must be unique per poller;
    /// re-registering a live token is a logic error the epoll backend
    /// reports as `EEXIST`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, interests } => {
                let mut ev = epoll_sys::EpollEvent {
                    events: epoll_mask(interest),
                    data: token,
                };
                // SAFETY: ev is valid for the call; epfd/fd are live fds.
                if unsafe { epoll_sys::epoll_ctl(*epfd, epoll_sys::EPOLL_CTL_ADD, fd, &mut ev) }
                    != 0
                {
                    return Err(last_os_error());
                }
                interests.insert(token, (fd, interest));
                Ok(())
            }
            Backend::Poll { interests } => {
                interests.insert(token, (fd, interest));
                Ok(())
            }
        }
    }

    /// Updates the interest of a registered token (e.g. adding WRITE when
    /// a connection's outbound queue becomes non-empty). An fd with an
    /// empty interest still reports a hang-up.
    pub fn modify(&mut self, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, interests } => {
                let Some((fd, slot)) = interests.get_mut(&token).map(|(fd, i)| (*fd, i)) else {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("token {token} is not registered"),
                    ));
                };
                let mut ev = epoll_sys::EpollEvent {
                    events: epoll_mask(interest),
                    data: token,
                };
                // SAFETY: as in register; fd is a live registered fd.
                if unsafe { epoll_sys::epoll_ctl(*epfd, epoll_sys::EPOLL_CTL_MOD, fd, &mut ev) }
                    != 0
                {
                    return Err(last_os_error());
                }
                *slot = interest;
                Ok(())
            }
            Backend::Poll { interests } => match interests.get_mut(&token) {
                Some((_, slot)) => {
                    *slot = interest;
                    Ok(())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("token {token} is not registered"),
                )),
            },
        }
    }

    /// Removes a token's registration. Call *before* closing the fd —
    /// epoll deregisters by descriptor.
    pub fn deregister(&mut self, token: u64) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, interests } => {
                let Some((fd, _)) = interests.remove(&token) else {
                    return Ok(()); // idempotent
                };
                // SAFETY: DEL ignores the event argument on modern kernels
                // but a valid pointer keeps pre-2.6.9 semantics happy.
                let mut ev = epoll_sys::EpollEvent { events: 0, data: 0 };
                if unsafe { epoll_sys::epoll_ctl(*epfd, epoll_sys::EPOLL_CTL_DEL, fd, &mut ev) }
                    != 0
                {
                    return Err(last_os_error());
                }
                Ok(())
            }
            Backend::Poll { interests } => {
                interests.remove(&token);
                Ok(())
            }
        }
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
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, interests } => {
                let cap = interests.len().clamp(1, 1024) as i32;
                let mut buf = vec![epoll_sys::EpollEvent { events: 0, data: 0 }; cap as usize];
                // SAFETY: buf holds `cap` writable events for the call.
                let n = unsafe { epoll_sys::epoll_wait(*epfd, buf.as_mut_ptr(), cap, timeout_ms) };
                if n < 0 {
                    let e = last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for ev in &buf[..n as usize] {
                    // Copy out of the (possibly packed) struct before use.
                    let (bits, data) = (ev.events, ev.data);
                    let hangup = bits & (epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP) != 0;
                    events.push(Event {
                        token: data,
                        // Errors/hangups surface as readable too: the next
                        // read returns 0 or the error instead of blocking.
                        readable: bits & epoll_sys::EPOLLIN != 0 || hangup,
                        writable: bits & epoll_sys::EPOLLOUT != 0 || hangup,
                        hangup,
                    });
                }
                Ok(())
            }
            Backend::Poll { interests } => {
                let mut order: Vec<u64> = interests.keys().copied().collect();
                order.sort_unstable(); // deterministic service order
                let mut fds: Vec<PollFd> = order
                    .iter()
                    .map(|token| {
                        let (fd, interest) = interests[token];
                        PollFd {
                            fd,
                            events: (if interest.readable { POLLIN } else { 0 })
                                | (if interest.writable { POLLOUT } else { 0 }),
                            revents: 0,
                        }
                    })
                    .collect();
                // SAFETY: fds is a valid array of fds.len() entries (with
                // none, poll(2) just sleeps out the timeout).
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if n < 0 {
                    let e = last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for (token, pfd) in order.iter().zip(&fds) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    let hangup = pfd.revents & (POLLERR | POLLHUP) != 0;
                    events.push(Event {
                        token: *token,
                        readable: pfd.revents & POLLIN != 0 || hangup,
                        writable: pfd.revents & POLLOUT != 0 || hangup,
                        hangup,
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_mask(interest: Interest) -> u32 {
    (if interest.readable {
        epoll_sys::EPOLLIN
    } else {
        0
    }) | (if interest.writable {
        epoll_sys::EPOLLOUT
    } else {
        0
    })
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd, .. } = &self.backend {
            // SAFETY: epfd was created by epoll_create1 and is only closed
            // here.
            unsafe {
                close(*epfd);
            }
        }
        // Silence the unused-import warning for `close` on non-Linux.
        let _ = close as unsafe extern "C" fn(i32) -> i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::unix::io::AsRawFd as _;
    use std::os::unix::net::UnixStream;

    fn backend_roundtrip(force_poll: bool) {
        let mut poller = Poller::new_with(force_poll).expect("poller");
        assert_eq!(
            poller.is_poll_backend(),
            force_poll || cfg!(not(target_os = "linux"))
        );
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();

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
        poller.modify(7, Interest::READ_WRITE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(7).unwrap();
        b.write_all(b"y").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd must stay silent");
    }

    #[test]
    fn default_backend_reports_readiness() {
        backend_roundtrip(false);
    }

    #[test]
    fn poll_fallback_reports_readiness() {
        backend_roundtrip(true);
    }

    #[test]
    fn peer_hangup_reports_readable() {
        for force_poll in [false, true] {
            let mut poller = Poller::new_with(force_poll).unwrap();
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
                "hangup must wake the reader (backend force_poll={force_poll})"
            );
        }
    }

    #[test]
    fn hung_up_fd_reports_hangup_whatever_the_interest() {
        let none = Interest {
            readable: false,
            writable: false,
        };
        for force_poll in [false, true] {
            for interest in [none, Interest::READ, Interest::READ_WRITE] {
                let mut poller = Poller::new_with(force_poll).unwrap();
                let (a, b) = UnixStream::pair().unwrap();
                a.set_nonblocking(true).unwrap();
                poller.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
                poller.modify(1, interest).unwrap();
                // A half-close is end of input, not a hang-up.
                b.shutdown(std::net::Shutdown::Write).unwrap();
                let mut events = Vec::new();
                poller
                    .wait(&mut events, Some(Duration::from_millis(10)))
                    .unwrap();
                assert!(
                    events.iter().all(|e| !e.hangup),
                    "force_poll={force_poll} {interest:?}: {events:?}"
                );
                drop(b);
                poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                assert!(
                    events.iter().any(|e| e.token == 1 && e.hangup),
                    "force_poll={force_poll} {interest:?}: {events:?}"
                );
                poller.deregister(1).unwrap();
            }
        }
    }

    #[test]
    fn nofile_limit_is_reported() {
        let soft = raise_nofile_limit().expect("rlimit");
        assert!(soft > 0);
    }
}
