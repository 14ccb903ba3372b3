//! The socket transport: one readiness loop owning every connection, a
//! fixed thread count regardless of how many connections or schedules are
//! open.
//!
//! * a single **readiness loop** (epoll, see [`crate::sys`]) owns the
//!   listener and every connection socket, all nonblocking;
//! * each connection's bytes go through its protocol [`Session`], which
//!   frames lines under the [`MAX_LINE_BYTES`](proto::MAX_LINE_BYTES)
//!   cap, dispatches frames to the shared [`Service`]'s worker pool and
//!   produces the response lines; a v1 job that meets a full queue parks
//!   the connection's input until a completion frees space
//!   ([`Backpressure::Park`]);
//! * workers answer through a [`ResponseSink`] that pushes completions
//!   onto the loop's queue and wakes it via a socketpair — no
//!   per-connection writer thread — and schedules advance on the workers
//!   themselves, with no thread per schedule;
//! * responses flow out through per-connection **outbound queues** with
//!   partial-write handling; a peer that stops reading accumulates bytes
//!   only up to [`EventLoopConfig::outbound_cap`] and is then
//!   disconnected (queued work canceled) instead of growing the heap.
//!
//! The process therefore runs this loop plus the worker pool (plus one
//! persister thread when a state dir is configured). Idle
//! connections cost one registered descriptor and a few hundred bytes of
//! state — the scaling bench holds thousands of them against a worker
//! pool sized to the CPU.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proto::MAX_RESPONSE_LINE_BYTES;

use crate::service::{OutEvent, ResponseSink, Service};
use crate::session::{Backpressure, Session};
use crate::socket::{bind_listener, BindAddr, Listener, SocketServer, SocketStream, WRITE_TIMEOUT};
use crate::sys::{Interest, Poller};

/// Tuning of the socket transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLoopConfig {
    /// Bound on one connection's outbound queue, in bytes. A reader
    /// slower than its responses accumulates up to this much and is then
    /// disconnected (its queued jobs canceled) — backpressure by eviction
    /// rather than by unbounded buffering. The default admits any single
    /// legal response line ([`MAX_RESPONSE_LINE_BYTES`]).
    pub outbound_cap: usize,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            outbound_cap: MAX_RESPONSE_LINE_BYTES,
        }
    }
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct Completion {
    conn: u64,
    event: OutEvent,
}

/// The worker-facing side of the loop: a completion queue plus the write
/// end of the wake socketpair.
struct LoopShared {
    queue: Mutex<VecDeque<Completion>>,
    waker: UnixStream,
}

/// [`ResponseSink`] delivering into the loop's completion queue.
struct LoopSink {
    shared: Arc<LoopShared>,
    conn: u64,
    /// Set when the connection is torn down: late completions are refused,
    /// which also stops the connection's schedules from going on.
    closed: Arc<AtomicBool>,
}

impl ResponseSink for LoopSink {
    fn deliver(&self, event: OutEvent) -> bool {
        if self.closed.load(Ordering::Relaxed) {
            return false;
        }
        self.shared
            .queue
            .lock()
            .expect("completion queue poisoned")
            .push_back(Completion {
                conn: self.conn,
                event,
            });
        // Nonblocking one-byte nudge; a full pipe means a wake is already
        // pending, which is all we need.
        let _ = (&self.shared.waker).write(&[1u8]);
        true
    }
}

/// Everything the loop knows about one connection.
struct Conn<'s> {
    stream: SocketStream,
    session: Session<'s>,
    /// Shared with the connection's [`LoopSink`].
    closed: Arc<AtomicBool>,
    /// Outbound bytes not yet accepted by the kernel.
    out: VecDeque<u8>,
    /// Write error, outbound overflow or peer hang-up: tear down without a
    /// trailer.
    failed: bool,
    interest: Interest,
}

/// [`serve_socket_event_with`] with default tuning.
pub fn serve_socket_event(service: Arc<Service>, addr: &BindAddr) -> io::Result<SocketServer> {
    serve_socket_event_with(service, addr, EventLoopConfig::default())
}

/// Binds `addr` (replacing a stale Unix socket file from a crashed run)
/// and serves it (module docs). Returns immediately; the readiness loop
/// runs on one background thread until [`SocketServer::shutdown`], which
/// stops accepting, drains every live connection (responses + trailer)
/// bounded by [`WRITE_TIMEOUT`], then returns.
pub fn serve_socket_event_with(
    service: Arc<Service>,
    addr: &BindAddr,
    config: EventLoopConfig,
) -> io::Result<SocketServer> {
    let (listener, local, unix_path) = bind_listener(addr)?;
    listener.set_nonblocking(true)?;
    let (waker_rx, waker_tx) = UnixStream::pair()?;
    waker_rx.set_nonblocking(true)?;
    waker_tx.set_nonblocking(true)?;
    let shared = Arc::new(LoopShared {
        queue: Mutex::new(VecDeque::new()),
        waker: waker_tx,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = stop.clone();
        std::thread::spawn(move || run_loop(&service, listener, waker_rx, shared, stop, config))
    };
    Ok(SocketServer::new(local, stop, acceptor, unix_path))
}

#[allow(clippy::too_many_lines)]
fn run_loop(
    service: &Service,
    listener: Listener,
    waker_rx: UnixStream,
    shared: Arc<LoopShared>,
    stop: Arc<AtomicBool>,
    config: EventLoopConfig,
) -> Option<io::Error> {
    use std::os::unix::io::AsRawFd as _;
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => return Some(e),
    };
    if let Err(e) = poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ) {
        return Some(e);
    }
    if let Err(e) = poller.register(waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ) {
        return Some(e);
    }

    let mut conns: HashMap<u64, Conn<'_>> = HashMap::new();
    // Connections whose session holds a parked v1 job, oldest first; a
    // completion retries these alone, whatever the number of connections.
    // A session parks only in a read, a shutdown's `close_input` or a
    // retry, and each of those lists it here at once, before the round's
    // completions are retried.
    let mut parked: BTreeSet<u64> = BTreeSet::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Vec::new();
    // Swapped with the shared completion queue each round, so neither the
    // workers' pushes nor the loop's pass allocate once both have grown.
    let mut completions = VecDeque::new();
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    let fatal: Option<io::Error> = loop {
        if stop.load(Ordering::Relaxed) && !draining {
            // Shutdown: stop accepting, half-close every peer's read side
            // (idle peers cannot stall the drain), and give in-flight work
            // a bounded window to answer and flush.
            draining = true;
            drain_deadline = Instant::now() + WRITE_TIMEOUT;
            for (&token, conn) in conns.iter_mut() {
                let _ = conn.stream.shutdown_read();
                conn.session.close_input();
                if conn.session.parked() {
                    parked.insert(token);
                }
            }
        }
        if draining && (conns.is_empty() || Instant::now() >= drain_deadline) {
            break None;
        }
        let timeout = if draining {
            Some(
                drain_deadline
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(100)),
            )
        } else {
            None
        };
        if let Err(e) = poller.wait(&mut events, timeout) {
            break Some(e);
        }

        let mut touched: Vec<u64> = Vec::new();
        for event in events.drain(..) {
            match event.token {
                LISTENER_TOKEN => {
                    if stop.load(Ordering::Relaxed) {
                        // Accept and drop the shutdown wake-up connection
                        // (and any stragglers racing the shutdown).
                        while listener.accept().is_ok() {}
                        continue;
                    }
                    loop {
                        match listener.accept() {
                            Ok(stream) => {
                                if let Err(e) = stream.set_nonblocking(true) {
                                    eprintln!("rect-addr: accepted socket unusable: {e}");
                                    continue;
                                }
                                let token = next_token;
                                next_token += 1;
                                if poller
                                    .register(stream.as_raw_fd(), token, Interest::READ)
                                    .is_err()
                                {
                                    continue;
                                }
                                service.connection_opened();
                                conns.insert(token, new_conn(stream, token, service, &shared));
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => {
                                // Transient accept failures (EMFILE under
                                // load) must not spin the loop hot: back
                                // off briefly and retry on next readiness.
                                eprintln!("rect-addr: accept failed: {e}");
                                std::thread::sleep(Duration::from_millis(10));
                                break;
                            }
                        }
                    }
                }
                WAKER_TOKEN => {
                    let mut buf = [0u8; 256];
                    while matches!((&waker_rx).read(&mut buf), Ok(n) if n > 0) {}
                }
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        // A peer gone both ways reads no answer: teardown
                        // abandons its queued work instead of draining it.
                        conn.failed |= event.hangup;
                        if event.readable {
                            conn_read(conn, config.outbound_cap);
                            if conn.session.parked() {
                                parked.insert(token);
                            }
                        }
                        if event.writable && !conn.failed && !flush_out(conn) {
                            conn.failed = true;
                        }
                        touched.push(token);
                    }
                }
            }
        }

        // Hand worker completions to their connections' sessions.
        std::mem::swap(
            &mut *shared.queue.lock().expect("completion queue poisoned"),
            &mut completions,
        );
        let had_completions = !completions.is_empty();
        for Completion { conn: token, event } in completions.drain(..) {
            if let Some(conn) = conns.get_mut(&token) {
                conn.session.complete(event);
                touched.push(token);
            } // else: connection torn down; answer discarded
        }
        // Freed queue space: retry every parked v1 submission (space is
        // service-wide, so any completion may have unblocked any parked
        // job, including one parked by this round's reads or drain).
        if had_completions && !parked.is_empty() {
            for token in std::mem::take(&mut parked) {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.session.retry_parked();
                    if conn.session.parked() {
                        parked.insert(token);
                    }
                    touched.push(token);
                }
            }
        }
        if draining {
            touched.extend(conns.keys().copied());
        }

        // Per-connection post-processing: output, flush, teardown,
        // interest reconciliation.
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            take_output(conn, config.outbound_cap);
            if !conn.failed && !flush_out(conn) {
                conn.failed = true;
            }
            // Abandoned (write error, overflow, hang-up), or fully
            // drained: every response and the trailer reached the kernel,
            // and closing signals EOF to the peer.
            if conn.failed || (conn.session.is_done() && conn.out.is_empty()) {
                let abandoned = conn.failed;
                if let Some(conn) = conns.remove(&token) {
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    teardown(conn, service, abandoned);
                }
                continue;
            }
            let desired = Interest {
                readable: conn.session.wants_input(),
                writable: !conn.out.is_empty(),
            };
            if desired != conn.interest
                && poller
                    .modify(conn.stream.as_raw_fd(), token, desired)
                    .is_ok()
            {
                conn.interest = desired;
            }
        }
    };

    // Loop exit: force-close whatever is left (drain deadline expired or
    // fatal poller error), canceling abandoned work.
    for (_, conn) in conns.drain() {
        teardown(conn, service, true);
    }
    fatal
}

fn new_conn<'s>(
    stream: SocketStream,
    token: u64,
    service: &'s Service,
    shared: &Arc<LoopShared>,
) -> Conn<'s> {
    let closed = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(LoopSink {
        shared: shared.clone(),
        conn: token,
        closed: closed.clone(),
    });
    Conn {
        stream,
        session: Session::new(service, sink, Backpressure::Park),
        closed,
        out: VecDeque::new(),
        failed: false,
        interest: Interest::READ,
    }
}

/// Releases a connection's resources. `abandoned` marks the write-error /
/// overflow / hang-up / deadline paths, where still-queued work is
/// canceled so the shared workers move on; the graceful path has nothing
/// left to cancel.
fn teardown(mut conn: Conn<'_>, service: &Service, abandoned: bool) {
    conn.closed.store(true, Ordering::Relaxed);
    if abandoned {
        conn.session.abandon();
    }
    service.connection_closed();
    // conn.stream drops here, closing the descriptor (after deregister).
}

/// Moves the session's lines onto the outbound queue. A peer reading
/// slower than it is answered, past the configured bound, is disconnected
/// instead of buffered without limit: backpressure for well-behaved
/// clients is the submission queue, this bound is for peers that stopped
/// reading entirely.
fn take_output(conn: &mut Conn<'_>, outbound_cap: usize) {
    for line in conn.session.drain_output() {
        if !conn.failed {
            conn.out.extend(line.as_bytes());
            conn.out.push_back(b'\n');
            conn.failed = conn.out.len() > outbound_cap;
        }
    }
}

/// Writes queued bytes until the kernel stops accepting them. Returns
/// `false` on a dead peer.
fn flush_out(conn: &mut Conn<'_>) -> bool {
    while !conn.out.is_empty() {
        let (front, _) = conn.out.as_slices();
        match conn.stream.write(front) {
            Ok(0) => return false,
            Ok(n) => {
                conn.out.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Reads whatever the socket has into the session, while it wants input.
fn conn_read(conn: &mut Conn<'_>, outbound_cap: usize) {
    let mut buf = [0u8; 64 * 1024];
    while conn.session.wants_input() && !conn.failed {
        match conn.stream.read(&mut buf) {
            Ok(0) => conn.session.close_input(),
            Ok(n) => conn.session.receive(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => conn.session.read_error(&e),
        }
        // Bounds what one burst of input can pile up in answers.
        take_output(conn, outbound_cap);
    }
}
