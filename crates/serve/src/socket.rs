//! Socket plumbing shared by the transport and its clients: addresses,
//! streams of either family, binding, and the [`SocketServer`] handle of
//! a running [`serve_socket_event`](crate::serve_socket_event).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a socket server binds (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port` address.
    Tcp(String),
}

impl BindAddr {
    /// Classifies an address string: an explicit `unix:`/`tcp:` prefix
    /// wins; otherwise anything containing `/` (or ending in `.sock`) is
    /// a filesystem path and the rest is TCP `host:port`.
    pub fn parse(s: &str) -> BindAddr {
        if let Some(path) = s.strip_prefix("unix:") {
            BindAddr::Unix(PathBuf::from(path))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            BindAddr::Tcp(addr.to_string())
        } else if s.contains('/') || s.ends_with(".sock") {
            BindAddr::Unix(PathBuf::from(s))
        } else {
            BindAddr::Tcp(s.to_string())
        }
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            BindAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A connected byte stream of either family.
#[derive(Debug)]
pub enum SocketStream {
    /// A Unix-domain stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl SocketStream {
    /// An independently-owned second handle to the same stream.
    pub fn try_clone(&self) -> io::Result<SocketStream> {
        Ok(match self {
            SocketStream::Unix(s) => SocketStream::Unix(s.try_clone()?),
            SocketStream::Tcp(s) => SocketStream::Tcp(s.try_clone()?),
        })
    }

    /// Half-closes the write side, signalling end-of-jobs to the server
    /// while keeping the read side open for the remaining responses.
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    /// Half-closes the read side: reads see end-of-input. The server's
    /// shutdown path uses this to turn idle connections into the ordinary
    /// EOF drain (responses + summary still go out on the intact write
    /// side).
    pub fn shutdown_read(&self) -> io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Read),
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Read),
        }
    }

    /// Switches the stream between blocking and nonblocking mode (the
    /// server runs every connection nonblocking).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.set_nonblocking(nonblocking),
            SocketStream::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Disables Nagle's algorithm on TCP streams (no-op for Unix
    /// sockets). The protocol is line-delimited request/response, so
    /// coalescing small writes only adds delayed-ACK stalls — without
    /// this, sequential round-trips over loopback plateau near the
    /// 40 ms delayed-ACK timer instead of the microseconds they cost.
    pub fn set_nodelay(&self) -> io::Result<()> {
        match self {
            SocketStream::Unix(_) => Ok(()),
            SocketStream::Tcp(s) => s.set_nodelay(true),
        }
    }

    /// The underlying file descriptor, for readiness registration.
    pub fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd as _;
        match self {
            SocketStream::Unix(s) => s.as_raw_fd(),
            SocketStream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SocketStream::Unix(s) => s.read(buf),
            SocketStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SocketStream::Unix(s) => s.write(buf),
            SocketStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.flush(),
            SocketStream::Tcp(s) => s.flush(),
        }
    }
}

/// Connects to a listening [`SocketServer`] (client side).
pub fn connect(addr: &BindAddr) -> io::Result<SocketStream> {
    let stream = match addr {
        BindAddr::Unix(path) => SocketStream::Unix(UnixStream::connect(path)?),
        BindAddr::Tcp(addr) => SocketStream::Tcp(TcpStream::connect(addr.as_str())?),
    };
    stream.set_nodelay()?;
    Ok(stream)
}

pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    pub(crate) fn accept(&self) -> io::Result<SocketStream> {
        let stream = match self {
            Listener::Unix(l) => SocketStream::Unix(l.accept()?.0),
            Listener::Tcp(l) => SocketStream::Tcp(l.accept()?.0),
        };
        stream.set_nodelay()?;
        Ok(stream)
    }

    /// Nonblocking accept, for the readiness loop.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    pub(crate) fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd as _;
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// Binds `addr`, replacing a stale Unix socket file from a crashed run
/// (but refusing to clobber a non-socket at a typo'd path).
pub(crate) fn bind_listener(addr: &BindAddr) -> io::Result<(Listener, BindAddr, Option<PathBuf>)> {
    Ok(match addr {
        BindAddr::Unix(path) => {
            if let Ok(meta) = std::fs::symlink_metadata(path) {
                use std::os::unix::fs::FileTypeExt;
                if !meta.file_type().is_socket() {
                    // Refuse to clobber a regular file/dir at a typo'd path.
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("{} exists and is not a socket", path.display()),
                    ));
                }
                if UnixStream::connect(path).is_err() {
                    // Nothing is listening: a stale socket from a crashed run.
                    std::fs::remove_file(path)?;
                }
            }
            let listener = UnixListener::bind(path)?;
            (
                Listener::Unix(listener),
                BindAddr::Unix(path.clone()),
                Some(path.clone()),
            )
        }
        BindAddr::Tcp(spec) => {
            let listener = TcpListener::bind(spec.as_str())?;
            let local = BindAddr::Tcp(listener.local_addr()?.to_string());
            (Listener::Tcp(listener), local, None)
        }
    })
}

/// Bound on the shutdown drain: live connections get this long to answer
/// their in-flight work and flush it before they are closed (queued jobs
/// canceled), so a peer that stops reading cannot hold the shutdown
/// forever.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// A running socket server; see
/// [`serve_socket_event`](crate::serve_socket_event).
pub struct SocketServer {
    local: BindAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<Option<io::Error>>>,
    unix_path: Option<PathBuf>,
}

impl SocketServer {
    /// A handle on a running readiness loop, which the shutdown
    /// self-connection wakes.
    pub(crate) fn new(
        local: BindAddr,
        stop: Arc<AtomicBool>,
        acceptor: JoinHandle<Option<io::Error>>,
        unix_path: Option<PathBuf>,
    ) -> SocketServer {
        SocketServer {
            local,
            stop,
            acceptor: Some(acceptor),
            unix_path,
        }
    }

    /// The actually-bound address — for `tcp:host:0` this carries the
    /// kernel-assigned port, so tests and logs can connect to it.
    pub fn local_addr(&self) -> &BindAddr {
        &self.local
    }

    /// Joins the readiness loop (if still running) and returns its fatal
    /// error, if it died of one.
    fn reap(&mut self) -> Option<io::Error> {
        self.acceptor.take().and_then(|h| h.join().ok().flatten())
    }

    /// Stops accepting new connections and joins the loop once every live
    /// connection has drained. Live connections have their read side
    /// half-closed — an idle peer cannot stall the shutdown — after which
    /// each answers its in-flight jobs and writes its summary frame before
    /// closing. A peer that stops *reading* is cut off after
    /// [`WRITE_TIMEOUT`] instead of blocking the join forever.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the loop with a throwaway connection; if the listener is
        // already broken the loop is exiting anyway.
        let _ = connect(&self.local);
        let _ = self.reap();
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Blocks until the readiness loop exits — after
    /// [`SocketServer::shutdown`] from another thread, or on a fatal
    /// poller error, which is returned so the long-running
    /// `rect-addr serve --listen` path can exit non-zero instead of
    /// silently reporting a clean stop.
    pub fn join(&mut self) -> io::Result<()> {
        match self.reap() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SocketServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketServer")
            .field("local", &self.local)
            .finish()
    }
}
