//! The end-to-end run: the event-loop server behind `rect-addr serve
//! --listen <path> --event-loop` (default configuration) on a Unix socket,
//! driven closed-loop by one process holding one connection per core: one
//! request outstanding on each for the latency figures, [`WINDOW`] for the
//! throughput figure. Latency runs from writing a request line to reading
//! its last response line.

use std::io::{self, BufRead, BufReader, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proto::{ClientFrame, HelloAck, JobResponse, ScheduleSummary, StatsFrame, PROTOCOL_VERSION};
use serve::{serve_socket_event, BindAddr, Service, SocketServer};

use crate::stats::quantile;
use crate::validate::Exchange;
use crate::workloads::{Inputs, Request};

/// The server under test.
#[derive(Clone)]
pub enum Target {
    /// The shipped binary, started as `serve --listen <path> --event-loop`.
    Binary(PathBuf),
    /// `serve_socket_event` in this process over the service the closure
    /// builds — how the tests inject a deliberately slowed engine.
    InProcess(Arc<dyn Fn() -> Arc<Service> + Send + Sync>),
}

/// How much timed work one segment does.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Keep sending until this much time has passed.
    Time(Duration),
    /// Send exactly this many requests (the deterministic counters).
    Requests(usize),
}

/// Shape of one end-to-end run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Concurrent connections, one client thread each.
    pub connections: usize,
    /// Requests the load phase keeps outstanding on each connection (see
    /// [`Outcome`]); 1 runs the probe phase alone. Schedule frames always
    /// go one at a time.
    pub window: usize,
    /// Segments of the run. Each starts a fresh server, times its set-up,
    /// then runs its timed phases, [`Config::limit`] between them. Where
    /// the scheduler happens to place the server's and the clients' threads
    /// moves a whole process's figures by several percent; segments
    /// average over that.
    pub segments: usize,
    /// The extent of each segment's timed phases together.
    pub limit: Limit,
    /// Timed requests of a segment's last phase after which its server's
    /// peak RSS is read (at the end of the phase if fewer complete). A
    /// fixed amount of work, so the figure does not grow with throughput
    /// on mixes whose cache grows with every request.
    pub rss_after: usize,
    /// Requests generated before each segment's server starts, so that
    /// generation stays out of its timed phases (later requests are
    /// generated on demand). Per segment, so that a fast mix does not hold
    /// a whole run's requests at once.
    pub prefetch: usize,
}

/// The load phase's window. With requests queued behind the one in
/// service, every worker finds its next job waiting, so throughput is the
/// server's cost per job rather than the host's thread wake-up latency,
/// which on a shared virtual machine swings by tens of percent from run to
/// run.
pub const WINDOW: usize = 4;

/// One timed phase of a segment.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The range of [`Outcome::exchanges`] it sent.
    pub range: Range<usize>,
    /// Requests it kept outstanding on each connection.
    pub window: usize,
    /// Its length as configured (its elapsed time for a request-count
    /// limit).
    pub span_s: f64,
}

/// What one end-to-end run measured. Each segment runs a probe phase, one
/// request outstanding per connection, for the latency figures, and then
/// (with [`Config::window`] above 1) a load phase, `window` requests
/// outstanding per connection, for the throughput figure. A mix of
/// schedule frames sends them one at a time, so its segments run a single
/// phase, which gives every figure.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds from server start to the first timed request, per segment,
    /// less the fixed warm-up.
    pub setup_s: Vec<f64>,
    /// Every timed request with its answer, phase after phase; the `done_s`
    /// of each counts from the start of its phase.
    pub exchanges: Vec<Exchange>,
    /// The timed phases, segment after segment.
    pub phases: Vec<Phase>,
    /// Seconds of timed phases, summed.
    pub elapsed_s: f64,
    /// Peak resident set (MiB) of each segment's server after
    /// [`Config::rss_after`] requests of its last phase.
    pub peak_rss_mb: Vec<f64>,
    /// Strategy races the servers ran during the timed phases.
    pub races: u64,
}

/// Equal windows each load phase is cut into for the throughput figure: it
/// is the upper decile over the windows of every segment, the rate of the
/// run's least-disturbed stretches. On a shared host, contention from
/// outside the benchmark slows a run for seconds at a time, and by how much
/// differs from run to run; it moves the windows it overlaps, not the
/// figure.
pub const WINDOWS: usize = 5;

/// Fewest answers in one chunk of the tail estimate: a chunk's p99 then
/// has ten samples beyond it.
pub const CHUNK: usize = 1000;

impl Outcome {
    /// The answered requests of each phase run at `window`, in completion
    /// order, with the phase's span.
    fn answered(&self, window: usize) -> Vec<(Vec<&Exchange>, f64)> {
        self.phases
            .iter()
            .filter(|p| p.window == window)
            .map(|p| {
                let mut xs: Vec<&Exchange> = self.exchanges[p.range.clone()]
                    .iter()
                    .filter(|x| x.error.is_none())
                    .collect();
                xs.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
                (xs, p.span_s)
            })
            .collect()
    }

    /// Layers answered per second under load: the upper decile over the
    /// windows of every load phase (of every phase when there is no load
    /// phase).
    pub fn jobs_per_s(&self) -> f64 {
        let load = self.phases.iter().map(|p| p.window).max().unwrap_or(1);
        let mut rates = Vec::new();
        for (phase, span_s) in self.answered(load) {
            let width = span_s / WINDOWS as f64;
            let mut layers = [0usize; WINDOWS];
            for x in phase {
                // Answers landing after the last window count in it.
                layers[((x.done_s / width) as usize).min(WINDOWS - 1)] += x.request.layers.len();
            }
            rates.extend(layers.iter().map(|&n| n as f64 / width));
        }
        quantile(&rates, 0.9)
    }

    /// Latencies (µs) of the probe phases' answers, phase after phase, each
    /// in completion order.
    fn latencies(&self) -> Vec<f64> {
        self.answered(1)
            .iter()
            .flat_map(|(xs, _)| xs)
            .map(|x| x.latency_us)
            .collect()
    }

    /// Median latency (µs) of the probe phases' quieter stretches: the lower
    /// decile over chunks of the answers (see `quiet`).
    pub fn latency_p50_us(&self) -> f64 {
        self.quiet(0.5)
    }

    /// Tail latency (µs) of the probe phases' quieter stretches: the lower
    /// decile over chunks of the answers (see `quiet`).
    pub fn latency_p99_us(&self) -> f64 {
        self.quiet(0.99)
    }

    /// The `q`-quantile of latency in the probe phases' quieter stretches.
    /// The answers, in completion order, are cut into equal chunks of at
    /// least [`CHUNK`]; the figure is the lower decile of the chunks' own
    /// `q`-quantiles (the quantile over every probe phase when they fill
    /// fewer than two chunks). A burst of contention from outside the
    /// benchmark slows the chunks it overlaps, not the figure.
    fn quiet(&self, q: f64) -> f64 {
        let latencies = self.latencies();
        let n = latencies.len();
        let chunks = (n / CHUNK).max(1);
        let per_chunk: Vec<f64> = (0..chunks)
            .map(|k| quantile(&latencies[k * n / chunks..(k + 1) * n / chunks], q))
            .collect();
        quantile(&per_chunk, 0.1)
    }
}

/// A started server and the socket it listens on.
struct Running {
    child: Option<Child>,
    server: Option<SocketServer>,
    path: PathBuf,
    addr: BindAddr,
}

impl Running {
    fn start(target: &Target) -> io::Result<Running> {
        let path = crate::run_path("srv.sock");
        let addr = BindAddr::parse(&path.to_string_lossy());
        let mut running = Running {
            child: None,
            server: None,
            path,
            addr,
        };
        match target {
            Target::Binary(bin) => {
                running.child = Some(
                    Command::new(bin)
                        .args(["serve", "--listen"])
                        .arg(&running.path)
                        .arg("--event-loop")
                        .stdin(Stdio::null())
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .spawn()?,
                );
                running.wait_listening()?;
            }
            Target::InProcess(build) => {
                running.server = Some(serve_socket_event(build(), &running.addr)?);
            }
        }
        Ok(running)
    }

    /// Polls until the spawned server accepts a connection.
    fn wait_listening(&mut self) -> io::Result<()> {
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            if UnixStream::connect(&self.path).is_ok() {
                return Ok(());
            }
            let child = self.child.as_mut().expect("binary target has a child");
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited during start-up: {status}"
                )));
            }
            if Instant::now() > give_up {
                return Err(io::Error::other(
                    "server did not start listening within 30 s",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The `/proc` status file of the server process.
    fn status_path(&self) -> String {
        match &self.child {
            Some(child) => format!("/proc/{}/status", child.id()),
            None => "/proc/self/status".to_string(),
        }
    }
}

/// Peak resident set (`VmHWM`, MiB) from a `/proc` status file; 0 if
/// unreadable.
fn peak_rss_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(mut server) = self.server.take() {
            server.shutdown();
            let _ = server.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A v2 connection to the server under test. Every line goes out in a
/// single write, newline included, so the server is woken once per
/// request, as by any client that writes whole lines.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    out: Vec<u8>,
}

impl Conn {
    /// Connects and completes the v2 handshake.
    fn connect(path: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(path)?;
        let mut conn = Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            out: Vec::new(),
        };
        conn.send(
            &ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                timing: false,
                certificate: false,
            }
            .to_json_line(),
        )?;
        let ack = conn.recv()?;
        HelloAck::parse_line(&ack).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)
    }

    /// The next server line, without its newline.
    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
    }
}

/// Whether `line` is the last one answering `req`: its response for a job;
/// the summary frame for a schedule (or the single error response refusing
/// the whole frame).
fn completes(req: &Request, line: &str) -> bool {
    !req.schedule
        || ScheduleSummary::is_summary_line(line)
        || JobResponse::parse_line(line).is_ok_and(|r| r.id == req.id)
}

/// The id a job response line starts with (`{"id": "j17", ...`).
fn response_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\": \"")?;
    rest.split('"').next()
}

/// Sends `req` and reads every line answering it.
fn exchange(conn: &mut Conn, req: &Request) -> io::Result<Vec<String>> {
    conn.send(&req.line)?;
    let mut lines = Vec::with_capacity(req.layers.len() + 1);
    loop {
        let line = conn.recv()?;
        let last = completes(req, &line);
        lines.push(line);
        if last {
            return Ok(lines);
        }
    }
}

/// Sends the priming requests one at a time; every one must succeed.
fn prime(conn: &mut Conn, priming: &[Request]) -> io::Result<()> {
    for req in priming {
        for line in exchange(conn, req)? {
            match JobResponse::parse_line(&line) {
                Ok(r) if r.ok => {}
                _ => {
                    return Err(io::Error::other(format!(
                        "priming {} failed: {line}",
                        req.id
                    )))
                }
            }
        }
    }
    Ok(())
}

/// Races the server has run so far, from its stats frame.
fn races(conn: &mut Conn) -> io::Result<u64> {
    conn.send(&ClientFrame::Stats.to_json_line())?;
    let line = conn.recv()?;
    let frame = StatsFrame::parse_line(&line).map_err(io::Error::other)?;
    Ok(frame.latency.get(RACE_HISTOGRAM).map_or(0, |s| s.count))
}

/// The server's race-duration histogram in stats frames.
const RACE_HISTOGRAM: &str = "race_us";

/// Shared state of the closed-loop clients.
struct Shared<'a> {
    inputs: &'a Inputs,
    cfg: Config,
    start: Instant,
    sent: AtomicUsize,
    done: AtomicUsize,
    status: String,
    rss: Mutex<Option<f64>>,
}

/// A request on the wire: what was sent, when, and the lines answering it
/// so far.
struct InFlight {
    request: Request,
    sent: Instant,
    lines: Vec<String>,
}

/// One closed-loop client: keeps [`Config::window`] requests outstanding,
/// sending the next as soon as an answer completes. Lines are matched to
/// requests by id; with one request on the wire every line is its.
fn client_loop(conn: &mut Conn, shared: &Shared<'_>) -> (Vec<Exchange>, Instant) {
    let (inputs, limit, start) = (shared.inputs, shared.cfg.limit, shared.start);
    let mut window = shared.cfg.window.max(1);
    let mut flight: Vec<InFlight> = Vec::with_capacity(window);
    let mut out = Vec::new();
    let mut last = start;
    let fail = |f: InFlight, e: &io::Error| Exchange {
        latency_us: f.sent.elapsed().as_secs_f64() * 1e6,
        done_s: start.elapsed().as_secs_f64(),
        request: f.request,
        lines: f.lines,
        error: Some(e.to_string()),
    };
    loop {
        while flight.len() < window {
            let go = match limit {
                Limit::Time(d) => start.elapsed() < d,
                Limit::Requests(n) => shared.sent.fetch_add(1, Ordering::Relaxed) < n,
            };
            if !go {
                window = 0;
                break;
            }
            let mut request = inputs.next();
            let sent = Instant::now();
            let result = conn.send(&request.line);
            // Not needed once sent; a hit mix sends hundreds of thousands.
            request.line = String::new();
            flight.push(InFlight {
                request,
                sent,
                lines: Vec::new(),
            });
            if let Err(e) = result {
                out.extend(flight.drain(..).map(|f| fail(f, &e)));
                return (out, last);
            }
        }
        if flight.is_empty() {
            break;
        }
        let line = match conn.recv() {
            Ok(line) => line,
            Err(e) => {
                out.extend(flight.drain(..).map(|f| fail(f, &e)));
                break;
            }
        };
        let k = if flight.len() == 1 {
            Some(0)
        } else {
            response_id(&line).and_then(|id| flight.iter().position(|f| f.request.id == id))
        };
        let Some(k) = k else {
            let e = io::Error::other(format!("answer to no request on the wire: {line}"));
            out.extend(flight.drain(..).map(|f| fail(f, &e)));
            break;
        };
        let done = completes(&flight[k].request, &line);
        flight[k].lines.push(line);
        if !done {
            continue;
        }
        let f = flight.swap_remove(k);
        last = Instant::now();
        if shared.done.fetch_add(1, Ordering::Relaxed) + 1 == shared.cfg.rss_after {
            *shared.rss.lock().expect("rss slot poisoned") = Some(peak_rss_mb(&shared.status));
        }
        out.push(Exchange {
            latency_us: last.duration_since(f.sent).as_secs_f64() * 1e6,
            done_s: last.duration_since(start).as_secs_f64(),
            request: f.request,
            lines: f.lines,
            error: None,
        });
    }
    (out, last)
}

/// One timed phase on a started server.
struct Timed {
    exchanges: Vec<Exchange>,
    elapsed_s: f64,
    peak_rss_mb: f64,
    races: u64,
}

fn timed_phase(
    server: &Running,
    clients: &mut [Conn],
    inputs: &Inputs,
    cfg: Config,
) -> io::Result<Timed> {
    let races_before = races(&mut clients[0])?;
    let shared = Shared {
        inputs,
        cfg,
        start: Instant::now(),
        sent: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        status: server.status_path(),
        rss: Mutex::new(None),
    };
    let start = shared.start;
    let results: Vec<(Vec<Exchange>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || client_loop(c, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = results.iter().map(|r| r.1).max().unwrap_or(start);
    let mut exchanges: Vec<Exchange> = results.into_iter().flat_map(|r| r.0).collect();
    exchanges.sort_by_key(|x| request_number(&x.request.id));
    let races_after = races(&mut clients[0])?;
    let rss_at = shared.rss.lock().expect("rss slot poisoned").take();
    Ok(Timed {
        exchanges,
        elapsed_s: end.duration_since(start).as_secs_f64(),
        peak_rss_mb: rss_at.unwrap_or_else(|| peak_rss_mb(&shared.status)),
        races: races_after - races_before,
    })
}

/// Runs the segments of one workload against `target`, each a server
/// start-up followed by its timed phases (see [`Outcome`]).
pub fn run(target: &Target, inputs: &Inputs, cfg: Config) -> io::Result<Outcome> {
    let (warmup, priming) = inputs.priming.split_at(inputs.warmup);
    let windows = if cfg.window > 1 && !inputs.sends_schedules() {
        vec![1, cfg.window]
    } else {
        vec![1]
    };
    let limit = match cfg.limit {
        Limit::Time(d) => Limit::Time(d / windows.len() as u32),
        Limit::Requests(n) => Limit::Requests(n / windows.len()),
    };
    let mut out = Outcome {
        setup_s: Vec::new(),
        exchanges: Vec::new(),
        phases: Vec::new(),
        elapsed_s: 0.0,
        peak_rss_mb: Vec::new(),
        races: 0,
    };
    for _ in 0..cfg.segments.max(1) {
        inputs.prefetch(cfg.prefetch);
        let t0 = Instant::now();
        let server = Running::start(target)?;
        let mut clients = (0..cfg.connections.max(1))
            .map(|_| Conn::connect(&server.path))
            .collect::<io::Result<Vec<_>>>()?;
        let started = t0.elapsed().as_secs_f64();
        // The warm-up stands in for a server that has run a while; it is
        // the same fixed work on every mix, so it is left out of the time.
        prime(&mut clients[0], warmup)?;
        let t1 = Instant::now();
        prime(&mut clients[0], priming)?;
        out.setup_s.push(started + t1.elapsed().as_secs_f64());

        let mut rss = 0.0;
        for &window in &windows {
            let phase_cfg = Config {
                window,
                limit,
                ..cfg
            };
            let mut timed = timed_phase(&server, &mut clients, inputs, phase_cfg)?;
            let first = out.exchanges.len();
            out.exchanges.append(&mut timed.exchanges);
            out.phases.push(Phase {
                range: first..out.exchanges.len(),
                window,
                span_s: match limit {
                    Limit::Time(d) => d.as_secs_f64(),
                    Limit::Requests(_) => timed.elapsed_s,
                },
            });
            out.elapsed_s += timed.elapsed_s;
            out.races += timed.races;
            rss = timed.peak_rss_mb;
        }
        out.peak_rss_mb.push(rss);
    }
    Ok(out)
}

/// The stream position encoded in a generated request id (`j17` → 17).
fn request_number(id: &str) -> u64 {
    id.trim_start_matches(|c: char| c.is_ascii_alphabetic())
        .parse()
        .unwrap_or(u64::MAX)
}

/// The deterministic counters (depths, proofs, conflicts, cache hits) of
/// exactly `requests` requests of `mix` at `seed`, end to end over one
/// connection. One, because the engine's adaptive scheduler prunes
/// strategies on the history of each (shape, occupancy) bucket: with
/// several connections that history, and with it the depth of an answer
/// SAP could not prove within its budget, depends on arrival order.
pub fn counters(
    target: &Target,
    mix: crate::workloads::Mix,
    seed: u64,
    requests: usize,
) -> io::Result<crate::validate::Tally> {
    let inputs = Inputs::new(mix, seed);
    let cfg = Config {
        connections: 1,
        window: 1,
        segments: 1,
        limit: Limit::Requests(requests),
        rss_after: requests,
        prefetch: 0,
    };
    let out = run(target, &inputs, cfg)?;
    Ok(crate::validate::tally(
        &out.exchanges,
        &mut crate::validate::References::default(),
    ))
}
