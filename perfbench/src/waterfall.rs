//! The traced per-layer waterfall: the same inputs pushed through each
//! layer's public entry point in turn, bottom to top, so a layer's cost is
//! the difference between adjacent figures. Every timed call is a span
//! (see [`crate::trace`]); all timings below are derived from the spans.
//!
//! | pass | span | call |
//! |---|---|---|
//! | kernel | `ebmf.pack`, `ebmf.pack_dlx` | `row_packing`, 64 trials, ±DLX |
//! | encoder | `ebmf.encode` | `EbmfEncoder` at (SAP seed depth − 1) |
//! | SAT | `ebmf.search` ⊃ `sat.solve_at` | SAP's `solve_at` descent |
//! | canon | `engine.canon` | `canonical_form_with` |
//! | portfolio | `engine.race` ⊃ `engine.strategy.*` | `race_strategies` |
//! | engine | `engine.solve_job` | `Engine::solve_job` |
//! | proto | `proto.parse`, `proto.serialize` | `JobRequest` parse, `to_json_line` |
//! | service | `serve.service` | `Service::submit(..).wait()` |
//! | persist | `engine.persist.snapshot` | `Service::snapshot_now` |
//! | session | `serve.connection` | `serve_connection` over in-memory pipes |
//! | transport | `serve.event` | the event-loop socket server |
//! | schedule | `serve.schedule_frame`, `serve.schedule_jobs` | a frame vs its layers as jobs |

use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitmatrix::BitMatrix;
use ebmf::{lower_bound, row_packing, EbmfEncoder, EncoderOptions, PackingConfig};
use engine::{
    build_strategies, canonical_form_with, race_strategies, CancelToken, Engine, EngineConfig,
    PortfolioConfig, Provenance, SolveJob, Strategy, StrategyBudget, StrategyOutcome,
};
use proto::{JobRequest, JobResponse, ScheduleSummary};
use sat::SolveResult;
use serve::{
    serve_connection, serve_socket_event, BindAddr, LineClient, PersistConfig, Service,
    ServiceConfig,
};

use crate::report::Metric;
use crate::stats::{quantile, ratio};
use crate::trace::{durations, self_times, Span, Tracer};
use crate::validate::{check_layer, References};
use crate::workloads::{Inputs, Layer, Request, BUDGET_MS, CONFLICTS};

/// Builds the strategy roster raced in the portfolio pass.
pub type RosterFn = Arc<dyn Fn() -> Vec<Arc<dyn Strategy>> + Send + Sync>;
/// Builds the engine behind the engine, service, session and transport
/// passes.
pub type EngineFn = Arc<dyn Fn() -> Engine + Send + Sync>;

/// What the waterfall runs on.
#[derive(Clone)]
pub struct Config {
    /// Timed requests drawn from the workload stream.
    pub sample: usize,
    /// The portfolio pass's roster.
    pub roster: RosterFn,
    /// The engine of the upper passes.
    pub engine: EngineFn,
}

/// The portfolio configuration every generated job implies.
pub fn portfolio() -> PortfolioConfig {
    PortfolioConfig {
        time_budget: Some(Duration::from_millis(BUDGET_MS)),
        conflict_budget: Some(CONFLICTS),
        ..EngineConfig::default().portfolio
    }
}

impl Config {
    /// The shipped stack: `build_strategies` over the job portfolio and a
    /// default-configured engine.
    pub fn shipped(sample: usize) -> Config {
        Config {
            sample,
            roster: Arc::new(|| build_strategies(&portfolio())),
            engine: Arc::new(|| Engine::new(EngineConfig::default())),
        }
    }
}

/// A traced run's result.
#[derive(Debug)]
pub struct Outcome {
    /// Every per-layer metric, in report order.
    pub metrics: Vec<Metric>,
    /// Jobs pushed through the waterfall.
    pub jobs: usize,
    /// Answers that failed validation, or calls that failed.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The value of metric `name` (0 when absent).
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Wraps a strategy so each `run` inside a race becomes a child span of the
/// race — the benchmark's view of the per-strategy split, with nothing
/// instrumented inside the engine.
#[derive(Debug)]
struct Spanned {
    inner: Arc<dyn Strategy>,
    span: String,
    tracer: Arc<Tracer>,
}

impl Strategy for Spanned {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn provenance(&self) -> Provenance {
        self.inner.provenance()
    }

    fn estimate(&self, job: &SolveJob<'_>) -> f64 {
        self.inner.estimate(job)
    }

    fn run(
        &self,
        job: &SolveJob<'_>,
        budget: &StrategyBudget,
        cancel: &CancelToken,
    ) -> StrategyOutcome {
        let request = self.tracer.current_request();
        self.tracer
            .span(&self.span, request, || self.inner.run(job, budget, cancel))
            .0
    }
}

/// Strategy names of the shipped roster, in race order.
pub const STRATEGIES: [&str; 4] = ["trivial", "packing", "packing-dlx", "sap"];

/// The client end of an in-memory protocol connection: lines go in through
/// a channel the server's reader blocks on, and every line the server's
/// writer emits comes back through another.
struct Pipe {
    to_server: Sender<Vec<u8>>,
    from_server: Receiver<String>,
}

impl Pipe {
    /// Sends `lines` and collects the server's lines until `done` accepts one.
    fn ask(&self, lines: &[&str], mut done: impl FnMut(&str) -> bool) -> Vec<String> {
        let mut bytes = Vec::new();
        for l in lines {
            bytes.extend_from_slice(l.as_bytes());
            bytes.push(b'\n');
        }
        self.to_server.send(bytes).expect("connection reader alive");
        let mut got = Vec::new();
        loop {
            let line = self.from_server.recv().expect("connection writer alive");
            let stop = done(&line);
            got.push(line);
            if stop {
                return got;
            }
        }
    }
}

/// `BufRead` over chunks received from a channel; end of input when the
/// sending side is dropped.
struct ChunkReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChunkReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChunkReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// `Write` that forwards every complete line into a channel.
struct LineWriter {
    tx: Sender<String>,
    partial: Vec<u8>,
}

impl Write for LineWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.partial.extend_from_slice(data);
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..nl]).into_owned();
            // The client may already be gone (the trailer after the last
            // answer): dropping the line is fine.
            let _ = self.tx.send(text);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `f` against one v2 `serve_connection` session over in-memory pipes.
fn with_connection<R>(service: &Service, f: impl FnOnce(&Pipe) -> R) -> R {
    let (to_server, rx) = mpsc::channel();
    let (tx, from_server) = mpsc::channel();
    let reader = ChunkReader {
        rx,
        buf: Vec::new(),
        pos: 0,
    };
    let mut writer = LineWriter {
        tx,
        partial: Vec::new(),
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(move || serve_connection(service, reader, &mut writer));
        let pipe = Pipe {
            to_server,
            from_server,
        };
        pipe.ask(&["{\"hello\": 2}"], |_| true);
        let out = f(&pipe);
        drop(pipe);
        server
            .join()
            .expect("connection thread panicked")
            .expect("in-memory connection cannot fail");
        out
    })
}

/// Whether `line` answers job `id`.
fn answers(line: &str, id: &str) -> bool {
    JobResponse::parse_line(line).is_ok_and(|r| r.id == id)
}

/// A fresh service over a fresh engine, primed with `priming`.
fn primed_service(cfg: &Config, config: ServiceConfig, priming: &[JobRequest]) -> Service {
    let service = Service::new(Arc::new((cfg.engine)()), config);
    for req in priming {
        let resp = service
            .submit(req.clone())
            .expect("idle queue has room")
            .wait();
        assert!(resp.ok, "priming job {} failed", req.id);
    }
    service
}

/// Runs every pass over `cfg.sample` requests of `inputs`.
pub fn run(inputs: &Inputs, cfg: &Config, tracer: &Arc<Tracer>) -> Outcome {
    let requests = inputs.take(cfg.sample);
    let layers: Vec<Layer> = requests
        .iter()
        .flat_map(|r| r.layers.iter().cloned())
        .collect();
    let jobs: Vec<JobRequest> = requests.iter().flat_map(Request::jobs).collect();
    let priming: Vec<JobRequest> = inputs.priming.iter().flat_map(Request::jobs).collect();
    let mut refs = References::default();
    refs.extend(&layers);
    let mut problems = Vec::new();
    let mut counts: Vec<Metric> = Vec::new();

    // Kernel: row packing at the engine's trial count, plain and with DLX.
    for (i, l) in layers.iter().enumerate() {
        let plain = PackingConfig::with_trials(portfolio().packing_trials);
        let dlx = PackingConfig {
            exact_cover: true,
            ..plain
        };
        std::hint::black_box(tracer.span("ebmf.pack", i as u64, || row_packing(&l.matrix, &plain)));
        std::hint::black_box(
            tracer.span("ebmf.pack_dlx", i as u64, || row_packing(&l.matrix, &dlx)),
        );
    }

    // Encoder and SAT: the SAP descent from its packing seed.
    let (mut conflicts, mut propagations) = (0u64, 0u64);
    for (i, l) in layers.iter().enumerate() {
        let (c, p) = descent(&l.matrix, i as u64, tracer);
        conflicts += c;
        propagations += p;
    }
    counts.push(Metric::new("sat.conflicts", conflicts as f64, "count"));
    counts.push(Metric::new(
        "sat.propagations",
        propagations as f64,
        "count",
    ));

    // Canon.
    let canon_opts = EngineConfig::default().canon;
    let mut heuristic = 0usize;
    let canons: Vec<_> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let (c, _) = tracer.span("engine.canon", i as u64, || {
                canonical_form_with(&l.matrix, &canon_opts)
            });
            heuristic += usize::from(!c.is_complete());
            c
        })
        .collect();
    counts.push(Metric::new(
        "engine.canon_heuristic_frac",
        ratio(heuristic as f64, layers.len() as f64),
        "fraction",
    ));

    // Portfolio: the full roster raced per job; each strategy's run is a
    // child span, the race span carries the winner.
    let roster: Vec<Arc<dyn Strategy>> = (cfg.roster)()
        .into_iter()
        .map(|s| {
            Arc::new(Spanned {
                span: format!("engine.strategy.{}", s.name()),
                inner: s,
                tracer: tracer.clone(),
            }) as Arc<dyn Strategy>
        })
        .collect();
    let budget = portfolio().budget();
    for (i, (l, c)) in layers.iter().zip(&canons).enumerate() {
        let job = SolveJob {
            matrix: &l.matrix,
            canon: Some(c),
            incumbent: None,
        };
        let (out, id) = tracer.span("engine.race", i as u64, || {
            race_strategies(&job, &roster, &budget)
        });
        tracer.annotate(id, out.provenance.as_str());
    }
    drop(canons);

    // Engine: one shared engine, primed like the end-to-end server.
    let engine = (cfg.engine)();
    for req in &priming {
        engine.solve_job(req);
    }
    let before = engine.cache_stats();
    // `solve_job_traced` is `solve_job` plus the engine's own public stage
    // trace, which tells how much of each call its inner race took.
    let mut race_us = 0u64;
    let responses: Vec<JobResponse> = jobs
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let stages = obs::JobTrace::new();
            let (resp, _) = tracer.span("engine.solve_job", i as u64, || {
                engine.solve_job_traced(req, &stages)
            });
            race_us += stages.race_us();
            resp
        })
        .collect();
    let after = engine.cache_stats();
    drop(engine);
    for (l, resp) in layers.iter().zip(&responses) {
        if let Err(e) = check_layer(l, resp, &refs) {
            problems.push(format!("solve_job {e}"));
        }
    }
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    counts.push(Metric::new(
        "engine.solve_job_race_frac",
        ratio(
            race_us as f64,
            durations(&tracer.spans(), "engine.solve_job").iter().sum(),
        ),
        "fraction",
    ));
    counts.push(Metric::new(
        "engine.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "fraction",
    ));

    // Protocol codec.
    for (i, (req, resp)) in jobs.iter().zip(&responses).enumerate() {
        let line = req.to_json_line();
        let (parsed, _) = tracer.span("proto.parse", i as u64, || {
            JobRequest::parse_line(&line, i + 1)
        });
        if parsed.is_err() {
            problems.push(format!("{}: request line does not parse", req.id));
        }
        std::hint::black_box(tracer.span("proto.serialize", i as u64, || resp.to_json_line()));
    }
    drop(responses);

    // Service queue, then a persisted snapshot of what the stream left.
    let state_dir = crate::run_path("state");
    let persist = PersistConfig {
        state_dir: state_dir.clone(),
        snapshot_every: None,
        lease: None,
    };
    let service = primed_service(
        cfg,
        ServiceConfig {
            persist: Some(persist),
            ..ServiceConfig::default()
        },
        &priming,
    );
    for (i, req) in jobs.iter().enumerate() {
        let (resp, _) = tracer.span("serve.service", i as u64, || {
            service
                .submit(req.clone())
                .expect("idle queue has room")
                .wait()
        });
        if !resp.ok {
            problems.push(format!("service {}: {:?}", resp.id, resp.error));
        }
    }
    let mut snapshot_bytes = 0usize;
    for i in 0..9 {
        let (stats, _) = tracer.span("engine.persist.snapshot", i, || service.snapshot_now());
        match stats {
            Some(s) => snapshot_bytes = s.bytes,
            None => problems.push("snapshot_now wrote nothing".to_string()),
        }
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&state_dir);
    counts.push(Metric::new(
        "engine.persist.snapshot_bytes",
        snapshot_bytes as f64,
        "bytes",
    ));

    // Protocol session over in-memory pipes, one job outstanding.
    let service = primed_service(cfg, ServiceConfig::default(), &priming);
    with_connection(&service, |pipe| {
        for (i, req) in jobs.iter().enumerate() {
            let line = req.to_json_line();
            tracer.span("serve.connection", i as u64, || {
                pipe.ask(&[&line], |l| answers(l, &req.id))
            });
        }
    });
    drop(service);

    // Transport: the event-loop socket server, first untraced (for the
    // tracing overhead), then traced.
    let untraced = socket_pass(cfg, &priming, &jobs, None, &layers, &refs, &mut problems);
    socket_pass(
        cfg,
        &priming,
        &jobs,
        Some(tracer),
        &layers,
        &refs,
        &mut problems,
    );

    // Schedules (only `circuit-schedule` sends them; elsewhere the schedule
    // metrics read 0): each frame sent whole, and its layers sent as jobs.
    let frames: Vec<&Request> = requests.iter().filter(|r| r.schedule).collect();
    if !frames.is_empty() {
        let service = primed_service(cfg, ServiceConfig::default(), &priming);
        with_connection(&service, |pipe| {
            for (i, f) in frames.iter().enumerate() {
                tracer.span("serve.schedule_frame", i as u64, || {
                    pipe.ask(&[&f.line], ScheduleSummary::is_summary_line)
                });
            }
        });
        drop(service);
        let service = primed_service(cfg, ServiceConfig::default(), &priming);
        with_connection(&service, |pipe| {
            for (i, f) in frames.iter().enumerate() {
                let lines: Vec<String> = f.jobs().iter().map(JobRequest::to_json_line).collect();
                let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
                let mut left = lines.len();
                tracer.span("serve.schedule_jobs", i as u64, || {
                    pipe.ask(&refs, |_| {
                        left -= 1;
                        left == 0
                    })
                });
            }
        });
        drop(service);
    }

    let spans = tracer.spans();
    let metrics = assemble(&spans, counts, &untraced, &frames);
    Outcome {
        metrics,
        jobs: jobs.len(),
        problems,
    }
}

/// SAP's descent on `m` (`SapSession::run` without the session): the
/// 4-trial packing seed, one assumption-bound encoder at (seed depth − 1),
/// then `solve_at` one below each improvement until UNSAT or the floor.
/// Returns the conflicts and propagations spent.
fn descent(m: &BitMatrix, request: u64, tracer: &Tracer) -> (u64, u64) {
    let seed = row_packing(m, &PackingConfig::with_trials(4));
    let floor = lower_bound(m, false).value;
    if seed.len() <= floor || seed.len() <= 1 {
        return (0, 0);
    }
    let options = EncoderOptions {
        assumption_bounds: true,
        ..EncoderOptions::new(seed.len() - 1)
    };
    let (mut enc, _) = tracer.span("ebmf.encode", request, || {
        EbmfEncoder::with_encoder_options(m, None, options)
    });
    enc.set_conflict_budget(Some(CONFLICTS));
    let start = enc.solver_stats();
    tracer.span("ebmf.search", request, || {
        let mut best = seed.len();
        loop {
            let b = (best - 1).min(enc.capacity());
            if b < floor {
                break;
            }
            enc.set_resumable_budget(Some(CONFLICTS));
            let (result, _) = tracer.span("sat.solve_at", request, || enc.solve_at(b));
            match result {
                SolveResult::Sat => {
                    best = enc.extract_partition().len();
                    if best <= floor {
                        break;
                    }
                }
                SolveResult::Unsat | SolveResult::Unknown => break,
            }
        }
    });
    let spent = enc.solver_stats().since(&start);
    (spent.conflicts, spent.propagations)
}

/// Sends every job through an in-process event-loop server, one request
/// outstanding. With a tracer each round trip is a `serve.event` span;
/// without one the round-trip times (µs) are returned.
fn socket_pass(
    cfg: &Config,
    priming: &[JobRequest],
    jobs: &[JobRequest],
    tracer: Option<&Arc<Tracer>>,
    layers: &[Layer],
    refs: &References,
    problems: &mut Vec<String>,
) -> Vec<f64> {
    let service = Arc::new(primed_service(cfg, ServiceConfig::default(), priming));
    let path = crate::run_path("wf.sock");
    let addr = BindAddr::parse(&path.to_string_lossy());
    let mut server = serve_socket_event(service, &addr).expect("bind the waterfall socket");
    let mut client = LineClient::connect(&addr).expect("connect to the waterfall socket");
    client.handshake().expect("v2 handshake");
    let mut untraced = Vec::new();
    for (i, (req, layer)) in jobs.iter().zip(layers).enumerate() {
        let line = req.to_json_line();
        let mut round_trip = || {
            client.send_line(&line).expect("socket write");
            client
                .recv_line()
                .expect("socket read")
                .expect("response line")
        };
        let answer = match tracer {
            Some(t) => t.span("serve.event", i as u64, round_trip).0,
            None => {
                let t0 = Instant::now();
                let answer = round_trip();
                untraced.push(t0.elapsed().as_secs_f64() * 1e6);
                answer
            }
        };
        match JobResponse::parse_line(&answer) {
            Ok(resp) => {
                if let Err(e) = check_layer(layer, &resp, refs) {
                    problems.push(format!("socket {e}"));
                }
            }
            Err(e) => problems.push(format!("socket {}: {e}", req.id)),
        }
    }
    drop(client);
    server.shutdown();
    let _ = server.join();
    let _ = std::fs::remove_file(&path);
    untraced
}

/// Turns the spans (plus the counters gathered on the way) into the
/// per-layer metrics.
fn assemble(
    spans: &[Span],
    counts: Vec<Metric>,
    untraced_event: &[f64],
    frames: &[&Request],
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut p50 = HashMap::new();
    let mut timing = |out: &mut Vec<Metric>, metric: &str, samples: Vec<f64>| {
        let median = quantile(&samples, 0.5);
        p50.insert(metric.to_string(), median);
        out.push(Metric::new(&format!("{metric}.p50"), median, "us"));
        out.push(Metric::new(
            &format!("{metric}.p99"),
            quantile(&samples, 0.99),
            "us",
        ));
    };
    for (metric, span) in [
        ("ebmf.pack_us", "ebmf.pack"),
        ("ebmf.pack_dlx_us", "ebmf.pack_dlx"),
        ("ebmf.encode_us", "ebmf.encode"),
        ("ebmf.search_us", "ebmf.search"),
        ("engine.canon_us", "engine.canon"),
        ("engine.race_us", "engine.race"),
    ] {
        timing(&mut out, metric, durations(spans, span));
    }
    out.push(Metric::new(
        "engine.race_self_us.p50",
        quantile(&self_times(spans, "engine.race"), 0.5),
        "us",
    ));
    for s in STRATEGIES {
        timing(
            &mut out,
            &format!("engine.strategy_us.{s}"),
            durations(spans, &format!("engine.strategy.{s}")),
        );
    }
    for (metric, span) in [
        ("engine.solve_job_us", "engine.solve_job"),
        ("engine.persist.snapshot_us", "engine.persist.snapshot"),
        ("serve.service_us", "serve.service"),
        ("serve.connection_us", "serve.connection"),
        ("serve.event_us", "serve.event"),
        ("proto.parse_us", "proto.parse"),
        ("proto.serialize_us", "proto.serialize"),
    ] {
        timing(&mut out, metric, durations(spans, span));
    }
    let per_layer: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.schedule_frame")
        .map(|s| s.us() / frames[s.request as usize].layers.len() as f64)
        .collect();
    timing(&mut out, "serve.schedule_layer_us", per_layer);
    out.push(Metric::new(
        "serve.schedule_vs_jobs_ratio",
        ratio(
            durations(spans, "serve.schedule_frame").iter().sum(),
            durations(spans, "serve.schedule_jobs").iter().sum(),
        ),
        "ratio",
    ));
    out.push(Metric::new(
        "engine.race_useful_frac",
        race_useful_frac(spans),
        "fraction",
    ));
    // Adjacent-layer differences of the medians: what each layer adds.
    let diff = |a: &str, b: &str| p50[a] - p50[b];
    out.push(Metric::new(
        "waterfall.queue_handoff_us",
        diff("serve.service_us", "engine.solve_job_us"),
        "us",
    ));
    out.push(Metric::new(
        "waterfall.session_us",
        diff("serve.connection_us", "serve.service_us"),
        "us",
    ));
    out.push(Metric::new(
        "waterfall.transport_us",
        diff("serve.event_us", "serve.connection_us"),
        "us",
    ));
    let untraced = quantile(untraced_event, 0.5);
    out.push(Metric::new("trace.event_untraced_us.p50", untraced, "us"));
    out.push(Metric::new(
        "trace.overhead_frac",
        ratio(p50["serve.event_us"] - untraced, untraced),
        "fraction",
    ));
    out.extend(counts);
    out
}

/// Share of race time spent in the strategy whose answer won.
fn race_useful_frac(spans: &[Span]) -> f64 {
    let mut children: HashMap<usize, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let (mut useful, mut total) = (0.0, 0.0);
    for (id, race) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "engine.race")
    {
        total += race.us();
        let winner = format!("engine.strategy.{}", race.note.as_deref().unwrap_or(""));
        useful += children
            .get(&id)
            .into_iter()
            .flatten()
            .filter(|c| c.name == winner)
            .map(|c| c.us())
            .sum::<f64>();
    }
    ratio(useful, total)
}
