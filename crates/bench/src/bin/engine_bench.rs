//! Engine throughput + canonical-cache hit-rate + warm-start benchmark.
//!
//! Phase 1 streams a synthetic circuit-layer workload — distinct random
//! patterns plus row/column-permuted duplicates, the redundancy profile the
//! canonical-form cache targets — through the `Service` connection loop,
//! once against a cold cache and once replaying the same stream warm.
//!
//! Phase 2 measures the **warm-start SAP descent**: a sequence of
//! cache-adjacent jobs (permuted duplicates of one SAT-hard rank-gap
//! pattern, each under a small conflict budget) against an engine with the
//! per-canonical-class session store on vs off. With warm starts each job
//! *resumes* the previous descent, so total SAT conflicts approach the cost
//! of a single full descent; without, every job re-spends its budget from
//! scratch.
//!
//! Phase 3 measures the **complete canonizer** on a permuted-biregular
//! workload: row/column-permuted copies of patterns whose degrees all tie
//! (the paper's Fig. 1b plus constructed biregular families), where
//! signature refinement alone cannot split anything and the heuristic
//! settling misses. Individualization-refinement recognizes every permuted
//! copy.
//!
//! Phase 4 measures the **socket transport**: the phase-1 stream replayed
//! over a real TCP connection against `serve_socket_event` (protocol v2
//! handshake included), so the wire/transport overhead of the serving
//! stack lands in the trajectory next to the in-process numbers.
//!
//! Phase 7 streams the **seeded traffic-generator mixes** (Zipf hot
//! classes, bursty arrivals, circuit layers, adversarial strongly-regular
//! matrices) through fresh services, and submits one circuit layer
//! sequence both as a protocol-v2 `schedule` frame and as independent
//! jobs — the schedule summary's cross-layer cache hits are the headline
//! reuse figure (`--check` gates them above zero). Emits
//! `BENCH_engine.json` in the working directory.
//!
//! Usage: `engine_bench [jobs] [distinct] [size] [workers] [--check]`
//! (defaults: 400 jobs, 50 distinct 10×10 patterns, CPU workers).
//! `--check` exits non-zero when the permuted-biregular hit-rate of the
//! complete canonizer falls below 90% — the CI regression gate.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bitmatrix::BitMatrix;
use ebmf::gen::{gap_benchmark, random_benchmark};
use engine::{Engine, EngineConfig};
use proto::{JobRequest, JobResponse, SummaryFrame};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{
    pump, serve_connection, serve_socket_event, BindAddr, LineClient, PersistConfig, Service,
    ServiceConfig,
};

struct RunMetrics {
    wall_seconds: f64,
    jobs_per_second: f64,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
    mean_job_millis: f64,
    max_job_millis: f64,
    proved_optimal: usize,
}

fn build_stream(jobs: usize, distinct: usize, size: usize) -> String {
    let bases: Vec<BitMatrix> = (0..distinct)
        .map(|i| random_benchmark(size, size, 0.4, 9_000 + i as u64).matrix)
        .collect();
    let mut rng = StdRng::seed_from_u64(123);
    let mut out = String::new();
    for i in 0..jobs {
        let base = &bases[i % bases.len()];
        let matrix = if i < bases.len() {
            base.clone()
        } else {
            let rp = bitmatrix::random_permutation(base.nrows(), &mut rng);
            let cp = bitmatrix::random_permutation(base.ncols(), &mut rng);
            base.submatrix(&rp, &cp)
        };
        let req = JobRequest::new(format!("job-{i:04}"), matrix).with_budget_ms(10_000);
        out.push_str(&req.to_json_line());
        out.push('\n');
    }
    out
}

/// Runs the stream and folds every response's reported solve time into
/// `latency` (as microseconds) — one histogram per arm, shared across
/// warm replays so the percentiles aggregate naturally.
fn run_stream(
    service: &Service,
    stream: &str,
    jobs: usize,
    latency: &obs::Histogram,
) -> RunMetrics {
    let engine = service.engine();
    let before = engine.cache_stats();
    let start = Instant::now();
    let mut raw = Vec::new();
    let summary = serve_connection(service, stream.as_bytes(), &mut raw)
        .expect("in-memory batch cannot fail on I/O");
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(summary.solved, jobs, "every job must solve");

    let responses: Vec<JobResponse> = String::from_utf8(raw)
        .expect("responses are UTF-8")
        .lines()
        .filter(|l| !SummaryFrame::is_summary_line(l))
        .map(|l| JobResponse::parse_line(l).expect("well-formed response"))
        .collect();
    for r in &responses {
        latency.record((r.millis * 1_000.0).max(0.0) as u64);
    }
    let after = engine.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let mean = responses.iter().map(|r| r.millis).sum::<f64>() / responses.len().max(1) as f64;
    let max = responses.iter().map(|r| r.millis).fold(0.0, f64::max);
    RunMetrics {
        wall_seconds: wall,
        jobs_per_second: jobs as f64 / wall,
        cache_hits: hits,
        cache_misses: misses,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        mean_job_millis: mean,
        max_job_millis: max,
        proved_optimal: responses.iter().filter(|r| r.proved_optimal).count(),
    }
}

/// Emits one run block. `replays` marks a phase aggregated over several
/// stream replays (counts are totals across all of them).
fn emit(out: &mut String, label: &str, m: &RunMetrics, replays: Option<usize>, last: bool) {
    let _ = writeln!(out, "  \"{label}\": {{");
    if let Some(r) = replays {
        let _ = writeln!(out, "    \"replays\": {r},");
    }
    let _ = write!(
        out,
        "    \"wall_seconds\": {:.4},\n    \"jobs_per_second\": {:.1},\n    \
         \"cache_hits\": {},\n    \"cache_misses\": {},\n    \"hit_rate\": {:.4},\n    \
         \"mean_job_millis\": {:.3},\n    \"max_job_millis\": {:.3},\n    \
         \"proved_optimal\": {}\n  }}{}\n",
        m.wall_seconds,
        m.jobs_per_second,
        m.cache_hits,
        m.cache_misses,
        m.hit_rate,
        m.mean_job_millis,
        m.max_job_millis,
        m.proved_optimal,
        if last { "" } else { "," },
    );
}

/// Emits one per-arm latency-percentile block (microsecond buckets from
/// the log-linear histogram, so p50/p90/p99 are bucket floors).
fn emit_latency(out: &mut String, label: &str, s: &obs::HistogramSummary, last: bool) {
    let _ = write!(
        out,
        "    \"{label}\": {{\n      \"count\": {},\n      \"p50\": {},\n      \
         \"p90\": {},\n      \"p99\": {},\n      \"max\": {}\n    }}{}\n",
        s.count,
        s.p50,
        s.p90,
        s.p99,
        s.max,
        if last { "" } else { "," },
    );
}

/// Totals of one warm-start arm (see module docs).
struct WarmStartArm {
    total_conflicts: u64,
    /// 1-based job index whose answer was first proved optimal (0 = never).
    proved_after_jobs: usize,
}

/// Runs `rounds` sequential cache-adjacent jobs (resubmissions of one
/// SAT-hard pattern, small per-query conflict budget) through `engine` —
/// the retry-with-budget serving pattern. Identical resubmission (rather
/// than permuted duplicates) keeps the SAT ordering fixed so the two arms
/// differ only in warm-start reuse, not in per-ordering search luck.
fn warm_start_arm(engine: &Engine, rounds: usize, conflict_budget: u64) -> WarmStartArm {
    // A rank-gap instance whose final UNSAT query costs >20k conflicts —
    // an order of magnitude past the per-query budget, so only resumed
    // descents can finish inside the round limit.
    let base = gap_benchmark(14, 14, 6, 0).matrix;
    let mut total_conflicts = 0u64;
    let mut proved_after_jobs = 0usize;
    for round in 0..rounds {
        let req = JobRequest::new(format!("warm-{round:02}"), base.clone())
            .with_budget_ms(60_000)
            .with_conflicts(conflict_budget);
        let resp = engine.solve_job(&req);
        assert!(resp.ok, "warm-start job must solve");
        total_conflicts += resp.conflicts;
        if resp.proved_optimal && proved_after_jobs == 0 {
            proved_after_jobs = round + 1;
        }
    }
    WarmStartArm {
        total_conflicts,
        proved_after_jobs,
    }
}

fn emit_warm_start(
    out: &mut String,
    rounds: usize,
    budget: u64,
    warm: &WarmStartArm,
    cold: &WarmStartArm,
) {
    let _ = write!(
        out,
        "  \"warm_start\": {{\n    \"rounds\": {rounds},\n    \"conflict_budget\": {budget},\n    \
         \"warm_total_conflicts\": {},\n    \"warm_proved_after_jobs\": {},\n    \
         \"cold_total_conflicts\": {},\n    \"cold_proved_after_jobs\": {},\n    \
         \"conflict_ratio\": {:.4}\n  }},\n",
        warm.total_conflicts,
        warm.proved_after_jobs,
        cold.total_conflicts,
        cold.proved_after_jobs,
        warm.total_conflicts as f64 / cold.total_conflicts.max(1) as f64,
    );
}

/// The biregular base patterns of the canonizer workload (phase 3): every
/// row and column degree ties, so signature refinement alone cannot split
/// anything, and the block/union structure makes the heuristic settling
/// order ambiguous — permuted copies scatter across many heuristic keys.
fn biregular_bases() -> Vec<BitMatrix> {
    // The paper's Fig. 1b: 6×6, 3-regular on both sides.
    let fig1b: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
        .parse()
        .expect("fig1b parses");
    // Disjoint unions of k copies (block-diagonal; still 3-regular).
    let union = |m: &BitMatrix, copies: usize| {
        let (r, c) = m.shape();
        BitMatrix::from_fn(r * copies, c * copies, |i, j| {
            i / r == j / c && m.get(i % r, j % c)
        })
    };
    vec![
        fig1b.clone(),
        union(&fig1b, 2),
        union(&fig1b, 4),
        fig1b.kron(&BitMatrix::identity(3)),
    ]
}

/// Results of one canonizer-workload arm (phase 3).
struct CanonArm {
    hits: u64,
    misses: u64,
    hit_rate: f64,
    complete_keys: u64,
    heuristic_keys: u64,
    entries: u64,
}

/// Streams 32 row/column-permuted duplicates of every biregular base
/// through a fresh engine whose canonizer search budget is `max_branches`,
/// and reports the cache hit-rate. The complete canonizer (default budget)
/// makes every copy after a base's first a hit; at budget 0 the heuristic
/// labeling scatters each class across several entries. SAT is off — the
/// phase measures canonization, not solving.
fn canon_arm(stream: &str, jobs: usize, max_branches: usize) -> CanonArm {
    let service = Service::with_engine_config(
        EngineConfig {
            portfolio: engine::PortfolioConfig {
                sap: false,
                packing_trials: 16,
                ..engine::PortfolioConfig::default()
            },
            canon: engine::CanonOptions { max_branches },
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
    );
    let mut raw = Vec::new();
    let summary = serve_connection(&service, stream.as_bytes(), &mut raw)
        .expect("in-memory batch cannot fail on I/O");
    assert_eq!(summary.solved, jobs, "every canon job must solve");
    let stats = service.engine().cache_stats();
    CanonArm {
        hits: stats.hits,
        misses: stats.misses,
        hit_rate: stats.hit_rate(),
        complete_keys: stats.canon_complete,
        heuristic_keys: stats.canon_heuristic,
        entries: stats.entries,
    }
}

/// Builds the permuted-biregular stream and runs both canonizer arms.
fn canon_workload(copies: usize) -> (usize, CanonArm, CanonArm) {
    let bases = biregular_bases();
    let mut rng = StdRng::seed_from_u64(4242);
    let mut stream = String::new();
    let mut jobs = 0usize;
    for (b, base) in bases.iter().enumerate() {
        for c in 0..copies {
            let matrix = if c == 0 {
                base.clone()
            } else {
                let rp = bitmatrix::random_permutation(base.nrows(), &mut rng);
                let cp = bitmatrix::random_permutation(base.ncols(), &mut rng);
                base.submatrix(&rp, &cp)
            };
            let req = JobRequest::new(format!("canon-{b}-{c:02}"), matrix).with_budget_ms(2_000);
            stream.push_str(&req.to_json_line());
            stream.push('\n');
            jobs += 1;
        }
    }
    let complete = canon_arm(&stream, jobs, engine::DEFAULT_CANON_BUDGET);
    let heuristic = canon_arm(&stream, jobs, 0);
    (jobs, complete, heuristic)
}

fn emit_canon_arm(out: &mut String, label: &str, a: &CanonArm, last: bool) {
    let _ = write!(
        out,
        "    \"{label}\": {{\n      \"cache_hits\": {},\n      \"cache_misses\": {},\n      \
         \"hit_rate\": {:.4},\n      \"cache_entries\": {},\n      \
         \"canon_complete\": {},\n      \"canon_heuristic\": {}\n    }}{}\n",
        a.hits,
        a.misses,
        a.hit_rate,
        a.entries,
        a.complete_keys,
        a.heuristic_keys,
        if last { "" } else { "," },
    );
}

/// Results of the persistence phase: the warm-start workload against a
/// first-boot engine (snapshotted on completion) vs a fresh engine
/// reloaded from that snapshot — the restart cycle without the process
/// kill.
struct PersistMetrics {
    cold_total_conflicts: u64,
    reloaded_total_conflicts: u64,
    reload_ratio: f64,
    restored_sessions: u64,
    snapshot_bytes: usize,
}

/// Phase 5: solve → snapshot → simulated-restart reload → re-solve. The
/// first pass proves the class, so the snapshot holds its proved session
/// (which keeps no learnt core) and the reloaded engine answers from it
/// with no SAT search: the second pass spends a fraction of the first's
/// conflicts (the `persist` block's `reload_ratio`, gated < 0.6 by
/// `--check`).
fn persist_phase(rounds: usize, conflict_budget: u64) -> PersistMetrics {
    let state_dir =
        std::env::temp_dir().join(format!("rect-addr-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let engine_config = || EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    // First boot: day-zero cold state dir.
    let first_boot = Engine::new(engine_config());
    let cold = warm_start_arm(&first_boot, rounds, conflict_budget);
    let saved =
        engine::persist::save_snapshot(&state_dir, &first_boot).expect("bench snapshot save");
    drop(first_boot);

    // Simulated restart: a fresh engine loads the same state dir.
    let reloaded_engine = Engine::new(engine_config());
    engine::persist::load_snapshot(&state_dir, &reloaded_engine).expect("bench snapshot load");
    let restored_sessions = reloaded_engine.restored_sessions();
    let reloaded = warm_start_arm(&reloaded_engine, rounds, conflict_budget);

    let _ = std::fs::remove_dir_all(&state_dir);
    PersistMetrics {
        cold_total_conflicts: cold.total_conflicts,
        reloaded_total_conflicts: reloaded.total_conflicts,
        reload_ratio: reloaded.total_conflicts as f64 / cold.total_conflicts.max(1) as f64,
        restored_sessions,
        snapshot_bytes: saved.bytes,
    }
}

/// Results of the certification phase: every UNSAT-backed optimality
/// answer in the workload — cold one-shot solves and budget-starved warm
/// resumed descents alike — exports a certificate the embedded checker
/// verifies; deterministic corruptions of each accepted proof must be
/// rejected. Any violation panics, so the bench exits non-zero.
struct CertifyMetrics {
    cold_jobs: usize,
    cold_certificates: usize,
    warm_rounds: usize,
    mutants_rejected: usize,
    check_seconds: f64,
}

/// Phase 6: certification. Runs after (and separate from) the gated
/// baseline phases, so certification cost never perturbs the throughput
/// and conflict-ratio numbers the `--check-baseline` gate compares.
fn certify_phase() -> CertifyMetrics {
    let fig1b: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
        .parse()
        .expect("fig1b parses");
    let mut bases = vec![fig1b];
    bases.extend((0..6).map(|i| gap_benchmark(8, 8, 3, i).matrix));
    bases.extend((0..6).map(|i| random_benchmark(7, 7, 0.45, 77 + i as u64).matrix));

    // Cold arm: one-shot certified solves.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let mut certificates = Vec::new();
    for (i, m) in bases.iter().enumerate() {
        let req = JobRequest::new(format!("cert-cold-{i:02}"), m.clone())
            .with_budget_ms(60_000)
            .with_certify(true);
        let resp = engine.solve_job(&req);
        assert!(resp.ok && resp.proved_optimal, "certify job must prove");
        if let Some(cert) = resp.certificate {
            assert_eq!(cert.bound + 1, resp.depth, "refutes the bound below");
            certificates.push(cert);
        }
    }
    let cold_jobs = bases.len();
    let cold_certificates = certificates.len();
    assert!(
        cold_certificates > 0,
        "workload must exercise UNSAT-backed proofs"
    );

    // Warm arm: a budget-starved descent resumed across jobs until the
    // proving round — its certificate must check exactly like a cold one.
    let warm_engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // The same SAT-hard rank-gap pattern the warm-start phase descends:
    // its final UNSAT query far exceeds the per-job budget, so only a
    // resumed descent proves — and must certify the resumed refutation.
    let base = gap_benchmark(14, 14, 6, 0).matrix;
    let mut warm_rounds = 0usize;
    loop {
        warm_rounds += 1;
        assert!(warm_rounds < 10_000, "warm certify arm must converge");
        let req = JobRequest::new(format!("cert-warm-{warm_rounds:03}"), base.clone())
            .with_budget_ms(60_000)
            .with_conflicts(2_500)
            .with_certify(true);
        let resp = warm_engine.solve_job(&req);
        assert!(resp.ok, "warm certify job must solve");
        if resp.proved_optimal {
            let cert = resp
                .certificate
                .expect("the proving round of a certified warm descent exports the refutation");
            certificates.push(cert);
            break;
        }
    }

    // Every accepted certificate verifies under the embedded checker, and
    // deterministic corruptions of each are rejected (truncating the trace
    // removes the refutation; injected garbage is a parse error).
    let start = Instant::now();
    let mut mutants_rejected = 0usize;
    for cert in &certificates {
        certcheck::check_certificate(&cert.cnf, &cert.drat)
            .expect("bench-workload certificate must verify");
        let truncated: String = {
            let lines: Vec<&str> = cert.drat.lines().collect();
            lines[..lines.len() - 1].join("\n")
        };
        assert!(
            certcheck::check_certificate(&cert.cnf, &truncated).is_err(),
            "truncated proof must be rejected"
        );
        let garbled = format!("not a drat line\n{}", cert.drat);
        assert!(
            certcheck::check_certificate(&cert.cnf, &garbled).is_err(),
            "garbled proof must be rejected"
        );
        mutants_rejected += 2;
    }
    CertifyMetrics {
        cold_jobs,
        cold_certificates,
        warm_rounds,
        mutants_rejected,
        check_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Results of the socket phase: the phase-1 stream over a real TCP
/// connection (v2 handshake included).
struct SocketMetrics {
    wall_seconds: f64,
    jobs_per_second: f64,
    hit_rate: f64,
}

fn socket_phase(stream: &str, jobs: usize, workers: usize) -> SocketMetrics {
    let service = Arc::new(Service::with_engine_config(
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
        ServiceConfig {
            // pump() floods the whole stream at once over a v2 connection
            // (non-blocking submits): size the queue to the job count so
            // the bench measures throughput, not busy-bounces.
            queue_depth: jobs.max(serve::DEFAULT_QUEUE_DEPTH),
            ..ServiceConfig::default()
        },
    ));
    let engine = service.engine().clone();
    let mut server =
        serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).expect("bind loopback");

    // Handshake first, then the identical job stream over the wire.
    let mut input = String::from("{\"hello\": 2}\n");
    input.push_str(stream);
    let start = Instant::now();
    let mut raw = Vec::new();
    pump(server.local_addr(), input.as_bytes(), &mut raw).expect("socket pump");
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();

    let text = String::from_utf8(raw).expect("responses are UTF-8");
    let summary = text
        .lines()
        .find(|l| SummaryFrame::is_summary_line(l))
        .map(|l| SummaryFrame::parse_line(l).expect("well-formed summary"))
        .expect("summary frame present");
    assert_eq!(summary.solved as usize, jobs, "every socket job must solve");
    let stats = engine.cache_stats();
    SocketMetrics {
        wall_seconds: wall,
        jobs_per_second: jobs as f64 / wall,
        hit_rate: stats.hit_rate(),
    }
}

/// One generator mix streamed through a fresh service (phase 7): the
/// seeded traffic shapes — Zipf hot classes, bursty arrivals, circuit
/// layers, adversarial strongly-regular matrices — measured the same way
/// as the synthetic phase-1 stream.
struct TrafficMixMetrics {
    name: &'static str,
    jobs: usize,
    jobs_per_second: f64,
    hit_rate: f64,
    proved_optimal: usize,
}

fn traffic_mix_arm(workload: traffic::Workload, jobs: usize, workers: usize) -> TrafficMixMetrics {
    let name = workload.name();
    let mut stream = String::new();
    for (k, spec) in workload.take(jobs).enumerate() {
        let req = JobRequest::new(format!("{name}-{k:03}"), spec.matrix).with_budget_ms(2_000);
        stream.push_str(&req.to_json_line());
        stream.push('\n');
    }
    // A fresh service per mix: each mix's hit rate reflects only its own
    // duplicate structure, not another mix's leftovers.
    let service = Service::with_engine_config(
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
    );
    let start = Instant::now();
    let mut raw = Vec::new();
    let summary = serve_connection(&service, stream.as_bytes(), &mut raw)
        .expect("in-memory batch cannot fail on I/O");
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(summary.solved, jobs, "every {name} traffic job must solve");
    let stats = service.engine().cache_stats();
    TrafficMixMetrics {
        name,
        jobs,
        jobs_per_second: jobs as f64 / wall,
        hit_rate: stats.hit_rate(),
        proved_optimal: String::from_utf8(raw)
            .expect("responses are UTF-8")
            .lines()
            .filter(|l| !SummaryFrame::is_summary_line(l))
            .map(|l| JobResponse::parse_line(l).expect("well-formed response"))
            .filter(|r| r.proved_optimal)
            .count(),
    }
}

/// The schedule-vs-independent comparison (phase 7): the same circuit
/// layer sequence submitted once as a protocol-v2 `schedule` frame and
/// once as independent job lines, each against a fresh service over a
/// real TCP socket. The schedule's summary reports the cross-layer cache
/// hits the sequential execution harvested — the headline reuse number
/// (`--check` gates it above zero).
struct TrafficScheduleMetrics {
    layers: usize,
    schedule_wall_seconds: f64,
    cross_layer_cache_hits: u64,
    schedule_total_depth: u64,
    independent_wall_seconds: f64,
    independent_cache_hits: u64,
}

fn traffic_schedule_phase(workers: usize) -> TrafficScheduleMetrics {
    use proto::{ScheduleRequest, ScheduleSummary};

    let layers = traffic::circuit_layers(8, 8, 12);
    let fresh_service = || {
        Arc::new(Service::with_engine_config(
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
            ServiceConfig {
                queue_depth: layers.len().max(serve::DEFAULT_QUEUE_DEPTH),
                ..ServiceConfig::default()
            },
        ))
    };

    // Arm 1: one schedule frame; the server solves the layers in order
    // against its shared cache and reports the hits in the summary.
    let mut server = serve_socket_event(fresh_service(), &BindAddr::parse("127.0.0.1:0"))
        .expect("bind loopback");
    let mut client = serve::LineClient::connect(server.local_addr()).expect("connect loopback");
    client.handshake().expect("v2 handshake");
    let req = ScheduleRequest::new("bench-circuit", layers.clone());
    let start = Instant::now();
    client
        .send_line(&req.to_json_line())
        .expect("send schedule");
    let summary = loop {
        let line = client
            .recv_line()
            .expect("read schedule stream")
            .expect("summary before EOF");
        if ScheduleSummary::is_summary_line(&line) {
            break ScheduleSummary::parse_line(&line).expect("well-formed schedule summary");
        }
    };
    let schedule_wall = start.elapsed().as_secs_f64();
    assert_eq!(
        summary.solved as usize,
        layers.len(),
        "every layer must solve"
    );
    server.shutdown();

    // Arm 2: the same layers as independent v2 job lines on a fresh
    // service — racing layers instead of sequencing them.
    let service = fresh_service();
    let engine = service.engine().clone();
    let mut server =
        serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).expect("bind loopback");
    let mut input = String::from("{\"hello\": 2}\n");
    for (k, layer) in layers.iter().enumerate() {
        input.push_str(&JobRequest::new(format!("ind-{k:02}"), layer.clone()).to_json_line());
        input.push('\n');
    }
    let start = Instant::now();
    let mut raw = Vec::new();
    pump(server.local_addr(), input.as_bytes(), &mut raw).expect("socket pump");
    let independent_wall = start.elapsed().as_secs_f64();
    server.shutdown();
    let independent_hits = engine.cache_stats().hits;

    TrafficScheduleMetrics {
        layers: layers.len(),
        schedule_wall_seconds: schedule_wall,
        cross_layer_cache_hits: summary.cache_hits,
        schedule_total_depth: summary.total_depth,
        independent_wall_seconds: independent_wall,
        independent_cache_hits: independent_hits,
    }
}

/// One idle-ballast arm of the scaling phase (phase 8): the event-driven
/// front-end holds `idle` parked connections while a single active client
/// measures stream throughput and then sequential round-trip latency.
/// The jobs/s figure must not collapse as the connection table grows —
/// that is what the 70% `--check` gate compares (1024 idle vs 1).
struct ScalingArm {
    idle: usize,
    jobs_per_second: f64,
    p99_rtt_us: u64,
}

/// Two service instances sharing one `--state-dir` behind the writer
/// lock: the second instance must restore the first's warm state and
/// adopt its snapshot generation, and the pair's combined throughput is
/// reported against the single instance's.
struct TwoInstanceMetrics {
    adopted_generation: u64,
    restored_sessions: u64,
    single_jobs_per_second: f64,
    dual_jobs_per_second: f64,
}

struct ScalingMetrics {
    jobs: usize,
    arms: Vec<ScalingArm>,
    two_instance: TwoInstanceMetrics,
}

const SCALING_RTT_PROBES: usize = 150;

fn scaling_arm(stream: &str, jobs: usize, workers: usize, idle: usize) -> ScalingArm {
    let service = Arc::new(Service::with_engine_config(
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
        ServiceConfig {
            queue_depth: jobs.max(serve::DEFAULT_QUEUE_DEPTH),
            ..ServiceConfig::default()
        },
    ));
    let mut server = serve_socket_event(Arc::clone(&service), &BindAddr::parse("127.0.0.1:0"))
        .expect("bind loopback");

    let ballast: Vec<_> = (0..idle)
        .map(|k| {
            serve::connect(server.local_addr())
                .unwrap_or_else(|e| panic!("ballast connection {k} of {idle}: {e}"))
        })
        .collect();
    // Measure only once the loop has the full connection table registered.
    while service.open_connections() < idle as u64 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let mut input = String::from("{\"hello\": 2}\n");
    input.push_str(stream);
    let start = Instant::now();
    let mut raw = Vec::new();
    pump(server.local_addr(), input.as_bytes(), &mut raw).expect("scaling pump");
    let wall = start.elapsed().as_secs_f64();
    let text = String::from_utf8(raw).expect("responses are UTF-8");
    let summary = text
        .lines()
        .find(|l| SummaryFrame::is_summary_line(l))
        .map(|l| SummaryFrame::parse_line(l).expect("well-formed summary"))
        .expect("summary frame present");
    assert_eq!(
        summary.solved as usize, jobs,
        "every scaling job must solve under {idle} idle connections"
    );

    // Sequential request/response round trips for tail latency: the same
    // (cached) probe job each time, so the p99 is serving-tier overhead,
    // not solver variance.
    let probe = random_benchmark(8, 8, 0.4, 77).matrix;
    let mut client = LineClient::connect(server.local_addr()).expect("rtt client");
    client.handshake().expect("rtt handshake");
    let mut rtts: Vec<u64> = (0..SCALING_RTT_PROBES)
        .map(|k| {
            let req = JobRequest::new(format!("rtt-{idle}-{k:03}"), probe.clone());
            let start = Instant::now();
            client.send_job(&req).expect("rtt send");
            let line = client.recv_line().expect("rtt recv").expect("rtt response");
            let resp = JobResponse::parse_line(&line).expect("well-formed rtt response");
            assert!(resp.error.is_none(), "rtt probe failed: {line}");
            start.elapsed().as_micros() as u64
        })
        .collect();
    rtts.sort_unstable();
    let p99 = rtts[(rtts.len() * 99 / 100).min(rtts.len() - 1)];

    drop(client);
    drop(ballast);
    server.shutdown();
    ScalingArm {
        idle,
        jobs_per_second: jobs as f64 / wall,
        p99_rtt_us: p99,
    }
}

fn scaling_two_instance(stream: &str, jobs: usize, workers: usize) -> TwoInstanceMetrics {
    let dir = std::env::temp_dir().join(format!("rect-addr-bench-scaling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let instance = || {
        Arc::new(Service::with_engine_config(
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
            ServiceConfig {
                queue_depth: jobs.max(serve::DEFAULT_QUEUE_DEPTH),
                persist: Some(PersistConfig::at(&dir)),
            },
        ))
    };

    // Instance 1 (the lock holder) serves the whole stream alone: the
    // single-instance figure, and the warm state the second instance
    // must pick up.
    let writer = instance();
    let mut server1 = serve_socket_event(Arc::clone(&writer), &BindAddr::parse("127.0.0.1:0"))
        .expect("bind writer instance");
    let mut input = String::from("{\"hello\": 2}\n");
    input.push_str(stream);
    let start = Instant::now();
    let mut raw = Vec::new();
    pump(server1.local_addr(), input.as_bytes(), &mut raw).expect("single-instance pump");
    let single_wall = start.elapsed().as_secs_f64();
    assert!(
        writer.is_snapshot_writer(),
        "first instance must hold the writer lock"
    );
    writer.snapshot_now().expect("writer snapshot");

    // Instance 2 on the same directory: a reader that restores the
    // writer's snapshot at startup.
    let reader = instance();
    let restored_sessions = reader.stats().persisted_sessions;
    let adopted_generation = reader.snapshot_generation();
    assert!(
        adopted_generation >= 1,
        "second instance adopted no snapshot generation"
    );
    let mut server2 = serve_socket_event(Arc::clone(&reader), &BindAddr::parse("127.0.0.1:0"))
        .expect("bind reader instance");

    // Both instances serve half the stream concurrently.
    let lines: Vec<&str> = stream.lines().collect();
    let half_input = |chunk: &[&str]| {
        let mut s = String::from("{\"hello\": 2}\n");
        for line in chunk {
            s.push_str(line);
            s.push('\n');
        }
        s
    };
    let first = half_input(&lines[..lines.len() / 2]);
    let second = half_input(&lines[lines.len() / 2..]);
    let addr1 = server1.local_addr().clone();
    let addr2 = server2.local_addr().clone();
    fn jobs_on(addr: &BindAddr, input: String) -> usize {
        let mut raw = Vec::new();
        pump(addr, input.as_bytes(), &mut raw).expect("dual-instance pump");
        String::from_utf8(raw)
            .expect("responses are UTF-8")
            .lines()
            .find(|l| SummaryFrame::is_summary_line(l))
            .map(|l| SummaryFrame::parse_line(l).expect("well-formed summary"))
            .expect("summary frame present")
            .solved as usize
    }
    let start = Instant::now();
    let solved: usize = std::thread::scope(|scope| {
        let h1 = scope.spawn(move || jobs_on(&addr1, first));
        let h2 = scope.spawn(move || jobs_on(&addr2, second));
        h1.join().expect("first half") + h2.join().expect("second half")
    });
    let dual_wall = start.elapsed().as_secs_f64();
    assert_eq!(solved, jobs, "every dual-instance job must solve");

    server1.shutdown();
    server2.shutdown();
    drop(writer);
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir);
    TwoInstanceMetrics {
        adopted_generation,
        restored_sessions,
        single_jobs_per_second: jobs as f64 / single_wall,
        dual_jobs_per_second: jobs as f64 / dual_wall,
    }
}

fn scaling_phase(workers: usize) -> ScalingMetrics {
    // The connection counts come in pairs of file descriptors (client +
    // in-process server end), so the deepest arm needs ~2x its count:
    // raise the limit first and skip arms the hard limit cannot hold.
    let fd_limit = match serve::sys::raise_nofile_limit() {
        Ok(limit) => limit,
        Err(e) => {
            eprintln!("scaling: could not raise fd limit ({e}); assuming 1024");
            1024
        }
    };
    let jobs = 300;
    let stream = build_stream(jobs, 30, 8);
    let arms: Vec<ScalingArm> = [1usize, 64, 1024, 8192]
        .into_iter()
        .filter(|&idle| {
            let fits = 2 * idle as u64 + 256 <= fd_limit;
            if !fits {
                eprintln!("scaling: skipping {idle} idle connections (fd limit {fd_limit})");
            }
            fits
        })
        .map(|idle| scaling_arm(&stream, jobs, workers, idle))
        .collect();
    let two_instance = scaling_two_instance(&stream, jobs, workers);
    ScalingMetrics {
        jobs,
        arms,
        two_instance,
    }
}

fn main() {
    // `--check-baseline <file>` carries a value; extract the pair before
    // the flag/positional split.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = match raw.iter().position(|a| a == "--check-baseline") {
        Some(i) => {
            raw.remove(i);
            if i < raw.len() {
                Some(raw.remove(i))
            } else {
                eprintln!("--check-baseline needs a file path");
                std::process::exit(2);
            }
        }
        None => None,
    };
    let (flags, positional): (Vec<String>, Vec<String>) =
        raw.into_iter().partition(|a| a.starts_with("--"));
    let check = flags.iter().any(|f| f == "--check");
    let arg = |i: usize, default: usize| {
        positional
            .get(i)
            .and_then(|a| a.parse().ok())
            .unwrap_or(default)
    };
    let jobs = arg(0, 400);
    let distinct = arg(1, 50).max(1);
    let size = arg(2, 10);
    let workers = arg(3, 0);

    let stream = build_stream(jobs, distinct, size);
    let service = Service::with_engine_config(
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
    );

    eprintln!("engine_bench: {jobs} jobs, {distinct} distinct {size}x{size} patterns");
    let cold_latency = obs::Histogram::new();
    let warm_latency = obs::Histogram::new();
    let cold = run_stream(&service, &stream, jobs, &cold_latency);
    eprintln!(
        "cold: {:.0} jobs/s, hit rate {:.1}%",
        cold.jobs_per_second,
        cold.hit_rate * 100.0
    );
    // Same stream again: every job is now a canonical-cache hit. Replayed
    // until the measurement spans enough wall time — a single all-hit
    // replay of a small stream finishes in ~1 ms, far too little for the
    // jobs/s figure the baseline regression gate compares across runs.
    // Every emitted field aggregates over ALL replays (counts sum, means
    // average, max is the overall max), and the block carries the replay
    // count, so the numbers stay internally consistent.
    let mut warm_replays = 0usize;
    let warm = {
        let mut agg: Option<RunMetrics> = None;
        for _ in 0..512 {
            let run = run_stream(&service, &stream, jobs, &warm_latency);
            warm_replays += 1;
            agg = Some(match agg {
                None => run,
                Some(prev) => RunMetrics {
                    wall_seconds: prev.wall_seconds + run.wall_seconds,
                    jobs_per_second: 0.0, // recomputed below
                    cache_hits: prev.cache_hits + run.cache_hits,
                    cache_misses: prev.cache_misses + run.cache_misses,
                    hit_rate: 0.0, // recomputed below
                    // Replays run the identical job count: plain average.
                    mean_job_millis: prev.mean_job_millis + run.mean_job_millis,
                    max_job_millis: prev.max_job_millis.max(run.max_job_millis),
                    proved_optimal: prev.proved_optimal + run.proved_optimal,
                },
            });
            if agg.as_ref().expect("just set").wall_seconds >= 0.25 {
                break;
            }
        }
        let mut warm = agg.expect("at least one warm replay");
        warm.jobs_per_second = (jobs * warm_replays) as f64 / warm.wall_seconds;
        warm.hit_rate =
            warm.cache_hits as f64 / (warm.cache_hits + warm.cache_misses).max(1) as f64;
        warm.mean_job_millis /= warm_replays as f64;
        warm
    };
    eprintln!(
        "warm: {:.0} jobs/s over {warm_replays} replays, hit rate {:.1}%",
        warm.jobs_per_second,
        warm.hit_rate * 100.0
    );

    // Phase 2: warm-start SAP descent vs cold restarts on cache-adjacent
    // jobs. Sequential on purpose — the sequence models one hard canonical
    // class revisited across a batch.
    let rounds = 20;
    let conflict_budget = 2_500;
    let warm_engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let cold_engine = Engine::new(EngineConfig {
        workers: 1,
        warm_sessions: 0,
        ..EngineConfig::default()
    });
    let ws_warm = warm_start_arm(&warm_engine, rounds, conflict_budget);
    let ws_cold = warm_start_arm(&cold_engine, rounds, conflict_budget);
    eprintln!(
        "warm-start: {} conflicts warm (proved after {} jobs) vs {} cold (proved after {})",
        ws_warm.total_conflicts,
        ws_warm.proved_after_jobs,
        ws_cold.total_conflicts,
        ws_cold.proved_after_jobs,
    );

    // Phase 3: permuted-biregular workload, complete canonizer vs the
    // budget-0 heuristic labeling on the identical job stream.
    let (canon_jobs, canon_complete, canon_heuristic) = canon_workload(32);
    eprintln!(
        "canon: {} permuted-biregular jobs — complete {:.1}% hit rate ({} entries) \
         vs heuristic {:.1}% ({} entries)",
        canon_jobs,
        canon_complete.hit_rate * 100.0,
        canon_complete.entries,
        canon_heuristic.hit_rate * 100.0,
        canon_heuristic.entries,
    );

    // Phase 4: the same cold stream through the TCP socket front-end.
    let socket = socket_phase(&stream, jobs, workers);
    eprintln!(
        "socket: {:.0} jobs/s over TCP (hit rate {:.1}%)",
        socket.jobs_per_second,
        socket.hit_rate * 100.0
    );

    // Phase 5: persistence — solve, snapshot, reload into a fresh engine
    // (the restart cycle), re-solve.
    let persist = persist_phase(rounds, conflict_budget);
    eprintln!(
        "persist: reloaded run spends {} conflicts vs {} first-boot \
         (ratio {:.3}, {} sessions restored, snapshot {} bytes)",
        persist.reloaded_total_conflicts,
        persist.cold_total_conflicts,
        persist.reload_ratio,
        persist.restored_sessions,
        persist.snapshot_bytes,
    );

    // Phase 6: certification. Runs last so proof logging never perturbs
    // the gated throughput/conflict numbers above; any invalid or
    // unrejected-mutant proof panics the bench (non-zero exit).
    let certify = certify_phase();
    eprintln!(
        "certify: {} certificates verified ({} cold jobs, warm descent proved in {} rounds), \
         {} corrupted mutants rejected in {:.3}s",
        certify.cold_certificates + 1,
        certify.cold_jobs,
        certify.warm_rounds,
        certify.mutants_rejected,
        certify.check_seconds,
    );

    // Phase 7: seeded traffic-generator workloads. Runs after the gated
    // phases (like certification) so the generator streams never perturb
    // the `--check-baseline` throughput and conflict-ratio numbers.
    let traffic_jobs = 48;
    let mixes = [
        traffic_mix_arm(
            traffic::Workload::zipf(21, (8, 8), 8, 1.1),
            traffic_jobs,
            workers,
        ),
        traffic_mix_arm(
            traffic::Workload::bursty(21, (8, 8), 8, 1.1, 8, 50, 5_000),
            traffic_jobs,
            workers,
        ),
        traffic_mix_arm(
            traffic::Workload::layered(21, (8, 8)),
            traffic_jobs,
            workers,
        ),
        traffic_mix_arm(traffic::Workload::adversarial(21), 12, workers),
    ];
    for m in &mixes {
        eprintln!(
            "traffic/{}: {} jobs at {:.0} jobs/s, hit rate {:.1}%",
            m.name,
            m.jobs,
            m.jobs_per_second,
            m.hit_rate * 100.0
        );
    }
    let sched = traffic_schedule_phase(workers);
    eprintln!(
        "traffic/schedule: {} layers as one v2 schedule in {:.4}s ({} cross-layer cache hits) \
         vs independent jobs in {:.4}s ({} hits)",
        sched.layers,
        sched.schedule_wall_seconds,
        sched.cross_layer_cache_hits,
        sched.independent_wall_seconds,
        sched.independent_cache_hits,
    );

    // Phase 8: the horizontally scaled serving tier — the event-driven
    // front-end under idle-connection ballast, then two instances
    // sharing one state directory behind the writer lock.
    let scaling = scaling_phase(workers);
    for arm in &scaling.arms {
        eprintln!(
            "scaling/{} idle: {:.0} jobs/s, p99 rtt {} us",
            arm.idle, arm.jobs_per_second, arm.p99_rtt_us,
        );
    }
    eprintln!(
        "scaling/two-instance: generation {} adopted, {} sessions restored, \
         {:.0} jobs/s single vs {:.0} dual",
        scaling.two_instance.adopted_generation,
        scaling.two_instance.restored_sessions,
        scaling.two_instance.single_jobs_per_second,
        scaling.two_instance.dual_jobs_per_second,
    );

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"bench\": \"engine\",\n  \"jobs\": {jobs},\n  \"distinct\": {distinct},\n  \
         \"size\": {size},\n  \"duplicate_fraction\": {:.4},\n",
        (jobs.saturating_sub(distinct)) as f64 / jobs.max(1) as f64,
    );
    emit(&mut json, "cold", &cold, None, false);
    emit(&mut json, "warm", &warm, Some(warm_replays), false);
    emit_warm_start(&mut json, rounds, conflict_budget, &ws_warm, &ws_cold);
    let _ = write!(json, "  \"canon\": {{\n    \"jobs\": {canon_jobs},\n");
    emit_canon_arm(&mut json, "complete", &canon_complete, false);
    emit_canon_arm(&mut json, "heuristic", &canon_heuristic, true);
    json.push_str("  },\n");
    let _ = write!(
        json,
        "  \"persist\": {{\n    \"rounds\": {rounds},\n    \"conflict_budget\": \
         {conflict_budget},\n    \"cold_total_conflicts\": {},\n    \
         \"reloaded_total_conflicts\": {},\n    \"reload_ratio\": {:.4},\n    \
         \"restored_sessions\": {},\n    \"snapshot_bytes\": {}\n  }},\n",
        persist.cold_total_conflicts,
        persist.reloaded_total_conflicts,
        persist.reload_ratio,
        persist.restored_sessions,
        persist.snapshot_bytes,
    );
    let _ = write!(
        json,
        "  \"certify\": {{\n    \"cold_jobs\": {},\n    \"cold_certificates\": {},\n    \
         \"warm_rounds\": {},\n    \"certificates_verified\": {},\n    \
         \"mutants_rejected\": {},\n    \"check_seconds\": {:.4}\n  }},\n",
        certify.cold_jobs,
        certify.cold_certificates,
        certify.warm_rounds,
        certify.cold_certificates + 1,
        certify.mutants_rejected,
        certify.check_seconds,
    );
    json.push_str("  \"latency\": {\n    \"unit\": \"us\",\n");
    emit_latency(&mut json, "cold", &cold_latency.summary(), false);
    emit_latency(&mut json, "warm", &warm_latency.summary(), true);
    json.push_str("  },\n");
    emit_kernels(&mut json);
    json.push_str("  \"traffic\": {\n    \"mixes\": {\n");
    for (i, m) in mixes.iter().enumerate() {
        let _ = writeln!(
            json,
            "      \"{}\": {{ \"jobs\": {}, \"jobs_per_second\": {:.1}, \"hit_rate\": {:.4}, \
             \"proved_optimal\": {} }}{}",
            m.name,
            m.jobs,
            m.jobs_per_second,
            m.hit_rate,
            m.proved_optimal,
            if i + 1 == mixes.len() { "" } else { "," },
        );
    }
    let _ = write!(
        json,
        "    }},\n    \"schedule\": {{\n      \"layers\": {},\n      \
         \"cross_layer_cache_hits\": {},\n      \"total_depth\": {},\n      \
         \"schedule_wall_seconds\": {:.4},\n      \"independent_wall_seconds\": {:.4},\n      \
         \"independent_cache_hits\": {}\n    }}\n  }},\n",
        sched.layers,
        sched.cross_layer_cache_hits,
        sched.schedule_total_depth,
        sched.schedule_wall_seconds,
        sched.independent_wall_seconds,
        sched.independent_cache_hits,
    );
    let _ = write!(
        json,
        "  \"socket\": {{\n    \"jobs\": {jobs},\n    \"wall_seconds\": {:.4},\n    \
         \"jobs_per_second\": {:.1},\n    \"hit_rate\": {:.4}\n  }},\n",
        socket.wall_seconds, socket.jobs_per_second, socket.hit_rate,
    );
    let _ = write!(
        json,
        "  \"scaling\": {{\n    \"jobs\": {},\n    \"arms\": [\n",
        scaling.jobs
    );
    for (i, arm) in scaling.arms.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{ \"idle_connections\": {}, \"jobs_per_second\": {:.1}, \
             \"p99_rtt_us\": {} }}{}",
            arm.idle,
            arm.jobs_per_second,
            arm.p99_rtt_us,
            if i + 1 == scaling.arms.len() { "" } else { "," },
        );
    }
    let _ = write!(
        json,
        "    ],\n    \"two_instance\": {{\n      \"adopted_generation\": {},\n      \
         \"restored_sessions\": {},\n      \"single_jobs_per_second\": {:.1},\n      \
         \"dual_jobs_per_second\": {:.1}\n    }}\n  }}\n}}\n",
        scaling.two_instance.adopted_generation,
        scaling.two_instance.restored_sessions,
        scaling.two_instance.single_jobs_per_second,
        scaling.two_instance.dual_jobs_per_second,
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("{json}");

    let mut failed = false;
    if check {
        if canon_complete.hit_rate < 0.9 {
            eprintln!(
                "FAIL: permuted-biregular hit rate {:.1}% is below the 90% gate",
                canon_complete.hit_rate * 100.0
            );
            failed = true;
        }
        if persist.reload_ratio >= 0.6 {
            eprintln!(
                "FAIL: reloaded server spends {:.1}% of first-boot conflicts \
                 (gate: < 60%)",
                persist.reload_ratio * 100.0
            );
            failed = true;
        }
        if persist.restored_sessions == 0 {
            eprintln!("FAIL: snapshot reload restored no sessions");
            failed = true;
        }
        if sched.cross_layer_cache_hits == 0 {
            eprintln!(
                "FAIL: a {}-layer circuit schedule harvested no cross-layer cache hits",
                sched.layers
            );
            failed = true;
        }
        // The event loop must hold its throughput as the connection
        // table grows: 1024 parked connections may cost at most 30% of
        // the 1-connection jobs/s figure.
        let arm_at = |idle| scaling.arms.iter().find(|a| a.idle == idle);
        match (arm_at(1), arm_at(1024)) {
            (Some(one), Some(kilo)) => {
                if kilo.jobs_per_second < 0.7 * one.jobs_per_second {
                    eprintln!(
                        "FAIL: {:.0} jobs/s under 1024 idle connections is below 70% of \
                         the 1-connection {:.0} jobs/s",
                        kilo.jobs_per_second, one.jobs_per_second,
                    );
                    failed = true;
                }
            }
            _ => {
                eprintln!("FAIL: scaling arms (1 and 1024 idle connections) did not run");
                failed = true;
            }
        }
        if scaling.two_instance.restored_sessions == 0 {
            eprintln!("FAIL: second instance on the shared state dir restored no sessions");
            failed = true;
        }
    }
    if let Some(path) = baseline_path {
        if !check_baseline(
            &path,
            cold.jobs_per_second,
            warm.jobs_per_second,
            &ws_warm,
            &ws_cold,
        ) {
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Emits the data-plane kernel timing histograms (`kernel_us_*`) the run
/// accumulated in the global registry — the per-hot-loop counterpart of the
/// end-to-end throughput figures, so a perf diff can tell *which* loop moved.
fn emit_kernels(json: &mut String) {
    let kernels: Vec<_> = obs::registry()
        .histogram_summaries()
        .into_iter()
        .filter(|(name, _)| name.starts_with(obs::names::KERNEL_US_PREFIX))
        .collect();
    json.push_str("  \"kernels\": {\n    \"unit\": \"us\",\n");
    for (i, (name, s)) in kernels.iter().enumerate() {
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{name}\": {{ \"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \
             \"p99\": {}, \"max\": {} }}{comma}",
            s.count, s.sum, s.p50, s.p90, s.p99, s.max,
        );
    }
    json.push_str("  },\n");
}

/// Tolerated relative regression against the committed baseline.
const BASELINE_TOLERANCE: f64 = 0.25;

/// The perf-trajectory gate: compares this run's cold and warm throughput
/// and warm-start conflict ratio against `BENCH_baseline.json`, failing on a
/// regression beyond [`BASELINE_TOLERANCE`]. Improvements never fail —
/// refresh the baseline to ratchet them in. A baseline without a cold figure
/// (predating the cold gate) skips that check.
fn check_baseline(
    path: &str,
    cold_jobs_per_second: f64,
    warm_jobs_per_second: f64,
    ws_warm: &WarmStartArm,
    ws_cold: &WarmStartArm,
) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("FAIL: baseline {path} unreadable: {e}");
            return false;
        }
    };
    let json = match proto::parse_json(&text) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("FAIL: baseline {path} is not valid JSON: {e}");
            return false;
        }
    };
    let number =
        |outer: &str, field: &str| -> Option<f64> { json.get(outer)?.get(field)?.as_f64() };
    let Some(base_jps) = number("warm", "jobs_per_second") else {
        eprintln!("FAIL: baseline {path} lacks warm.jobs_per_second");
        return false;
    };
    let Some(base_ratio) = number("warm_start", "conflict_ratio") else {
        eprintln!("FAIL: baseline {path} lacks warm_start.conflict_ratio");
        return false;
    };

    let ratio = ws_warm.total_conflicts as f64 / ws_cold.total_conflicts.max(1) as f64;
    let mut ok = true;
    // Cold throughput exercises the full data plane (canonization, the
    // floor, the packing kernels, SAP) rather than the cache, so it is the gate
    // that actually guards the word-packed hot loops.
    if let Some(base_cold) = number("cold", "jobs_per_second") {
        let cold_floor = base_cold * (1.0 - BASELINE_TOLERANCE);
        if cold_jobs_per_second < cold_floor {
            eprintln!(
                "FAIL: cold throughput regressed beyond {:.0}%: {cold_jobs_per_second:.1} \
                 jobs/s vs baseline {base_cold:.1} (floor {cold_floor:.1})",
                BASELINE_TOLERANCE * 100.0
            );
            ok = false;
        } else {
            eprintln!("baseline OK: cold {cold_jobs_per_second:.1} jobs/s (>= {cold_floor:.1})");
        }
    }
    let jps_floor = base_jps * (1.0 - BASELINE_TOLERANCE);
    if warm_jobs_per_second < jps_floor {
        eprintln!(
            "FAIL: warm throughput regressed beyond {:.0}%: {warm_jobs_per_second:.1} jobs/s \
             vs baseline {base_jps:.1} (floor {jps_floor:.1})",
            BASELINE_TOLERANCE * 100.0
        );
        ok = false;
    }
    // The conflict ratio is better when *lower*; tolerance goes upward.
    let ratio_ceiling = base_ratio * (1.0 + BASELINE_TOLERANCE);
    if ratio > ratio_ceiling {
        eprintln!(
            "FAIL: warm-start conflict ratio regressed beyond {:.0}%: {ratio:.4} vs baseline \
             {base_ratio:.4} (ceiling {ratio_ceiling:.4})",
            BASELINE_TOLERANCE * 100.0
        );
        ok = false;
    }
    if ok {
        eprintln!(
            "baseline OK: warm {warm_jobs_per_second:.1} jobs/s (>= {jps_floor:.1}), \
             warm-start ratio {ratio:.4} (<= {ratio_ceiling:.4})"
        );
    }
    ok
}
