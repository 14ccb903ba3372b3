//! Implementation of the `rect-addr` command-line tool.
//!
//! The binary (`src/main.rs`) is one call to [`run`] with the process's
//! stdin, stdout and stderr; the tests call the same function with
//! in-memory buffers. So every subcommand, its argument parsing and the
//! stream each line goes to are tested the way they ship, without
//! spawning processes.
//!
//! Subcommands:
//!
//! * `solve <file>` — exact minimum-depth partition (SAP) of a 0/1 matrix;
//! * `pack <file>` — row-packing heuristic only (`--trials N`);
//! * `rank <file>` — all lower bounds: real rank, GF(2) rank, fooling set;
//! * `cover <file>` — minimum rectangle *cover* (Boolean rank);
//! * `schedule <file>` — compile and print an AOD shot schedule; with
//!   `--connect <addr|path>` the compiled shot masks are submitted to a
//!   `serve --listen` server as one protocol-v2 `schedule` frame (layers
//!   solved sequentially against the shared warm cache) and the streamed
//!   per-layer responses plus the schedule summary are printed;
//! * `traffic <mix>` — emit a seeded, reproducible JSON-lines workload
//!   (`zipf`/`bursty`/`layered`/`adversarial`) for `batch`/`client`;
//! * `complete <file> <dcfile>` — EBMF with don't-cares (vacancies);
//! * `gen <family>` — emit a benchmark instance (`rand`/`opt`/`gap`);
//! * `sat <file.cnf>` — run the built-in CDCL solver on DIMACS input;
//! * `certcheck <file.cnf> <file.drat>` — verify a DRAT refutation with the
//!   embedded forward/backward RUP+RAT checker (no solver code shared);
//! * `batch <file>` — solve a JSON-lines job stream concurrently through the
//!   serving stack (portfolio racing + canonical-form cache);
//! * `serve` — the same loop reading jobs from stdin until EOF, or, with
//!   `--listen <addr|path>`, a Unix-domain/TCP socket server whose one
//!   readiness loop multiplexes many concurrent clients onto one shared
//!   engine (`--event-loop`, once the switch to this transport, is still
//!   accepted and ignored);
//! * `client <addr|path>` — connect to a `serve --listen` server and pump
//!   stdin job lines through it (send a `{"hello": 2}` first line to use
//!   protocol v2);
//! * `idle <addr|path> <count>` — hold `count` idle connections against a
//!   server until stdin's end (connection ballast for the scaling smoke).
//!
//! `--version` / `-V` prints the version. Matrices are read as lines of
//! `0`/`1` characters (the `bitmatrix` parsing format); `-` means stdin.
//! See `PROTOCOL.md` for the v1/v2 wire framing.
//!
//! `batch`, `serve`, `client` and `idle` write to stdout as responses
//! complete; the other subcommands write their report once it is done.
//! A usage or I/O error goes to stderr, with the usage text, and exits 2;
//! `certcheck` reports a rejected proof on stdout and exits 1.

use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};

use bitmatrix::BitMatrix;
use ebmf::gen::{gap_benchmark, known_optimal_benchmark, random_benchmark};
use ebmf::{
    complete_ebmf, lower_bound, row_packing, sap, validate_completion, PackingConfig, SapConfig,
};
use engine::EngineConfig;
use linalg::{max_fooling_set, rank_gf2};
use qaddress::{AddressingSchedule, Pulse, QubitArray};
use serve::{serve_connection, Service, ServiceConfig};

/// Usage text shown on argument errors and by `help`.
pub const USAGE: &str = "\
rect-addr — depth-optimal rectangular addressing via EBMF (DATE 2024)

USAGE:
  rect-addr solve    <matrix-file|-> [--svg out.svg] [--certify prefix]
                                                exact minimum-depth partition (SAP);
                                                --certify writes prefix.cnf + prefix.drat
                                                when optimality rests on an UNSAT answer
  rect-addr pack     <matrix-file|-> [--trials N]   row-packing heuristic
  rect-addr rank     <matrix-file|->            lower bounds (rank, GF(2), fooling)
  rect-addr cover    <matrix-file|->            minimum rectangle COVER (Boolean rank)
  rect-addr schedule <matrix-file|-> [--connect <addr|path>]
                                                compile an AOD shot schedule;
                                                --connect submits the shot masks to a
                                                server as one v2 schedule frame
  rect-addr traffic  zipf|bursty|layered|adversarial [--seed S] [--count N]
                     [--rows R] [--cols C] [--classes K]
                                                emit a seeded JSON-lines workload
  rect-addr complete <matrix-file> <dc-file>    EBMF with don't-care cells
  rect-addr gen      rand <m> <n> <occ%> <seed>     emit a random instance
  rect-addr gen      opt  <m> <n> <k> <seed>        emit a known-optimal instance
  rect-addr gen      gap  <m> <n> <pairs> <seed>    emit a rank-gap instance
  rect-addr sat      <file.cnf|->               run the CDCL solver on DIMACS
  rect-addr certcheck <file.cnf> <file.drat>    verify a DRAT refutation (one may be '-')
  rect-addr batch    <jobs.jsonl|-> [opts]      solve a JSON-lines job stream
  rect-addr serve    [opts]                     batch mode reading stdin until EOF
  rect-addr serve    --listen <addr|path> [opts]  socket server (unix path or host:port):
                                                one readiness loop owns every connection
  rect-addr client   <addr|path>                pump stdin jobs through a socket server
  rect-addr idle     <addr|path> <count>        hold <count> idle connections open;
                                                prints 'held N', exits on stdin EOF
  rect-addr help | --version

Batch/serve options: --workers N, --budget-ms T, --conflicts C, --trials K,
--no-sat, --warm-sessions N (0 = cold SAP),
--canon-budget B (canonizer search branches before falling back to the
heuristic labeling; 0 = no search), --queue-depth N (submission queue
bound; a full queue answers busy to protocol-v2 clients), --state-dir DIR
(persist warm SAP sessions across restarts; loaded at startup,
snapshotted on drain; processes may share one: whichever holds
DIR/writer.lock writes the snapshots, the rest adopt them and take the
lock over when it is released), --snapshot-every N (also snapshot every
N completed jobs; default 32, 0 = only on drain), --metrics-dump PATH
(write the process's counters and latency histograms as JSON:
periodically while a --listen server runs, once on drain for
batch/serve). SIGTERM or SIGINT
drains a --listen server and exits 0. One job per line: {\"id\": \"l0\",
\"matrix\": [\"101\", \"010\"], \"budget_ms\": 500}; responses stream back in
completion order with provenance, cache-hit flag, SAT conflict count and
the rectangle partition. A {\"hello\": 2} first line negotiates protocol
v2 (priority/deadline jobs, cancel, busy backpressure, stats) — see
PROTOCOL.md.

Matrix files contain one row of 0/1 digits per line; '-' reads stdin.";

fn read_input(path: &str, stdin: &mut dyn Read) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        stdin
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn read_matrix(path: &str, stdin: &mut dyn Read) -> Result<BitMatrix, String> {
    read_input(path, stdin)?
        .parse()
        .map_err(|e| format!("parsing {path}: {e}"))
}

/// Runs the CLI on `args` (without the program name) and returns the
/// exit status. Results go to `out`; a usage or I/O error goes to `err`
/// with the usage text, and the status is 2. Reads `stdin` where an
/// input path is `-`, and for `client`, `idle` and `serve` without
/// `--listen`.
pub fn run(
    args: &[String],
    stdin: &mut (dyn BufRead + Send),
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> u8 {
    let status = match args.first().map(String::as_str) {
        Some("solve") => report(out, cmd_matrix_required(args, stdin, cmd_solve)),
        Some("pack") => report(out, cmd_matrix_required(args, stdin, cmd_pack)),
        Some("rank") => report(out, cmd_matrix_required(args, stdin, cmd_rank)),
        Some("cover") => report(out, cmd_matrix_required(args, stdin, cmd_cover)),
        Some("schedule") => report(out, cmd_matrix_required(args, stdin, cmd_schedule)),
        Some("traffic") => report(out, cmd_traffic(args)),
        Some("complete") => report(out, cmd_complete(args, stdin)),
        Some("gen") => report(out, cmd_gen(args)),
        Some("sat") => report(out, cmd_sat(args, stdin)),
        Some("certcheck") => cmd_certcheck(args, stdin, out),
        Some("batch") => cmd_batch(args, stdin, out),
        Some("serve") => cmd_serve(args, stdin, out),
        Some("client") => cmd_client(args, stdin, out),
        Some("idle") => cmd_idle(args, stdin, out),
        Some("help") | Some("--help") | Some("-h") => report(out, Ok(format!("{USAGE}\n"))),
        Some("--version") | Some("-V") => report(
            out,
            Ok(format!("rect-addr {}\n", env!("CARGO_PKG_VERSION"))),
        ),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
        None => Err("missing subcommand".to_string()),
    };
    status.unwrap_or_else(|e| {
        // Never on `out`: for the streaming subcommands that is the
        // machine-parsed JSON-lines response channel.
        let _ = writeln!(err, "error: {e}\n\n{USAGE}");
        2
    })
}

/// Writes a finished report to `out`. A closed stdout (`rect-addr gen …
/// | head -1`) is not the command's failure, so a write error is ignored.
fn report(out: &mut dyn Write, text: Result<String, String>) -> Result<u8, String> {
    let _ = out.write_all(text?.as_bytes());
    Ok(0)
}

fn cmd_matrix_required(
    args: &[String],
    stdin: &mut dyn Read,
    f: fn(&BitMatrix, &[String]) -> Result<String, String>,
) -> Result<String, String> {
    let path = args
        .get(1)
        .ok_or_else(|| format!("{} needs a matrix file", args[0]))?;
    f(&read_matrix(path, stdin)?, &args[2..])
}

fn parse_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}")),
    }
}

fn cmd_solve(m: &BitMatrix, rest: &[String]) -> Result<String, String> {
    let certify_prefix = match rest.iter().position(|a| a == "--certify") {
        None => None,
        Some(i) => Some(
            rest.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| "--certify needs an output prefix".to_string())?,
        ),
    };
    let out = sap(
        m,
        &SapConfig {
            certify: certify_prefix.is_some(),
            ..SapConfig::default()
        },
    );
    let mut s = String::new();
    let _ = writeln!(
        s,
        "depth {} ({}); real rank {}; {} SAT queries; {:.3}s packing + {:.3}s SAT",
        out.depth(),
        if out.proved_optimal {
            "optimal"
        } else {
            "best effort"
        },
        out.lower_bound.real_rank.rank,
        out.stats.queries.len(),
        out.stats.packing_seconds,
        out.stats.sat_seconds,
    );
    let _ = writeln!(s, "{}", out.partition);
    if let Some(i) = rest.iter().position(|a| a == "--svg") {
        let path = rest
            .get(i + 1)
            .ok_or_else(|| "--svg needs an output path".to_string())?;
        let doc = ebmf::svg::partition_to_svg(&out.partition, m, &Default::default());
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(s, "wrote {path}");
    }
    if let Some(prefix) = certify_prefix {
        match &out.certificate {
            Some(cert) => {
                let cnf_path = format!("{prefix}.cnf");
                let drat_path = format!("{prefix}.drat");
                std::fs::write(&cnf_path, &cert.cnf)
                    .map_err(|e| format!("writing {cnf_path}: {e}"))?;
                std::fs::write(&drat_path, &cert.drat)
                    .map_err(|e| format!("writing {drat_path}: {e}"))?;
                let _ = writeln!(
                    s,
                    "certificate: depth {} is optimal because depth {} is UNSAT \
                     — wrote {cnf_path} + {drat_path} (check with `rect-addr certcheck`)",
                    out.depth(),
                    cert.bound,
                );
            }
            // Heuristic met the rank floor: optimality never consulted the
            // SAT solver, so there is honestly no refutation to export.
            None => {
                let _ = writeln!(
                    s,
                    "certificate: none — optimality follows from the rank lower \
                     bound, no UNSAT answer was needed"
                );
            }
        }
    }
    Ok(s)
}

fn cmd_certcheck(args: &[String], stdin: &mut dyn Read, out: &mut dyn Write) -> Result<u8, String> {
    let (Some(cnf_path), Some(drat_path)) = (args.get(1), args.get(2)) else {
        return Err("certcheck needs <file.cnf> <file.drat> (one may be '-')".to_string());
    };
    if cnf_path == "-" && drat_path == "-" {
        return Err("certcheck: only one input may be '-'".to_string());
    }
    let cnf = read_input(cnf_path, stdin)?;
    let drat = read_input(drat_path, stdin)?;
    let (status, verdict) = match certcheck::check_certificate(&cnf, &drat) {
        Ok(outcome) => (
            0,
            format!(
                "s VERIFIED\n{} steps checked ({} RAT); trimmed core: {} axioms, {} lemmas\n",
                outcome.steps_checked, outcome.rat_steps, outcome.core_axioms, outcome.core_lemmas,
            ),
        ),
        // A rejected proof is a *verification verdict*, not a usage
        // error: report it on stdout with exit 1, no usage text.
        Err(e) => (1, format!("s NOT VERIFIED: {e}\n")),
    };
    report(out, Ok(verdict)).map(|_| status)
}

fn cmd_pack(m: &BitMatrix, rest: &[String]) -> Result<String, String> {
    let trials = parse_flag(rest, "--trials", 100)?;
    let p = row_packing(m, &PackingConfig::with_trials(trials));
    let lb = lower_bound(m, false);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "depth {} after {} trials (lower bound {}{})",
        p.len(),
        trials,
        lb.value,
        if p.len() == lb.value { ", optimal" } else { "" },
    );
    let _ = writeln!(s, "{p}");
    Ok(s)
}

fn cmd_rank(m: &BitMatrix, _rest: &[String]) -> Result<String, String> {
    let lb = lower_bound(m, true);
    let fooling = max_fooling_set(m, 2_000_000);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "real rank        {}{}",
        lb.real_rank.rank,
        if lb.real_rank.exact {
            ""
        } else {
            " (GF(p) lower bound)"
        },
    );
    let _ = writeln!(s, "GF(2) rank       {}", rank_gf2(m));
    let _ = writeln!(
        s,
        "fooling set      {}{}  {:?}",
        fooling.size(),
        if fooling.proved_maximum {
            " (maximum)"
        } else {
            " (heuristic)"
        },
        fooling.cells,
    );
    let _ = writeln!(s, "binary rank  >=  {}", lb.value.max(fooling.size()));
    Ok(s)
}

fn cmd_cover(m: &BitMatrix, _rest: &[String]) -> Result<String, String> {
    let (cover, n) = ebmf::cover::boolean_rank(m);
    let mut s = String::new();
    let _ = writeln!(s, "Boolean rank (min rectangle cover) {n}");
    let _ = writeln!(
        s,
        "(binary rank / partition depth may be larger; overlaps shown by later rectangles)"
    );
    let _ = writeln!(s, "{cover}");
    Ok(s)
}

fn cmd_schedule(m: &BitMatrix, rest: &[String]) -> Result<String, String> {
    let out = sap(m, &SapConfig::default());
    let schedule = AddressingSchedule::from_partition(&out.partition, Pulse::Rz(0.0));
    let array = QubitArray::new(m.nrows(), m.ncols());
    schedule
        .verify(&array, m)
        .map_err(|e| format!("internal: schedule failed verification: {e}"))?;
    if let Some(i) = rest.iter().position(|a| a == "--connect") {
        let addr = rest
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| "--connect needs a server address".to_string())?;
        return schedule_over_socket(&schedule, addr);
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} shots, {} control bits:",
        schedule.depth(),
        schedule.total_control_bits()
    );
    for (k, shot) in schedule.shots().iter().enumerate() {
        let _ = writeln!(
            s,
            "shot {k}: rows {:?} cols {:?}",
            shot.aod.row_tones().to_indices(),
            shot.aod.col_tones().to_indices(),
        );
    }
    Ok(s)
}

/// `schedule --connect`: ship the compiled shot masks to a server as one
/// protocol-v2 `schedule` frame and print the streamed layer responses
/// plus the trailing summary. The server solves the layers sequentially
/// against its shared warm cache, so repeated masks report cache hits.
fn schedule_over_socket(schedule: &AddressingSchedule, addr: &str) -> Result<String, String> {
    use proto::{JobResponse, ScheduleRequest, ScheduleSummary};

    let layers = qaddress::schedule_to_jobs(schedule);
    let total = layers.len();
    let req = ScheduleRequest::new("cli", layers);
    let bind = serve::BindAddr::parse(addr);
    let mut client =
        serve::LineClient::connect(&bind).map_err(|e| format!("connecting {addr}: {e}"))?;
    client
        .handshake()
        .map_err(|e| format!("handshake with {addr}: {e}"))?;
    client
        .send_line(&req.to_json_line())
        .map_err(|e| format!("sending schedule: {e}"))?;

    let mut s = String::new();
    let _ = writeln!(s, "{total} layers sent to {addr} as schedule \"cli\":");
    loop {
        let line = client
            .recv_line()
            .map_err(|e| format!("reading response: {e}"))?
            .ok_or_else(|| "server closed before the schedule summary".to_string())?;
        if ScheduleSummary::is_summary_line(&line) {
            let summary = ScheduleSummary::parse_line(&line)?;
            let _ = writeln!(
                s,
                "schedule solved {}/{} layers; total depth {} ({}), {} cache hits, {:.3}ms",
                summary.solved,
                summary.layers,
                summary.total_depth,
                if summary.total_depth as usize == schedule.depth() {
                    "matches the local compile"
                } else {
                    "differs from the local compile"
                },
                summary.cache_hits,
                summary.millis,
            );
            return Ok(s);
        }
        let resp = JobResponse::parse_line(&line)?;
        match resp.error_kind() {
            None => {
                let _ = writeln!(
                    s,
                    "{}: depth {} via {}{}",
                    resp.id,
                    resp.depth,
                    resp.provenance,
                    if resp.cache_hit { " (cache hit)" } else { "" },
                );
            }
            Some(kind) => {
                let _ = writeln!(s, "{}: {kind} error", resp.id);
            }
        }
    }
}

/// `traffic <mix>`: print `--count` JSON job lines from one of the seeded
/// generator mixes — ready to pipe into `batch -`, `client`, or a raw
/// socket. The same flags always reproduce the same byte stream.
fn cmd_traffic(args: &[String]) -> Result<String, String> {
    let mix = args
        .get(1)
        .ok_or("traffic needs a mix: zipf|bursty|layered|adversarial")?;
    let rest = &args[2..];
    let seed = parse_flag(rest, "--seed", 7)? as u64;
    let count = parse_flag(rest, "--count", 32)?;
    let rows = parse_flag(rest, "--rows", 6)?.max(1);
    let cols = parse_flag(rest, "--cols", 6)?.max(1);
    let classes = parse_flag(rest, "--classes", 8)?.max(1);
    let workload = match mix.as_str() {
        "zipf" => traffic::Workload::zipf(seed, (rows, cols), classes, 1.1),
        "bursty" => traffic::Workload::bursty(seed, (rows, cols), classes, 1.1, 8, 50, 5_000),
        "layered" => traffic::Workload::layered(seed, (rows, cols)),
        "adversarial" => traffic::Workload::adversarial(seed),
        other => {
            return Err(format!(
                "unknown mix {other:?} (zipf|bursty|layered|adversarial)"
            ))
        }
    };
    let name = workload.name();
    let mut s = String::new();
    for (k, spec) in workload.take(count).enumerate() {
        // The duplicate class rides in the id, so response streams can be
        // correlated back to cache-reuse expectations.
        let job = proto::JobRequest::new(format!("{name}-{k}-c{}", spec.class), spec.matrix);
        let _ = writeln!(s, "{}", job.to_json_line());
    }
    Ok(s)
}

fn cmd_complete(args: &[String], stdin: &mut dyn Read) -> Result<String, String> {
    let (Some(mpath), Some(dcpath)) = (args.get(1), args.get(2)) else {
        return Err("complete needs <matrix-file> <dc-file>".to_string());
    };
    let m = read_matrix(mpath, stdin)?;
    let dc = read_matrix(dcpath, stdin)?;
    if dc.shape() != m.shape() {
        return Err("matrix and don't-care mask shapes differ".to_string());
    }
    if !m.and(&dc).is_zero() {
        return Err("a cell cannot be both 1 and don't-care".to_string());
    }
    let out = complete_ebmf(&m, &dc);
    validate_completion(&out.partition, &m, &dc)
        .map_err(|e| format!("internal: invalid completion: {e}"))?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "depth {} with don't-cares ({})",
        out.partition.len(),
        if out.proved_optimal {
            "optimal"
        } else {
            "best effort"
        },
    );
    let _ = writeln!(s, "{}", out.partition);
    Ok(s)
}

fn cmd_gen(args: &[String]) -> Result<String, String> {
    let usage = "gen needs: rand|opt|gap <m> <n> <param> <seed>";
    let parse = |s: Option<&String>| -> Result<u64, String> {
        s.ok_or(usage)?
            .parse::<u64>()
            .map_err(|e| format!("{usage}: {e}"))
    };
    let family = args.get(1).ok_or(usage)?;
    let m = parse(args.get(2))? as usize;
    let n = parse(args.get(3))? as usize;
    let param = parse(args.get(4))?;
    let seed = parse(args.get(5))?;
    let bench = match family.as_str() {
        "rand" => {
            if param > 100 {
                return Err("occupancy must be 0..=100".to_string());
            }
            random_benchmark(m, n, param as f64 / 100.0, seed)
        }
        "opt" => {
            if param as usize > m.min(n) || param == 0 {
                return Err(format!("k must be in 1..={}", m.min(n)));
            }
            known_optimal_benchmark(m, n, param as usize, seed).0
        }
        "gap" => {
            if param == 0 || 2 * param as usize > m {
                return Err(format!("pairs must be in 1..={}", m / 2));
            }
            gap_benchmark(m, n, param as usize, seed)
        }
        other => return Err(format!("unknown family {other:?} ({usage})")),
    };
    Ok(format!("{}\n", bench.matrix))
}

/// Builds an [`EngineConfig`] from `--workers/--budget-ms/--conflicts/
/// --trials/--no-sat/--warm-sessions/--canon-budget` flags.
/// Values are only overridden when their flag is present, so
/// [`EngineConfig::default`] stays the single source of truth.
fn engine_config(rest: &[String]) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::default();
    cfg.workers = parse_flag(rest, "--workers", cfg.workers)?;
    cfg.portfolio.packing_trials = parse_flag(rest, "--trials", cfg.portfolio.packing_trials)?;
    cfg.warm_sessions = parse_flag(rest, "--warm-sessions", cfg.warm_sessions)?;
    cfg.canon.max_branches = parse_flag(rest, "--canon-budget", cfg.canon.max_branches)?;
    if rest.iter().any(|a| a == "--budget-ms") {
        let budget_ms = parse_flag(rest, "--budget-ms", 0)?;
        cfg.portfolio.time_budget = Some(std::time::Duration::from_millis(budget_ms as u64));
    }
    if rest.iter().any(|a| a == "--conflicts") {
        cfg.portfolio.conflict_budget = Some(parse_flag(rest, "--conflicts", 0)? as u64);
    }
    if rest.iter().any(|a| a == "--no-sat") {
        cfg.portfolio.sap = false;
    }
    Ok(cfg)
}

/// Builds the [`Service`] (engine + bounded queue + optional warm-state
/// persistence) from batch/serve flags.
fn build_service(rest: &[String]) -> Result<Service, String> {
    let engine = engine_config(rest)?;
    let queue_depth = parse_flag(rest, "--queue-depth", serve::DEFAULT_QUEUE_DEPTH)?.max(1);
    let persist = match rest.iter().position(|a| a == "--state-dir") {
        None => {
            if rest.iter().any(|a| a == "--snapshot-every") {
                return Err("--snapshot-every needs --state-dir".to_string());
            }
            None
        }
        Some(i) => {
            let dir = rest
                .get(i + 1)
                .filter(|d| !d.starts_with("--"))
                .ok_or_else(|| "--state-dir needs a directory".to_string())?;
            let every = parse_flag(
                rest,
                "--snapshot-every",
                serve::DEFAULT_SNAPSHOT_EVERY as usize,
            )?;
            Some(serve::PersistConfig {
                state_dir: dir.into(),
                snapshot_every: (every > 0).then_some(every as u64),
                lease: None,
            })
        }
    };
    Ok(Service::with_engine_config(
        engine,
        ServiceConfig {
            queue_depth,
            persist,
        },
    ))
}

/// The value following `--metrics-dump`, when present: where to export
/// the process's counters and latency histograms as a JSON snapshot.
fn metrics_dump_path(rest: &[String]) -> Result<Option<std::path::PathBuf>, String> {
    match rest.iter().position(|a| a == "--metrics-dump") {
        None => Ok(None),
        Some(i) => rest
            .get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .map(|p| Some(p.into()))
            .ok_or_else(|| "--metrics-dump needs an output path".to_string()),
    }
}

/// How often a `serve --listen` process refreshes its `--metrics-dump`
/// file.
const METRICS_DUMP_PERIOD: std::time::Duration = std::time::Duration::from_secs(1);

/// How often a `serve --listen` process checks for a stop signal.
const STOP_POLL_PERIOD: std::time::Duration = std::time::Duration::from_millis(100);

/// Shared core of `batch` and of `serve` without `--listen`: build the
/// service from flags and drive one protocol connection over
/// `input`/`out`, responses streaming to `out` as jobs complete (the
/// connection emits the summary trailer itself on drain). With
/// `--metrics-dump`, the drained process's metrics are written once at
/// the end — the batch-mode analogue of the listen server's periodic
/// export. A reader that closes `out` early (`rect-addr batch - | head
/// -1`) wants no more answers: the connection abandons its queued work,
/// and the command still succeeds, as the report subcommands do.
fn run_service_batch(
    input: &mut (dyn BufRead + Send),
    rest: &[String],
    mut out: &mut dyn Write,
) -> Result<u8, String> {
    let dump = metrics_dump_path(rest)?;
    let service = build_service(rest)?;
    if let Err(e) = serve_connection(&service, input, &mut out) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            return Err(format!("batch I/O: {e}"));
        }
    }
    if let Some(path) = dump {
        obs::registry()
            .dump_to_path(&path)
            .map_err(|e| format!("writing metrics to {}: {e}", path.display()))?;
    }
    Ok(0)
}

/// The socket server behind `serve --listen`: binds, prints the bound
/// address to stderr, and serves connections until SIGTERM or SIGINT,
/// which drain the connections and then the service (final snapshot,
/// writer lock released) before a clean exit. With `--metrics-dump`, a
/// detached thread rewrites the metrics snapshot (atomically, tmp +
/// rename) once per [`METRICS_DUMP_PERIOD`] so an operator — or the CI
/// smoke test — can watch latency percentiles move while the server
/// runs.
fn run_serve_listen(addr: &str, rest: &[String]) -> Result<u8, String> {
    serve::sys::catch_stop_signals().map_err(|e| format!("catching stop signals: {e}"))?;
    let dump = metrics_dump_path(rest)?;
    let service = std::sync::Arc::new(build_service(rest)?);
    let addr = serve::BindAddr::parse(addr);
    // One readiness loop owns every connection socket, so the file
    // descriptor limit is the connection limit: raise it up front.
    match serve::sys::raise_nofile_limit() {
        Ok(limit) => eprintln!("rect-addr: event loop, fd limit {limit}"),
        Err(e) => eprintln!("rect-addr: could not raise fd limit: {e}"),
    }
    let mut server = serve::serve_socket_event(std::sync::Arc::clone(&service), &addr)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    eprintln!("rect-addr: listening on {}", server.local_addr());
    if let Some(path) = dump {
        std::thread::spawn(move || loop {
            if let Err(e) = obs::registry().dump_to_path(&path) {
                eprintln!("rect-addr: metrics dump to {} failed: {e}", path.display());
            }
            std::thread::sleep(METRICS_DUMP_PERIOD);
        });
    }
    while !server.is_finished() {
        if serve::sys::stop_requested() {
            eprintln!("rect-addr: stop signal received; draining");
            server.shutdown();
            service.shutdown();
            return Ok(0);
        }
        std::thread::sleep(STOP_POLL_PERIOD);
    }
    server
        .join()
        .map_err(|e| format!("accept loop failed: {e}"))?;
    Ok(0)
}

/// `batch <file|->`: the job stream of a file, or of stdin.
fn cmd_batch(
    args: &[String],
    stdin: &mut (dyn BufRead + Send),
    out: &mut dyn Write,
) -> Result<u8, String> {
    let path = args
        .get(1)
        .ok_or("batch needs a JSON-lines job file (or '-')")?;
    if path == "-" {
        return run_service_batch(stdin, &args[2..], out);
    }
    let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    run_service_batch(&mut std::io::BufReader::new(file), &args[2..], out)
}

/// The value following `--listen`, when present.
fn listen_addr(rest: &[String]) -> Result<Option<&String>, String> {
    match rest.iter().position(|a| a == "--listen") {
        None => Ok(None),
        Some(i) => rest
            .get(i + 1)
            .map(Some)
            .ok_or_else(|| "--listen needs an address (host:port or socket path)".to_string()),
    }
}

/// `serve`: the socket server with `--listen`, else the job stream of
/// stdin. `--event-loop`, once the switch to the socket server's one
/// transport, is accepted and ignored like any unknown flag.
fn cmd_serve(
    args: &[String],
    stdin: &mut (dyn BufRead + Send),
    out: &mut dyn Write,
) -> Result<u8, String> {
    let rest = &args[1..];
    match listen_addr(rest)? {
        Some(addr) => run_serve_listen(addr, rest),
        None => run_service_batch(stdin, rest, out),
    }
}

/// `idle <addr> <count>`: holds `count` idle connections against a
/// server, reports `held N`, and keeps them open until stdin reaches EOF
/// — a remote-controlled connection ballast for the scaling smoke test
/// and bench.
fn cmd_idle(args: &[String], stdin: &mut dyn Read, out: &mut dyn Write) -> Result<u8, String> {
    let addr = args
        .get(1)
        .ok_or("idle needs a server address (host:port or socket path)")?;
    let count = args.get(2).ok_or("idle needs a connection count")?;
    let count: usize = count
        .parse()
        .map_err(|_| format!("idle: invalid connection count {count:?}"))?;
    if let Err(e) = serve::sys::raise_nofile_limit() {
        eprintln!("rect-addr: could not raise fd limit: {e}");
    }
    let addr = serve::BindAddr::parse(addr);
    let mut held = Vec::with_capacity(count);
    for i in 0..count {
        match serve::connect(&addr) {
            Ok(stream) => held.push(stream),
            Err(e) => return Err(format!("idle: connection {} of {count}: {e}", i + 1)),
        }
    }
    writeln!(out, "held {}", held.len()).map_err(|e| format!("idle: {e}"))?;
    out.flush().map_err(|e| format!("idle: {e}"))?;
    let _ = std::io::copy(stdin, &mut std::io::sink());
    Ok(0)
}

/// `client <addr>`: pumps stdin's job lines through a socket server,
/// responses streaming to `out` as they arrive.
fn cmd_client(
    args: &[String],
    stdin: &mut (dyn BufRead + Send),
    mut out: &mut dyn Write,
) -> Result<u8, String> {
    let addr = args
        .get(1)
        .ok_or("client needs a server address (host:port or socket path)")?;
    serve::pump(&serve::BindAddr::parse(addr), stdin, &mut out)
        .map_err(|e| format!("client: {e}"))?;
    Ok(0)
}

fn cmd_sat(args: &[String], stdin: &mut dyn Read) -> Result<String, String> {
    let path = args.get(1).ok_or("sat needs a DIMACS file")?;
    let text = read_input(path, stdin)?;
    let cnf = sat::parse_dimacs(&text).map_err(|e| e.to_string())?;
    let mut solver = cnf.into_solver();
    let mut s = String::new();
    match solver.solve() {
        sat::SolveResult::Sat => {
            let _ = writeln!(s, "s SATISFIABLE");
            let lits: Vec<String> = solver
                .model()
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    if v {
                        format!("{}", i + 1)
                    } else {
                        format!("-{}", i + 1)
                    }
                })
                .collect();
            let _ = writeln!(s, "v {} 0", lits.join(" "));
        }
        sat::SolveResult::Unsat => {
            let _ = writeln!(s, "s UNSATISFIABLE");
        }
        sat::SolveResult::Unknown => {
            let _ = writeln!(s, "s UNKNOWN");
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one [`run`] returned and wrote.
    struct Output {
        code: u8,
        stdout: String,
        stderr: String,
    }

    fn run_str(args: &[&str], stdin: &str) -> Output {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let (mut stdout, mut stderr) = (Vec::new(), Vec::new());
        let code = run(&args, &mut stdin.as_bytes(), &mut stdout, &mut stderr);
        Output {
            code,
            stdout: String::from_utf8(stdout).unwrap(),
            stderr: String::from_utf8(stderr).unwrap(),
        }
    }

    const FIG1B: &str = "101100\n010011\n101010\n010101\n111000\n000111\n";

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"], "");
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("USAGE"));
    }

    #[test]
    fn missing_subcommand_errors() {
        let out = run_str(&[], "");
        assert_eq!(out.code, 2);
        assert!(out.stderr.contains("missing subcommand"), "{}", out.stderr);
        assert!(out.stdout.is_empty(), "{}", out.stdout);
    }

    #[test]
    fn unknown_subcommand_errors() {
        let out = run_str(&["frobnicate"], "");
        assert_eq!(out.code, 2);
    }

    #[test]
    fn solve_fig1b_from_stdin() {
        let out = run_str(&["solve", "-"], FIG1B);
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert!(out.stdout.contains("depth 5 (optimal)"), "{}", out.stdout);
    }

    #[test]
    fn solve_writes_svg_when_requested() {
        let path = std::env::temp_dir().join("rect_addr_cli_out.svg");
        let path_str = path.to_str().unwrap();
        let out = run_str(&["solve", "-", "--svg", path_str], FIG1B);
        assert_eq!(out.code, 0, "{}", out.stderr);
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with("<svg"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pack_reports_depth_and_bound() {
        let out = run_str(&["pack", "-", "--trials", "50"], FIG1B);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("after 50 trials"), "{}", out.stdout);
    }

    #[test]
    fn rank_reports_all_bounds() {
        let out = run_str(&["rank", "-"], FIG1B);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("real rank        4"), "{}", out.stdout);
        assert!(
            out.stdout.contains("fooling set      5 (maximum)"),
            "{}",
            out.stdout
        );
        assert!(out.stdout.contains("binary rank  >=  5"), "{}", out.stdout);
    }

    #[test]
    fn cover_reports_boolean_rank() {
        let out = run_str(&["cover", "-"], "110\n011\n111\n");
        assert_eq!(out.code, 0);
        assert!(
            out.stdout.contains("Boolean rank (min rectangle cover) 2"),
            "{}",
            out.stdout
        );
    }

    #[test]
    fn schedule_lists_shots() {
        let out = run_str(&["schedule", "-"], FIG1B);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("5 shots"), "{}", out.stdout);
        assert!(out.stdout.contains("shot 4:"), "{}", out.stdout);
    }

    #[test]
    fn gen_rand_produces_parseable_matrix() {
        let out = run_str(&["gen", "rand", "6", "8", "50", "3"], "");
        assert_eq!(out.code, 0, "{}", out.stderr);
        let m: BitMatrix = out.stdout.trim().parse().unwrap();
        assert_eq!(m.shape(), (6, 8));
    }

    #[test]
    fn gen_opt_and_gap_validate_params() {
        assert_eq!(run_str(&["gen", "opt", "4", "4", "9", "1"], "").code, 2);
        assert_eq!(run_str(&["gen", "gap", "10", "10", "9", "1"], "").code, 2);
        assert_eq!(run_str(&["gen", "opt", "10", "10", "3", "1"], "").code, 0);
        assert_eq!(run_str(&["gen", "gap", "10", "10", "3", "1"], "").code, 0);
    }

    #[test]
    fn solve_certify_writes_a_checkable_certificate() {
        let prefix =
            std::env::temp_dir().join(format!("rect_addr_cli_cert_{}", std::process::id()));
        let prefix_str = prefix.to_str().unwrap();
        let out = run_str(&["solve", "-", "--certify", prefix_str], FIG1B);
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert!(
            out.stdout.contains("because depth 4 is UNSAT"),
            "{}",
            out.stdout
        );
        let cnf_path = format!("{prefix_str}.cnf");
        let drat_path = format!("{prefix_str}.drat");

        // The embedded checker verifies the exported pair from disk.
        let check = run_str(&["certcheck", &cnf_path, &drat_path], "");
        assert_eq!(check.code, 0, "{}", check.stderr);
        assert!(check.stdout.contains("s VERIFIED"), "{}", check.stdout);
        assert!(check.stdout.contains("trimmed core"), "{}", check.stdout);

        // Corrupting the trace flips the verdict: exit 1, precise error,
        // no usage noise.
        let drat = std::fs::read_to_string(&drat_path).unwrap();
        let truncated: String = drat
            .lines()
            .take(drat.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        let bad = run_str(&["certcheck", &cnf_path, "-"], &truncated);
        assert_eq!(bad.code, 1, "{}", bad.stdout);
        assert!(bad.stdout.contains("s NOT VERIFIED"), "{}", bad.stdout);
        assert!(!bad.stdout.contains("USAGE"), "{}", bad.stdout);
        assert!(bad.stderr.is_empty(), "{}", bad.stderr);

        let _ = std::fs::remove_file(&cnf_path);
        let _ = std::fs::remove_file(&drat_path);
    }

    #[test]
    fn solve_certify_is_honest_when_no_unsat_was_needed() {
        let prefix =
            std::env::temp_dir().join(format!("rect_addr_cli_nocert_{}", std::process::id()));
        let out = run_str(
            &["solve", "-", "--certify", prefix.to_str().unwrap()],
            "10\n01\n",
        );
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert!(out.stdout.contains("certificate: none"), "{}", out.stdout);
        assert!(!prefix.with_extension("cnf").exists());
    }

    #[test]
    fn certcheck_validates_arguments() {
        assert_eq!(run_str(&["certcheck"], "").code, 2);
        assert_eq!(run_str(&["certcheck", "-", "-"], "").code, 2);
        assert_eq!(run_str(&["solve", "-", "--certify"], FIG1B).code, 2);
    }

    #[test]
    fn sat_solves_stdin_dimacs() {
        let out = run_str(&["sat", "-"], "p cnf 2 2\n1 2 0\n-1 0\n");
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("s SATISFIABLE"));
        assert!(out.stdout.contains("v -1 2 0"), "{}", out.stdout);

        let unsat = run_str(&["sat", "-"], "p cnf 1 2\n1 0\n-1 0\n");
        assert!(unsat.stdout.contains("s UNSATISFIABLE"));
    }

    #[test]
    fn complete_uses_dont_cares() {
        // Write temp files (complete reads two paths, stdin can't serve both).
        let dir = std::env::temp_dir();
        let mpath = dir.join("rect_addr_cli_m.txt");
        let dcpath = dir.join("rect_addr_cli_dc.txt");
        std::fs::write(&mpath, "10\n01\n").unwrap();
        std::fs::write(&dcpath, "01\n10\n").unwrap();
        let out = run_str(
            &[
                "complete",
                mpath.to_str().unwrap(),
                dcpath.to_str().unwrap(),
            ],
            "",
        );
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert!(out.stdout.contains("depth 1"), "{}", out.stdout);
    }

    #[test]
    fn version_flag_reports_version() {
        for flag in ["--version", "-V"] {
            let out = run_str(&[flag], "");
            assert_eq!(out.code, 0);
            assert_eq!(
                out.stdout,
                format!("rect-addr {}\n", env!("CARGO_PKG_VERSION"))
            );
        }
    }

    #[test]
    fn batch_roundtrip_three_jobs() {
        let jobs = "\
{\"id\": \"a\", \"matrix\": [\"101100\", \"010011\", \"101010\", \"010101\", \"111000\", \"000111\"]}\n\
{\"id\": \"b\", \"matrix\": \"10;01\"}\n\
{\"id\": \"c\", \"matrix\": [\"11\", \"11\"]}\n";
        let out = run_str(&["batch", "-", "--workers", "2"], jobs);
        assert_eq!(out.code, 0, "{}", out.stderr);
        let lines: Vec<&str> = out.stdout.lines().collect();
        assert_eq!(lines.len(), 4, "3 responses + summary:\n{}", out.stdout);
        assert!(lines[3].contains("\"summary\": true"));
        assert!(lines[3].contains("\"solved\": 3"));

        let mut seen = std::collections::BTreeMap::new();
        for line in &lines[..3] {
            let resp = ::proto::JobResponse::parse_line(line).unwrap();
            assert!(resp.ok, "{line}");
            seen.insert(resp.id.clone(), resp);
        }
        assert_eq!(seen["a"].depth, 5);
        assert!(seen["a"].proved_optimal);
        assert_eq!(seen["b"].depth, 2);
        assert_eq!(seen["c"].depth, 1);
        // Round-trip the partition and validate it against the matrix.
        let fig1b: BitMatrix = FIG1B.parse().unwrap();
        assert!(seen["a"].to_partition(6, 6).validate(&fig1b).is_ok());
    }

    #[test]
    fn serve_processes_stdin_jobs() {
        let jobs = "{\"id\": \"x\", \"matrix\": \"1\"}\n";
        let out = run_str(&["serve"], jobs);
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert!(out.stdout.contains("\"id\": \"x\""));
        assert!(out.stdout.contains("\"solved\": 1"));
    }

    #[test]
    fn batch_engine_flags_configure_the_engine() {
        let args: Vec<String> = [
            "--workers",
            "3",
            "--shards",
            "4",
            "--warm-sessions",
            "0",
            "--no-adaptive",
            "--no-sat",
            "--canon-budget",
            "17",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = engine_config(&args).unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.warm_sessions, 0);
        assert!(!cfg.portfolio.sap);
        assert_eq!(cfg.canon.max_branches, 17);
        // Defaults untouched when flags are absent.
        let dflt = engine_config(&[]).unwrap();
        assert_eq!(dflt, EngineConfig::default());
        // Flags of older releases are ignored, not errors.
        for old in [&["--no-adaptive"][..], &["--shards", "4"]] {
            let old: Vec<String> = old.iter().map(|s| s.to_string()).collect();
            assert_eq!(engine_config(&old).unwrap(), EngineConfig::default());
        }
        assert_eq!(dflt.canon.max_branches, ::engine::DEFAULT_CANON_BUDGET);
    }

    #[test]
    fn batch_summary_reports_engine_counters() {
        let jobs =
            "{\"id\": \"x\", \"matrix\": \"10;01\"}\n{\"id\": \"y\", \"matrix\": \"01;10\"}\n";
        let out = run_str(&["batch", "-", "--workers", "1"], jobs);
        assert_eq!(out.code, 0, "{}", out.stderr);
        let summary = out.stdout.lines().last().unwrap();
        for field in [
            "\"cache_evictions\":",
            "\"flight_waits\":",
            "\"warm_sessions\":",
            "\"cache_hits\": 1",
            "\"canon_complete\": 2",
            "\"canon_heuristic\": 0",
        ] {
            assert!(summary.contains(field), "missing {field} in {summary}");
        }
    }

    #[test]
    fn batch_reports_bad_flag_values() {
        let out = run_str(&["batch", "-", "--workers", "lots"], "");
        assert_eq!(out.code, 2);
        assert!(out.stderr.contains("--workers"), "{}", out.stderr);
    }

    #[test]
    fn serve_listen_is_streaming_only_in_collect_mode() {
        // A dangling --listen reports its own usage error.
        let out = run_str(&["serve", "--listen"], "");
        assert_eq!(out.code, 2);
        assert!(out.stderr.contains("--listen needs"), "{}", out.stderr);
    }

    #[test]
    fn client_requires_an_address() {
        let out = run_str(&["client"], "");
        assert_eq!(out.code, 2);
        assert!(out.stderr.contains("client needs"), "{}", out.stderr);
    }

    #[test]
    fn idle_argument_errors_and_streaming_only() {
        let out = run_str(&["idle"], "");
        assert_eq!(out.code, 2);
        assert!(out.stderr.contains("idle needs a server"), "{}", out.stderr);

        let out = run_str(&["idle", "127.0.0.1:9"], "");
        assert_eq!(out.code, 2);
        assert!(
            out.stderr.contains("idle needs a connection count"),
            "{}",
            out.stderr
        );

        let out = run_str(&["idle", "127.0.0.1:9", "many"], "");
        assert_eq!(out.code, 2);
        assert!(
            out.stderr.contains("invalid connection count"),
            "{}",
            out.stderr
        );

        // Well formed: the connections are held until stdin's EOF, which
        // an empty stdin gives at once.
        let service = std::sync::Arc::new(Service::with_engine_config(
            EngineConfig::default(),
            ServiceConfig::default(),
        ));
        let mut server =
            serve::serve_socket_event(service, &serve::BindAddr::parse("127.0.0.1:0")).unwrap();
        let addr = server.local_addr().to_string();
        let out = run_str(&["idle", &addr, "4"], "");
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert_eq!(out.stdout, "held 4\n");
        server.shutdown();
    }

    #[test]
    fn client_pumps_jobs_through_a_socket_server() {
        let service = std::sync::Arc::new(Service::with_engine_config(
            EngineConfig::default(),
            ServiceConfig::default(),
        ));
        let mut server =
            serve::serve_socket_event(service, &serve::BindAddr::parse("127.0.0.1:0")).unwrap();
        let addr = server.local_addr().to_string();

        let jobs =
            "{\"id\": \"x\", \"matrix\": \"10;01\"}\n{\"id\": \"y\", \"matrix\": \"01;10\"}\n";
        let out = run_str(&["client", &addr], jobs);
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert!(out.stdout.contains("\"id\": \"x\""), "{}", out.stdout);
        assert!(out.stdout.contains("\"id\": \"y\""), "{}", out.stdout);
        let last = out.stdout.lines().last().unwrap();
        assert!(last.starts_with("{\"summary\": true"), "{}", out.stdout);
        assert!(last.contains("\"solved\": 2"), "{}", out.stdout);
        server.shutdown();
    }

    #[test]
    fn traffic_emits_a_reproducible_job_stream() {
        let out = run_str(&["traffic", "zipf", "--seed", "3", "--count", "10"], "");
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert_eq!(out.stdout.lines().count(), 10);
        for line in out.stdout.lines() {
            let req = ::proto::JobRequest::parse_line(line, 0).unwrap();
            assert!(req.id.starts_with("zipf-"), "{}", req.id);
        }
        // Same flags, same bytes.
        let again = run_str(&["traffic", "zipf", "--seed", "3", "--count", "10"], "");
        assert_eq!(out.stdout, again.stdout);
        // A different seed diverges.
        let other = run_str(&["traffic", "zipf", "--seed", "4", "--count", "10"], "");
        assert_ne!(out.stdout, other.stdout);

        assert_eq!(run_str(&["traffic"], "").code, 2);
        assert_eq!(run_str(&["traffic", "nope"], "").code, 2);
    }

    #[test]
    fn traffic_pipes_into_batch() {
        let jobs = run_str(&["traffic", "layered", "--count", "8"], "");
        assert_eq!(jobs.code, 0, "{}", jobs.stderr);
        let out = run_str(&["batch", "-", "--workers", "2"], &jobs.stdout);
        assert_eq!(out.code, 0, "{}", out.stderr);
        let summary = out.stdout.lines().last().unwrap();
        assert!(summary.contains("\"solved\": 8"), "{summary}");
    }

    #[test]
    fn schedule_connect_submits_one_v2_schedule_frame() {
        let service = std::sync::Arc::new(Service::with_engine_config(
            EngineConfig::default(),
            ServiceConfig::default(),
        ));
        let mut server =
            serve::serve_socket_event(service, &serve::BindAddr::parse("127.0.0.1:0")).unwrap();
        let addr = server.local_addr().to_string();

        let out = run_str(&["schedule", "-", "--connect", &addr], FIG1B);
        assert_eq!(out.code, 0, "{}", out.stderr);
        assert!(out.stdout.contains("5 layers sent"), "{}", out.stdout);
        assert!(out.stdout.contains("cli/L4: depth 1"), "{}", out.stdout);
        assert!(
            out.stdout
                .contains("schedule solved 5/5 layers; total depth 5 (matches the local compile)"),
            "{}",
            out.stdout
        );
        server.shutdown();

        // Flag validation.
        let bad = run_str(&["schedule", "-", "--connect"], FIG1B);
        assert_eq!(bad.code, 2);
        assert!(bad.stderr.contains("--connect needs"), "{}", bad.stderr);
    }

    #[test]
    fn queue_depth_flag_bounds_the_service() {
        let args: Vec<String> = ["--queue-depth", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let service = build_service(&args).unwrap();
        assert_eq!(service.queue_depth(), 7);
        let dflt = build_service(&[]).unwrap();
        assert_eq!(dflt.queue_depth(), serve::DEFAULT_QUEUE_DEPTH);
        assert!(build_service(&["--queue-depth".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn state_dir_flag_enables_persistence() {
        let dir = std::env::temp_dir().join(format!("rect-addr-cli-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args: Vec<String> = [
            "--state-dir",
            dir.to_str().unwrap(),
            "--snapshot-every",
            "5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let service = build_service(&args).unwrap();
        // Run one SAT-needing job (Fig. 1b: floor 4, depth 5) and drain:
        // the shutdown snapshot must land in the state dir.
        let resp = service
            .submit(::proto::JobRequest::new(
                "p",
                FIG1B.trim_end().parse().unwrap(),
            ))
            .unwrap()
            .wait();
        assert!(resp.ok);
        service.shutdown();
        assert!(
            dir.join("engine.snapshot").exists(),
            "drain must write the snapshot"
        );
        // A rebuilt service warm-starts from it.
        let service = build_service(&args).unwrap();
        assert!(service.stats().persisted_sessions >= 1);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);

        // Flag validation.
        assert!(build_service(&["--state-dir".to_string()]).is_err());
        assert!(
            build_service(&["--snapshot-every".to_string(), "5".to_string()]).is_err(),
            "--snapshot-every without --state-dir is an error"
        );
        // No persistence flags: no persistence (and no directory created).
        let plain = build_service(&[]).unwrap();
        assert_eq!(plain.stats().persisted_sessions, 0);
    }

    #[test]
    fn metrics_dump_flag_writes_a_snapshot_on_drain() {
        let path =
            std::env::temp_dir().join(format!("rect-addr-cli-metrics-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let jobs = "{\"id\": \"m\", \"matrix\": \"10;01\"}\n";
        let out = run_str(
            &["batch", "-", "--metrics-dump", path.to_str().unwrap()],
            jobs,
        );
        assert_eq!(out.code, 0, "{}", out.stderr);
        let dump = std::fs::read_to_string(&path).expect("metrics file written on drain");
        // The export carries both sections; the completed job is visible
        // in the end-to-end histogram (counters are process-global, so
        // only presence — not exact values — is asserted here).
        assert!(dump.contains("\"counters\""), "{dump}");
        assert!(dump.contains("\"jobs_completed\""), "{dump}");
        assert!(dump.contains("\"job_us\""), "{dump}");
        assert!(dump.contains("\"p99\""), "{dump}");
        let _ = std::fs::remove_file(&path);

        // Flag validation mirrors --state-dir.
        assert!(metrics_dump_path(&["--metrics-dump".to_string()]).is_err());
        assert!(
            metrics_dump_path(&["--metrics-dump".to_string(), "--workers".to_string()]).is_err()
        );
        assert_eq!(metrics_dump_path(&[]).unwrap(), None);
    }

    #[test]
    fn bad_matrix_reports_parse_error() {
        let out = run_str(&["solve", "-"], "10\n2\n");
        assert_eq!(out.code, 2);
        assert!(out.stderr.contains("error"), "{}", out.stderr);
    }

    #[test]
    fn missing_file_reports_io_error() {
        let out = run_str(&["solve", "/nonexistent/xyz.txt"], "");
        assert_eq!(out.code, 2);
    }
}
