//! Protocol-v1 connection semantics over in-memory streams: the legacy
//! `run_batch` contract (every job answered, errors carried, truncated
//! and unreadable input handled, flush per response), the README's exact
//! v1 lines as a back-compat regression, and the graceful-drain ordering
//! guarantee (every in-flight response precedes the summary trailer).

mod common;

use std::io::Write;

use common::{distinct_job, gated_engine, Gate};
use engine::protocol::{JobResponse, SummaryFrame};
use engine::EngineConfig;
use proto::WireVersion;
use rect_addr_serve::{serve_connection, Service, ServiceConfig};

fn service() -> Service {
    Service::with_engine_config(
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
    )
}

#[test]
fn answers_every_job_and_reports_errors() {
    let service = service();
    let input = "\
{\"id\": \"a\", \"matrix\": [\"10\", \"01\"]}\n\
\n\
{\"id\": \"bad\", \"matrix\": [\"10\", \"0\"]}\n\
{\"id\": \"b\", \"matrix\": \"11;11\"}\n";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.solved, 2);
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.version, WireVersion::V1);

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "3 responses + summary:\n{text}");
    let responses: Vec<JobResponse> = lines[..3]
        .iter()
        .map(|l| JobResponse::parse_line(l).unwrap())
        .collect();
    let by_id = |id: &str| responses.iter().find(|r| r.id == id).unwrap();
    assert!(by_id("a").ok && by_id("a").depth == 2);
    assert!(by_id("b").ok && by_id("b").depth == 1);
    assert!(!by_id("bad").ok);
    assert!(by_id("bad")
        .error_message()
        .unwrap()
        .contains("invalid matrix"));
    let trailer = SummaryFrame::parse_line(lines[3]).unwrap();
    assert_eq!((trailer.solved, trailer.failed), (2, 1));
}

#[test]
fn survives_truncated_final_line() {
    // EOF mid-line: the partial JSON is reported as a protocol error,
    // earlier jobs still solve, and the stream ends cleanly.
    let service = service();
    let input = "{\"id\": \"whole\", \"matrix\": \"1\"}\n{\"id\": \"cut\", \"mat";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.solved, 1);
    assert_eq!(summary.failed, 1);
    let text = String::from_utf8(out).unwrap();
    let failed = text
        .lines()
        .take(2)
        .map(|l| JobResponse::parse_line(l).unwrap())
        .find(|r| !r.ok)
        .expect("truncated line must answer");
    assert_eq!(failed.id, "job-2");
}

#[test]
fn reports_unreadable_input_as_protocol_error() {
    // Invalid UTF-8 on the job stream: one error response, clean end, no
    // Err bubbling up to tear down the connection.
    let service = service();
    let input: &[u8] = b"{\"id\": \"ok\", \"matrix\": \"1\"}\n\xff\xfe garbage\n";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input, &mut out).unwrap();
    assert_eq!(summary.solved, 1);
    assert_eq!(summary.failed, 1);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("input read error"), "{text}");
}

#[test]
fn flushes_after_every_response() {
    /// Write sink counting flushes.
    struct CountingSink {
        bytes: Vec<u8>,
        flushes: usize,
    }
    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }
    let service = service();
    let input = "{\"id\": \"a\", \"matrix\": \"1\"}\n{\"id\": \"b\", \"matrix\": \"10;01\"}\n";
    let mut sink = CountingSink {
        bytes: Vec::new(),
        flushes: 0,
    };
    let summary = serve_connection(&service, input.as_bytes(), &mut sink).unwrap();
    assert_eq!(summary.solved, 2);
    assert!(
        sink.flushes >= 3,
        "every response plus the summary must flush, saw {} flushes",
        sink.flushes
    );
}

/// The exact quickstart lines from README.md must work unchanged through
/// the Service stack and be answered in v1 shape — the wire-level
/// back-compat criterion of the protocol split.
#[test]
fn readme_v1_lines_regression() {
    // One worker: l0 completes before l1 starts, so l1 is deterministically
    // the cache hit (with more workers, l1 may *lead* the single flight).
    let service = Service::with_engine_config(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
    );
    let input = "{\"id\": \"l0\", \"matrix\": [\"101\", \"010\"], \"budget_ms\": 500}\n\
                 {\"id\": \"l1\", \"matrix\": \"010;101\"}\n";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.solved, 2);
    assert_eq!(summary.failed, 0);

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");

    for line in &lines[..2] {
        let resp = JobResponse::parse_line(line).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.depth, 2);
        assert!(resp.proved_optimal);
        // v1 field set, verbatim key spelling.
        for field in [
            "\"ok\": true",
            "\"depth\": 2",
            "\"proved_optimal\": true",
            "\"provenance\": ",
            "\"cache_hit\": ",
            "\"millis\": ",
            "\"conflicts\": ",
            "\"partition\": [",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }
    // l1 is l0 with rows swapped: the shared cache answers it.
    let l1 = lines[..2]
        .iter()
        .map(|l| JobResponse::parse_line(l).unwrap())
        .find(|r| r.id == "l1")
        .unwrap();
    assert!(l1.cache_hit);
    assert_eq!(l1.provenance, "cache");

    // The trailer is the v1 shape: no v2-only keys.
    let trailer = lines[2];
    assert!(trailer.starts_with("{\"summary\": true, \"solved\": 2, \"failed\": 0"));
    for v2_only in ["\"protocol\"", "\"canceled\"", "\"busy\""] {
        assert!(!trailer.contains(v2_only), "v2 key {v2_only} in {trailer}");
    }
    for field in [
        "\"cache_hits\": 1",
        "\"cache_entries\": 1",
        "\"cache_evictions\": 0",
        "\"flight_waits\": ",
        "\"warm_sessions\": ",
        "\"canon_complete\": 2",
        "\"canon_heuristic\": 0",
    ] {
        assert!(trailer.contains(field), "missing {field} in {trailer}");
    }
}

/// A malformed handshake attempt (a first line with a `hello` key that
/// does not parse) answers its protocol error instead of being misread
/// as a v1 job, and the connection stays v1.
#[test]
fn malformed_hello_reports_a_protocol_error() {
    let service = service();
    let input = "{\"hello\": \"two\"}\n{\"id\": \"j\", \"matrix\": \"1\"}\n";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.solved, 1);
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.version, WireVersion::V1, "failed hello stays v1");

    let text = String::from_utf8(out).unwrap();
    let bad = text
        .lines()
        .filter_map(|l| JobResponse::parse_line(l).ok())
        .find(|r| !r.ok)
        .expect("protocol error response");
    assert!(
        bad.error_message().unwrap().contains("hello"),
        "the hello-specific error, not a generic matrix error: {:?}",
        bad.error
    );
}

/// A legacy first job line that happens to carry a `hello` field is a
/// job (unknown fields were always ignored), not a hijacked handshake.
#[test]
fn first_job_line_with_stray_hello_field_stays_a_v1_job() {
    let service = service();
    let input = "{\"id\": \"x\", \"matrix\": \"1\", \"hello\": 5, \"priority\": true}\n";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.solved, 1, "{}", String::from_utf8(out).unwrap());
    assert_eq!(summary.version, WireVersion::V1);
}

/// On a handshaked v2 connection, a job line carrying a stray
/// control-marker-named field (`stats`, `cancel`) is still a job — it
/// must be solved, not silently consumed as a control frame.
#[test]
fn v2_job_lines_with_stray_marker_fields_stay_jobs() {
    let service = service();
    let input = "{\"hello\": 2}\n\
                 {\"id\": \"s\", \"matrix\": \"10;01\", \"stats\": true}\n\
                 {\"id\": \"c\", \"matrix\": \"1\", \"cancel\": \"s\"}\n";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(summary.version, WireVersion::V2);
    assert_eq!(summary.solved, 2, "both jobs must run:\n{text}");
    assert_eq!(summary.canceled, 0);
    let ids: Vec<String> = text
        .lines()
        .filter_map(|l| JobResponse::parse_line(l).ok())
        .filter(|r| r.ok)
        .map(|r| r.id)
        .collect();
    assert!(ids.contains(&"s".to_string()) && ids.contains(&"c".to_string()));
    // No stats frame or cancel ack was emitted for those lines.
    assert!(!text.contains("\"stats\": true"), "{text}");
    assert!(!text.contains("\"done\":"), "{text}");
}

/// A v2 connection that opts into `timing` at handshake gets a stage
/// trace on every response; the trace is internally consistent (each
/// stage bounded by the total) and round-trips through the parser.
#[test]
fn timing_opt_in_puts_stage_traces_on_v2_responses() {
    let service = service();
    let input = "{\"hello\": 2, \"timing\": true}\n\
                 {\"id\": \"t0\", \"matrix\": \"10;01\"}\n\
                 {\"id\": \"t1\", \"matrix\": \"01;10\"}\n";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.version, WireVersion::V2);
    assert_eq!(summary.solved, 2);

    let text = String::from_utf8(out).unwrap();
    assert!(
        text.contains("\"timing\": true"),
        "hello ack must advertise the capability:\n{text}"
    );
    let responses: Vec<JobResponse> = text
        .lines()
        .filter_map(|l| JobResponse::parse_line(l).ok())
        .filter(|r| r.ok)
        .collect();
    assert_eq!(responses.len(), 2, "{text}");
    for resp in &responses {
        let timing = resp
            .timing
            .unwrap_or_else(|| panic!("opted-in response must carry timing: {}", resp.id));
        for stage in [
            timing.queue_us,
            timing.canon_us,
            timing.cache_us,
            timing.race_us,
        ] {
            assert!(
                stage <= timing.total_us,
                "stage {stage} exceeds total {} for {}",
                timing.total_us,
                resp.id
            );
        }
    }
}

/// Without the handshake flag, v2 responses stay timing-free — the trace
/// exists server-side but never reaches the wire uninvited. Same for v1,
/// whose byte shape is frozen.
#[test]
fn timing_stays_off_the_wire_unless_opted_in() {
    for input in [
        "{\"hello\": 2}\n{\"id\": \"q\", \"matrix\": \"1\"}\n", // v2, no flag
        "{\"id\": \"q\", \"matrix\": \"1\"}\n",                 // v1
    ] {
        let service = service();
        let mut out = Vec::new();
        let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.solved, 1);
        let text = String::from_utf8(out).unwrap();
        for line in text.lines().filter(|l| l.contains("\"id\": \"q\"")) {
            assert!(!line.contains("\"timing\""), "uninvited timing in {line}");
        }
    }
}

/// A v2 connection that opts into `certificate` at handshake gets the
/// self-contained (DIMACS, DRAT) refutation on certified UNSAT-proved
/// answers, and the standalone checker accepts it straight off the wire.
#[test]
fn certificate_opt_in_puts_proofs_on_v2_responses() {
    let service = service();
    // Fig. 1b: depth 5 over a rank floor of 4, so optimality rests on an
    // UNSAT answer — the one case a certificate exists for.
    let input = "{\"hello\": 2, \"certificate\": true}\n\
                 {\"id\": \"c0\", \"matrix\": \"101100;010011;101010;010101;111000;000111\", \
                  \"certify\": true}\n";
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.version, WireVersion::V2);
    assert_eq!(summary.solved, 1);

    let text = String::from_utf8(out).unwrap();
    assert!(
        text.contains("\"certificate\": true"),
        "hello ack must advertise the capability:\n{text}"
    );
    let resp = text
        .lines()
        .filter_map(|l| JobResponse::parse_line(l).ok())
        .find(|r| r.ok)
        .unwrap_or_else(|| panic!("solved response expected:\n{text}"));
    assert!(resp.proved_optimal && resp.depth == 5);
    let cert = resp
        .certificate
        .unwrap_or_else(|| panic!("opted-in certify response must carry a certificate:\n{text}"));
    assert_eq!(cert.bound + 1, resp.depth, "refutes the bound below");
    certcheck::check_certificate(&cert.cnf, &cert.drat)
        .expect("wire-delivered certificate must pass the standalone checker");
}

/// Without the handshake flag the proof never reaches the wire — and the
/// `certify` request flag is dropped at the reader so the solver does not
/// pay for proof logging nobody can receive. v1 is frozen and never
/// carries it either.
#[test]
fn certificates_stay_off_the_wire_unless_opted_in() {
    for input in [
        // v2 without the flag.
        "{\"hello\": 2}\n{\"id\": \"q\", \"matrix\": \
         \"101100;010011;101010;010101;111000;000111\", \"certify\": true}\n",
        // v1: certify is not even a v1 request field.
        "{\"id\": \"q\", \"matrix\": \"101100;010011;101010;010101;111000;000111\", \
         \"certify\": true}\n",
    ] {
        let service = service();
        let mut out = Vec::new();
        let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.solved, 1);
        let text = String::from_utf8(out).unwrap();
        for line in text.lines().filter(|l| l.contains("\"id\": \"q\"")) {
            assert!(
                !line.contains("\"certificate\""),
                "uninvited certificate in {line}"
            );
        }
    }
}

/// An oversized line (no newline in sight) answers one protocol error
/// and closes the connection — with the summary trailer still emitted —
/// instead of buffering the line without bound.
#[test]
fn oversized_lines_answer_protocol_error_and_close() {
    let service = service();
    let mut input = Vec::from(&b"{\"id\": \"ok\", \"matrix\": \"1\"}\n"[..]);
    input.extend(std::iter::repeat_n(b'x', proto::MAX_LINE_BYTES + 1));
    let mut out = Vec::new();
    let summary = serve_connection(&service, &input[..], &mut out).unwrap();
    assert_eq!(summary.solved, 1);
    assert_eq!(summary.failed, 1);
    let text = String::from_utf8(out).unwrap();
    let failed = text
        .lines()
        .filter_map(|l| JobResponse::parse_line(l).ok())
        .find(|r| !r.ok)
        .expect("oversized line must answer");
    assert_eq!(failed.id, "job-2");
    assert!(
        failed.error_message().unwrap().contains("exceeds"),
        "{:?}",
        failed.error
    );
    assert!(
        SummaryFrame::is_summary_line(text.lines().last().unwrap()),
        "trailer still closes the stream:\n{text}"
    );
}

/// A deeply nested JSON bomb (one line of repeated `[`/`{`) is a parse
/// error response, not a parser stack overflow that aborts the process;
/// the connection keeps serving afterwards.
#[test]
fn nesting_bomb_is_a_parse_error_not_a_crash() {
    let service = service();
    let bomb = "[".repeat(100_000);
    let input = format!("{bomb}\n{{\"id\": \"after\", \"matrix\": \"1\"}}\n");
    let mut out = Vec::new();
    let summary = serve_connection(&service, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.solved, 1);
    assert_eq!(summary.failed, 1);
    let text = String::from_utf8(out).unwrap();
    let after = text
        .lines()
        .filter_map(|l| JobResponse::parse_line(l).ok())
        .find(|r| r.id == "after")
        .expect("connection must keep serving after the bomb");
    assert!(after.ok);
}

/// The lowest expressible priority must sort last, not panic or jump the
/// queue (i64::MIN negation saturates).
#[test]
fn extreme_priorities_are_ordered_not_overflowed() {
    use engine::protocol::JobRequest;
    let gate = Gate::new();
    let engine = gated_engine(&gate, 1);
    let service = Service::new(
        engine,
        rect_addr_serve::ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let sink = std::sync::Arc::new(tx);
    service
        .submit_sink(distinct_job("running", 0), sink.clone(), 0, false)
        .unwrap();
    gate.wait_started(1);
    let lowest = JobRequest::new("lowest", common::distinct_matrix(1)).with_priority(i64::MIN);
    service.submit_sink(lowest, sink.clone(), 0, false).unwrap();
    service
        .submit_sink(distinct_job("normal", 2), sink.clone(), 0, false)
        .unwrap();
    drop(sink);
    gate.open();
    let order: Vec<String> = rx
        .iter()
        .map(|event| match event {
            rect_addr_serve::OutEvent::Response(resp) => resp.id,
            rect_addr_serve::OutEvent::Control(line) => panic!("unexpected control {line}"),
        })
        .collect();
    assert_eq!(order, ["running", "normal", "lowest"]);
}

/// Graceful drain: end-of-input with jobs still queued/running must
/// answer every one of them *before* the summary trailer — never drop
/// the trailer, never emit it early.
#[test]
fn drains_in_flight_jobs_before_the_summary() {
    let gate = Gate::new();
    let engine = gated_engine(&gate, 2);
    let service = std::sync::Arc::new(Service::new(
        engine,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));

    let mut input = String::new();
    for i in 0..5 {
        input.push_str(&distinct_job(&format!("d{i}"), i).to_json_line());
        input.push('\n');
    }

    let conn_service = service.clone();
    let conn = std::thread::spawn(move || {
        let mut out = Vec::new();
        let summary = serve_connection(&conn_service, input.as_bytes(), &mut out).unwrap();
        (summary, String::from_utf8(out).unwrap())
    });

    // Both workers are now holding the gate (EOF on input was reached
    // immediately — the remaining jobs sit in the queue), yet nothing has
    // been answered.
    gate.wait_started(2);
    gate.open();

    let (summary, text) = conn.join().unwrap();
    assert_eq!(summary.solved, 5, "{text}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "5 responses + summary:\n{text}");
    for line in &lines[..5] {
        assert!(
            JobResponse::parse_line(line).unwrap().ok,
            "response expected before the trailer: {line}"
        );
    }
    assert!(
        SummaryFrame::is_summary_line(lines[5]),
        "summary must be the final line: {}",
        lines[5]
    );
}
