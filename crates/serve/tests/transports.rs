//! Transport differential: the blocking transport (`serve_connection` over
//! in-memory buffers) and the socket transport (`serve_socket_event` over a
//! Unix socket) drive the same protocol session, so one seeded byte stream
//! must come back from either as the same multiset of lines.

use std::io::{Read, Write};
use std::sync::Arc;

use bitmatrix::BitMatrix;
use engine::EngineConfig;
use proto::{JobRequest, ScheduleRequest};
use rect_addr_serve::{
    connect, serve_connection, serve_socket_event, BindAddr, Service, ServiceConfig,
};
use traffic::Workload;

/// Zipf jobs with the awkward lines mixed in: a malformed line, a blank
/// line, a CRLF line, a cancel of an unknown id, a 3-layer schedule, and a
/// final line without a newline. The schedule's 8×8 stripes share no
/// canonical class with the 6×6 jobs, so where its later layers fall
/// among the jobs cannot change any answer. No stats
/// frame: its queue length and connection count are the moment's, and the
/// blocking transport counts no connection by design.
fn stream(v2: bool) -> Vec<u8> {
    let mut text = String::new();
    if v2 {
        text.push_str("{\"hello\": 2}\n");
    }
    let stripe = |k: usize| BitMatrix::from_fn(8, 8, move |r, _| r % 2 == k % 2);
    let jobs = Workload::zipf(0x7A5C, (6, 6), 6, 1.1).take(24);
    for (k, spec) in jobs.enumerate() {
        let line = JobRequest::new(format!("z{k}"), spec.matrix).to_json_line();
        match k {
            3 => text.push_str("{\"id\": \"broken\", \"matrix\": [\"10\"\n"),
            6 => text.push('\n'),
            9 => text.push_str("{\"cancel\": \"nobody\"}\n"),
            12 => {
                let req = ScheduleRequest::new("circ", (0..3).map(stripe).collect());
                text.push_str(&req.to_json_line());
                text.push('\n');
            }
            _ => {}
        }
        text.push_str(&line);
        text.push_str(match k {
            15 => "\r\n",
            23 => "",
            _ => "\n",
        });
    }
    text.into_bytes()
}

fn service() -> Arc<Service> {
    Arc::new(Service::with_engine_config(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
    ))
}

/// Sorted lines with every wall-clock `millis` value dropped.
fn normalized(output: &str) -> Vec<String> {
    let mut lines: Vec<String> = output
        .lines()
        .map(|line| {
            let mut kept = String::new();
            let mut rest = line;
            while let Some(at) = rest.find("\"millis\": ") {
                kept.push_str(&rest[..at]);
                rest = rest[at + "\"millis\": ".len()..]
                    .trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
            }
            kept.push_str(rest);
            kept
        })
        .collect();
    lines.sort();
    lines
}

fn through_connection(bytes: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    serve_connection(&service(), bytes, &mut out).unwrap();
    normalized(&String::from_utf8(out).unwrap())
}

fn through_socket(bytes: &[u8], tag: &str) -> Vec<String> {
    let path = std::env::temp_dir().join(format!(
        "rect-addr-transports-{}-{tag}.sock",
        std::process::id()
    ));
    let mut server = serve_socket_event(service(), &BindAddr::Unix(path)).unwrap();
    let mut stream = connect(server.local_addr()).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown_write().unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    server.shutdown();
    normalized(&out)
}

#[test]
fn both_transports_answer_one_stream_alike() {
    for (v2, tag) in [(false, "v1"), (true, "v2")] {
        let bytes = stream(v2);
        let blocking = through_connection(&bytes);
        let socket = through_socket(&bytes, tag);
        // 24 jobs, the malformed line, the cancel and the schedule frame
        // each answer once (v1 reads the two control frames as bad jobs),
        // v2 adds the hello ack and the schedule's 3 layers, and the
        // trailer closes both.
        let expected = if v2 { 24 + 3 + 1 + 3 + 1 } else { 24 + 3 + 1 };
        assert_eq!(blocking.len(), expected, "{tag}: {blocking:#?}");
        assert_eq!(blocking, socket, "{tag}: the transports disagree");
    }
}
