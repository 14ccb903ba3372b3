//! The socket transport, end to end over real sockets: the v2 protocol
//! (handshake → capabilities, priority, cancel round-trip, busy
//! backpressure, stats frame, versioned summary) on TCP; N concurrent
//! clients multiplexed onto one shared engine with exactly-shared cache
//! stats; and a Unix-domain pump smoke.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::{distinct_job, gated_engine, Gate};
use engine::EngineConfig;
use proto::{CancelAck, ErrorKind, HelloAck, JobRequest, JobResponse, StatsFrame, SummaryFrame};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rect_addr_serve::{pump, serve_socket_event, BindAddr, LineClient, Service, ServiceConfig};

#[test]
fn bind_addr_classification() {
    assert_eq!(
        BindAddr::parse("/tmp/x.sock"),
        BindAddr::Unix("/tmp/x.sock".into())
    );
    assert_eq!(
        BindAddr::parse("rect.sock"),
        BindAddr::Unix("rect.sock".into())
    );
    assert_eq!(
        BindAddr::parse("unix:relative-path"),
        BindAddr::Unix("relative-path".into())
    );
    assert_eq!(
        BindAddr::parse("127.0.0.1:7070"),
        BindAddr::Tcp("127.0.0.1:7070".to_string())
    );
    assert_eq!(
        BindAddr::parse("tcp:localhost:0"),
        BindAddr::Tcp("localhost:0".to_string())
    );
    assert_eq!(
        BindAddr::parse("/tmp/x.sock").to_string(),
        "unix:/tmp/x.sock"
    );
}

/// The full v2 session over a real TCP socket: handshake unlocks
/// capabilities, priority and deadline fields, cancel frames, busy
/// responses at the queue bound, the stats frame, and a v2 summary.
#[test]
fn v2_session_over_tcp() {
    let gate = Gate::new();
    let service = Arc::new(Service::new(
        gated_engine(&gate, 1),
        ServiceConfig {
            queue_depth: 2,
            persist: None,
        },
    ));
    let mut server = serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).unwrap();

    let mut client = LineClient::connect(server.local_addr()).unwrap();
    let ack: HelloAck = client.handshake().unwrap();
    assert_eq!(ack.protocol, 2);
    assert!(ack.server.starts_with("rect-addr/"), "{}", ack.server);
    assert_eq!(ack.capabilities.queue_depth, 2);
    assert_eq!(ack.capabilities.workers, 1);

    // Occupy the worker, then fill the queue of 2.
    client.send_job(&distinct_job("running", 0)).unwrap();
    gate.wait_started(1);
    client
        .send_job(&distinct_job("low", 1).with_priority(-1))
        .unwrap();
    client
        .send_job(&distinct_job("high", 2).with_priority(9))
        .unwrap();

    // Queue full → the next job bounces with a busy error, v2-shaped.
    client.send_job(&distinct_job("bounced", 3)).unwrap();
    let busy = JobResponse::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert_eq!(busy.id, "bounced");
    assert_eq!(busy.error_kind(), Some(ErrorKind::Busy));

    // Cancel the queued low-priority job: its canceled response is
    // delivered first, then the ack (see `CancelAck` docs).
    client.send_line("{\"cancel\": \"low\"}").unwrap();
    let canceled = JobResponse::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert_eq!(canceled.id, "low");
    assert_eq!(canceled.error_kind(), Some(ErrorKind::Canceled));
    let ack = CancelAck::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert_eq!((ack.id.as_str(), ack.done), ("low", true));

    // Canceling a finished/unknown id is acked as not-done.
    client.send_line("{\"cancel\": \"nope\"}").unwrap();
    let ack = CancelAck::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert!(!ack.done);

    // Stats frame: one job running, one queued.
    client.send_line("{\"stats\": true}").unwrap();
    let stats = StatsFrame::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert_eq!(stats.queue_depth, 2);
    assert_eq!(stats.queue_len, 1, "high is queued behind running");

    gate.open();
    client.finish_jobs().unwrap();

    // Drain: remaining responses (completion order: running, then high),
    // then the v2 summary, then EOF.
    let mut remaining = Vec::new();
    while let Some(line) = client.recv_line().unwrap() {
        remaining.push(line);
    }
    assert_eq!(remaining.len(), 3, "{remaining:?}");
    let running = JobResponse::parse_line(&remaining[0]).unwrap();
    assert_eq!(running.id, "running");
    assert!(running.ok);
    let high = JobResponse::parse_line(&remaining[1]).unwrap();
    assert_eq!(high.id, "high");
    let summary_line = &remaining[2];
    assert!(SummaryFrame::is_summary_line(summary_line));
    assert!(summary_line.contains("\"protocol\": 2"), "{summary_line}");
    let summary = SummaryFrame::parse_line(summary_line).unwrap();
    assert_eq!(summary.solved, 2);
    assert_eq!(summary.canceled, 1);
    assert_eq!(summary.busy, 1);
    assert_eq!(summary.failed, 0);

    server.shutdown();
}

/// N clients × M jobs against one service: responses correlate per
/// client by id, and the canonical cache is *exactly shared* — every
/// distinct permutation class misses once across all clients, everything
/// else hits (flight waits included), with nothing double-counted.
#[test]
fn concurrent_clients_share_one_cache() {
    const CLIENTS: usize = 4;
    const JOBS: usize = 8;
    const CLASSES: usize = 4;

    let service = Arc::new(Service::with_engine_config(
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
    ));
    let engine = service.engine().clone();
    let mut server = serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().clone();

    // Every client submits permuted duplicates of the same CLASSES bases.
    let bases: Vec<bitmatrix::BitMatrix> = (0..CLASSES)
        .map(|i| ebmf::gen::random_benchmark(6, 6, 0.4, 500 + i as u64).matrix)
        .collect();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            let bases = bases.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(c as u64);
                let mut client = LineClient::connect(&addr).unwrap();
                if c % 2 == 0 {
                    // Half the clients speak v2; the cache is shared either way.
                    client.handshake().unwrap();
                }
                for j in 0..JOBS {
                    let base = &bases[j % CLASSES];
                    let rp = bitmatrix::random_permutation(base.nrows(), &mut rng);
                    let cp = bitmatrix::random_permutation(base.ncols(), &mut rng);
                    let req = JobRequest::new(format!("c{c}-j{j}"), base.submatrix(&rp, &cp));
                    client.send_job(&req).unwrap();
                }
                client.finish_jobs().unwrap();

                let mut responses = BTreeMap::new();
                let mut summary = None;
                while let Some(line) = client.recv_line().unwrap() {
                    if SummaryFrame::is_summary_line(&line) {
                        summary = Some(SummaryFrame::parse_line(&line).unwrap());
                        continue;
                    }
                    let resp = JobResponse::parse_line(&line).unwrap();
                    assert!(resp.ok, "job {} failed: {:?}", resp.id, resp.error);
                    // Per-client correlation: only this client's ids arrive.
                    assert!(
                        resp.id.starts_with(&format!("c{c}-")),
                        "foreign id {} on client {c}",
                        resp.id
                    );
                    responses.insert(resp.id.clone(), resp);
                }
                let summary = summary.expect("summary frame before EOF");
                assert_eq!(summary.solved as usize, JOBS);
                assert_eq!(responses.len(), JOBS, "every job answered exactly once");
                responses.len()
            })
        })
        .collect();
    for handle in clients {
        handle.join().unwrap();
    }

    // Exactly-shared cache: CLIENTS × JOBS lookups total, one miss per
    // distinct class across *all* clients, and hits counted once each.
    let stats = engine.cache_stats();
    assert_eq!(stats.misses as usize, CLASSES, "one miss per class");
    assert_eq!(
        stats.hits as usize,
        CLIENTS * JOBS - CLASSES,
        "every other lookup is a shared hit"
    );
    assert_eq!(stats.entries as usize, CLASSES);

    server.shutdown();
}

/// Shutting the listener down while a client is connected but idle must
/// not hang: the server half-closes the connection's read side, the
/// connection drains (here: nothing in flight) and still delivers its
/// summary frame before the socket closes.
#[test]
fn shutdown_unblocks_idle_connections_and_still_summarizes() {
    let service = Arc::new(Service::with_engine_config(
        EngineConfig::default(),
        ServiceConfig::default(),
    ));
    let mut server = serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).unwrap();
    let mut client = LineClient::connect(server.local_addr()).unwrap();
    client.send_job(&distinct_job("only", 0)).unwrap();
    let first = client.recv_line().unwrap().expect("job answered");
    assert!(JobResponse::parse_line(&first).unwrap().ok);

    // Client now idles with the socket open; shutdown must complete.
    let done = std::sync::mpsc::channel();
    let closer = std::thread::spawn(move || {
        server.shutdown();
        done.0.send(()).unwrap();
    });
    done.1
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown must not hang on an idle connection");
    closer.join().unwrap();

    // The forced EOF still drained: the summary frame reaches the client.
    let summary = client.recv_line().unwrap().expect("summary before close");
    assert!(SummaryFrame::is_summary_line(&summary), "{summary}");
    assert!(summary.contains("\"solved\": 1"), "{summary}");
    assert_eq!(client.recv_line().unwrap(), None, "then EOF");
}

#[test]
fn unix_socket_pump_roundtrip() {
    let service = Arc::new(Service::with_engine_config(
        EngineConfig::default(),
        ServiceConfig::default(),
    ));
    let path = std::env::temp_dir().join(format!("rect-addr-test-{}.sock", std::process::id()));
    let addr = BindAddr::Unix(path.clone());
    let mut server = serve_socket_event(service, &addr).unwrap();

    let jobs = "{\"id\": \"a\", \"matrix\": \"10;01\"}\n\
                {\"id\": \"b\", \"matrix\": \"01;10\"}\n\
                {\"id\": \"c\", \"matrix\": \"11;11\"}\n";
    let mut out = Vec::new();
    let lines = pump(&addr, jobs.as_bytes(), &mut out).unwrap();
    assert_eq!(lines, 4, "3 responses + summary");
    let text = String::from_utf8(out).unwrap();
    let last = text.lines().last().unwrap();
    assert!(SummaryFrame::is_summary_line(last), "{text}");
    assert!(last.contains("\"solved\": 3"), "{text}");
    assert!(last.contains("\"cache_hits\": 1"), "b permutes a: {text}");

    server.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Binding onto an existing *non-socket* path must refuse, not delete
/// the user's file.
#[test]
fn binding_onto_a_regular_file_refuses_instead_of_deleting() {
    let service = Arc::new(Service::with_engine_config(
        EngineConfig::default(),
        ServiceConfig::default(),
    ));
    let path = std::env::temp_dir().join(format!("rect-addr-notsock-{}", std::process::id()));
    std::fs::write(&path, "precious data").unwrap();

    let err = serve_socket_event(service, &BindAddr::Unix(path.clone())).unwrap_err();
    assert!(err.to_string().contains("not a socket"), "{err}");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        "precious data",
        "existing file untouched"
    );
    let _ = std::fs::remove_file(&path);
}
