//! Edge cases of the event-driven socket front-end
//! ([`serve_socket_event`]) and of the state dir's writer lock: frames
//! arriving a byte at a time, slow readers hitting the outbound cap,
//! mid-frame disconnects, and writer takeover with snapshot generation
//! adoption.

mod common;

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use engine::persist::{lock_state_dir, save_snapshot_gen};
use engine::{Engine, EngineConfig};
use proto::{JobResponse, StatsFrame, SummaryFrame};
use rect_addr_serve::{
    connect, serve_socket_event, serve_socket_event_with, BindAddr, EventLoopConfig, LineClient,
    PersistConfig, Service, ServiceConfig,
};

use common::{distinct_job, distinct_matrix};

fn event_service(workers: usize) -> Arc<Service> {
    Arc::new(Service::with_engine_config(
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
        ServiceConfig {
            queue_depth: 64,
            persist: None,
        },
    ))
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// A v1 job written one byte at a time still reassembles into one frame,
/// and the final unterminated line is served at EOF.
#[test]
fn byte_at_a_time_v1_job_solves() {
    let service = event_service(1);
    let mut server =
        serve_socket_event(Arc::clone(&service), &BindAddr::parse("tcp:127.0.0.1:0")).unwrap();

    let mut stream = connect(server.local_addr()).unwrap();
    // Two jobs: the first newline-terminated, the second left
    // unterminated so EOF has to finish the line.
    let lines = format!(
        "{}\n{}",
        distinct_job("drip-0", 0).to_json_line(),
        distinct_job("drip-1", 0).to_json_line()
    );
    for byte in lines.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }
    stream.shutdown_write().unwrap();

    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    let mut lines = body.lines();
    for id in ["drip-0", "drip-1"] {
        let response = JobResponse::parse_line(lines.next().unwrap()).unwrap();
        assert_eq!(response.id, id);
        assert!(response.error.is_none(), "job failed: {response:?}");
    }
    let summary = SummaryFrame::parse_line(lines.next().unwrap()).unwrap();
    assert_eq!(summary.solved, 2);
    assert_eq!(summary.failed, 0);

    server.shutdown();
    server.join().unwrap();
}

/// Idle connections are counted in `open_connections` and reported in
/// the v2 stats frame, and a dropped one leaves the count.
#[test]
fn idle_connections_counted_in_stats() {
    let service = event_service(1);
    let mut server =
        serve_socket_event(Arc::clone(&service), &BindAddr::parse("tcp:127.0.0.1:0")).unwrap();

    let idle: Vec<_> = (0..8)
        .map(|_| connect(server.local_addr()).unwrap())
        .collect();
    assert!(
        wait_until(Duration::from_secs(5), || service.open_connections() >= 8),
        "idle connections never registered: {}",
        service.open_connections()
    );

    let mut client = LineClient::connect(server.local_addr()).unwrap();
    client.handshake().unwrap();
    client.send_job(&distinct_job("idle-0", 0)).unwrap();
    let response = JobResponse::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert!(response.error.is_none());
    client.send_line("{\"stats\": true}").unwrap();
    let stats = StatsFrame::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert!(
        stats.open_connections >= 9,
        "stats frame missed idle connections: {}",
        stats.open_connections
    );

    drop(idle);
    assert!(
        wait_until(Duration::from_secs(5), || service.open_connections() <= 1),
        "idle disconnects never reaped: {}",
        service.open_connections()
    );

    client.finish_jobs().unwrap();
    server.shutdown();
    server.join().unwrap();
}

/// A reader that never drains its socket is disconnected once its
/// outbound queue exceeds the cap — the loop must not buffer without
/// bound — and the server keeps serving other clients.
#[test]
fn slow_reader_is_disconnected_not_buffered() {
    let service = event_service(1);
    let mut server = serve_socket_event_with(
        Arc::clone(&service),
        &BindAddr::parse("tcp:127.0.0.1:0"),
        EventLoopConfig {
            // Below one serialized solve response (~260 bytes), so the
            // very first completed job tips the connection over the cap
            // without having to fill kernel socket buffers first.
            outbound_cap: 200,
        },
    )
    .unwrap();

    let mut slow = connect(server.local_addr()).unwrap();
    // The 4x4 identity's partition has four rectangles, so its response
    // line (~260 bytes) exceeds the cap on its own; the near-empty
    // `distinct_matrix` answers would fit under it.
    let diagonal =
        proto::JobRequest::new("slow-0", bitmatrix::BitMatrix::from_fn(4, 4, |r, c| r == c));
    slow.write_all(format!("{}\n", diagonal.to_json_line()).as_bytes())
        .unwrap();
    // Never read. The response overflows the 16-byte cap and the server
    // abandons the connection: our next read observes the teardown
    // instead of blocking forever on a byte that never comes.
    let mut sink = [0u8; 256];
    match slow.read(&mut sink) {
        Ok(0) => {}
        Ok(n) => {
            // A prefix may have been flushed before the cap tripped;
            // the connection must still be closed right behind it.
            assert!(n <= sink.len());
            loop {
                match slow.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
        }
        Err(_) => {} // reset is as good as EOF here
    }

    assert!(
        wait_until(Duration::from_secs(5), || service.open_connections() == 0),
        "abandoned connection still counted"
    );

    // The loop itself is unharmed: a well-behaved client whose response
    // lines fit under the cap (a short v1 parse error, then the summary
    // once the error has drained) completes a full conversation.
    let mut client = connect(server.local_addr()).unwrap();
    client.write_all(b"not json\n").unwrap();
    client.flush().unwrap();
    let mut error_line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        assert_eq!(client.read(&mut byte).unwrap(), 1, "server hung up early");
        if byte[0] == b'\n' {
            break;
        }
        error_line.push(byte[0]);
    }
    let error = JobResponse::parse_line(std::str::from_utf8(&error_line).unwrap()).unwrap();
    assert!(error.error.is_some(), "garbage line answered ok");
    client.shutdown_write().unwrap();
    let mut rest = String::new();
    client.read_to_string(&mut rest).unwrap();
    let summary = SummaryFrame::parse_line(rest.lines().next().unwrap()).unwrap();
    assert_eq!(summary.failed, 1);

    server.shutdown();
    server.join().unwrap();
}

/// A client that dies mid-frame (partial line, no newline, then a hard
/// drop) must not wedge the loop or leak the connection slot.
#[test]
fn mid_frame_disconnect_keeps_server_healthy() {
    let service = event_service(1);
    let mut server =
        serve_socket_event(Arc::clone(&service), &BindAddr::parse("tcp:127.0.0.1:0")).unwrap();

    {
        let mut dying = connect(server.local_addr()).unwrap();
        dying
            .write_all(b"{\"id\": \"torn\", \"matrix\": [\"10\"")
            .unwrap();
        dying.flush().unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || service.open_connections() == 1),
            "connection never registered"
        );
        // Dropped here with the frame still open.
    }

    assert!(
        wait_until(Duration::from_secs(5), || service.open_connections() == 0),
        "torn connection never reaped"
    );

    let mut client = LineClient::connect(server.local_addr()).unwrap();
    client.handshake().unwrap();
    client.send_job(&distinct_job("after-torn", 3)).unwrap();
    let response = JobResponse::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert!(response.error.is_none());
    client.finish_jobs().unwrap();

    server.shutdown();
    server.join().unwrap();
}

/// A reader sharing the state dir adopts newer snapshot generations
/// while the writer lives, then takes the writer lock over once the
/// holder releases it, and its own flushes stay monotonic past
/// everything on disk.
#[test]
fn lease_takeover_adopts_generation_and_promotes_reader() {
    let dir = std::env::temp_dir().join(format!("rect-addr-lock-takeover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // "Process A" holds the writer lock and has flushed generation 3.
    let lock_a = lock_state_dir(&dir).unwrap().expect("fresh dir locks");
    let donor = Engine::new(EngineConfig::default());
    donor.solve(&distinct_matrix(0));
    save_snapshot_gen(&dir, &donor, 3).unwrap();

    // "Process B" starts while A holds the lock: it must come up as a
    // reader on A's snapshot, and never write.
    let service = Service::with_engine_config(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        ServiceConfig {
            queue_depth: 8,
            persist: Some(PersistConfig {
                snapshot_every: None,
                lease: Some(Duration::from_millis(50)),
                ..PersistConfig::at(&dir)
            }),
        },
    );
    assert!(!service.is_snapshot_writer(), "reader took a held lock");
    assert_eq!(service.snapshot_generation(), 3);
    assert!(service.snapshot_now().is_none(), "a reader never writes");

    // A's final flush lands generation 4; B's persister adopts it.
    save_snapshot_gen(&dir, &donor, 4).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || service.snapshot_generation()
            == 4),
        "reader never adopted generation 4 (at {})",
        service.snapshot_generation()
    );
    assert!(!service.is_snapshot_writer(), "the lock is still held");

    // A exits: its lock is released, and B must take over.
    drop(lock_a);
    assert!(
        wait_until(Duration::from_secs(5), || service.is_snapshot_writer()),
        "reader never took over the released lock"
    );
    assert!(lock_state_dir(&dir).unwrap().is_none(), "B holds the lock");

    // The new writer's flush advances past everything on disk.
    service.snapshot_now().expect("writer flush");
    assert!(service.snapshot_generation() >= 5);
    assert_eq!(
        engine::persist::snapshot_generation(&dir),
        Some(service.snapshot_generation())
    );

    service.shutdown();
    // Shutdown releases the lock for the next process.
    assert!(lock_state_dir(&dir).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
