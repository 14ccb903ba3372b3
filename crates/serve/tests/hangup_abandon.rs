//! A peer that closes both directions can read no answer, so its queued
//! jobs are canceled at once instead of being run for nobody, also when it
//! first half-closed (end of input, the v1 "finish" signal, which alone
//! still drains). The job already running keeps its worker: started jobs
//! are never interrupted.

mod common;

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{distinct_job, gated_engine, Gate};
use rect_addr_serve::{connect, serve_socket_event, BindAddr, Service, ServiceConfig};

#[test]
fn hung_up_peer_leaves_no_queued_jobs() {
    for half_close_first in [false, true] {
        queue_empties_after_hangup(half_close_first);
    }
}

fn queue_empties_after_hangup(half_close_first: bool) {
    let gate = Gate::new();
    let service = Arc::new(Service::new(
        gated_engine(&gate, 1),
        ServiceConfig {
            queue_depth: 8,
            persist: None,
        },
    ));
    let path = std::env::temp_dir().join(format!(
        "rect-addr-abandon-{}-{half_close_first}.sock",
        std::process::id()
    ));
    let mut server = serve_socket_event(Arc::clone(&service), &BindAddr::Unix(path)).unwrap();

    let mut stream = connect(server.local_addr()).unwrap();
    for i in 0..3 {
        let line = format!("{}\n", distinct_job(&format!("j{i}"), i).to_json_line());
        stream.write_all(line.as_bytes()).unwrap();
    }
    gate.wait_started(1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.stats().queue_len < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        service.stats().queue_len,
        2,
        "two jobs queue behind the gate"
    );
    if half_close_first {
        stream.shutdown_write().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            service.stats().queue_len,
            2,
            "a half-closed peer still drains"
        );
    }
    drop(stream);

    let deadline = Instant::now() + Duration::from_secs(1);
    while service.stats().queue_len > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let left = service.stats().queue_len;
    gate.open();
    server.shutdown();
    server.join().unwrap();
    assert_eq!(
        left, 0,
        "jobs still queued 1 s after the peer hung up \
         (half_close_first={half_close_first})"
    );
}
