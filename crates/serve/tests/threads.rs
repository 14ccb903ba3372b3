//! The process-wide thread bound of the socket transport: schedules run
//! as continuations on the worker pool, so holding the per-connection
//! maximum of schedule frames in flight on several connections adds no
//! threads. (A test binary of its own: `Threads:` counts every thread of
//! the process, so no other test may run beside this one.)

mod common;

use std::sync::Arc;

use common::{distinct_matrix, gated_engine, Gate};
use engine::protocol::{ErrorKind, JobResponse, ScheduleRequest, ScheduleSummary};
use rect_addr_serve::{
    serve_socket_event, BindAddr, LineClient, Service, ServiceConfig, MAX_ACTIVE_SCHEDULES,
};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn schedules_in_flight_add_no_threads() {
    const CONNECTIONS: usize = 4;
    let gate = Gate::new();
    let service = Arc::new(Service::new(
        gated_engine(&gate, 1),
        ServiceConfig {
            workers: 1,
            queue_depth: CONNECTIONS * MAX_ACTIVE_SCHEDULES + 1,
            persist: None,
        },
    ));
    let mut server = serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).unwrap();
    let mut clients: Vec<LineClient> = (0..CONNECTIONS)
        .map(|_| {
            let mut client = LineClient::connect(server.local_addr()).unwrap();
            client.handshake().unwrap();
            client
        })
        .collect();
    let before = threads();

    // The gate holds the one worker on the first layer it takes, so every
    // schedule stays in flight with its first layer running or queued.
    for (c, client) in clients.iter_mut().enumerate() {
        for k in 0..MAX_ACTIVE_SCHEDULES {
            let layers = vec![distinct_matrix(k), distinct_matrix(k + 1)];
            let req = ScheduleRequest::new(format!("c{c}-s{k}"), layers);
            client.send_line(&req.to_json_line()).unwrap();
        }
    }
    gate.wait_started(1);
    // One frame past the cap still answers busy — and, being the first
    // line back, shows the frames before it were all admitted.
    for (c, client) in clients.iter_mut().enumerate() {
        let req = ScheduleRequest::new(format!("c{c}-over"), vec![distinct_matrix(0)]);
        client.send_line(&req.to_json_line()).unwrap();
        let resp = JobResponse::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
        assert_eq!(resp.id, format!("c{c}-over"));
        assert_eq!(resp.error_kind(), Some(ErrorKind::Busy), "{resp:?}");
    }
    let during = threads();
    assert!(
        during <= before + 1,
        "{} schedules in flight took the process from {before} to {during} threads",
        CONNECTIONS * MAX_ACTIVE_SCHEDULES
    );

    gate.open();
    for client in &mut clients {
        client.finish_jobs().unwrap();
        let mut summaries = 0;
        while let Some(line) = client.recv_line().unwrap() {
            summaries += usize::from(ScheduleSummary::is_summary_line(&line));
        }
        assert_eq!(summaries, MAX_ACTIVE_SCHEDULES, "every schedule finishes");
    }
    server.shutdown();
}
