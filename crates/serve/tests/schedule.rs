//! Multi-layer `schedule` frames over a real socket: sequential layer
//! execution against one warm service (cross-layer cache reuse), streamed
//! per-layer responses with a trailing summary, cancel-with-partial-
//! results, per-layer deadlines measured from acceptance, and the
//! schedule counters in stats frames and the v2 session summary.

mod common;

use std::sync::Arc;
use std::time::Duration;

use bitmatrix::BitMatrix;
use common::{distinct_matrix, gated_engine, Gate};
use engine::protocol::{
    CancelAck, ErrorKind, HelloAck, JobResponse, ScheduleRequest, ScheduleSummary, StatsFrame,
    SummaryFrame,
};
use engine::EngineConfig;
use rect_addr_serve::{serve_socket_event, BindAddr, LineClient, Service, ServiceConfig};

/// Row stripes of period 2, phase `k % 2` — the vertical-pairing masks of
/// a nearest-neighbor circuit round. Layer `k` repeats layer `k - 2`
/// byte-for-byte, so a 3-layer schedule is guaranteed one cache hit.
fn stripe_layer(k: usize) -> BitMatrix {
    BitMatrix::from_fn(6, 6, move |r, _| r % 2 == k % 2)
}

/// The tentpole, end to end: a v2 client submits one 3-layer schedule
/// over TCP; the server streams the layer responses in order (layer 2
/// answered by the canonical cache that layer 0 warmed), trails them
/// with the aggregated schedule summary, and the schedule counters show
/// up in the stats frame and the session summary.
#[test]
fn schedule_streams_layers_and_reuses_cache_over_tcp() {
    let service = Arc::new(Service::with_engine_config(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
    ));
    let mut server = serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).unwrap();

    let mut client = LineClient::connect(server.local_addr()).unwrap();
    let ack: HelloAck = client.handshake().unwrap();
    assert!(ack.capabilities.schedule, "server must advertise schedules");

    let req = ScheduleRequest::new("circ", (0..3).map(stripe_layer).collect());
    client.send_line(&req.to_json_line()).unwrap();

    // The three layer responses stream back in schedule order.
    let mut layers = Vec::new();
    for k in 0..3 {
        let resp = JobResponse::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
        assert_eq!(resp.id, ScheduleRequest::layer_id("circ", k));
        assert!(resp.ok, "layer {k} failed: {:?}", resp.error);
        assert_eq!(resp.depth, 1, "a stripe mask is one rank-1 rectangle");
        layers.push(resp);
    }
    // Layer 2 repeats layer 0 exactly; solved sequentially against one
    // shared cache, it must be answered without solving.
    assert!(
        layers[2].cache_hit,
        "layer 2 must hit layer 0's cache entry"
    );
    assert_eq!(layers[2].provenance, "cache");

    // The summary trails the batch and aggregates it.
    let summary_line = client.recv_line().unwrap().unwrap();
    assert!(
        ScheduleSummary::is_summary_line(&summary_line),
        "{summary_line}"
    );
    let summary = ScheduleSummary::parse_line(&summary_line).unwrap();
    assert_eq!(summary.id, "circ");
    assert_eq!((summary.layers, summary.solved), (3, 3));
    assert_eq!((summary.failed, summary.canceled), (0, 0));
    assert_eq!(summary.total_depth, 3);
    assert!(summary.cache_hits >= 1, "cross-layer reuse: {summary:?}");
    assert_eq!(summary.provenance.len(), 3);
    assert_eq!(summary.provenance[2], "cache");

    // Stats frame (requested after the summary, so nothing is racing the
    // writer): both schedule counters moved.
    client.send_line("{\"stats\": true}").unwrap();
    let stats = StatsFrame::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert!(stats.schedule_jobs >= 1, "{stats:?}");
    assert!(stats.schedule_layers >= 3, "{stats:?}");

    client.finish_jobs().unwrap();
    let mut last = None;
    while let Some(line) = client.recv_line().unwrap() {
        last = Some(line);
    }
    let session = SummaryFrame::parse_line(&last.expect("summary before EOF")).unwrap();
    assert_eq!(session.schedule_jobs, 1);
    assert_eq!(session.schedule_layers, 3);
    assert_eq!(session.solved, 3, "layers count into the session tallies");

    server.shutdown();
}

/// The satellite: canceling a schedule mid-flight keeps partial results.
/// The gated strategy holds layer 0 "running"; the cancel ack comes back
/// done immediately, the in-flight layer still completes (started work is
/// never interrupted), the remaining layers answer `canceled`, and the
/// trailing summary records the split. A duplicate schedule id submitted
/// while the first is in flight bounces with a protocol error.
#[test]
fn cancel_mid_schedule_keeps_partial_results() {
    let gate = Gate::new();
    let service = Arc::new(Service::new(
        gated_engine(&gate, 1),
        ServiceConfig {
            workers: 1,
            queue_depth: 4,
            persist: None,
        },
    ));
    let mut server = serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).unwrap();

    let mut client = LineClient::connect(server.local_addr()).unwrap();
    client.handshake().unwrap();

    let req = ScheduleRequest::new("batch", (0..3).map(distinct_matrix).collect());
    client.send_line(&req.to_json_line()).unwrap();
    gate.wait_started(1); // layer 0 occupies the worker

    // Same id while in flight → protocol error, original undisturbed.
    client.send_line(&req.to_json_line()).unwrap();
    let dup = JobResponse::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert_eq!(dup.id, "batch");
    assert_eq!(dup.error_kind(), Some(ErrorKind::Protocol));

    // Cancel the schedule: the ack is immediate (the runner is still
    // blocked inside layer 0, so no layer response can precede it).
    client.send_line("{\"cancel\": \"batch\"}").unwrap();
    let ack = CancelAck::parse_line(&client.recv_line().unwrap().unwrap()).unwrap();
    assert_eq!((ack.id.as_str(), ack.done), ("batch", true));

    gate.open();
    client.finish_jobs().unwrap();

    let mut responses = Vec::new();
    let mut sched_summary = None;
    let mut session = None;
    while let Some(line) = client.recv_line().unwrap() {
        if ScheduleSummary::is_summary_line(&line) {
            sched_summary = Some(ScheduleSummary::parse_line(&line).unwrap());
        } else if SummaryFrame::is_summary_line(&line) {
            session = Some(SummaryFrame::parse_line(&line).unwrap());
        } else {
            responses.push(JobResponse::parse_line(&line).unwrap());
        }
    }

    // Partial results: layer 0 completed, layers 1 and 2 canceled.
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert_eq!(responses[0].id, "batch/L0");
    assert!(responses[0].ok, "{:?}", responses[0].error);
    for (k, resp) in responses.iter().enumerate().skip(1) {
        assert_eq!(resp.id, ScheduleRequest::layer_id("batch", k));
        assert_eq!(resp.error_kind(), Some(ErrorKind::Canceled));
    }

    let summary = sched_summary.expect("schedule summary still emitted");
    assert_eq!(
        (summary.solved, summary.canceled, summary.failed),
        (1, 2, 0)
    );
    assert_eq!(summary.provenance[1], "canceled");

    let session = session.expect("session summary before EOF");
    assert_eq!(session.schedule_jobs, 1, "the duplicate was never accepted");
    assert_eq!(session.schedule_layers, 3);
    assert_eq!(session.canceled, 2);

    server.shutdown();
}

/// Per-layer deadlines are measured from schedule *acceptance*: a layer
/// whose clock runs out while its predecessors solve fails with
/// `deadline` without occupying a worker, and the schedule carries on.
#[test]
fn layer_deadlines_run_from_schedule_acceptance() {
    let gate = Gate::new();
    let service = Arc::new(Service::new(
        gated_engine(&gate, 1),
        ServiceConfig {
            workers: 1,
            queue_depth: 4,
            persist: None,
        },
    ));
    let mut server = serve_socket_event(service, &BindAddr::parse("127.0.0.1:0")).unwrap();

    let mut client = LineClient::connect(server.local_addr()).unwrap();
    client.handshake().unwrap();

    let mut req = ScheduleRequest::new("dl", vec![distinct_matrix(1), distinct_matrix(2)]);
    req.deadline_ms = vec![None, Some(40)];
    client.send_line(&req.to_json_line()).unwrap();

    // Hold layer 0 on the worker until layer 1's 40ms budget is long gone.
    gate.wait_started(1);
    std::thread::sleep(Duration::from_millis(120));
    gate.open();
    client.finish_jobs().unwrap();

    let mut responses = Vec::new();
    let mut sched_summary = None;
    while let Some(line) = client.recv_line().unwrap() {
        if ScheduleSummary::is_summary_line(&line) {
            sched_summary = Some(ScheduleSummary::parse_line(&line).unwrap());
        } else if !SummaryFrame::is_summary_line(&line) {
            responses.push(JobResponse::parse_line(&line).unwrap());
        }
    }

    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(responses[0].ok, "{:?}", responses[0].error);
    assert_eq!(responses[1].id, "dl/L1");
    assert_eq!(responses[1].error_kind(), Some(ErrorKind::Deadline));

    let summary = sched_summary.expect("schedule summary still emitted");
    assert_eq!((summary.solved, summary.failed), (1, 1));
    assert_eq!(summary.provenance[1], "deadline");

    server.shutdown();
}
