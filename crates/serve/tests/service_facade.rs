//! The `Service` facade contract: submit/wait, cancel-while-queued,
//! busy backpressure at the queue bound, priority ordering, queue
//! deadlines, stats, and shutdown draining.

mod common;

use std::sync::mpsc;
use std::sync::Arc;

use common::{distinct_job, gated_engine, Gate};
use engine::EngineConfig;
use proto::{ErrorKind, JobRequest};
use rect_addr_serve::{OutEvent, Service, ServiceConfig, SubmitError};

fn gated_service(gate: &Arc<Gate>, workers: usize, queue_depth: usize) -> Service {
    Service::new(
        gated_engine(gate, workers),
        ServiceConfig {
            queue_depth,
            persist: None,
        },
    )
}

#[test]
fn submit_and_wait_solves_through_the_engine() {
    let service = Service::with_engine_config(EngineConfig::default(), ServiceConfig::default());
    let handle = service
        .submit(JobRequest::new("j", "110\n011\n111".parse().unwrap()))
        .unwrap();
    assert_eq!(handle.id(), "j");
    let resp = handle.wait();
    assert!(resp.ok);
    assert_eq!(resp.depth, 3);
    assert!(resp.proved_optimal);
}

#[test]
fn cancel_removes_queued_jobs_but_not_running_ones() {
    let gate = Gate::new();
    let service = gated_service(&gate, 1, 64);

    let running = service.submit(distinct_job("running", 0)).unwrap();
    gate.wait_started(1); // the single worker is now holding "running"
    let queued = service.submit(distinct_job("queued", 1)).unwrap();

    // A running job cannot be canceled; a queued one can, exactly once.
    assert!(!service.cancel(running.ticket()));
    assert!(service.cancel(queued.ticket()));
    assert!(!service.cancel(queued.ticket()), "cancel is not idempotent");
    assert!(!service.cancel(9_999_999), "unknown tickets answer false");

    let canceled = queued.wait();
    assert!(!canceled.ok);
    assert_eq!(canceled.error_kind(), Some(ErrorKind::Canceled));
    assert_eq!(canceled.id, "queued");

    gate.open();
    let ran = running.wait();
    assert!(ran.ok, "the running job still completes: {:?}", ran.error);
}

#[test]
fn full_queue_rejects_with_busy_and_recovers() {
    let gate = Gate::new();
    let service = gated_service(&gate, 1, 1);

    let running = service.submit(distinct_job("running", 0)).unwrap();
    gate.wait_started(1); // worker busy; queue empty again
    let queued = service.submit(distinct_job("queued", 1)).unwrap();

    // Queue is at its bound of 1: the next submit is rejected, not queued.
    match service.submit(distinct_job("rejected", 2)) {
        Err(SubmitError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    let err = SubmitError::Busy.to_job_error(service.queue_depth());
    assert_eq!(err.kind, ErrorKind::Busy);
    assert!(err.message.contains("depth 1"), "{}", err.message);

    gate.open();
    assert!(running.wait().ok);
    assert!(queued.wait().ok);

    // Space freed: submissions are accepted again.
    assert!(service.submit(distinct_job("later", 3)).unwrap().wait().ok);
}

#[test]
fn higher_priority_jobs_run_first_fifo_within_a_tier() {
    let gate = Gate::new();
    let service = gated_service(&gate, 1, 64);
    let (tx, rx) = mpsc::channel();
    let sink = Arc::new(tx);

    // Occupy the single worker, then queue under distinct priorities.
    service
        .submit_sink(distinct_job("running", 0), sink.clone(), 0)
        .unwrap();
    gate.wait_started(1);
    for (i, (id, priority)) in [("low-a", 0), ("high", 5), ("low-b", 0), ("mid", 3)]
        .into_iter()
        .enumerate()
    {
        service
            .submit_sink(
                distinct_job(id, i + 1).with_priority(priority),
                sink.clone(),
                0,
            )
            .unwrap();
    }
    drop(sink);
    gate.open();

    let order: Vec<String> = rx
        .iter()
        .map(|event| match event {
            OutEvent::Response(resp) => {
                assert!(resp.ok);
                resp.id
            }
            OutEvent::Control(line) => panic!("unexpected control frame {line}"),
        })
        .collect();
    assert_eq!(order, ["running", "high", "mid", "low-a", "low-b"]);
}

#[test]
fn expired_queue_deadline_answers_deadline_error() {
    let gate = Gate::new();
    let service = gated_service(&gate, 1, 64);

    let running = service.submit(distinct_job("running", 0)).unwrap();
    gate.wait_started(1);
    let doomed = service
        .submit(distinct_job("doomed", 1).with_deadline_ms(1))
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30));
    gate.open();

    assert!(running.wait().ok);
    let resp = doomed.wait();
    assert!(!resp.ok);
    assert_eq!(resp.error_kind(), Some(ErrorKind::Deadline));
    assert!(
        resp.error_message().unwrap().contains("deadline of 1ms"),
        "{:?}",
        resp.error
    );
}

#[test]
fn stats_report_queue_occupancy() {
    let gate = Gate::new();
    let service = gated_service(&gate, 1, 8);

    let a = service.submit(distinct_job("a", 0)).unwrap();
    gate.wait_started(1);
    let b = service.submit(distinct_job("b", 1)).unwrap();

    let stats = service.stats();
    assert_eq!(stats.queue_depth, 8);
    assert_eq!(stats.queue_len, 1, "one job queued behind the running one");
    assert_eq!(
        stats.snapshot.cache_misses, 1,
        "only the running job looked up"
    );

    gate.open();
    assert!(a.wait().ok && b.wait().ok);
    assert_eq!(service.stats().queue_len, 0);
}

#[test]
fn shutdown_answers_every_accepted_job() {
    let gate = Gate::new();
    let service = gated_service(&gate, 2, 64);
    let handles: Vec<_> = (0..6)
        .map(|i| service.submit(distinct_job(&format!("s{i}"), i)).unwrap())
        .collect();
    gate.open();
    service.shutdown(); // drains the queue, joins workers
    for handle in handles {
        assert!(handle.wait().ok, "accepted jobs are answered before exit");
    }
    // After shutdown, new submissions are refused.
    match service.submit(distinct_job("late", 7)) {
        Err(SubmitError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn cancel_group_abandons_only_that_groups_queued_jobs() {
    let gate = Gate::new();
    let service = gated_service(&gate, 1, 64);
    let (tx, rx) = mpsc::channel();
    let sink = Arc::new(tx);

    let mine = service.new_group();
    let other = service.new_group();
    service
        .submit_sink(distinct_job("running", 0), sink.clone(), mine)
        .unwrap();
    gate.wait_started(1);
    service
        .submit_sink(distinct_job("mine-a", 1), sink.clone(), mine)
        .unwrap();
    service
        .submit_sink(distinct_job("theirs", 2), sink.clone(), other)
        .unwrap();
    service
        .submit_sink(distinct_job("mine-b", 3), sink.clone(), mine)
        .unwrap();

    // Only the two queued jobs of `mine` go; "running" and "theirs" stay.
    assert_eq!(service.cancel_group(mine), 2);
    assert_eq!(service.cancel_group(mine), 0, "second sweep finds nothing");
    assert_eq!(service.cancel_group(0), 0, "ungrouped never matches");

    gate.open();
    drop(sink);
    let mut canceled = Vec::new();
    let mut solved = Vec::new();
    for event in rx {
        if let OutEvent::Response(resp) = event {
            if resp.error_kind() == Some(ErrorKind::Canceled) {
                canceled.push(resp.id);
            } else {
                assert!(resp.ok);
                solved.push(resp.id);
            }
        }
    }
    canceled.sort();
    solved.sort();
    assert_eq!(canceled, ["mine-a", "mine-b"]);
    assert_eq!(solved, ["running", "theirs"]);
}

#[test]
fn capabilities_reflect_configuration() {
    let service = Service::with_engine_config(
        EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        },
        ServiceConfig {
            queue_depth: 17,
            persist: None,
        },
    );
    let caps = service.capabilities();
    assert_eq!(caps.queue_depth, 17);
    assert_eq!(caps.workers, 3);
    assert!(caps.strategies.contains(&"sap".to_string()));
    assert!(caps.strategies.contains(&"trivial".to_string()));
    assert_eq!(caps.shards, engine::DEFAULT_SHARDS as u64);
    assert_eq!(
        caps.canon_budget,
        EngineConfig::default().canon.max_branches as u64
    );
}
