//! Service-level persistence: restart warm-start via `--state-dir`
//! semantics, periodic flush, stats plumbing, and corrupt-snapshot
//! fallback — the in-process version of the CI kill/restart smoke.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use engine::{Engine, EngineConfig};
use proto::{JobRequest, StatsFrame};
use rect_addr_serve::{serve_connection, PersistConfig, Service, ServiceConfig};

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rect-addr-serve-persist-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_at(dir: &Path, snapshot_every: Option<u64>) -> Service {
    Service::new(
        Arc::new(Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })),
        ServiceConfig {
            queue_depth: 64,
            persist: Some(PersistConfig {
                state_dir: dir.to_path_buf(),
                snapshot_every,
                lease: None,
            }),
        },
    )
}

fn hard_job(id: &str) -> JobRequest {
    // Seed 5's 14×14 rank-gap instance is known to need a real SAT descent.
    JobRequest::new(id, ebmf::gen::gap_benchmark(14, 14, 3, 5).matrix)
}

#[test]
fn restarted_service_warm_starts_from_the_state_dir() {
    let dir = state_dir("restart");

    // First boot: cold dir, one SAT-hard job, drain.
    let first = service_at(&dir, None);
    assert_eq!(first.stats().persisted_sessions, 0, "day-zero cold");
    let resp = first.submit(hard_job("a")).unwrap().wait();
    assert!(resp.ok);
    let first_conflicts = resp.conflicts;
    assert!(first_conflicts > 0, "hard job must spend conflicts");
    first.shutdown(); // writes the drain snapshot

    // "Restart": a brand-new service + engine over the same directory.
    let second = service_at(&dir, None);
    let stats = second.stats();
    assert!(
        stats.persisted_sessions >= 1,
        "restored sessions must be reported: {stats:?}"
    );
    let resp = second.submit(hard_job("b")).unwrap().wait();
    assert!(resp.ok);
    assert!(
        resp.conflicts < first_conflicts,
        "restarted solve must resume the descent: {} vs {first_conflicts}",
        resp.conflicts
    );
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_flush_writes_without_a_drain() {
    let dir = state_dir("periodic");
    let service = service_at(&dir, Some(1));
    let resp = service.submit(hard_job("p")).unwrap().wait();
    assert!(resp.ok);
    // Snapshot-every-1: the flush happened on job completion, before any
    // shutdown. Poll briefly — the flush runs on the worker thread.
    let path = dir.join("engine.snapshot");
    let mut found = false;
    for _ in 0..100 {
        if path.exists() {
            found = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(found, "periodic flush must write the snapshot");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_frame_reports_persisted_sessions_over_the_wire() {
    let dir = state_dir("wire");
    let first = service_at(&dir, None);
    assert!(first.submit(hard_job("w")).unwrap().wait().ok);
    first.shutdown();

    let second = service_at(&dir, None);
    let input = "{\"hello\": 2}\n{\"stats\": true}\n";
    let mut out = Vec::new();
    serve_connection(&second, input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let stats_line = text
        .lines()
        .find(|l| l.starts_with("{\"stats\": true"))
        .expect("stats frame in output");
    let frame = StatsFrame::parse_line(stats_line).unwrap();
    assert!(
        frame.persisted_sessions >= 1,
        "wire stats must carry the restored count: {stats_line}"
    );
    // A clean load (valid snapshot) is not a load failure.
    assert_eq!(frame.snapshot_load_failures, 0, "{stats_line}");
    // The latency section reports the process-wide histograms; at least
    // the end-to-end job histogram has recorded by now (job "w" above),
    // and its percentiles are ordered.
    let job = frame
        .latency
        .get("job_us")
        .unwrap_or_else(|| panic!("job_us latency in stats: {stats_line}"));
    assert!(job.count >= 1);
    assert!(job.p50 <= job.p99 && job.p99 <= job.max, "{job:?}");
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_cold_starts_without_failing_construction() {
    let dir = state_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("engine.snapshot"),
        b"rect-addr-snapshot 1\ngarbage",
    )
    .unwrap();
    let service = service_at(&dir, None);
    assert_eq!(service.stats().persisted_sessions, 0);
    // The rejected load is counted — a corrupt snapshot is data, not
    // just a stderr line (a *missing* one would not count).
    assert_eq!(service.stats().snapshot_load_failures, 1);
    // Still fully functional.
    let resp = service
        .submit(JobRequest::new("c", "10\n01".parse().unwrap()))
        .unwrap()
        .wait();
    assert!(resp.ok);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
