//! The thread bound of a persisting service: periodic snapshots are
//! written by its one persister thread, not by a thread per flush. (A
//! test binary of its own: `Threads:` counts every thread of the
//! process, so no other test may run beside this one.)

mod common;

use std::sync::Arc;

use common::threads;
use engine::{Engine, EngineConfig};
use proto::JobRequest;
use rect_addr_serve::{PersistConfig, Service, ServiceConfig};

#[test]
fn periodic_flushes_add_no_threads() {
    let dir = std::env::temp_dir().join(format!(
        "rect-addr-persister-threads-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::new(
        Arc::new(Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })),
        ServiceConfig {
            queue_depth: 8,
            persist: Some(PersistConfig {
                snapshot_every: Some(1),
                ..PersistConfig::at(&dir)
            }),
        },
    );
    let constructed = threads();

    let mut samples = Vec::new();
    for k in 0..200 {
        let matrix = ebmf::gen::random_benchmark(6, 6, 0.5, k).matrix;
        let resp = service
            .submit(JobRequest::new(format!("j{k}"), matrix))
            .expect("idle queue has room")
            .wait();
        assert!(resp.ok, "{resp:?}");
        if k % 20 == 19 {
            samples.push(threads());
        }
    }
    samples.push(threads());
    assert!(
        samples.iter().all(|&n| n <= constructed),
        "{constructed} threads after construction, then {samples:?}"
    );
    assert!(service.snapshot_generation() >= 1, "the persister flushed");

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
