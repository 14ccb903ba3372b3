//! Shared test harness: a gate strategy that blocks every solve until the
//! test releases it — the deterministic way to hold jobs "in flight" or
//! "queued" while asserting queue behaviour (cancel, busy, priority,
//! drain ordering).
#![allow(dead_code)] // each test binary uses a different subset

use std::sync::{Arc, Condvar, Mutex};

use engine::{
    CancelToken, Engine, EngineConfig, Provenance, SolveJob, Strategy, StrategyBudget,
    StrategyOutcome,
};
use proto::JobRequest;

/// Blocks every `run` until [`Gate::open`]; counts started runs.
#[derive(Debug, Default)]
pub struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    open: bool,
    started: usize,
}

impl Gate {
    /// A closed gate.
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate::default())
    }

    /// Releases every waiting (and future) run.
    pub fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    /// Blocks until `n` runs have started (i.e. are holding the gate).
    pub fn wait_started(&self, n: usize) {
        let mut state = self.state.lock().unwrap();
        while state.started < n {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.started += 1;
        self.cv.notify_all();
        while !state.open {
            state = self.cv.wait(state).unwrap();
        }
    }
}

/// The strategy wrapper around a [`Gate`].
#[derive(Debug)]
pub struct GateStrategy(pub Arc<Gate>);

impl Strategy for GateStrategy {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn provenance(&self) -> Provenance {
        Provenance::Trivial
    }

    fn estimate(&self, _job: &SolveJob<'_>) -> f64 {
        1.0
    }

    fn run(
        &self,
        job: &SolveJob<'_>,
        _budget: &StrategyBudget,
        _cancel: &CancelToken,
    ) -> StrategyOutcome {
        self.0.pass();
        StrategyOutcome {
            partition: ebmf::trivial_partition(job.matrix),
            proved_optimal: false,
            conflicts: 0,
            certificate: None,
        }
    }
}

/// An engine whose only strategy is the gate (deterministic blocking).
pub fn gated_engine(gate: &Arc<Gate>, workers: usize) -> Arc<Engine> {
    let config = EngineConfig {
        workers,
        ..EngineConfig::default()
    };
    Arc::new(Engine::with_strategies(
        config,
        vec![Arc::new(GateStrategy(gate.clone()))],
    ))
}

/// The i-th of a family of distinct small matrices. Distinct weights ⇒
/// distinct permutation classes, so no two jobs coalesce into one
/// single-flight cache race.
pub fn distinct_matrix(i: usize) -> bitmatrix::BitMatrix {
    let n = 4;
    bitmatrix::BitMatrix::from_fn(n, n, |r, c| (r * n + c) < (i % (n * n)) + 1)
}

/// A job over [`distinct_matrix`].
pub fn distinct_job(id: &str, i: usize) -> JobRequest {
    JobRequest::new(id, distinct_matrix(i))
}

/// The `Threads:` line of `/proc/self/status`: every thread of the
/// process, so a test reading it needs a test binary of its own.
pub fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}
