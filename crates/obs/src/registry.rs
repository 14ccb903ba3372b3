//! Named metric registry with a process-global instance and a JSON
//! export path (atomic tmp+rename, same discipline as the service's
//! snapshot persistence).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::histogram::{Histogram, HistogramSummary};

/// Well-known metric names recorded by the serving stack. Layers
/// record into these; exporters (stats frame, `--metrics-dump`) read
/// every registered name back out, known or not.
pub mod names {
    /// Time a job spent in the service queue before a worker picked it
    /// up (µs).
    pub const QUEUE_WAIT_US: &str = "queue_wait_us";
    /// Canonical-form computation time (µs).
    pub const CANON_US: &str = "canon_us";
    /// Single-flight cache admission time, including any wait on an
    /// in-flight duplicate (µs).
    pub const CACHE_LOOKUP_US: &str = "cache_lookup_us";
    /// Time blocked on another worker's in-flight solve of the same
    /// canonical key (µs).
    pub const FLIGHT_WAIT_US: &str = "flight_wait_us";
    /// Wall time of one strategy race (µs).
    pub const RACE_US: &str = "race_us";
    /// End-to-end job latency including queue wait (µs).
    pub const JOB_US: &str = "job_us";
    /// SAT conflicts spent per SAP solve (count, not µs).
    pub const SAT_CONFLICTS: &str = "sat_conflicts";
    /// Snapshot flush duration (µs).
    pub const SNAPSHOT_FLUSH_US: &str = "snapshot_flush_us";
    /// Per-strategy race duration histograms are named with this
    /// prefix followed by the strategy name (for example
    /// `strategy_us_sap`).
    pub const STRATEGY_US_PREFIX: &str = "strategy_us_";
    /// Data-plane kernel/hot-loop timing histograms share this prefix
    /// (for example `kernel_us_canon_refine`); the profiling bench also
    /// records per-kernel micro timings under it.
    pub const KERNEL_US_PREFIX: &str = "kernel_us_";
    /// Signature-refinement time per canonization: the root refinement
    /// plus every refinement below an individualized vertex (µs).
    pub const KERNEL_US_CANON_REFINE: &str = "kernel_us_canon_refine";
    /// The rest of each canonization: initial labels, target cells, leaf
    /// rendering, automorphism pruning and the heuristic fallback (µs).
    pub const KERNEL_US_CANON_SEARCH: &str = "kernel_us_canon_search";
    /// One row-packing trial: residue decomposition over all rows (µs).
    pub const KERNEL_US_PACK_TRIAL: &str = "kernel_us_pack_trial";
    /// Pair-constraint generation inside the SAT encoder (µs).
    pub const KERNEL_US_ENCODE_PAIRS: &str = "kernel_us_encode_pairs";
    /// DLX problem construction per exact-cover row decomposition (µs).
    pub const KERNEL_US_DLX_SETUP: &str = "kernel_us_dlx_setup";

    /// Jobs fully completed by the service (counter).
    pub const JOBS_COMPLETED: &str = "jobs_completed";
    /// Jobs whose response carried a self-contained DRAT certificate
    /// (counter) — the throughput of the verified-answer pipeline.
    pub const CERTIFIED_JOBS: &str = "certified_jobs";
    /// Request lines that failed to parse (counter).
    pub const ERR_PARSE: &str = "errors_parse";
    /// Submissions rejected with backpressure (counter).
    pub const ERR_BUSY: &str = "errors_busy";
    /// Jobs expired in-queue past their deadline (counter).
    pub const ERR_DEADLINE: &str = "errors_deadline";
    /// Jobs canceled before completion (counter).
    pub const ERR_CANCELED: &str = "errors_canceled";
    /// Startup snapshot loads that failed for any reason other than
    /// the file not existing (counter).
    pub const SNAPSHOT_LOAD_FAILURES: &str = "snapshot_load_failures";
    /// Protocol-v2 `schedule` frames accepted by the service (counter).
    pub const SCHEDULE_JOBS: &str = "schedule_jobs";
    /// Layers answered on behalf of `schedule` frames — solved, failed,
    /// deadline-expired or canceled alike (counter).
    pub const SCHEDULE_LAYERS: &str = "schedule_layers";
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named collection of [`Histogram`]s and [`Counter`]s.
///
/// Lookup takes a read lock only on the fast path; metrics are created
/// on first use and live for the registry's lifetime.
#[derive(Default)]
pub struct Registry {
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
}

impl Registry {
    /// Creates an empty registry (tests; production code uses
    /// [`registry`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The histogram registered under `name`, created empty on first
    /// use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// The counter registered under `name`, created zeroed on first
    /// use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Digests of every registered histogram, sorted by name.
    pub fn histogram_summaries(&self) -> Vec<(String, HistogramSummary)> {
        self.histograms
            .read()
            .unwrap()
            .iter()
            .map(|(name, h)| (name.clone(), h.summary()))
            .collect()
    }

    /// Values of every registered counter, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// One-line JSON snapshot of every counter and histogram digest.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (name, value)) in self.counter_values().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_string(name), value);
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, s)) in self.histogram_summaries().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                json_string(name),
                s.count,
                s.sum,
                s.p50,
                s.p90,
                s.p99,
                s.max
            );
        }
        out.push_str("}}");
        out
    }

    /// Writes [`Registry::snapshot_json`] to `path` atomically: the
    /// snapshot lands in a `.tmp` sibling first and is renamed over the
    /// target, so a scraper never observes a torn file.
    pub fn dump_to_path(&self, path: &Path) -> io::Result<()> {
        let mut contents = self.snapshot_json();
        contents.push('\n');
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, contents)?;
        std::fs::rename(&tmp, path)
    }
}

/// The process-global registry every layer records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Minimal JSON string encoder for metric names (quotes, backslashes
/// and control characters escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_handles_are_shared_by_name() {
        let reg = Registry::new();
        reg.histogram("x").record(5);
        reg.histogram("x").record(7);
        assert_eq!(reg.histogram("x").count(), 2);
        assert_eq!(reg.histogram("y").count(), 0);
    }

    #[test]
    fn snapshot_json_lists_counters_and_histograms() {
        let reg = Registry::new();
        reg.counter(names::JOBS_COMPLETED).add(3);
        reg.histogram(names::JOB_US).record(1000);
        let json = reg.snapshot_json();
        assert!(json.contains("\"jobs_completed\": 3"), "{json}");
        assert!(json.contains("\"job_us\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"p99\": "), "{json}");
    }

    #[test]
    fn dump_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("obs-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let reg = Registry::new();
        reg.counter(names::JOBS_COMPLETED).inc();
        reg.dump_to_path(&path).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("\"jobs_completed\": 1"), "{contents}");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = registry() as *const Registry;
        let b = registry() as *const Registry;
        assert_eq!(a, b);
    }
}
