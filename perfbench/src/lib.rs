//! The repository benchmark: four seeded traffic mixes driven end to end
//! over the event-loop socket server, plus a traced per-layer waterfall
//! over the same inputs. See `README.md` beside this crate for the metric
//! definitions and the layer-to-end-to-end mapping.

pub mod e2e;
pub mod report;
pub mod stats;
pub mod trace;
pub mod validate;
pub mod waterfall;
pub mod workloads;

/// Scratch directory (relative to the working directory) for sockets,
/// persisted state and span dumps. Relative, so Unix socket paths stay far
/// below the 108-byte `sun_path` limit wherever the checkout lives.
pub const RUN_DIR: &str = ".bench_run";

/// Creates [`RUN_DIR`] and returns a fresh path inside it, unique to this
/// call (process id and a per-process counter). Any stale file at that
/// path is removed.
pub fn run_path(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::fs::create_dir_all(RUN_DIR).expect("create the benchmark run directory");
    let path = std::path::Path::new(RUN_DIR).join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}
