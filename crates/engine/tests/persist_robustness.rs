//! Property tests for snapshot robustness: arbitrary truncation and bit
//! corruption of a genuine snapshot must be rejected wholesale — the
//! engine never panics, never half-loads, and always cold-starts.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use proto::JobRequest;
use rect_addr_engine::persist::{load_snapshot, save_snapshot, snapshot_path, SnapshotError};
use rect_addr_engine::{Engine, EngineConfig};

fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    })
}

/// One genuine snapshot's bytes, built once: a donor engine solves a
/// SAT-hard rank-gap instance twice under a conflict budget too small to
/// prove it (so the recurrence parks an unproved warm session with a real
/// learnt core) and snapshots it.
fn genuine_snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("rect-addr-persist-prop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let donor = engine();
        let m = ebmf::gen::gap_benchmark(14, 14, 3, 5).matrix;
        let req = JobRequest::new("gap", m.clone()).with_conflicts(20);
        for _ in 0..2 {
            let out = donor.solve_job(&req);
            assert!(
                out.ok && !out.proved_optimal,
                "the budget must not prove it"
            );
        }
        assert!(donor.warm_sessions() >= 1);
        save_snapshot(&dir, &donor).expect("donor snapshot");
        let bytes = std::fs::read(snapshot_path(&dir)).expect("read snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.contains("\nc "),
            "the snapshot must carry core records"
        );
        bytes
    })
}

/// Writes `bytes` as the snapshot of a fresh state dir and loads it into
/// a fresh engine, asserting the all-or-nothing contract.
fn load_mutated(tag: u64, bytes: &[u8], must_fail: bool) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "rect-addr-persist-prop-case-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(snapshot_path(&dir), bytes).expect("write case");
    let fresh = engine();
    let result = load_snapshot(&dir, &fresh);
    match result {
        Ok(_) => {
            assert!(!must_fail, "corrupted snapshot accepted");
        }
        Err(e) => {
            assert!(
                matches!(
                    e,
                    SnapshotError::Corrupt(_) | SnapshotError::SchemaMismatch { .. }
                ),
                "unexpected error class: {e}"
            );
            // Rejected wholesale: nothing may have been installed.
            assert_eq!(fresh.warm_sessions(), 0, "half-loaded sessions");
            assert_eq!(fresh.restored_sessions(), 0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn truncated_snapshots_never_half_load(cut in 0usize..1_000_000) {
        let full = genuine_snapshot();
        let cut = cut % full.len();
        // Any strict prefix must be rejected (the trailing newline alone
        // is covered by the checksum, so even full.len()-1 fails).
        load_mutated(cut as u64, &full[..cut], true);
    }

    #[test]
    fn bitflipped_snapshots_never_half_load(
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let full = genuine_snapshot();
        let pos = pos % full.len();
        let mut bytes = full.to_vec();
        bytes[pos] ^= 1 << bit;
        load_mutated((pos as u64) << 3 | bit as u64, &bytes, true);
    }

    #[test]
    fn garbage_bytes_never_panic(seed in 0u64..u64::MAX) {
        // Arbitrary bytes (not derived from a genuine snapshot at all).
        let mut state = seed | 1;
        let len = (seed % 4096) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        load_mutated(seed, &bytes, true);
    }
}

#[test]
fn untouched_snapshot_loads_cleanly() {
    // Control case: the same harness accepts the genuine bytes.
    let full = genuine_snapshot();
    load_mutated(u64::MAX, full, false);
}
