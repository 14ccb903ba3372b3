//! Property test: a sharded cache is observationally identical to a
//! single-shard cache. Random lookup/insert/begin-complete streams over a pool
//! of distinct matrices must produce byte-identical outcomes on both, as
//! long as capacity is not exceeded (per-shard LRU order is shard-local, so
//! equivalence is only promised below capacity).

use proptest::prelude::*;
use rect_addr_engine::{canonical_form, CacheDecision, CanonicalCache, CanonicalForm, Provenance};

use bitmatrix::BitMatrix;
use ebmf::{row_packing, PackingConfig, Partition};

/// Distinct small matrices (different shapes → distinct canonical keys).
fn pool() -> Vec<BitMatrix> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(40);
    (0..6)
        .map(|i| bitmatrix::random_matrix(3 + i % 3, 4 + i / 3, 0.5, &mut rng))
        .collect()
}

/// The observable bytes of a lookup result.
fn render(outcome: Option<(Partition, bool, Provenance)>) -> String {
    match outcome {
        None => "miss".to_string(),
        Some((p, proved, prov)) => format!("{p}|{proved}|{prov}"),
    }
}

/// A lookup that aborts the flight of a miss by dropping its guard.
fn get_bytes(cache: &CanonicalCache, canon: &CanonicalForm) -> String {
    render(match cache.begin(canon) {
        CacheDecision::Hit { outcome, .. } => Some((
            outcome.partition,
            outcome.proved_optimal,
            outcome.provenance,
        )),
        CacheDecision::Miss(_) => None,
    })
}

/// One deterministic op applied identically to both caches.
fn apply(cache: &CanonicalCache, canon: &CanonicalForm, op: u8, p: &Partition) -> String {
    match op % 3 {
        0 => get_bytes(cache, canon),
        1 => {
            cache.insert(canon, p, false, Provenance::Packing);
            get_bytes(cache, canon)
        }
        _ => match cache.begin(canon) {
            CacheDecision::Hit { outcome, waited } => {
                assert!(!waited, "single-threaded stream cannot wait");
                render(Some((
                    outcome.partition,
                    outcome.proved_optimal,
                    outcome.provenance,
                )))
            }
            CacheDecision::Miss(guard) => {
                guard.complete(canon, p, true, Provenance::Sap);
                format!("lead|{}", get_bytes(cache, canon))
            }
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_cache_matches_single_shard(
        ops in proptest::collection::vec((0u8..3, 0usize..6), 1..60)
    ) {
        let matrices = pool();
        let canons: Vec<CanonicalForm> = matrices.iter().map(canonical_form).collect();
        let partitions: Vec<Partition> = matrices
            .iter()
            .map(|m| row_packing(m, &PackingConfig::with_trials(2)))
            .collect();

        // Ample capacity: equivalence is promised below eviction pressure.
        let sharded = CanonicalCache::with_shards(64, 8);
        let single = CanonicalCache::with_shards(64, 1);

        for (step, &(op, idx)) in ops.iter().enumerate() {
            let a = apply(&sharded, &canons[idx], op, &partitions[idx]);
            let b = apply(&single, &canons[idx], op, &partitions[idx]);
            prop_assert_eq!(a, b, "divergence at step {} (op {}, matrix {})", step, op, idx);
        }

        // Aggregate counters agree too (shard count aside).
        let (sa, sb) = (sharded.stats(), single.stats());
        prop_assert_eq!(sa.hits, sb.hits);
        prop_assert_eq!(sa.misses, sb.misses);
        prop_assert_eq!(sa.entries, sb.entries);
        prop_assert_eq!(sa.evictions, 0);
        prop_assert_eq!(sb.evictions, 0);
    }
}
