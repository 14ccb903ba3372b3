//! Permutation-invariant memoization of solve outcomes: a sharded,
//! LRU-evicting map with **single-flight** solve coalescing.
//!
//! The cache is split into shards selected by key hash, each behind its own
//! mutex, so lookups from many workers never serialize on one lock. Within a
//! shard, entries carry a last-used tick and the least-recently-used entry
//! is evicted when a shard fills — new (hot) keys are never dropped in
//! favour of stale ones.
//!
//! Single-flight: [`CanonicalCache::begin`] registers a *pending* entry on a
//! miss and hands the caller a [`FlightGuard`]; concurrent callers of the
//! same canonical key block on the flight instead of racing duplicate
//! portfolios, and are answered the moment the leader completes. A leader
//! that unwinds without completing aborts the flight and wakes the waiters,
//! one of which then becomes the new leader.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use ebmf::Partition;

use crate::canon::CanonicalForm;
use crate::portfolio::Provenance;

/// A memoized solve outcome, stored in canonical coordinates.
#[derive(Debug, Clone)]
struct StoredEntry {
    partition: Partition,
    proved_optimal: bool,
    provenance: Provenance,
}

/// A solve outcome retrieved from (or destined for) the cache, already
/// mapped to the coordinates of the queried matrix.
#[derive(Debug, Clone)]
pub struct CachedOutcome {
    /// The partition, valid for the queried matrix.
    pub partition: Partition,
    /// Whether the stored depth was proved equal to the binary rank.
    pub proved_optimal: bool,
    /// Which strategy produced the stored result.
    pub provenance: Provenance,
}

/// Cache hit/miss/size counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (including flight waits).
    pub hits: u64,
    /// Lookups that had to solve.
    pub misses: u64,
    /// Entries currently stored (pending flights included).
    pub entries: u64,
    /// Entries dropped by per-shard LRU eviction.
    pub evictions: u64,
    /// Hits served by waiting on another worker's in-flight solve.
    pub flight_waits: u64,
    /// Number of shards the key space is split into.
    pub shards: u64,
    /// Lookups whose key came from the complete canonizer (guaranteed
    /// class-unique keys; see [`Completeness`](crate::Completeness)).
    pub canon_complete: u64,
    /// Lookups whose key came from the heuristic fallback (the search
    /// budget ran out; permuted duplicates may miss).
    pub canon_heuristic: u64,
    /// Distinct heuristic-labeled keys tracked per key (bounded; see
    /// [`CanonicalCache::hot_heuristic_keys`]).
    pub canon_heuristic_keys: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// State of one in-flight solve, shared between the leader and its waiters.
#[derive(Debug)]
struct Flight {
    /// `None` while in flight; `Some(result)` once resolved. An aborted
    /// flight resolves to `Some(None)`.
    state: Mutex<Option<Option<StoredEntry>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, entry: Option<StoredEntry>) {
        let mut state = self.state.lock().expect("flight mutex poisoned");
        if state.is_none() {
            *state = Some(entry);
            self.cv.notify_all();
        }
    }

    /// Blocks until the flight resolves; `None` means it was aborted.
    fn wait(&self) -> Option<StoredEntry> {
        let mut state = self.state.lock().expect("flight mutex poisoned");
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self.cv.wait(state).expect("flight mutex poisoned");
        }
    }
}

#[derive(Debug)]
enum Slot {
    Ready { entry: StoredEntry, last_used: u64 },
    Pending(std::sync::Arc<Flight>),
}

#[derive(Debug, Default)]
struct ShardMap {
    entries: HashMap<String, Slot>,
    /// Monotonic LRU clock, bumped on every touch.
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<ShardMap>,
}

/// Outcome of [`CanonicalCache::begin`].
#[derive(Debug)]
pub enum CacheDecision<'a> {
    /// The cache answered — either from a stored entry or by waiting on a
    /// concurrent flight for the same canonical key.
    Hit {
        /// The stored result, mapped to the caller's coordinates.
        outcome: CachedOutcome,
        /// `true` when this call blocked on another worker's in-flight
        /// solve. Proved results end the caller's work either way; an
        /// unproved waited-on result is only the leader's budget-limited
        /// bound, which a caller with a more generous budget may still
        /// improve (ideally by resuming the warm session, not repeating).
        waited: bool,
    },
    /// Genuine miss: the caller is the flight leader and **must** either
    /// [`FlightGuard::complete`] the guard or drop it (aborting the flight).
    Miss(FlightGuard<'a>),
}

/// Leadership of one in-flight solve; see [`CanonicalCache::begin`].
#[derive(Debug)]
pub struct FlightGuard<'a> {
    cache: &'a CanonicalCache,
    shard: usize,
    key: String,
    flight: std::sync::Arc<Flight>,
    done: bool,
}

impl FlightGuard<'_> {
    /// Publishes the solve result through [`CanonicalCache::insert`]
    /// (better-result-wins), which resolves this flight and wakes its
    /// waiters. An out-of-band `insert` that landed on the flight while it
    /// was open has resolved it already: a pending slot leaves the map only
    /// through an `insert` or this guard's drop, never by eviction.
    pub fn complete(
        mut self,
        canon: &CanonicalForm,
        partition: &Partition,
        proved_optimal: bool,
        provenance: Provenance,
    ) {
        debug_assert_eq!(canon.key(), self.key, "guard used with a different key");
        self.done = true;
        self.cache
            .insert(canon, partition, proved_optimal, provenance);
    }
}

/// The cache's replacement rule: smaller depth wins, then newly-proved.
fn better_than(candidate: &StoredEntry, existing: &StoredEntry) -> bool {
    candidate.partition.len() < existing.partition.len()
        || (candidate.proved_optimal && !existing.proved_optimal)
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Leader unwound without a result: drop the pending slot (unless an
        // out-of-band insert already made it ready) and wake the waiters so
        // one of them can take over.
        let shard = &self.cache.shards[self.shard];
        {
            let mut map = shard.map.lock().expect("cache shard poisoned");
            if matches!(map.entries.get(&self.key), Some(Slot::Pending(_))) {
                map.entries.remove(&self.key);
            }
        }
        self.flight.resolve(None);
    }
}

/// A thread-safe map from canonical matrix forms to solved partitions.
///
/// Keys are produced by [`canonical_form`](crate::canonical_form), so a hit
/// means the queried matrix is a row/column permutation of a previously
/// solved one; the stored partition is mapped back through the query's own
/// canonizing permutations before being returned. See the module docs for
/// the sharding, eviction and single-flight behaviour.
#[derive(Debug)]
pub struct CanonicalCache {
    shards: Box<[Shard]>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    flight_waits: AtomicU64,
    canon_complete: AtomicU64,
    canon_heuristic: AtomicU64,
    /// Per-key lookup counts of heuristic-labeled keys — the canonizer-aware
    /// admission signal: a hot heuristic key is a class the canonizer keeps
    /// failing to label completely, worth re-canonizing at a larger budget.
    /// Keyed by the full key's hash with a bounded preview, so memory is
    /// capped at [`HEURISTIC_KEY_CAP`] × [`HEURISTIC_KEY_PREVIEW`]-sized
    /// entries no matter how large the matrices' keys are. Sharded like
    /// the entry maps (same key → same index) so heuristic-heavy
    /// concurrent streams do not serialize on one lock.
    heuristic_keys: Box<[Mutex<HashMap<u64, HeuristicKeyCount>>]>,
}

/// One tracked heuristic key: a bounded preview plus its lookup count.
/// Identity is the full key's hash (the map key), so arbitrarily large
/// canonical keys never pin their bytes in the tracker.
#[derive(Debug)]
struct HeuristicKeyCount {
    preview: String,
    count: u64,
}

/// Bound on distinct heuristic keys tracked per cache (memory cap; lookups
/// beyond it still count in `canon_heuristic`, just not per key).
pub const HEURISTIC_KEY_CAP: usize = 4096;

/// Chars of a tracked heuristic key kept for reporting; longer keys are
/// truncated (identity is by full-key hash, so counting is unaffected).
pub const HEURISTIC_KEY_PREVIEW: usize = 64;

/// Default shard count of [`CanonicalCache::new`].
pub const DEFAULT_SHARDS: usize = 16;

impl CanonicalCache {
    /// An empty cache of [`DEFAULT_SHARDS`] shards holding at most
    /// `capacity` entries in total.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// An empty cache with an explicit shard count (rounded up to at least
    /// one); total capacity is split evenly across shards.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.div_ceil(shards).max(1);
        CanonicalCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            flight_waits: AtomicU64::new(0),
            canon_complete: AtomicU64::new(0),
            canon_heuristic: AtomicU64::new(0),
            heuristic_keys: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Per-shard bound on tracked heuristic keys, splitting
    /// [`HEURISTIC_KEY_CAP`] evenly.
    fn heuristic_cap_per_shard(&self) -> usize {
        HEURISTIC_KEY_CAP.div_ceil(self.heuristic_keys.len()).max(1)
    }

    /// Tallies which canonization path produced a lookup's key; heuristic
    /// keys are additionally counted per key (up to [`HEURISTIC_KEY_CAP`]
    /// distinct keys) so the hottest ones can be reported. The per-key
    /// counters live in the lookup key's own shard, off every other
    /// shard's path.
    fn note_canon(&self, canon: &CanonicalForm) {
        match canon.completeness() {
            crate::canon::Completeness::Complete => {
                self.canon_complete.fetch_add(1, Ordering::Relaxed);
            }
            crate::canon::Completeness::Heuristic => {
                self.canon_heuristic.fetch_add(1, Ordering::Relaxed);
                let hash = Self::key_hash(canon.key());
                let shard = (hash % self.heuristic_keys.len() as u64) as usize;
                let mut keys = self.heuristic_keys[shard]
                    .lock()
                    .expect("heuristic keys poisoned");
                if let Some(entry) = keys.get_mut(&hash) {
                    entry.count += 1;
                } else if keys.len() < self.heuristic_cap_per_shard() {
                    keys.insert(
                        hash,
                        HeuristicKeyCount {
                            preview: canon.key().chars().take(HEURISTIC_KEY_PREVIEW).collect(),
                            count: 1,
                        },
                    );
                }
            }
        }
    }

    /// The most-looked-up heuristic-labeled keys, hottest first (count
    /// ties break lexicographically for determinism), truncated to
    /// `limit`. Keys longer than [`HEURISTIC_KEY_PREVIEW`] chars are
    /// reported as previews. These are the permutation classes the
    /// complete canonizer kept falling back on — the candidates a
    /// canonizer-aware admission pass would re-canonize at a larger
    /// budget and merge.
    pub fn hot_heuristic_keys(&self, limit: usize) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = Vec::new();
        for shard in self.heuristic_keys.iter() {
            let keys = shard.lock().expect("heuristic keys poisoned");
            all.extend(keys.values().map(|e| (e.preview.clone(), e.count)));
        }
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(limit);
        all
    }

    fn key_hash(key: &str) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    fn shard_of(&self, key: &str) -> usize {
        (Self::key_hash(key) % self.shards.len() as u64) as usize
    }

    /// Evicts the least-recently-used ready entry when the shard is full.
    /// Pending flights are never evicted (waiters hold their `Arc`s); a
    /// shard that is transiently all-pending may overflow by the number of
    /// concurrent flights.
    fn make_room(&self, map: &mut ShardMap) {
        if map.entries.len() < self.capacity_per_shard {
            return;
        }
        let victim = map
            .entries
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready { last_used, .. } => Some((*last_used, k)),
                Slot::Pending(_) => None,
            })
            .min_by_key(|&(last_used, _)| last_used)
            .map(|(_, k)| k.clone());
        if let Some(key) = victim {
            map.entries.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn map_outcome(canon: &CanonicalForm, entry: &StoredEntry) -> CachedOutcome {
        CachedOutcome {
            partition: canon.partition_to_original(&entry.partition),
            proved_optimal: entry.proved_optimal,
            provenance: entry.provenance,
        }
    }

    /// The cache's lookup, single-flight: a ready entry answers
    /// immediately; a pending flight **blocks** until its leader publishes
    /// (the wait is counted as a hit); a genuine miss registers a pending
    /// entry and returns a [`FlightGuard`] making the caller the leader.
    /// The shard mutex guards only the map access; permutation mapping
    /// happens after unlock.
    pub fn begin(&self, canon: &CanonicalForm) -> CacheDecision<'_> {
        let lookup_start = std::time::Instant::now();
        let lookup_hist = obs::registry().histogram(obs::names::CACHE_LOOKUP_US);
        self.note_canon(canon);
        let shard_idx = self.shard_of(canon.key());
        let shard = &self.shards[shard_idx];
        loop {
            let flight = {
                let mut map = shard.map.lock().expect("cache shard poisoned");
                map.tick += 1;
                let tick = map.tick;
                match map.entries.get_mut(canon.key()) {
                    Some(Slot::Ready { entry, last_used }) => {
                        *last_used = tick;
                        let entry = entry.clone();
                        drop(map);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        lookup_hist.record_duration(lookup_start.elapsed());
                        return CacheDecision::Hit {
                            outcome: Self::map_outcome(canon, &entry),
                            waited: false,
                        };
                    }
                    Some(Slot::Pending(flight)) => flight.clone(),
                    None => {
                        self.make_room(&mut map);
                        let flight = std::sync::Arc::new(Flight::new());
                        map.entries
                            .insert(canon.key().to_string(), Slot::Pending(flight.clone()));
                        drop(map);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        lookup_hist.record_duration(lookup_start.elapsed());
                        return CacheDecision::Miss(FlightGuard {
                            cache: self,
                            shard: shard_idx,
                            key: canon.key().to_string(),
                            flight,
                            done: false,
                        });
                    }
                }
            };
            // Wait outside the shard lock. An aborted flight retries the
            // whole decision (this waiter may become the new leader).
            let wait_start = std::time::Instant::now();
            let waited = flight.wait();
            obs::registry()
                .histogram(obs::names::FLIGHT_WAIT_US)
                .record_duration(wait_start.elapsed());
            match waited {
                Some(entry) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.flight_waits.fetch_add(1, Ordering::Relaxed);
                    lookup_hist.record_duration(lookup_start.elapsed());
                    return CacheDecision::Hit {
                        outcome: Self::map_outcome(canon, &entry),
                        waited: true,
                    };
                }
                None => continue,
            }
        }
    }

    /// Stores a solved partition (given in the coordinates of the matrix
    /// `canon` was computed from). A better or newly-proved result replaces
    /// an existing entry; otherwise first-write wins. Inserting over a
    /// pending flight resolves it early (its waiters get this result). At
    /// capacity, the shard's least-recently-used entry is evicted.
    pub fn insert(
        &self,
        canon: &CanonicalForm,
        partition: &Partition,
        proved_optimal: bool,
        provenance: Provenance,
    ) {
        let entry = StoredEntry {
            partition: canon.partition_to_canonical(partition),
            proved_optimal,
            provenance,
        };
        let shard = &self.shards[self.shard_of(canon.key())];
        let resolved = {
            let mut map = shard.map.lock().expect("cache shard poisoned");
            map.tick += 1;
            let tick = map.tick;
            match map.entries.get_mut(canon.key()) {
                Some(Slot::Ready {
                    entry: existing,
                    last_used,
                }) => {
                    if better_than(&entry, existing) {
                        *existing = entry;
                    }
                    *last_used = tick;
                    None
                }
                Some(Slot::Pending(flight)) => {
                    let flight = flight.clone();
                    map.entries.insert(
                        canon.key().to_string(),
                        Slot::Ready {
                            entry: entry.clone(),
                            last_used: tick,
                        },
                    );
                    Some((flight, entry))
                }
                None => {
                    self.make_room(&mut map);
                    map.entries.insert(
                        canon.key().to_string(),
                        Slot::Ready {
                            entry,
                            last_used: tick,
                        },
                    );
                    None
                }
            }
        };
        if let Some((flight, entry)) = resolved {
            flight.resolve(Some(entry));
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.map.lock().expect("cache shard poisoned").entries.len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            flight_waits: self.flight_waits.load(Ordering::Relaxed),
            shards: self.shards.len() as u64,
            canon_complete: self.canon_complete.load(Ordering::Relaxed),
            canon_heuristic: self.canon_heuristic.load(Ordering::Relaxed),
            canon_heuristic_keys: self
                .heuristic_keys
                .iter()
                .map(|s| s.lock().expect("heuristic keys poisoned").len() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonical_form;
    use bitmatrix::BitMatrix;
    use ebmf::{row_packing, PackingConfig};

    /// A lookup through [`CanonicalCache::begin`] that gives up the flight
    /// of a miss: dropping its guard aborts the flight.
    fn lookup(cache: &CanonicalCache, canon: &CanonicalForm) -> Option<CachedOutcome> {
        match cache.begin(canon) {
            CacheDecision::Hit { outcome, .. } => Some(outcome),
            CacheDecision::Miss(_) => None,
        }
    }

    #[test]
    fn miss_then_hit_on_permuted_duplicate() {
        let cache = CanonicalCache::new(64);
        let m: BitMatrix = "111100\n010011\n101010\n010100\n111001\n000111"
            .parse()
            .unwrap();
        let canon = canonical_form(&m);
        assert!(lookup(&cache, &canon).is_none());
        assert_eq!(cache.stats().entries, 0, "the aborted flight left nothing");

        let p = row_packing(&m, &PackingConfig::with_trials(8));
        cache.insert(&canon, &p, false, Provenance::Packing);

        // A row/col-permuted duplicate must hit and yield a valid partition
        // in *its* coordinates.
        let dup = m.submatrix(&[5, 0, 3, 2, 4, 1], &[1, 0, 2, 5, 4, 3]);
        let dup_canon = canonical_form(&dup);
        let hit = lookup(&cache, &dup_canon).expect("permuted duplicate must hit");
        assert!(hit.partition.validate(&dup).is_ok());
        assert_eq!(hit.partition.len(), p.len());
        assert_eq!(hit.provenance, Provenance::Packing);

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
        assert_eq!(stats.canon_complete, 2, "both lookups used complete keys");
        assert_eq!(stats.canon_heuristic, 0);
    }

    #[test]
    fn stats_count_heuristic_keys_separately() {
        use crate::canon::{canonical_form_with, CanonOptions};
        let cache = CanonicalCache::new(8);
        // Fig. 1b is biregular: a zero search budget forces the heuristic.
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let canon = canonical_form_with(&m, &CanonOptions { max_branches: 0 });
        assert!(!canon.is_complete());
        assert!(lookup(&cache, &canon).is_none());
        let stats = cache.stats();
        assert_eq!((stats.canon_complete, stats.canon_heuristic), (0, 1));
        assert_eq!(stats.canon_heuristic_keys, 1);
    }

    #[test]
    fn hot_heuristic_keys_rank_by_lookup_count() {
        use crate::canon::{canonical_form_with, CanonOptions};
        let cache = CanonicalCache::new(8);
        let opts = CanonOptions { max_branches: 0 };
        // Two distinct biregular classes, both heuristic at budget 0.
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let id2: BitMatrix = "10\n01".parse().unwrap();
        let cm = canonical_form_with(&m, &opts);
        let cid = canonical_form_with(&id2, &opts);
        assert!(!cm.is_complete() && !cid.is_complete());
        for _ in 0..3 {
            lookup(&cache, &cm);
        }
        lookup(&cache, &cid);

        let hot = cache.hot_heuristic_keys(10);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0], (cm.key().to_string(), 3), "hottest key first");
        assert_eq!(hot[1], (cid.key().to_string(), 1));
        assert_eq!(cache.hot_heuristic_keys(1).len(), 1, "limit respected");
        assert_eq!(cache.stats().canon_heuristic_keys, 2);
    }

    #[test]
    fn heuristic_key_tracking_stores_bounded_previews() {
        use crate::canon::{canonical_form_with, CanonOptions};
        let cache = CanonicalCache::new(8);
        // An 8×8 identity: vertex-transitive, so heuristic at budget 0,
        // with a key (71 chars) longer than the preview bound.
        let rows: Vec<String> = (0..8)
            .map(|i| (0..8).map(|j| if i == j { '1' } else { '0' }).collect())
            .collect();
        let m: BitMatrix = rows.join("\n").parse().unwrap();
        let canon = canonical_form_with(&m, &CanonOptions { max_branches: 0 });
        assert!(!canon.is_complete());
        assert!(canon.key().len() > HEURISTIC_KEY_PREVIEW);
        lookup(&cache, &canon);
        lookup(&cache, &canon);
        let hot = cache.hot_heuristic_keys(4);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0.len(), HEURISTIC_KEY_PREVIEW, "preview bounded");
        assert_eq!(hot[0].0, canon.key()[..HEURISTIC_KEY_PREVIEW]);
        assert_eq!(hot[0].1, 2, "counted by full-key hash, not preview");
    }

    #[test]
    fn better_result_replaces_entry() {
        let cache = CanonicalCache::new(4);
        let m: BitMatrix = "11\n11".parse().unwrap();
        let canon = canonical_form(&m);
        let unproved = ebmf::trivial_partition(&m);
        cache.insert(&canon, &unproved, false, Provenance::Trivial);
        let best = row_packing(&m, &PackingConfig::with_trials(2));
        cache.insert(&canon, &best, true, Provenance::Sap);
        let hit = lookup(&cache, &canon).unwrap();
        assert!(hit.proved_optimal);
    }

    #[test]
    fn lru_eviction_drops_the_stalest_entry() {
        let cache = CanonicalCache::with_shards(2, 1);
        let a: BitMatrix = "10\n01".parse().unwrap();
        let b: BitMatrix = "111\n111".parse().unwrap();
        let c: BitMatrix = "1010\n0101".parse().unwrap();
        let (ca, cb, cc) = (canonical_form(&a), canonical_form(&b), canonical_form(&c));
        cache.insert(&ca, &ebmf::trivial_partition(&a), true, Provenance::Trivial);
        cache.insert(&cb, &ebmf::trivial_partition(&b), true, Provenance::Trivial);
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert!(lookup(&cache, &ca).is_some());
        cache.insert(&cc, &ebmf::trivial_partition(&c), true, Provenance::Trivial);

        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(
            lookup(&cache, &ca).is_some(),
            "recently-used entry survives"
        );
        assert!(lookup(&cache, &cc).is_some(), "new entry was stored");
        // Checked last: the miss makes room for its own flight.
        assert!(lookup(&cache, &cb).is_none(), "stalest entry was evicted");
    }

    #[test]
    fn begin_leads_then_hits() {
        let cache = CanonicalCache::new(16);
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        let canon = canonical_form(&m);
        let p = ebmf::trivial_partition(&m);
        match cache.begin(&canon) {
            CacheDecision::Miss(guard) => guard.complete(&canon, &p, true, Provenance::Trivial),
            CacheDecision::Hit { .. } => panic!("empty cache cannot hit"),
        }
        match cache.begin(&canon) {
            CacheDecision::Hit { outcome, waited } => {
                assert!(outcome.proved_optimal);
                assert!(!waited, "stored entry needs no flight wait");
                assert_eq!(outcome.partition.len(), p.len());
            }
            CacheDecision::Miss(_) => panic!("completed flight must hit"),
        };
    }

    #[test]
    fn aborted_flight_elects_a_new_leader() {
        let cache = CanonicalCache::new(16);
        let m: BitMatrix = "10\n01".parse().unwrap();
        let canon = canonical_form(&m);
        match cache.begin(&canon) {
            CacheDecision::Miss(guard) => drop(guard), // leader gives up
            CacheDecision::Hit { .. } => panic!("empty cache cannot hit"),
        }
        // The key is free again: the next caller leads a fresh flight.
        match cache.begin(&canon) {
            CacheDecision::Miss(guard) => {
                guard.complete(
                    &canon,
                    &ebmf::trivial_partition(&m),
                    true,
                    Provenance::Trivial,
                );
            }
            CacheDecision::Hit { .. } => panic!("aborted flight must not publish"),
        }
        assert!(lookup(&cache, &canon).is_some());
    }

    #[test]
    fn waiters_are_served_by_the_leader() {
        let cache = std::sync::Arc::new(CanonicalCache::new(16));
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        let canon = canonical_form(&m);
        let p = ebmf::trivial_partition(&m);

        let guard = match cache.begin(&canon) {
            CacheDecision::Miss(guard) => guard,
            CacheDecision::Hit { .. } => panic!("empty cache cannot hit"),
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                let canon = canonical_form(&m);
                std::thread::spawn(move || match cache.begin(&canon) {
                    CacheDecision::Hit { outcome, waited } => {
                        assert!(waited, "waiter must block on the flight");
                        outcome.partition.len()
                    }
                    CacheDecision::Miss(_) => panic!("waiter must not lead"),
                })
            })
            .collect();
        // Give the waiters a moment to block on the flight, then publish.
        std::thread::sleep(std::time::Duration::from_millis(20));
        guard.complete(&canon, &p, true, Provenance::Trivial);
        for w in waiters {
            assert_eq!(w.join().expect("waiter panicked"), p.len());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one leader");
        assert_eq!(stats.hits, 4);
        assert!(stats.flight_waits >= 1, "at least one waiter blocked");
    }
}
