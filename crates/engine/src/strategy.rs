//! The phases of the engine's pipeline (paper Algorithm 1): the trivial
//! partition, shuffled row packing (Algorithm 2) and the SAP descent, each
//! one [`Strategy`] run by [`race_strategies`](crate::race_strategies) in
//! roster order.
//!
//! [`SessionStore`] lives here too: warm [`SapSession`]s keyed by canonical
//! form, so a later job on the same permutation class *resumes* the SAT
//! descent (learnt clauses, activities, incumbent) instead of re-encoding.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bitmatrix::BitMatrix;
use ebmf::{
    lower_bound, trivial_partition, LowerBound, PackingConfig, Partition, SapConfig, SapSession,
    SessionExport,
};
use sat::CancelToken;

use crate::canon::CanonicalForm;
use crate::persist::DEFAULT_MAX_CORE_CLAUSES;
use crate::portfolio::Provenance;

/// One solve request as a strategy sees it.
#[derive(Debug, Clone, Copy)]
pub struct SolveJob<'a> {
    /// The matrix to factorize, in the caller's coordinates.
    pub matrix: &'a BitMatrix,
    /// Canonical form of `matrix` when the caller computed one. Strategies
    /// that keep per-class state (warm SAP sessions) key it off this.
    pub canon: Option<&'a CanonicalForm>,
    /// A known-valid upper bound, in `matrix` coordinates, for strategies
    /// that can descend from it: inside a race, the best partition of the
    /// phases so far (or the job's cached one, when that is better).
    pub incumbent: Option<&'a Partition>,
}

/// Resource budget for one [`Strategy::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyBudget {
    /// Wall-clock budget. [`race_strategies`](crate::race_strategies)
    /// enforces it through the deadline of the cancel token it hands every
    /// phase; a strategy reads only the token.
    pub time: Option<Duration>,
    /// SAT conflict budget per query (`None` = unlimited).
    pub conflicts: Option<u64>,
    /// Row-packing trials.
    pub packing_trials: usize,
    /// Record clausal proofs so a proving strategy can attach a
    /// self-contained DRAT certificate to its outcome.
    pub certify: bool,
    /// The job's real-rank floor (paper Eq. 3), a sound lower bound on its
    /// binary rank. [`race_strategies`](crate::race_strategies) computes it
    /// once per job, so no phase computes it again, and a phase may stop
    /// as soon as its partition reaches it. `None` outside a race.
    pub floor: Option<LowerBound>,
    /// The job's class was answered before: it arrived with a cached,
    /// unproved incumbent. Per-class state that would only pay off on a
    /// recurrence (an unproved SAP session) is kept for such jobs.
    pub recurring: bool,
}

/// Result of one [`Strategy::run`].
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// The partition found, in the job's coordinates (always valid).
    pub partition: Partition,
    /// Whether the depth was proved equal to the binary rank.
    pub proved_optimal: bool,
    /// SAT conflicts spent by this run (0 for pure heuristics).
    pub conflicts: u64,
    /// Self-contained DRAT refutation of the depth bound below
    /// [`StrategyOutcome::partition`], when [`StrategyBudget::certify`] was
    /// set and optimality was concluded from an UNSAT answer. The bound it
    /// certifies is permutation-invariant, so a certificate produced in
    /// canonical coordinates is valid for the job's original matrix too.
    pub certificate: Option<ebmf::UnsatCertificate>,
}

/// One phase of the engine's pipeline.
///
/// Implementations must be cheap to share (`Send + Sync`): one instance
/// serves every job of an [`Engine`](crate::Engine), concurrently.
pub trait Strategy: Send + Sync + std::fmt::Debug {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// The provenance tag reported when this strategy's answer wins.
    fn provenance(&self) -> Provenance;

    /// Coarse relative cost estimate for `job` (lower = expected to report
    /// sooner). Nothing calls it: phases run in roster order.
    fn estimate(&self, _job: &SolveJob<'_>) -> f64 {
        0.0
    }

    /// Solves `job` under `budget`, polling `cancel` cooperatively: once
    /// the token trips the strategy must return its best incumbent quickly.
    fn run(
        &self,
        job: &SolveJob<'_>,
        budget: &StrategyBudget,
        cancel: &CancelToken,
    ) -> StrategyOutcome;
}

/// The `min(#rows, #cols)` baseline (paper §III-B): microseconds, and the
/// pipeline's first incumbent. The race proves it when it meets the floor.
#[derive(Debug, Default)]
pub struct TrivialStrategy;

impl Strategy for TrivialStrategy {
    fn name(&self) -> &'static str {
        "trivial"
    }

    fn provenance(&self) -> Provenance {
        Provenance::Trivial
    }

    fn run(&self, job: &SolveJob<'_>, _: &StrategyBudget, _: &CancelToken) -> StrategyOutcome {
        StrategyOutcome {
            partition: trivial_partition(job.matrix),
            proved_optimal: false,
            conflicts: 0,
            certificate: None,
        }
    }
}

/// Shuffled greedy row packing (paper Algorithm 2): up to
/// [`StrategyBudget::packing_trials`] trials, stopping at the floor.
/// Cancellable per trial.
#[derive(Debug, Default)]
pub struct PackingStrategy;

impl Strategy for PackingStrategy {
    fn name(&self) -> &'static str {
        "packing"
    }

    fn provenance(&self) -> Provenance {
        Provenance::Packing
    }

    fn run(
        &self,
        job: &SolveJob<'_>,
        budget: &StrategyBudget,
        cancel: &CancelToken,
    ) -> StrategyOutcome {
        let partition = ebmf::row_packing_cancellable(
            job.matrix,
            &PackingConfig::with_trials(budget.packing_trials),
            budget.floor.map_or(1, |lb| lb.value),
            cancel,
        );
        StrategyOutcome {
            partition,
            proved_optimal: false,
            conflicts: 0,
            certificate: None,
        }
    }
}

/// One parked entry of the [`SessionStore`]: a live in-memory session, or
/// a disk-shaped export waiting to be rehydrated on first use. Both
/// variants are boxed: sessions and exports are hundreds of bytes, and
/// the map only touches the discriminant on most operations.
#[derive(Debug)]
enum SessionSlot {
    Live(Box<SapSession>),
    Spilled(Box<SessionExport>),
}

/// Bounded store of warm [`SapSession`]s keyed by canonical form.
///
/// A session is *taken out* while a job runs it (so it is never shared
/// between threads) and put back afterwards. Nothing stops two jobs of one
/// class from solving at once: the engine re-races a cached unproved entry
/// outside any single-flight, so a concurrent job of the class may find
/// the session taken and start cold — which costs work, never
/// correctness. When full, a new key's session evicts the least recently
/// put one, so the store follows the classes that recur now, not the
/// first `capacity` it saw.
///
/// Entries restored from a snapshot ([`SessionStore::install_spilled`])
/// stay in their serialized [`SessionExport`] form until their canonical
/// class is actually queried again: [`SessionStore::take`] rehydrates them
/// **lazily**, so a restart pays re-encoding cost only for classes that
/// recur. An export that fails validation is discarded (the class simply
/// cold-starts).
#[derive(Debug)]
pub struct SessionStore {
    /// Each entry with the tick of the put (or install) that parked it.
    map: Mutex<HashMap<String, (u64, SessionSlot)>>,
    /// The next tick; advanced under the `map` lock.
    ticks: AtomicU64,
    capacity: usize,
}

impl SessionStore {
    /// An empty store keeping at most `capacity` sessions.
    pub fn new(capacity: usize) -> Self {
        SessionStore {
            map: Mutex::new(HashMap::new()),
            ticks: AtomicU64::new(0),
            capacity,
        }
    }

    /// Removes and returns the session for `key`, if present, rehydrating
    /// a spilled entry on the way out towards `floor`, the class's lower
    /// bound (`None` if rehydration fails — the caller cold-starts, which
    /// is always sound).
    pub fn take(&self, key: &str, floor: LowerBound) -> Option<SapSession> {
        let (_, slot) = self
            .map
            .lock()
            .expect("session store poisoned")
            .remove(key)?;
        match slot {
            SessionSlot::Live(session) => Some(*session),
            SessionSlot::Spilled(export) => SapSession::import(&export, floor).ok(),
        }
    }

    /// Stores `session` under `key`. A new key in a full store evicts the
    /// least recently put session first.
    pub fn put(&self, key: &str, session: SapSession) {
        let mut map = self.map.lock().expect("session store poisoned");
        if map.len() >= self.capacity && !map.contains_key(key) {
            let Some(oldest) = map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
            else {
                return; // capacity 0 keeps nothing
            };
            map.remove(&oldest);
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        map.insert(
            key.to_string(),
            (tick, SessionSlot::Live(Box::new(session))),
        );
    }

    /// Installs a serialized session (snapshot restore path) without
    /// rehydrating it; returns whether it was kept. It never overwrites
    /// and never evicts: a running server's in-memory state beats the
    /// disk's, and a full store drops the newcomer.
    pub fn install_spilled(&self, key: &str, export: SessionExport) -> bool {
        let mut map = self.map.lock().expect("session store poisoned");
        if map.contains_key(key) || map.len() >= self.capacity {
            return false;
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        map.insert(
            key.to_string(),
            (tick, SessionSlot::Spilled(Box::new(export))),
        );
        true
    }

    /// Exports every parked session (live ones serialize their strongest
    /// [`DEFAULT_MAX_CORE_CLAUSES`] learnt clauses; spilled ones pass
    /// through) — the snapshot save path. Non-destructive. Holds the store
    /// lock for the whole pass (a live session can only be read under it),
    /// so concurrent `take`/`put` calls stall for the serialization — which
    /// is why the serving layer runs snapshots off the job path.
    pub fn export_all(&self) -> Vec<(String, SessionExport)> {
        let map = self.map.lock().expect("session store poisoned");
        map.iter()
            .map(|(key, (_, slot))| {
                let export = match slot {
                    SessionSlot::Live(session) => session.export(DEFAULT_MAX_CORE_CLAUSES),
                    SessionSlot::Spilled(export) => (**export).clone(),
                };
                (key.clone(), export)
            })
            .collect()
    }

    /// Number of stored sessions (live and spilled).
    pub fn len(&self) -> usize {
        self.map.lock().expect("session store poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The SAP descent (paper Algorithm 1, step 3) — the only strategy that
/// can prove optimality above the floor. It starts from the job's
/// incumbent and the budget's floor instead of packing again. With a
/// [`SessionStore`] attached, jobs carrying a canonical form resume the
/// per-class incremental SAT session (warm start); without one, every run
/// encodes from scratch.
pub struct SapStrategy {
    warm: Option<Arc<SessionStore>>,
}

impl SapStrategy {
    /// A cold strategy: every run re-encodes from scratch.
    pub fn cold() -> Self {
        SapStrategy { warm: None }
    }

    /// A warm strategy resuming sessions from `store`.
    pub fn warm(store: Arc<SessionStore>) -> Self {
        SapStrategy { warm: Some(store) }
    }
}

impl std::fmt::Debug for SapStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SapStrategy")
            .field("warm", &self.warm.is_some())
            .finish()
    }
}

impl Strategy for SapStrategy {
    fn name(&self) -> &'static str {
        "sap"
    }

    fn provenance(&self) -> Provenance {
        Provenance::Sap
    }

    /// Parks a warm session only where a later job can use it: once proved
    /// (it then answers its class without an encoding, across restarts
    /// too), or when its class has recurred — the session came out of the
    /// store, or the job carried a cached incumbent. An unproved session
    /// holds its whole encoding: a median of 656 KiB of heap after one
    /// query on the 10×10, 40%-ones layers of perfbench's
    /// `circuit-schedule` mix, and about 230 MiB for a 40×40 with 464 ones.
    fn run(
        &self,
        job: &SolveJob<'_>,
        budget: &StrategyBudget,
        cancel: &CancelToken,
    ) -> StrategyOutcome {
        let cfg = SapConfig {
            conflict_budget: budget.conflicts,
            cancel: Some(cancel.clone()),
            certify: budget.certify,
            ..SapConfig::default()
        };
        // Outside a race nothing handed these down: the trivial partition
        // and the real rank stand in.
        let incumbent = job
            .incumbent
            .cloned()
            .unwrap_or_else(|| trivial_partition(job.matrix));
        let floor = budget
            .floor
            .unwrap_or_else(|| lower_bound(job.matrix, false));
        // Warm sessions live in canonical coordinates, cold ones in the
        // job's.
        let warm = job.canon.zip(self.warm.as_ref());
        let (mut session, recurred) = match warm {
            Some((canon, store)) => {
                let incumbent = canon.partition_to_canonical(&incumbent);
                match store.take(canon.key(), floor) {
                    Some(mut session) => {
                        session.offer_incumbent(&incumbent);
                        (session, true)
                    }
                    None => (
                        SapSession::seeded(&canon.matrix, incumbent, floor),
                        budget.recurring,
                    ),
                }
            }
            None => (SapSession::seeded(job.matrix, incumbent, floor), false),
        };
        let before = session.total_conflicts();
        let out = session.run(&cfg);
        let conflicts = session.total_conflicts() - before;
        obs::registry()
            .histogram(obs::names::SAT_CONFLICTS)
            .record(conflicts);
        let partition = match warm {
            Some((canon, store)) => {
                if out.proved_optimal || recurred {
                    store.put(canon.key(), session);
                }
                canon.partition_to_original(&out.partition)
            }
            None => out.partition,
        };
        debug_assert!(partition.validate(job.matrix).is_ok());
        StrategyOutcome {
            partition,
            proved_optimal: out.proved_optimal,
            conflicts,
            // A certificate refutes a *depth bound*; depth is permutation-
            // invariant, so one from canonical coordinates stands for the
            // job's matrix unchanged.
            certificate: out.certificate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canonical_form, canonical_form_with};
    use crate::persist::{load_snapshot, save_snapshot};
    use crate::{Engine, EngineConfig, PortfolioConfig};

    fn fig1b() -> BitMatrix {
        "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap()
    }

    fn budget() -> StrategyBudget {
        StrategyBudget {
            time: Some(Duration::from_secs(5)),
            conflicts: None,
            packing_trials: 8,
            certify: false,
            floor: None,
            recurring: false,
        }
    }

    fn all_strategies() -> Vec<Arc<dyn Strategy>> {
        vec![
            Arc::new(TrivialStrategy),
            Arc::new(PackingStrategy),
            Arc::new(SapStrategy::cold()),
        ]
    }

    #[test]
    fn every_strategy_returns_a_valid_partition() {
        let m = fig1b();
        let job = SolveJob {
            matrix: &m,
            canon: None,
            incumbent: None,
        };
        let token = CancelToken::new();
        for s in all_strategies() {
            let out = s.run(&job, &budget(), &token);
            assert!(
                out.partition.validate(&m).is_ok(),
                "{} returned invalid partition",
                s.name()
            );
            assert!(!s.provenance().as_str().is_empty());
        }
    }

    #[test]
    fn sap_strategy_proves_fig1b_and_reports_conflicts() {
        let m = fig1b();
        let job = SolveJob {
            matrix: &m,
            canon: None,
            incumbent: None,
        };
        let out = SapStrategy::cold().run(&job, &budget(), &CancelToken::new());
        assert!(out.proved_optimal);
        assert_eq!(out.partition.len(), 5);
    }

    #[test]
    fn warm_sap_reuses_the_session_across_permuted_jobs() {
        let store = Arc::new(SessionStore::new(8));
        let strat = SapStrategy::warm(store.clone());
        // Irregular degrees: the signature canonizer is exact here (only
        // biregular matrices like fig1b can confuse it).
        let m: BitMatrix = "111100\n010011\n101010\n010100\n111001\n000111"
            .parse()
            .unwrap();
        let canon = canonical_form(&m);
        let job = SolveJob {
            matrix: &m,
            canon: Some(&canon),
            incumbent: None,
        };
        let first = strat.run(&job, &budget(), &CancelToken::new());
        assert!(first.partition.validate(&m).is_ok());
        assert_eq!(store.len(), 1, "session parked after the run");

        // A permuted duplicate maps onto the same canonical key: the proved
        // session answers with zero fresh conflicts.
        let dup = m.submatrix(&[5, 0, 3, 2, 4, 1], &[1, 0, 2, 5, 4, 3]);
        let dup_canon = canonical_form(&dup);
        assert_eq!(canon.key(), dup_canon.key(), "same canonical class");
        let dup_job = SolveJob {
            matrix: &dup,
            canon: Some(&dup_canon),
            incumbent: None,
        };
        let second = strat.run(&dup_job, &budget(), &CancelToken::new());
        assert_eq!(second.proved_optimal, first.proved_optimal);
        if first.proved_optimal {
            assert_eq!(second.conflicts, 0, "proved session re-spends nothing");
        }
        assert!(second.partition.validate(&dup).is_ok());
        assert_eq!(second.partition.len(), first.partition.len());
    }

    #[test]
    fn session_store_evicts_the_least_recently_put_when_full() {
        let store = SessionStore::new(2);
        let cfg = SapConfig::default();
        let session = |n| SapSession::new(&BitMatrix::identity(n), &cfg);
        let floor = |n| lower_bound(&BitMatrix::identity(n), false);
        store.put("a", session(2));
        store.put("b", session(3));
        // Taking and putting back makes "a" the most recently put.
        let a = store.take("a", floor(2)).expect("parked");
        store.put("a", a);
        store.put("c", session(4));
        assert_eq!(store.len(), 2);
        assert!(
            store.take("b", floor(3)).is_none(),
            "least recently put goes"
        );
        assert!(store.take("a", floor(2)).is_some());
        // A snapshot install never evicts: into a full store it is dropped.
        store.put("a", session(2));
        let export = session(5).export(0);
        assert!(!store.install_spilled("d", export));
        assert!(store.take("c", floor(4)).is_some());
        let none = SessionStore::new(0);
        none.put("a", session(2));
        assert!(none.is_empty(), "capacity 0 keeps nothing");
    }

    /// An engine whose store holds two sessions, both of SAP-proved
    /// classes (neither is proved by the real-rank floor).
    fn full_store_engine() -> Engine {
        let engine = Engine::new(EngineConfig {
            warm_sessions: 2,
            ..EngineConfig::default()
        });
        for m in [fig1b(), ebmf::gen::gap_benchmark(10, 10, 3, 6).matrix] {
            let out = engine.solve(&m);
            assert!(out.proved_optimal && out.provenance == Provenance::Sap);
        }
        assert_eq!(engine.warm_sessions(), 2);
        engine
    }

    /// Solves an unproved class twice at one conflict per query, so its
    /// second job recurs, and returns whether the store then holds that
    /// class's unproved session.
    fn recurring_class_is_parked(engine: &Engine) -> bool {
        let m = ebmf::gen::gap_benchmark(14, 14, 3, 5).matrix;
        let portfolio = PortfolioConfig {
            conflict_budget: Some(1),
            ..engine.config().portfolio.clone()
        };
        for _ in 0..2 {
            assert!(!engine.solve_with(&m, &portfolio).proved_optimal);
        }
        let key = canonical_form_with(&m, &engine.config().canon)
            .key()
            .to_string();
        engine
            .warm_store()
            .expect("warm starts on")
            .take(&key, lower_bound(&m, false))
            .is_some_and(|session| !session.proved_optimal())
    }

    #[test]
    fn proved_sessions_do_not_lock_a_recurring_class_out() {
        assert!(recurring_class_is_parked(&full_store_engine()));
    }

    /// A snapshot record whose encoder capacity lies below its incumbent
    /// is refused when its class recurs, so SAP cold-starts from the job's
    /// incumbent and answers r_B = 9. Imported, the record would have SAP
    /// call that incumbent (10 rectangles) optimal: at once at capacity 1,
    /// under the floor of 8, and after an UNSAT answer at capacity 8. The
    /// roster is SAP alone, so the incumbent is the trivial partition:
    /// packing already meets r_B on this instance.
    #[test]
    fn a_spilled_session_below_its_incumbent_cold_starts() {
        let m = ebmf::gen::gap_benchmark(10, 10, 3, 6).matrix;
        assert_eq!(lower_bound(&m, false).value, 8);
        assert_eq!(trivial_partition(&m).len(), 10);
        for capacity in [1, 8] {
            let store = Arc::new(SessionStore::new(8));
            let engine = Engine::with_strategies(
                EngineConfig::default(),
                vec![Arc::new(SapStrategy::warm(store.clone()))],
            );
            let canon = canonical_form_with(&m, &engine.config().canon);
            let export = SessionExport {
                best: canon
                    .matrix
                    .ones_positions()
                    .into_iter()
                    .map(|(i, j)| (vec![i], vec![j]))
                    .collect(),
                matrix: canon.matrix.clone(),
                proved: false,
                encoder_capacity: Some(capacity),
                core: Vec::new(),
            };
            assert!(store.install_spilled(canon.key(), export));
            let out = engine.solve(&m);
            assert!(out.partition.validate(&m).is_ok());
            assert_eq!(out.partition.len(), 9, "capacity {capacity}");
            assert!(out.proved_optimal);
        }
    }

    #[test]
    fn restored_sessions_do_not_lock_a_recurring_class_out() {
        let dir =
            std::env::temp_dir().join(format!("rect-addr-store-eviction-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        save_snapshot(&dir, &full_store_engine()).expect("save");
        let engine = Engine::new(EngineConfig {
            warm_sessions: 2,
            ..EngineConfig::default()
        });
        let restored = load_snapshot(&dir, &engine).expect("load");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(restored.sessions, 2, "the snapshot fills the store");
        assert!(recurring_class_is_parked(&engine));
    }
}
