//! The serving engine: sharded single-flight cache wrapped around the
//! adaptive strategy race. Streaming transports live one layer up, in the
//! `rect-addr-serve` crate's `Service` facade.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bitmatrix::BitMatrix;
use ebmf::Partition;

use crate::cache::{CacheDecision, CacheStats, CanonicalCache};
use crate::canon::{canonical_form_with, CanonOptions, CanonicalForm};
use crate::portfolio::{race_strategies, PortfolioConfig, PortfolioOutcome, Provenance};
use crate::protocol::{JobRequest, JobResponse};
use crate::strategy::{AdaptiveScheduler, SessionStore, SolveJob, Strategy};

/// Configuration of an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Concurrent solve workers a serving layer should run. `0` means
    /// auto (see [`EngineConfig::effective_workers`]).
    pub workers: usize,
    /// Defaults for every job's portfolio race (per-job `budget_ms` /
    /// `conflicts` request fields override the budgets).
    pub portfolio: PortfolioConfig,
    /// Maximum entries of the canonical-form cache.
    pub cache_capacity: usize,
    /// Shards the cache key space is split into (≥ 1).
    pub cache_shards: usize,
    /// Warm SAP sessions kept across jobs, keyed by canonical class
    /// (`0` disables warm starts: every SAP run re-encodes from scratch).
    pub warm_sessions: usize,
    /// Let the scheduler prune strategies that never win in a job's
    /// (shape, occupancy) bucket. Off = always race everything.
    pub adaptive: bool,
    /// Canonizer search budget: individualization branches before the
    /// complete labeling falls back to the heuristic one (`--canon-budget`).
    pub canon: CanonOptions,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            portfolio: PortfolioConfig::default(),
            cache_capacity: 65_536,
            cache_shards: crate::cache::DEFAULT_SHARDS,
            warm_sessions: 128,
            adaptive: true,
            canon: CanonOptions::default(),
        }
    }
}

impl EngineConfig {
    /// The concrete worker count `workers` implies: the explicit value, or
    /// (at 0) `available CPUs / portfolio strategies`, rounded up. A job's
    /// strategies run one after another on its worker's thread, so the
    /// divisor no longer guards against oversubscription; it keeps the pool
    /// small, trading throughput for tail latency, memory and start-up
    /// time: on 2 vCPUs the default is 1 worker, and 2 workers serve more
    /// jobs/s on the benchmark mixes but with a longer p99 tail.
    pub fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        let strategies =
            2 + usize::from(self.portfolio.exact_cover) + usize::from(self.portfolio.sap);
        std::thread::available_parallelism()
            .map_or(4, usize::from)
            .div_ceil(strategies)
            .max(1)
    }
}

/// Outcome of one [`Engine::solve`] call.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The best partition found (valid for the queried matrix).
    pub partition: Partition,
    /// Whether the depth was proved equal to the binary rank.
    pub proved_optimal: bool,
    /// Strategy that produced the partition ([`Provenance::Cache`] on hits).
    pub provenance: Provenance,
    /// Whether the canonical-form cache answered the query (stored entry or
    /// single-flight wait).
    pub cache_hit: bool,
    /// SAT conflicts spent by this call (0 when served from the cache).
    pub sat_conflicts: u64,
    /// Wall-clock time spent on this call.
    pub elapsed: Duration,
    /// Self-contained DRAT refutation of the bound below the answered
    /// depth, when the portfolio ran with
    /// [`PortfolioConfig::certify`](crate::PortfolioConfig::certify) and
    /// this call's race proved optimality from an UNSAT answer. Cache hits
    /// never carry one: the proof was spent (or never requested) by the
    /// call that populated the entry.
    pub certificate: Option<ebmf::UnsatCertificate>,
}

/// The concurrent portfolio-solving engine.
///
/// Shares one permutation-invariant result cache (sharded, single-flight),
/// one warm SAP-session store and one adaptive scheduler across all jobs;
/// safe to use from multiple threads through a shared reference.
///
/// # Examples
///
/// ```
/// use bitmatrix::BitMatrix;
/// use rect_addr_engine::{Engine, EngineConfig};
///
/// let engine = Engine::new(EngineConfig::default());
/// let m: BitMatrix = "110\n011\n111".parse()?;
/// let out = engine.solve(&m);
/// assert_eq!(out.partition.len(), 3);
/// assert!(out.proved_optimal);
///
/// // A row-permuted duplicate is answered from the cache.
/// let dup: BitMatrix = "111\n110\n011".parse()?;
/// let hit = engine.solve(&dup);
/// assert!(hit.cache_hit);
/// assert!(hit.partition.validate(&dup).is_ok());
/// # Ok::<(), bitmatrix::ParseMatrixError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cache: CanonicalCache,
    scheduler: AdaptiveScheduler,
    warm: Option<Arc<SessionStore>>,
    /// Sessions installed from a disk snapshot (see [`crate::persist`]).
    restored_sessions: std::sync::atomic::AtomicU64,
    /// Custom strategy set installed via [`Engine::with_strategies`]; when
    /// present it replaces the built-in roster verbatim.
    custom: Option<Vec<Arc<dyn Strategy>>>,
}

impl Engine {
    /// Creates an engine with an empty cache.
    pub fn new(config: EngineConfig) -> Self {
        let cache = CanonicalCache::with_shards(config.cache_capacity, config.cache_shards);
        let warm =
            (config.warm_sessions > 0).then(|| Arc::new(SessionStore::new(config.warm_sessions)));
        Engine {
            config,
            cache,
            scheduler: AdaptiveScheduler::new(),
            warm,
            restored_sessions: std::sync::atomic::AtomicU64::new(0),
            custom: None,
        }
    }

    /// Creates an engine racing exactly `strategies` instead of the
    /// built-in roster — the extension point of the [`Strategy`] trait (also
    /// how the single-flight tests count `Strategy::run` invocations). The
    /// portfolio `sap`/`exact_cover` toggles do not apply to a custom set;
    /// budgets and the cache/scheduler wiring do.
    pub fn with_strategies(config: EngineConfig, strategies: Vec<Arc<dyn Strategy>>) -> Self {
        assert!(!strategies.is_empty(), "engine needs at least one strategy");
        let mut engine = Engine::new(config);
        engine.custom = Some(strategies);
        engine
    }

    /// The configured defaults.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cache counters (hits / misses / entries / evictions / flights).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The most-looked-up heuristic-labeled cache keys, hottest first —
    /// the candidates a canonizer-aware admission pass would re-canonize
    /// at a larger budget (see [`CanonicalCache::hot_heuristic_keys`]).
    pub fn hot_heuristic_keys(&self, limit: usize) -> Vec<(String, u64)> {
        self.cache.hot_heuristic_keys(limit)
    }

    /// Warm SAP sessions currently parked (0 when warm starts are off).
    pub fn warm_sessions(&self) -> usize {
        self.warm.as_ref().map_or(0, |s| s.len())
    }

    /// Races whose SAT phase the budget-aware scheduler skipped on bucket
    /// evidence (buckets where packing always proves).
    pub fn budget_skips(&self) -> u64 {
        self.scheduler.budget_skips()
    }

    /// Sessions restored from a disk snapshot at load time (see
    /// [`crate::persist::load_snapshot`]); 0 on a cold start.
    pub fn restored_sessions(&self) -> u64 {
        self.restored_sessions
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The restored-session counter, bumped by the snapshot loader.
    pub(crate) fn restored_sessions_counter(&self) -> &std::sync::atomic::AtomicU64 {
        &self.restored_sessions
    }

    /// The warm session store, when warm starts are enabled.
    pub(crate) fn warm_store(&self) -> Option<&Arc<SessionStore>> {
        self.warm.as_ref()
    }

    /// The adaptive scheduler (bucket statistics live here).
    pub(crate) fn scheduler(&self) -> &AdaptiveScheduler {
        &self.scheduler
    }

    /// The strategy roster for one job under `portfolio`.
    fn strategies_for(&self, portfolio: &PortfolioConfig) -> Vec<Arc<dyn Strategy>> {
        if let Some(custom) = &self.custom {
            return custom.clone();
        }
        crate::portfolio::build_strategies_with(portfolio, self.warm.clone())
    }

    /// Runs the (scheduler-filtered, budget-aware) strategy race for one
    /// job. An explicit conflict budget (request field or engine default)
    /// always wins; otherwise the scheduler's learnt per-bucket budget
    /// caps the SAT phase.
    fn race(
        &self,
        m: &BitMatrix,
        canon: &CanonicalForm,
        incumbent: Option<&Partition>,
        portfolio: &PortfolioConfig,
    ) -> PortfolioOutcome {
        let job = SolveJob {
            matrix: m,
            canon: Some(canon),
            incumbent,
        };
        let candidates = self.strategies_for(portfolio);
        let mut budget = portfolio.budget();
        let selected: Vec<Arc<dyn Strategy>> = if self.config.adaptive {
            let plan = self.scheduler.plan(m, &candidates, &job);
            if budget.conflicts.is_none() {
                budget.conflicts = plan.conflict_budget;
            }
            plan.picked
                .into_iter()
                .map(|i| candidates[i].clone())
                .collect()
        } else {
            candidates
        };
        let out = race_strategies(&job, &selected, &budget);
        self.scheduler
            .record(m, out.provenance, out.proved_optimal, out.sat_conflicts);
        obs::registry()
            .histogram(obs::names::RACE_US)
            .record_duration(out.elapsed);
        out
    }

    /// Solves one matrix with the default portfolio budgets.
    pub fn solve(&self, m: &BitMatrix) -> EngineOutcome {
        self.solve_with(m, &self.config.portfolio)
    }

    /// Solves one matrix under an explicit portfolio configuration.
    ///
    /// Consults the canonical-form cache first. *Proved-optimal* entries
    /// short-circuit — no budget can improve them — whether they were
    /// stored or obtained by **waiting on a concurrent flight** for the
    /// same canonical key (single-flight: W concurrent jobs on one key run
    /// exactly one race). An *unproved* entry — stored or waited-on — is
    /// only a known upper bound: per-job budgets are heterogeneous, so a
    /// waiter whose budget is more generous than its flight leader's must
    /// not be starved by the leader's answer. The race runs under this
    /// job's budget — seeded with the entry as the SAP incumbent, so a warm
    /// session *resumes* rather than repeats the leader's work — and the
    /// better of the two answers wins and is memoized; the outcome still
    /// reports `cache_hit` when the stored bound prevailed. On a genuine
    /// miss the caller leads the flight: the race result is published to
    /// the cache and every waiter.
    pub fn solve_with(&self, m: &BitMatrix, portfolio: &PortfolioConfig) -> EngineOutcome {
        self.solve_with_traced(m, portfolio, &obs::JobTrace::new())
    }

    /// [`Engine::solve_with`], filling in the canon / cache / race stages
    /// of `trace` as the job flows through (the queue and total stages
    /// belong to the layer that owns the job's lifetime).
    pub fn solve_with_traced(
        &self,
        m: &BitMatrix,
        portfolio: &PortfolioConfig,
        trace: &obs::JobTrace,
    ) -> EngineOutcome {
        let start = Instant::now();
        let canon = canonical_form_with(m, &self.config.canon);
        let canon_elapsed = start.elapsed();
        trace.set_canon_us(canon_elapsed.as_micros().min(u64::MAX as u128) as u64);
        obs::registry()
            .histogram(obs::names::CANON_US)
            .record_duration(canon_elapsed);
        let cache_start = Instant::now();
        let decision = self.cache.begin(&canon);
        trace.set_cache_us(cache_start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        match decision {
            CacheDecision::Hit { outcome, waited: _ } => {
                if outcome.proved_optimal {
                    return EngineOutcome {
                        partition: outcome.partition,
                        proved_optimal: true,
                        provenance: Provenance::Cache,
                        cache_hit: true,
                        sat_conflicts: 0,
                        elapsed: start.elapsed(),
                        certificate: None,
                    };
                }
                // Unproved upper bound: re-race under this job's budget
                // (which may be more generous than the one that produced the
                // entry), descending from the stored incumbent.
                let out = self.race(m, &canon, Some(&outcome.partition), portfolio);
                trace.add_race_us(out.elapsed.as_micros().min(u64::MAX as u128) as u64);
                self.cache
                    .insert(&canon, &out.partition, out.proved_optimal, out.provenance);
                if !out.proved_optimal && outcome.partition.len() <= out.partition.len() {
                    // The stored bound is still at least as good: serve it
                    // as the hit it is.
                    EngineOutcome {
                        partition: outcome.partition,
                        proved_optimal: false,
                        provenance: Provenance::Cache,
                        cache_hit: true,
                        sat_conflicts: out.sat_conflicts,
                        elapsed: start.elapsed(),
                        // This branch needs `!out.proved_optimal`, and an
                        // unproved race never emits a refutation.
                        certificate: None,
                    }
                } else {
                    EngineOutcome {
                        partition: out.partition,
                        proved_optimal: out.proved_optimal,
                        provenance: out.provenance,
                        cache_hit: false,
                        sat_conflicts: out.sat_conflicts,
                        elapsed: start.elapsed(),
                        certificate: out.certificate,
                    }
                }
            }
            CacheDecision::Miss(guard) => {
                let out = self.race(m, &canon, None, portfolio);
                trace.add_race_us(out.elapsed.as_micros().min(u64::MAX as u128) as u64);
                guard.complete(&canon, &out.partition, out.proved_optimal, out.provenance);
                EngineOutcome {
                    partition: out.partition,
                    proved_optimal: out.proved_optimal,
                    provenance: out.provenance,
                    cache_hit: false,
                    sat_conflicts: out.sat_conflicts,
                    elapsed: start.elapsed(),
                    certificate: out.certificate,
                }
            }
        }
    }

    /// Builds the per-job portfolio config from engine defaults plus request
    /// overrides.
    fn job_portfolio(&self, req: &JobRequest) -> PortfolioConfig {
        let mut cfg = self.config.portfolio.clone();
        if let Some(ms) = req.budget_ms {
            cfg.time_budget = Some(Duration::from_millis(ms));
        }
        if let Some(c) = req.conflicts {
            cfg.conflict_budget = Some(c);
        }
        cfg.certify = req.certify;
        cfg
    }

    /// Solves one parsed request into a response line.
    pub fn solve_job(&self, req: &JobRequest) -> JobResponse {
        self.solve_job_traced(req, &obs::JobTrace::new())
    }

    /// [`Engine::solve_job`], filling in the engine stages of `trace`.
    /// The response's `timing` field stays `None` — attaching the trace
    /// (queue wait, total) is the serving layer's call.
    pub fn solve_job_traced(&self, req: &JobRequest, trace: &obs::JobTrace) -> JobResponse {
        let cfg = self.job_portfolio(req);
        let out = self.solve_with_traced(&req.matrix, &cfg, trace);
        JobResponse {
            id: req.id.clone(),
            ok: true,
            depth: out.partition.len(),
            proved_optimal: out.proved_optimal,
            provenance: out.provenance.as_str().to_string(),
            cache_hit: out.cache_hit,
            millis: out.elapsed.as_secs_f64() * 1e3,
            conflicts: out.sat_conflicts,
            partition: out
                .partition
                .iter()
                .map(|r| (r.rows().to_indices(), r.cols().to_indices()))
                .collect(),
            error: None,
            timing: None,
            certificate: out.certificate.map(|c| crate::protocol::Certificate {
                bound: c.bound,
                cnf: c.cnf,
                drat: c.drat,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            workers: 4,
            portfolio: PortfolioConfig {
                time_budget: Some(Duration::from_secs(5)),
                packing_trials: 16,
                ..PortfolioConfig::default()
            },
            cache_capacity: 1024,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn solve_caches_permuted_duplicates() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(21);
        let m = bitmatrix::random_matrix(7, 9, 0.4, &mut rng);
        let first = e.solve(&m);
        assert!(!first.cache_hit);
        assert!(first.partition.validate(&m).is_ok());

        let rp = bitmatrix::random_permutation(7, &mut rng);
        let cp = bitmatrix::random_permutation(9, &mut rng);
        let dup = m.submatrix(&rp, &cp);
        let second = e.solve(&dup);
        assert!(second.cache_hit, "permuted duplicate must hit the cache");
        assert_eq!(second.provenance, Provenance::Cache);
        assert!(second.partition.validate(&dup).is_ok());
        assert_eq!(second.partition.len(), first.partition.len());
        assert_eq!(second.proved_optimal, first.proved_optimal);
        assert_eq!(e.cache_stats().hits, 1);
    }

    #[test]
    fn unproved_cache_entry_is_improved_by_generous_budget() {
        let e = engine();
        // Rank-gap matrix: real rank 2 < r_B = 3, so heuristics can't prove
        // optimality and a starved race caches an unproved bound.
        let m: BitMatrix = "1100\n0011\n1111\n1010".parse().unwrap();
        let starved = PortfolioConfig {
            time_budget: Some(Duration::ZERO),
            conflict_budget: Some(1),
            packing_trials: 1,
            exact_cover: false,
            sap: true,
            ..PortfolioConfig::default()
        };
        let first = e.solve_with(&m, &starved);
        assert!(first.partition.validate(&m).is_ok());

        // A generous budget must not be short-circuited by the unproved
        // entry: the race reruns and the proved result replaces it.
        let second = e.solve_with(&m, &PortfolioConfig::default());
        assert!(
            second.proved_optimal,
            "generous budget must prove the gap matrix"
        );
        assert_eq!(second.partition.len(), 3);

        // Now the proved entry short-circuits.
        let third = e.solve(&m);
        assert!(third.cache_hit && third.proved_optimal);
    }

    #[test]
    fn per_job_budget_overrides_engine_default() {
        let e = engine();
        let req = JobRequest::parse_line(
            "{\"id\": \"t\", \"matrix\": \"10;01\", \"budget_ms\": 7, \"conflicts\": 3}",
            1,
        )
        .unwrap();
        let cfg = e.job_portfolio(&req);
        assert_eq!(cfg.time_budget, Some(Duration::from_millis(7)));
        assert_eq!(cfg.conflict_budget, Some(3));
    }

    #[test]
    fn budget_skips_accumulate_in_always_proving_buckets() {
        let e = engine();
        // All-ones matrices of nearby shapes share one (shape, occupancy)
        // bucket and are always proved by packing (depth 1) — after the
        // learning threshold the engine stops launching the SAT phase.
        let shapes: [(usize, usize); 10] = [
            (5, 5),
            (5, 6),
            (5, 7),
            (6, 5),
            (6, 6),
            (6, 7),
            (7, 5),
            (7, 6),
            (7, 7),
            (5, 8),
        ];
        for (r, c) in shapes {
            let out = e.solve(&BitMatrix::ones(r, c));
            assert!(out.proved_optimal);
            assert_eq!(out.partition.len(), 1);
        }
        assert!(
            e.budget_skips() >= 1,
            "SAT phase must be skipped once the bucket always proves: {:?}",
            e.budget_skips()
        );
    }

    #[test]
    fn traced_solve_fills_engine_stages() {
        let e = engine();
        let trace = obs::JobTrace::new();
        let req = JobRequest::new("t", "1100\n0011\n1111\n1010".parse().unwrap());
        let resp = e.solve_job_traced(&req, &trace);
        assert!(resp.ok);
        assert_eq!(resp.timing, None, "attaching timing is the server's call");
        // A cache miss races strategy threads: the race stage is real time.
        assert!(trace.race_us() > 0, "race stage must be recorded");
        // The engine never stamps the lifetime stages.
        assert_eq!(trace.queue_us(), 0);
        assert_eq!(trace.total_us(), 0);

        // A proved cache hit short-circuits: no race time on a fresh trace.
        let hit_trace = obs::JobTrace::new();
        let hit = e.solve_job_traced(&req, &hit_trace);
        assert!(hit.cache_hit);
        assert_eq!(hit_trace.race_us(), 0);
    }

    #[test]
    fn certify_jobs_carry_a_validating_certificate() {
        let e = engine();
        // The paper's Fig. 1b matrix: depth 5 with a rank floor of 4, so
        // optimality can only be concluded from an UNSAT answer at b=4 and
        // a certified solve must export that refutation.
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let req = JobRequest::new("c", m.clone()).with_certify(true);
        let resp = e.solve_job(&req);
        assert!(resp.ok && resp.proved_optimal);
        let cert = resp
            .certificate
            .expect("certify job whose proof is an UNSAT answer carries it");
        assert_eq!(cert.bound + 1, resp.depth, "refutes the bound below");
        certcheck::check_certificate(&cert.cnf, &cert.drat)
            .expect("engine-emitted certificate must pass the standalone checker");

        // The proved entry is cached now; hits never carry a certificate,
        // certify flag or not.
        let hit = e.solve_job(&JobRequest::new("c2", m).with_certify(true));
        assert!(hit.cache_hit);
        assert!(hit.certificate.is_none());
    }

    #[test]
    fn uncertified_jobs_never_carry_a_certificate() {
        let e = engine();
        let resp = e.solve_job(&JobRequest::new(
            "plain",
            "101100\n010011\n101010\n010101\n111000\n000111"
                .parse()
                .unwrap(),
        ));
        assert!(resp.ok && resp.proved_optimal);
        assert!(resp.certificate.is_none(), "certification is opt-in");
    }

    #[test]
    fn warm_sessions_park_after_sap_races() {
        let e = engine();
        // The gap matrix needs SAP; its session must be parked afterwards.
        let m: BitMatrix = "1100\n0011\n1111\n1010".parse().unwrap();
        let out = e.solve(&m);
        assert!(out.proved_optimal);
        assert!(e.warm_sessions() >= 1, "session must be parked for reuse");
    }
}
