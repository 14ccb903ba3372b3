//! The serving engine: sharded single-flight cache wrapped around the
//! Algorithm 1 pipeline. Streaming transports live one layer up, in the
//! `rect-addr-serve` crate's `Service` facade.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bitmatrix::BitMatrix;
use ebmf::Partition;

use crate::cache::{CacheDecision, CacheStats, CanonicalCache};
use crate::canon::{canonical_form_with, CanonOptions, CanonicalForm};
use crate::portfolio::{race_strategies, PortfolioConfig, PortfolioOutcome, Provenance};
use crate::strategy::{SessionStore, SolveJob, Strategy};
use proto::{JobRequest, JobResponse};

/// Available CPUs per default worker (see [`EngineConfig::effective_workers`]).
const CPUS_PER_WORKER: usize = 4;

/// Maximum entries of the canonical-form cache, split over
/// [`DEFAULT_SHARDS`](crate::DEFAULT_SHARDS) shards.
const CACHE_CAPACITY: usize = 65_536;

/// Configuration of an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Concurrent solve workers a serving layer should run. `0` means
    /// auto (see [`EngineConfig::effective_workers`]).
    pub workers: usize,
    /// Defaults for every job's pipeline run (per-job `budget_ms` /
    /// `conflicts` request fields override the budgets).
    pub portfolio: PortfolioConfig,
    /// Warm SAP sessions kept across jobs, keyed by canonical class
    /// (`0` disables warm starts: every SAP run re-encodes from scratch).
    pub warm_sessions: usize,
    /// Canonizer search budget: individualization branches before the
    /// complete labeling falls back to the heuristic one (`--canon-budget`).
    pub canon: CanonOptions,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            portfolio: PortfolioConfig::default(),
            warm_sessions: 128,
            canon: CanonOptions::default(),
        }
    }
}

impl EngineConfig {
    /// The concrete worker count `workers` implies: the explicit value, or
    /// (at 0) a quarter of the available CPUs, rounded up. A job's phases
    /// run one after another on its worker's thread, so the divisor does
    /// not guard against oversubscription; it keeps the pool small, trading
    /// throughput for tail latency, memory and start-up time: on 2 vCPUs
    /// the default is 1 worker, and 2 workers serve more jobs/s on the
    /// benchmark mixes but with a longer p99 tail.
    pub fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map_or(CPUS_PER_WORKER, usize::from)
            .div_ceil(CPUS_PER_WORKER)
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
    /// depth, when the pipeline ran with
    /// [`PortfolioConfig::certify`](crate::PortfolioConfig::certify) and
    /// this call's SAP phase proved optimality from an UNSAT answer. Cache
    /// hits never carry one: the proof was spent (or never requested) by
    /// the call that populated the entry.
    pub certificate: Option<ebmf::UnsatCertificate>,
}

/// The concurrent solving engine.
///
/// Shares one permutation-invariant result cache (sharded, single-flight)
/// and one warm SAP-session store across all jobs; safe to use from
/// multiple threads through a shared reference.
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
        let cache = CanonicalCache::new(CACHE_CAPACITY);
        let warm =
            (config.warm_sessions > 0).then(|| Arc::new(SessionStore::new(config.warm_sessions)));
        Engine {
            config,
            cache,
            warm,
            restored_sessions: std::sync::atomic::AtomicU64::new(0),
            custom: None,
        }
    }

    /// Creates an engine whose pipeline runs exactly `strategies`, in
    /// order, instead of the built-in roster — the extension point of the
    /// [`Strategy`] trait (also how the single-flight tests count
    /// `Strategy::run` invocations). The portfolio `sap` toggle does not
    /// apply to a custom set; the floor, budgets and cache wiring do.
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

    /// The strategy roster for one job under `portfolio`.
    fn strategies_for(&self, portfolio: &PortfolioConfig) -> Vec<Arc<dyn Strategy>> {
        if let Some(custom) = &self.custom {
            return custom.clone();
        }
        crate::portfolio::build_strategies_with(portfolio, self.warm.clone())
    }

    /// Runs the pipeline for one job.
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
        let out = race_strategies(&job, &self.strategies_for(portfolio), &portfolio.budget());
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
            certificate: out.certificate.map(|c| proto::Certificate {
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
    use crate::portfolio::{build_strategies, build_strategies_with};
    use crate::strategy::{StrategyBudget, StrategyOutcome};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sat::CancelToken;
    use std::sync::Mutex;

    fn fig1b() -> BitMatrix {
        "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap()
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            workers: 4,
            portfolio: PortfolioConfig {
                time_budget: Some(Duration::from_secs(5)),
                packing_trials: 16,
                ..PortfolioConfig::default()
            },
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
        // Fig. 1b: real-rank floor 4 < r_B = 5, so no heuristic can prove
        // optimality and a starved race caches an unproved bound.
        let m = fig1b();
        let starved = PortfolioConfig {
            time_budget: Some(Duration::ZERO),
            conflict_budget: Some(1),
            packing_trials: 1,
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
        assert_eq!(second.partition.len(), 5);

        // Now the proved entry short-circuits.
        let third = e.solve(&m);
        assert!(third.cache_hit && third.proved_optimal);
    }

    #[test]
    fn tiny_budget_answers_before_the_encoding_is_built() {
        // The 40×40 gap matrix's SAT encoding takes about a second to emit
        // (O(cells² · bound) pair clauses), so only an encoder build that
        // polls the budget's cancel token answers a 5 ms job in time.
        let e = engine();
        let m = ebmf::gen::gap_benchmark(40, 40, 15, 1).matrix;
        let req = JobRequest::new("gap", m.clone()).with_budget_ms(5);
        let start = Instant::now();
        let out = e.solve_with(&m, &e.job_portfolio(&req));
        let elapsed = start.elapsed();
        assert!(out.partition.validate(&m).is_ok());
        assert!(!out.proved_optimal, "the incumbent answers unproved");
        assert!(
            elapsed < Duration::from_secs(1),
            "a 5 ms job answered after {elapsed:?}"
        );
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
    fn traced_solve_fills_engine_stages() {
        let e = engine();
        let trace = obs::JobTrace::new();
        let req = JobRequest::new("t", "1100\n0011\n1111\n1010".parse().unwrap());
        let resp = e.solve_job_traced(&req, &trace);
        assert!(resp.ok);
        assert_eq!(resp.timing, None, "attaching timing is the server's call");
        // A cache miss runs the pipeline: the race stage is real time.
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
        let m = fig1b();
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
        let resp = e.solve_job(&JobRequest::new("plain", fig1b()));
        assert!(resp.ok && resp.proved_optimal);
        assert!(resp.certificate.is_none(), "certification is opt-in");
    }

    #[test]
    fn warm_sessions_park_after_sap_races() {
        let e = engine();
        // Fig. 1b needs SAP; its proved session must be parked afterwards.
        let m = fig1b();
        let out = e.solve(&m);
        assert!(out.proved_optimal);
        assert!(e.warm_sessions() >= 1, "session must be parked for reuse");
    }

    #[test]
    fn default_worker_count_does_not_depend_on_the_roster() {
        let heuristic_only = EngineConfig {
            portfolio: PortfolioConfig {
                sap: false,
                ..PortfolioConfig::default()
            },
            ..EngineConfig::default()
        };
        assert_eq!(
            heuristic_only.effective_workers(),
            EngineConfig::default().effective_workers()
        );
        let explicit = EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        };
        assert_eq!(explicit.effective_workers(), 3);
    }

    /// Each phase run of a [`Recorded`] roster: the phase's name and the
    /// depth of the incumbent it was handed.
    type Calls = Arc<Mutex<Vec<(&'static str, Option<usize>)>>>;

    /// Wraps a phase and records its runs.
    #[derive(Debug)]
    struct Recorded {
        inner: Arc<dyn Strategy>,
        calls: Calls,
    }

    impl Strategy for Recorded {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn provenance(&self) -> Provenance {
            self.inner.provenance()
        }

        fn run(
            &self,
            job: &SolveJob<'_>,
            budget: &StrategyBudget,
            cancel: &CancelToken,
        ) -> StrategyOutcome {
            let incumbent = job.incumbent.map(Partition::len);
            self.calls.lock().unwrap().push((self.name(), incumbent));
            self.inner.run(job, budget, cancel)
        }
    }

    /// The default engine's roster, recorded, through
    /// [`Engine::with_strategies`].
    fn recorded_engine() -> (Engine, Calls) {
        let config = EngineConfig::default();
        let store = Arc::new(SessionStore::new(config.warm_sessions));
        let calls = Calls::default();
        let roster = build_strategies_with(&config.portfolio, Some(store))
            .into_iter()
            .map(|inner| {
                Arc::new(Recorded {
                    inner,
                    calls: calls.clone(),
                }) as Arc<dyn Strategy>
            })
            .collect();
        (Engine::with_strategies(config, roster), calls)
    }

    /// Solves `m` on a fresh recorded engine: the outcome and the phases
    /// that ran.
    fn pipeline(m: &BitMatrix) -> (EngineOutcome, Vec<(&'static str, Option<usize>)>) {
        let (e, calls) = recorded_engine();
        let out = e.solve(m);
        assert!(out.partition.validate(m).is_ok());
        let calls = calls.lock().unwrap().clone();
        (out, calls)
    }

    #[test]
    fn the_trivial_partition_ends_the_pipeline_when_it_meets_the_floor() {
        for m in [BitMatrix::identity(5), BitMatrix::ones(4, 6)] {
            let (out, calls) = pipeline(&m);
            assert_eq!(calls, [("trivial", None)], "{m}");
            assert!(out.proved_optimal);
            assert_eq!(out.provenance, Provenance::Trivial);
        }
    }

    #[test]
    fn packing_that_meets_the_floor_is_proved_without_sap() {
        // Real rank 3; the trivial partition has 4 rectangles and packing
        // finds 3.
        let m: BitMatrix = "1100\n0011\n1111\n1010".parse().unwrap();
        let (out, calls) = pipeline(&m);
        let names: Vec<&str> = calls.iter().map(|c| c.0).collect();
        assert_eq!(names, ["trivial", "packing"]);
        assert!(out.proved_optimal);
        assert_eq!(out.partition.len(), 3);
        assert_eq!(out.provenance, Provenance::Packing);
    }

    #[test]
    fn sap_descends_from_the_packing_incumbent() {
        // Fig. 1b: floor 4, and both heuristics stop at 5, so SAP gets the
        // depth-5 incumbent and proves it with one UNSAT query.
        let (out, calls) = pipeline(&fig1b());
        let sap: Vec<_> = calls.iter().filter(|c| c.0 == "sap").collect();
        assert_eq!(sap, [&("sap", Some(5))]);
        assert!(out.proved_optimal);
        assert_eq!(out.partition.len(), 5);
        assert_eq!(out.provenance, Provenance::Sap);
    }

    #[test]
    fn unproved_sessions_park_only_once_their_class_recurs() {
        let e = engine();
        let m = ebmf::gen::gap_benchmark(14, 14, 3, 5).matrix;
        let req = JobRequest::new("g", m).with_conflicts(1);
        let first = e.solve_job(&req);
        assert!(
            !first.proved_optimal,
            "one conflict per query cannot prove it"
        );
        assert_eq!(e.warm_sessions(), 0, "a first touch parks nothing");
        e.solve_job(&req);
        assert_eq!(e.warm_sessions(), 1, "the recurrence parks its session");
    }

    #[test]
    fn a_certify_job_that_resumes_an_uncertified_session_is_certified() {
        // Two starved jobs park the class's session, whose encoder learnt
        // without proof logging; the certify job that resumes it must
        // still prove the class and export a refutation that checks.
        let e = engine();
        let m = ebmf::gen::gap_benchmark(14, 14, 3, 5).matrix;
        let starved = JobRequest::new("g", m.clone()).with_conflicts(1);
        e.solve_job(&starved);
        e.solve_job(&starved);
        assert_eq!(e.warm_sessions(), 1, "the recurrence parks its session");
        let resp = e.solve_job(&JobRequest::new("c", m).with_certify(true));
        assert!(resp.ok && resp.proved_optimal);
        let cert = resp
            .certificate
            .expect("a certify job proved by UNSAT carries its refutation");
        assert_eq!(cert.bound + 1, resp.depth, "refutes the bound below");
        certcheck::check_certificate(&cert.cnf, &cert.drat)
            .expect("the resumed descent's certificate must pass the standalone checker");
    }

    #[test]
    fn a_proved_session_is_parked_without_its_encoding() {
        let e = engine();
        let out = e.solve(&ebmf::gen::gap_benchmark(10, 10, 3, 2).matrix);
        assert!(out.proved_optimal);
        let parked = e.warm_store().unwrap().export_all();
        assert_eq!(parked.len(), 1);
        let (_, export) = &parked[0];
        assert!(export.proved);
        assert!(export.core.is_empty(), "a proved session keeps no core");
        assert_eq!(export.encoder_capacity, None);
    }

    #[test]
    fn cold_and_warm_rosters_agree() {
        // The cold roster solves in the job's coordinates, the warm one in
        // canonical coordinates through the session store.
        let config = PortfolioConfig {
            time_budget: None,
            ..PortfolioConfig::default()
        };
        let cold = build_strategies(&config);
        let warm = build_strategies_with(&config, Some(Arc::new(SessionStore::new(128))));
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..100 {
            let occupancy = 0.1 + 0.8 * (i % 9) as f64 / 8.0;
            let m = bitmatrix::random_matrix(10, 10, occupancy, &mut rng);
            let canon = crate::canonical_form(&m);
            let job = SolveJob {
                matrix: &m,
                canon: Some(&canon),
                incumbent: None,
            };
            let a = race_strategies(&job, &cold, &config.budget());
            let b = race_strategies(&job, &warm, &config.budget());
            assert!(a.partition.validate(&m).is_ok() && b.partition.validate(&m).is_ok());
            assert_eq!(
                (a.partition.len(), a.proved_optimal),
                (b.partition.len(), b.proved_optimal),
                "{m}"
            );
        }
    }
}
