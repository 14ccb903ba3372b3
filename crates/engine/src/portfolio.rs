//! The engine's pipeline (paper Algorithm 1): the real-rank floor, then
//! each [`Strategy`] phase from the best partition so far, stopping as soon
//! as that partition meets the floor.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebmf::Partition;
use sat::CancelToken;

use crate::strategy::{
    PackingStrategy, SapStrategy, SessionStore, SolveJob, Strategy, StrategyBudget, TrivialStrategy,
};

/// Which phase produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Provenance {
    /// Served from the canonical-form cache.
    Cache,
    /// The `min(#rows, #cols)` trivial partition (paper §III-B).
    Trivial,
    /// Shuffled greedy row packing (paper Algorithm 2).
    Packing,
    /// The SAP descent (paper Algorithm 1) — the only phase that can
    /// *prove* optimality above the real-rank floor.
    Sap,
}

impl Provenance {
    /// Stable lowercase name used by the JSON-lines protocol. The match
    /// is exhaustive, so a new variant fails to compile until it is named.
    pub fn as_str(&self) -> &'static str {
        match self {
            Provenance::Cache => "cache",
            Provenance::Trivial => "trivial",
            Provenance::Packing => "packing",
            Provenance::Sap => "sap",
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of one job's pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Wall-clock budget per job. When it expires the SAT phase is
    /// cancelled mid-query (via [`CancelToken`]) and packing stops at its
    /// next trial boundary; the best incumbent found so far wins. The
    /// budget is best-effort: the run can overrun by one packing trial,
    /// and by the real-rank floor, which runs before every phase and is not
    /// yet cancellable — milliseconds at the paper's ≤100×100
    /// technology-limit scale, tens of them on the largest inputs.
    /// `None` runs every phase to completion.
    pub time_budget: Option<Duration>,
    /// Conflict budget per SAT query (`None` = unlimited).
    pub conflict_budget: Option<u64>,
    /// Row-packing trials of the packing phase.
    pub packing_trials: usize,
    /// Run the SAP phase (disable for heuristic-only serving).
    pub sap: bool,
    /// Record clausal proofs so a SAP win concluded from an UNSAT answer
    /// carries a self-contained DRAT certificate
    /// ([`PortfolioOutcome::certificate`]).
    pub certify: bool,
}

impl PortfolioConfig {
    /// The per-strategy budget this configuration implies (the floor is
    /// the race's to fill in).
    pub fn budget(&self) -> StrategyBudget {
        StrategyBudget {
            time: self.time_budget,
            conflicts: self.conflict_budget,
            packing_trials: self.packing_trials,
            certify: self.certify,
            floor: None,
            recurring: false,
        }
    }
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            time_budget: Some(Duration::from_secs(10)),
            conflict_budget: None,
            packing_trials: 64,
            sap: true,
            certify: false,
        }
    }
}

/// Result of one pipeline run.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The best partition found (always valid for the input matrix).
    pub partition: Partition,
    /// Whether the depth was proved equal to the binary rank.
    pub proved_optimal: bool,
    /// The phase that produced [`PortfolioOutcome::partition`].
    pub provenance: Provenance,
    /// Total SAT conflicts spent by all phases of this run.
    pub sat_conflicts: u64,
    /// Wall-clock time of the whole run, the floor included.
    pub elapsed: Duration,
    /// The winner's self-contained DRAT refutation of the bound below the
    /// answered depth — present only when [`PortfolioConfig::certify`] was
    /// set and the winning phase proved optimality from an UNSAT answer.
    pub certificate: Option<ebmf::UnsatCertificate>,
}

/// The best answer of the phases so far.
struct Best {
    provenance: Provenance,
    partition: Partition,
    proved_optimal: bool,
    certificate: Option<ebmf::UnsatCertificate>,
}

/// Runs paper Algorithm 1 on `job` with `strategies` as its phases.
///
/// The real-rank floor (Eq. 3) is computed once and handed to every phase
/// through [`StrategyBudget::floor`]. Phases then run **inline, in roster
/// order** — trivial, packing, SAP for the built-in roster — each given
/// the best partition so far as [`SolveJob::incumbent`] (a cached
/// incumbent of the job counts when it is better). The run stops as soon
/// as a phase's partition meets the floor, which proves it under that
/// phase's provenance; a phase's own `proved_optimal` claim ends it too.
/// The shared [`CancelToken`] carries the deadline, so when `budget.time`
/// expires mid-phase the SAT search stops at its next conflict or decision
/// and packing at its next trial boundary.
///
/// Winner selection: proved beats unproved, then smaller depth, then the
/// earlier phase.
///
/// # Panics
///
/// Panics if `strategies` is empty (the run would have no incumbent).
pub fn race_strategies(
    job: &SolveJob<'_>,
    strategies: &[Arc<dyn Strategy>],
    budget: &StrategyBudget,
) -> PortfolioOutcome {
    assert!(!strategies.is_empty(), "cannot race zero strategies");
    let start = Instant::now();
    let token = match budget.time {
        Some(b) => CancelToken::with_deadline(start + b),
        None => CancelToken::new(),
    };
    let floor = ebmf::lower_bound(job.matrix, false);
    let budget = StrategyBudget {
        floor: Some(floor),
        recurring: job.incumbent.is_some(),
        ..budget.clone()
    };
    let mut best: Option<Best> = None;
    let mut sat_conflicts = 0;
    for strategy in strategies {
        let incumbent = [best.as_ref().map(|b| &b.partition), job.incumbent]
            .into_iter()
            .flatten()
            .min_by_key(|p| p.len());
        let phase_job = SolveJob { incumbent, ..*job };
        let run_start = Instant::now();
        let out = strategy.run(&phase_job, &budget, &token);
        // Per-phase duration, e.g. `strategy_us_sap`.
        obs::registry()
            .histogram(&format!(
                "{}{}",
                obs::names::STRATEGY_US_PREFIX,
                strategy.name()
            ))
            .record_duration(run_start.elapsed());
        sat_conflicts += out.conflicts;
        let proved_optimal = out.proved_optimal || out.partition.len() <= floor.value;
        let better = best.as_ref().is_none_or(|b| {
            (!proved_optimal, out.partition.len()) < (!b.proved_optimal, b.partition.len())
        });
        if better {
            best = Some(Best {
                provenance: strategy.provenance(),
                partition: out.partition,
                proved_optimal,
                certificate: out.certificate,
            });
        }
        if proved_optimal {
            break; // nothing beats a proved optimum
        }
    }
    let best = best.expect("at least one phase always runs");
    PortfolioOutcome {
        partition: best.partition,
        proved_optimal: best.proved_optimal,
        provenance: best.provenance,
        sat_conflicts,
        elapsed: start.elapsed(),
        certificate: best.certificate,
    }
}

/// The pipeline's phases under `config`: trivial, packing, then SAP unless
/// [`PortfolioConfig::sap`] is off. With a session store, SAP warm-starts
/// per canonical class.
pub fn build_strategies_with(
    config: &PortfolioConfig,
    warm: Option<Arc<SessionStore>>,
) -> Vec<Arc<dyn Strategy>> {
    let mut strategies: Vec<Arc<dyn Strategy>> =
        vec![Arc::new(TrivialStrategy), Arc::new(PackingStrategy)];
    if config.sap {
        strategies.push(Arc::new(match warm {
            Some(store) => SapStrategy::warm(store),
            None => SapStrategy::cold(),
        }));
    }
    strategies
}

/// The cold roster: [`build_strategies_with`] without a session store.
pub fn build_strategies(config: &PortfolioConfig) -> Vec<Arc<dyn Strategy>> {
    build_strategies_with(config, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitmatrix::BitMatrix;

    fn fig1b() -> BitMatrix {
        "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap()
    }

    /// The cold pipeline on `m`, as a one-shot caller runs it.
    fn solve(m: &BitMatrix, config: &PortfolioConfig) -> PortfolioOutcome {
        let job = SolveJob {
            matrix: m,
            canon: None,
            incumbent: None,
        };
        race_strategies(&job, &build_strategies(config), &config.budget())
    }

    #[test]
    fn full_budget_proves_fig1b() {
        let out = solve(&fig1b(), &PortfolioConfig::default());
        assert!(out.proved_optimal);
        assert_eq!(out.partition.len(), 5);
        assert!(out.partition.validate(&fig1b()).is_ok());
        assert_eq!(out.provenance, Provenance::Sap);
        // Fig. 1b's five-cell fooling set refutes depth 4 by propagation
        // alone, so the conflict report is checked on a SAT-hard instance.
        let hard = ebmf::gen::gap_benchmark(14, 14, 3, 5).matrix;
        let out = solve(&hard, &PortfolioConfig::default());
        assert!(out.proved_optimal && out.provenance == Provenance::Sap);
        assert!(out.sat_conflicts > 0, "SAP must report its conflicts");
    }

    #[test]
    fn tiny_budget_still_returns_valid_partition() {
        let m = fig1b();
        let cfg = PortfolioConfig {
            time_budget: Some(Duration::from_millis(0)),
            conflict_budget: Some(1),
            packing_trials: 1,
            ..PortfolioConfig::default()
        };
        let out = solve(&m, &cfg);
        assert!(out.partition.validate(&m).is_ok());
        assert!(out.partition.len() <= 6);
    }

    #[test]
    fn heuristic_only_portfolio_never_claims_optimality_beyond_depth_one() {
        // Fig. 1b's optimum (5) sits above its floor (4): without SAP no
        // phase can prove it.
        let m = fig1b();
        let cfg = PortfolioConfig {
            sap: false,
            ..PortfolioConfig::default()
        };
        let out = solve(&m, &cfg);
        assert!(out.partition.validate(&m).is_ok());
        assert!(!out.proved_optimal);
        assert!(matches!(
            out.provenance,
            Provenance::Trivial | Provenance::Packing
        ));
        assert_eq!(out.sat_conflicts, 0);
    }

    #[test]
    fn zero_matrix_races_to_empty_partition() {
        let m = BitMatrix::zeros(4, 5);
        let out = solve(&m, &PortfolioConfig::default());
        assert!(out.proved_optimal);
        assert_eq!(out.partition.len(), 0);
    }

    #[test]
    fn provenance_strings_roundtrip_exhaustively() {
        let all = [
            Provenance::Cache,
            Provenance::Trivial,
            Provenance::Packing,
            Provenance::Sap,
        ];
        for p in all {
            assert_eq!(p.to_string(), p.as_str());
        }
        let names: std::collections::HashSet<&str> = all.iter().map(Provenance::as_str).collect();
        assert_eq!(names.len(), all.len(), "names must be distinct");
    }
}
