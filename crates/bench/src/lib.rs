//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§IV): benchmark execution, per-case records, and the
//! formatters used by the `table1` / `figure4` / `ablation` /
//! `fig5b_conjecture` / `tensor_bounds` binaries.

use std::time::{Duration, Instant};

use bitmatrix::{random_permutation, BitMatrix};
use ebmf::gen::{table1_suite, Benchmark};
use ebmf::{row_packing_once, trivial_partition, PackingConfig, SapConfig, SapSession};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sat::CancelToken;

/// The packing-trial checkpoints of the paper's Table I columns.
pub const TRIAL_CHECKPOINTS: [usize; 4] = [1, 10, 100, 1000];

/// Everything measured for one benchmark instance.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Instance description (family + parameters).
    pub params: String,
    /// Instance seed.
    pub seed: u64,
    /// Proved binary rank, when SAP certified optimality.
    pub optimal: Option<usize>,
    /// Real-rank lower bound (exact when the shorter side is at most 36).
    pub real_rank: usize,
    /// Depth of the trivial heuristic.
    pub trivial: usize,
    /// Depth of row packing after each [`TRIAL_CHECKPOINTS`] budget.
    pub packing: Vec<usize>,
    /// Seconds SAP spent in packing.
    pub packing_seconds: f64,
    /// Seconds SAP spent in SAT queries (the paper's "SMT" share).
    pub sat_seconds: f64,
    /// Number of SAT queries issued.
    pub sat_queries: usize,
}

impl CaseResult {
    /// Total measured seconds (packing + SAT).
    pub fn total_seconds(&self) -> f64 {
        self.packing_seconds + self.sat_seconds
    }
}

/// Row packing depth recorded at each checkpoint of `checkpoints`
/// (monotone trial counts). One "trial" shuffles both the matrix and its
/// transpose, as in the paper's setup. The result starts from the trivial
/// bound, so `checkpoint=0` would equal the trivial depth.
pub fn packing_progression(m: &BitMatrix, checkpoints: &[usize], seed: u64) -> Vec<usize> {
    let max_trials = checkpoints.iter().copied().max().unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = PackingConfig::default();
    let mt = m.transpose();
    let mut best = trivial_partition(m).len();
    let mut out = Vec::with_capacity(checkpoints.len());
    let mut next_cp = 0usize;
    for trial in 1..=max_trials {
        let order = random_permutation(m.nrows(), &mut rng);
        best = best.min(row_packing_once(m, &order, &cfg).len());
        let order_t = random_permutation(mt.nrows(), &mut rng);
        best = best.min(row_packing_once(&mt, &order_t, &cfg).len());
        while next_cp < checkpoints.len() && checkpoints[next_cp] == trial {
            out.push(best);
            next_cp += 1;
        }
    }
    while next_cp < checkpoints.len() {
        out.push(best);
        next_cp += 1;
    }
    out
}

/// Runs the full measurement for one instance: SAP under `sap_cfg`, with
/// `sat_limit` bounding its SAT phase alone — a deadline token started
/// once packing and the floor are done, which replaces `sap_cfg.cancel`.
/// `Some(Duration::ZERO)` skips the SAT phase (the token has tripped
/// before it starts); the paper does so for its 100×100 family.
pub fn evaluate_case(
    bench: &Benchmark,
    sap_cfg: &SapConfig,
    sat_limit: Option<Duration>,
) -> CaseResult {
    let m = &bench.matrix;
    let trivial = trivial_partition(m).len();
    let packing = packing_progression(m, &TRIAL_CHECKPOINTS, bench.seed ^ 0xABCD);
    let mut session = SapSession::new(m, sap_cfg);
    let outcome = session.run(&SapConfig {
        cancel: sat_limit.map(|limit| CancelToken::with_deadline(Instant::now() + limit)),
        ..sap_cfg.clone()
    });
    let optimal = if outcome.proved_optimal {
        Some(outcome.depth())
    } else {
        // For instances too large to certify by SAT, the heuristic result is
        // still certified optimal when it matches the rank floor (the
        // paper's ‡ note on the 100×100 row).
        let best_heuristic = packing
            .iter()
            .copied()
            .min()
            .unwrap_or(trivial)
            .min(trivial)
            .min(outcome.depth());
        (best_heuristic == outcome.lower_bound.value).then_some(best_heuristic)
    };
    CaseResult {
        params: bench.params.clone(),
        seed: bench.seed,
        optimal,
        real_rank: outcome.lower_bound.real_rank.rank,
        trivial,
        packing,
        packing_seconds: outcome.stats.packing_seconds,
        sat_seconds: outcome.stats.sat_seconds,
        sat_queries: outcome.stats.queries.len(),
    }
}

/// A Table I row: per-set percentages of cases where each method found an
/// optimal solution (and the real rank matched the binary rank).
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark set name (e.g. `"10x10, rand"`).
    pub set: String,
    /// Number of cases in the set.
    pub cases: usize,
    /// Cases where optimality could be certified at all.
    pub proved: usize,
    /// % cases with real rank == binary rank (the paper's `rank` column).
    pub rank_pct: f64,
    /// % cases where the trivial heuristic is optimal.
    pub trivial_pct: f64,
    /// % optimal for each packing checkpoint.
    pub packing_pct: Vec<f64>,
}

/// Aggregates case results into a Table I row.
pub fn aggregate(set: &str, results: &[CaseResult]) -> TableRow {
    let cases = results.len();
    let proved = results.iter().filter(|r| r.optimal.is_some()).count();
    let pct = |hits: usize| 100.0 * hits as f64 / cases.max(1) as f64;
    let rank_hits = results
        .iter()
        .filter(|r| r.optimal == Some(r.real_rank))
        .count();
    let trivial_hits = results
        .iter()
        .filter(|r| r.optimal.is_some_and(|o| r.trivial == o))
        .count();
    let packing_pct = (0..TRIAL_CHECKPOINTS.len())
        .map(|k| {
            pct(results
                .iter()
                .filter(|r| r.optimal.is_some_and(|o| r.packing[k] == o))
                .count())
        })
        .collect();
    TableRow {
        set: set.to_string(),
        cases,
        proved,
        rank_pct: pct(rank_hits),
        trivial_pct: pct(trivial_hits),
        packing_pct,
    }
}

/// Renders Table I in the paper's layout.
pub fn render_table1(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str("PERCENTAGE OF CASES FINDING AN OPTIMAL SOLUTION\n");
    out.push_str(&format!(
        "{:<16} {:>5} {:>7} {:>8} | {:>6} {:>6} {:>6} {:>6}   (row packing, trials)\n",
        "benchmark", "cases", "rank", "trivial", "1", "10", "100", "1000"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>5} {:>6.0}% {:>7.0}% | {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}%{}\n",
            r.set,
            r.cases,
            r.rank_pct,
            r.trivial_pct,
            r.packing_pct[0],
            r.packing_pct[1],
            r.packing_pct[2],
            r.packing_pct[3],
            if r.proved < r.cases {
                format!("   [{} of {} certified]", r.proved, r.cases)
            } else {
                String::new()
            }
        ));
    }
    out
}

/// Renders the Figure 4 data: the most time-consuming cases with their
/// packing/SAT runtime split and real rank, plus an ASCII bar per case.
#[allow(clippy::ptr_arg)] // callers own a Vec; sorting in place is the point
pub fn render_figure4(results: &mut Vec<(String, CaseResult)>, top: usize) -> String {
    results.sort_by(|a, b| {
        b.1.total_seconds()
            .partial_cmp(&a.1.total_seconds())
            .expect("finite times")
    });
    let max_t = results
        .first()
        .map(|r| r.1.total_seconds())
        .unwrap_or(0.0)
        .max(1e-9);
    let mut out = String::new();
    out.push_str("MOST TIME-CONSUMING CASES (packing + SAT split, real rank)\n");
    out.push_str(&format!(
        "{:<20} {:>10} {:>10} {:>10} {:>6} {:>9}\n",
        "case", "total s", "packing s", "SAT s", "rank", "queries"
    ));
    for (set, r) in results.iter().take(top) {
        let bar_len = (40.0 * r.total_seconds() / max_t).round() as usize;
        let sat_len = if r.total_seconds() > 0.0 {
            (bar_len as f64 * r.sat_seconds / r.total_seconds()).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{:<20} {:>10.3} {:>10.3} {:>10.3} {:>6} {:>9}  {}{}\n",
            format!("{set} #{}", r.seed),
            r.total_seconds(),
            r.packing_seconds,
            r.sat_seconds,
            r.real_rank,
            r.sat_queries,
            "#".repeat(sat_len),
            "-".repeat(bar_len.saturating_sub(sat_len)),
        ));
    }
    out.push_str("('#' = SAT share, '-' = packing share; the paper observes the\n");
    out.push_str(" dominant cost is proving UNSAT at b = r_B - 1)\n");
    out
}

/// Runs the complete Table I experiment.
///
/// `per_cell` instances per parameter cell (paper: 10) and `gap_cases` per
/// gap family (paper: 100); lower both for a quick pass. `time_limit`
/// bounds each instance's SAT phase (see [`evaluate_case`]), which runs
/// only for matrices with at most `sat_row_limit` rows — the paper
/// certifies its ≤ 10-row sets and declares 100×100 "too large for SMT".
pub fn run_table1(
    per_cell: usize,
    gap_cases: usize,
    budget: Option<u64>,
    time_limit: Option<Duration>,
    sat_row_limit: usize,
) -> (Vec<TableRow>, Vec<(String, CaseResult)>) {
    let suite = table1_suite(per_cell, gap_cases);
    let mut rows = Vec::new();
    let mut all_cases = Vec::new();
    for (set, benches) in &suite {
        let mut results = Vec::with_capacity(benches.len());
        for bench in benches {
            let cfg = SapConfig {
                packing: PackingConfig {
                    trials: 100,
                    seed: bench.seed,
                    ..PackingConfig::default()
                },
                conflict_budget: budget,
                ..SapConfig::default()
            };
            let sat_limit = if bench.matrix.nrows() > sat_row_limit {
                Some(Duration::ZERO)
            } else {
                time_limit
            };
            let r = evaluate_case(bench, &cfg, sat_limit);
            all_cases.push((set.clone(), r.clone()));
            results.push(r);
        }
        rows.push(aggregate(set, &results));
    }
    (rows, all_cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebmf::gen::{gap_benchmark, known_optimal_benchmark, random_benchmark};

    #[test]
    fn packing_progression_is_monotone() {
        let b = random_benchmark(8, 8, 0.5, 3);
        let prog = packing_progression(&b.matrix, &TRIAL_CHECKPOINTS, 1);
        assert_eq!(prog.len(), 4);
        for w in prog.windows(2) {
            assert!(w[1] <= w[0], "more trials cannot be worse");
        }
    }

    #[test]
    fn evaluate_known_optimal_case() {
        let (bench, _) = known_optimal_benchmark(8, 8, 4, 9);
        let r = evaluate_case(&bench, &SapConfig::default(), None);
        assert_eq!(r.optimal, Some(4));
        assert_eq!(r.real_rank, 4);
    }

    #[test]
    fn evaluate_gap_case_exceeds_rank() {
        // Gap instances are built so that r_B > rank_ℝ (usually).
        let bench = gap_benchmark(8, 8, 3, 5);
        let r = evaluate_case(&bench, &SapConfig::default(), None);
        let rb = r.optimal.expect("small case must be certified");
        assert!(rb >= r.real_rank);
    }

    #[test]
    fn aggregate_percentages() {
        let (bench, _) = known_optimal_benchmark(6, 6, 3, 1);
        let r = evaluate_case(&bench, &SapConfig::default(), None);
        let row = aggregate("test", &[r]);
        assert_eq!(row.cases, 1);
        assert_eq!(row.proved, 1);
        assert_eq!(row.rank_pct, 100.0);
        // Known-optimal family: even the trivial heuristic succeeds (paper
        // Observation 2).
        assert_eq!(row.trivial_pct, 100.0);
    }

    #[test]
    fn render_table_contains_sets() {
        let (bench, _) = known_optimal_benchmark(6, 6, 2, 2);
        let r = evaluate_case(&bench, &SapConfig::default(), None);
        let row = aggregate("10x10, opt", &[r]);
        let s = render_table1(&[row]);
        assert!(s.contains("10x10, opt"));
        assert!(s.contains("100%"));
    }

    #[test]
    fn render_figure4_sorts_by_time() {
        let mk = |t: f64| CaseResult {
            params: "p".into(),
            seed: 0,
            optimal: Some(1),
            real_rank: 1,
            trivial: 1,
            packing: vec![1; 4],
            packing_seconds: t / 2.0,
            sat_seconds: t / 2.0,
            sat_queries: 1,
        };
        let mut cases = vec![("a".to_string(), mk(0.1)), ("b".to_string(), mk(0.5))];
        let s = render_figure4(&mut cases, 2);
        let a_pos = s.find("a #0").unwrap();
        let b_pos = s.find("b #0").unwrap();
        assert!(b_pos < a_pos, "slower case must be listed first");
    }

    #[test]
    fn mini_table1_runs_end_to_end() {
        let (rows, cases) = run_table1(1, 2, Some(50_000), None, 10);
        assert_eq!(rows.len(), 9);
        assert!(!cases.is_empty());
        // The known-optimal set must be fully certified and 100% everywhere.
        let opt_row = rows.iter().find(|r| r.set == "10x10, opt").unwrap();
        assert_eq!(opt_row.proved, opt_row.cases);
        assert_eq!(opt_row.trivial_pct, 100.0);
        assert_eq!(*opt_row.packing_pct.last().unwrap(), 100.0);
        // Beyond `sat_row_limit` rows the SAT phase is skipped.
        let wide: Vec<_> = cases
            .iter()
            .filter(|(_, c)| c.params.starts_with("100x100"))
            .collect();
        assert!(!wide.is_empty() && wide.iter().all(|(_, c)| c.sat_queries == 0));
    }
}
