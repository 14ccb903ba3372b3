//! Pins the CDCL search itself. Conflicts, decisions and propagations,
//! summed over a fixed corpus of SAP descents, must equal the totals
//! recorded when the corpus was fixed. Clause storage, watch-list order,
//! propagation order, learning and database reduction all move these
//! counts, so a change meant to leave the search alone (a new clause
//! layout, a cheaper build) must leave them exactly where they are. A
//! change that alters the search on purpose re-records the totals and says
//! why.
//!
//! The corpus has four parts:
//! * one 500-conflict-per-query descent of every instance of a fixed
//!   `table1_suite` slice (the ones whose packing meets the real-rank
//!   floor spend nothing);
//! * resumed 2 500-conflict runs of one warm session on
//!   `engine_bench`'s warm-start instance, `gap_benchmark(16, 16, 3, 3)`,
//!   until it proves its depth, as recurring jobs of one class do;
//! * one 4 000-conflict run on a dense 13×13 whose satisfiable queries are
//!   hard, long enough to reduce the learnt-clause database;
//! * one certified descent, whose DRAT certificate `certcheck` accepts.
//!
//! It takes about 3 s in a debug build.

use ebmf::gen::{gap_benchmark, random_benchmark, table1_suite};
use ebmf::{PackingConfig, SapConfig, SapOutcome, SapSession};

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Totals {
    conflicts: u64,
    decisions: u64,
    propagations: u64,
}

impl Totals {
    fn add(&mut self, outcome: &SapOutcome) {
        for q in &outcome.stats.queries {
            self.conflicts += q.conflicts;
            self.decisions += q.decisions;
            self.propagations += q.propagations;
        }
    }
}

fn config(conflict_budget: u64) -> SapConfig {
    SapConfig {
        packing: PackingConfig::with_trials(4),
        conflict_budget: Some(conflict_budget),
        ..SapConfig::default()
    }
}

#[test]
fn search_counters_match_the_recorded_totals() {
    // Part 1: the Table I slice without its 100×100 set: ten instances
    // per random and known-optimal cell, twenty per gap set.
    let mut table1 = Totals::default();
    let mut reached_sap = 0;
    for (family, cases) in table1_suite(10, 20) {
        if family.starts_with("100x100") {
            continue;
        }
        for case in cases {
            let cfg = config(500);
            let outcome = SapSession::new(&case.matrix, &cfg).run(&cfg);
            reached_sap += usize::from(!outcome.stats.queries.is_empty());
            table1.add(&outcome);
        }
    }

    // Part 2: one warm session resumed with 2 500 conflicts per run.
    let warm_matrix = gap_benchmark(16, 16, 3, 3).matrix;
    let cfg = config(2_500);
    let mut session = SapSession::new(&warm_matrix, &cfg);
    let mut warm = Totals::default();
    let mut runs = 0;
    while !session.proved_optimal() {
        runs += 1;
        assert!(runs <= 8, "the warm session must prove within 8 runs");
        warm.add(&session.run(&cfg));
    }

    // Part 3: 4 000 conflicts on the dense 13×13 whose satisfiable
    // queries are hard (`rect-addr gen rand 13 13 60 3`), past the first
    // learnt-clause reduction.
    let cfg = config(4_000);
    let mut dense = Totals::default();
    dense.add(&SapSession::new(&random_benchmark(13, 13, 0.6, 3).matrix, &cfg).run(&cfg));

    // Part 4: a certified descent whose refutation needs search.
    let cfg = SapConfig {
        certify: true,
        ..config(5_000)
    };
    let outcome = SapSession::new(&gap_benchmark(14, 14, 3, 1).matrix, &cfg).run(&cfg);
    assert!(outcome.proved_optimal);
    let cert = outcome
        .certificate
        .as_ref()
        .expect("the optimum is proved by an UNSAT answer");
    if let Err(e) = certcheck::check_certificate(&cert.cnf, &cert.drat) {
        panic!("the certificate must verify: {e}");
    }
    let mut certified = Totals::default();
    certified.add(&outcome);

    let t = |conflicts, decisions, propagations| Totals {
        conflicts,
        decisions,
        propagations,
    };
    assert_eq!(
        (reached_sap, table1),
        (31, t(2_204, 3_503, 145_969)),
        "Table I slice"
    );
    assert_eq!((runs, warm), (2, t(2_930, 4_878, 328_871)), "warm session");
    assert_eq!(dense, t(4_000, 8_196, 521_860), "dense 13×13");
    assert_eq!(certified, t(416, 645, 36_371), "certified descent");
}
