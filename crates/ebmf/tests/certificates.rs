//! Differential testing of EBMF optimality certificates.
//!
//! Every `certify` run whose optimality rests on an UNSAT answer exports a
//! self-contained (DIMACS, DRAT) pair. These tests hammer that pipeline
//! from the outside with two *independent* oracles:
//!
//! * the standalone `certcheck` crate replays the trace with its own
//!   parser, clause database and propagation engine — no code shared with
//!   the solver that emitted it;
//! * a **fresh solver instance** re-solves the exported CNF from its
//!   DIMACS text and must independently agree the refuted bound is
//!   infeasible (the "re-solve the negated bound" oracle).
//!
//! Cold runs and warm resumed sessions must produce equally valid
//! certificates: the warm path re-derives its imported cores instead of
//! trusting them, so its proofs must check exactly like cold ones.

use bitmatrix::BitMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rect_addr_ebmf::{sap, PackingConfig, SapConfig, SapOutcome, SapSession, UnsatCertificate};
use sat::{parse_dimacs, SolveResult};

fn certify_config() -> SapConfig {
    SapConfig {
        certify: true,
        ..SapConfig::default()
    }
}

/// Validates `cert` against both independent oracles and the outcome it
/// came from; returns the checker's step count for additional assertions.
fn assert_certificate_valid(cert: &UnsatCertificate, out: &SapOutcome) -> certcheck::Outcome {
    // Oracle 1: the standalone validator accepts the trace.
    let checked = certcheck::check_certificate(&cert.cnf, &cert.drat)
        .unwrap_or_else(|e| panic!("certcheck rejected a genuine certificate: {e}"));
    // The refuted bound sits directly below the proved depth.
    assert_eq!(
        cert.bound + 1,
        out.partition.len(),
        "certificate refutes the bound below the proved depth"
    );
    // Oracle 2: a fresh solver re-solves the exported CNF (encoding plus
    // assumption units) and independently agrees it is unsatisfiable.
    let cnf = parse_dimacs(&cert.cnf).expect("exported DIMACS parses");
    assert_eq!(
        cnf.into_solver().solve(),
        SolveResult::Unsat,
        "re-solving the exported bound query must agree it is UNSAT"
    );
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small instances: whenever a certified cold run concludes
    /// optimality from an UNSAT answer, the exported certificate passes
    /// the standalone checker AND an independent re-solve agrees.
    #[test]
    fn cold_certificates_validate_and_resolving_agrees(
        seed in any::<u64>(),
        rows in 3usize..=6,
        cols in 3usize..=6,
        density in 2usize..=8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = bitmatrix::random_matrix(rows, cols, density as f64 / 10.0, &mut rng);
        let out = sap(&m, &certify_config());
        prop_assert!(out.proved_optimal, "small instances always prove");
        // Without a certificate no UNSAT answer concluded the descent (the
        // incumbent met the rank floor): there is nothing to certify.
        if let Some(cert) = &out.certificate {
            let checked = assert_certificate_valid(cert, &out);
            prop_assert!(checked.steps_checked > 0);
        }
    }

    /// A budget-starved session resumed to completion (the warm path) must
    /// emit a certificate exactly as valid as the cold one-shot run's, and
    /// both must refute the same bound.
    #[test]
    fn warm_and_cold_certificates_are_equally_valid(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = bitmatrix::random_matrix(6, 6, 0.45, &mut rng);
        let cold = sap(&m, &certify_config());
        prop_assert!(cold.proved_optimal);
        let Some(cold_cert) = cold.certificate.clone() else {
            // Rank floor met heuristically: no UNSAT on either path.
            return Ok(());
        };
        assert_certificate_valid(&cold_cert, &cold);

        // Warm path: starve each slice so the session suspends and
        // resumes mid-descent, certifying the whole way.
        let warm_cfg = SapConfig {
            conflict_budget: Some(50),
            packing: PackingConfig::with_trials(2),
            ..certify_config()
        };
        let mut session = SapSession::new(&m, &warm_cfg);
        let mut last = session.run(&warm_cfg);
        let mut rounds = 0u32;
        while !session.proved_optimal() {
            last = session.run(&warm_cfg);
            rounds += 1;
            prop_assert!(rounds < 10_000, "warm session must converge");
        }
        prop_assert_eq!(last.partition.len(), cold.partition.len());
        let warm_cert = last.certificate.clone().expect("warm UNSAT emits a certificate");
        assert_certificate_valid(&warm_cert, &last);
        prop_assert_eq!(
            warm_cert.bound, cold_cert.bound,
            "both paths refute the same bound"
        );
    }
}

/// The paper's Fig. 1b matrix end-to-end: certificate present, checker
/// accepts, trimmed core non-trivial, and the independent re-solve agrees.
#[test]
fn fig1b_certificate_is_fully_checkable() {
    let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
        .parse()
        .unwrap();
    let out = sap(&m, &certify_config());
    assert!(out.proved_optimal);
    assert_eq!(out.partition.len(), 5);
    let cert = out.certificate.clone().expect("UNSAT at b=4 certifies");
    let checked = assert_certificate_valid(&cert, &out);
    assert!(checked.core_axioms > 0, "trimmed core uses real axioms");
    assert_eq!(
        checked.lrat.lines().count(),
        checked.core_lemmas,
        "one LRAT line per core lemma"
    );
}

/// Corrupting a genuine EBMF certificate must be caught: dropping the
/// trace's final empty clause leaves a non-refutation the checker rejects
/// with the precise error.
#[test]
fn truncated_certificate_is_rejected() {
    let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
        .parse()
        .unwrap();
    let out = sap(&m, &certify_config());
    let cert = out.certificate.expect("certificate present");
    let truncated: String = cert
        .drat
        .lines()
        .take(cert.drat.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        certcheck::check_certificate(&cert.cnf, &truncated),
        Err(certcheck::ProofError::NoEmptyClause),
        "a truncated trace is not a refutation"
    );
}
