//! A complete CDCL SAT solver, built from scratch for the `rect-addr`
//! workspace.
//!
//! The paper this workspace reproduces (*Depth-Optimal Addressing of 2D
//! Qubit Array with 1D Controls*, DATE 2024) solves its exact binary matrix
//! factorization (EBMF) decision problems with Z3. This crate is the
//! substitute substrate: a conflict-driven clause-learning solver with
//!
//! * two-watched-literal unit propagation with blocker literals,
//! * VSIDS variable activities on an indexed binary heap,
//! * phase saving,
//! * first-UIP conflict analysis with basic clause minimization,
//! * non-chronological backtracking,
//! * Luby-sequence restarts,
//! * LBD-based learnt-clause database reduction,
//! * incremental clause addition between solves, solving under
//!   assumptions (how the paper's `narrow_down_depth` loop queries each
//!   depth), and conflict budgets (`Unknown` answers) for anytime
//!   behaviour.
//!
//! # Examples
//!
//! Solve a small formula and read the model:
//!
//! ```
//! use rect_addr_sat::{Cnf, SolveResult};
//!
//! let cnf = Cnf::from_dimacs_clauses(&[vec![1, 2], vec![-1, 2], vec![-2, -1]]);
//! let mut solver = cnf.into_solver();
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert!(solver.model()[1]); // x2 must be true
//! ```

mod brute;
mod cancel;
mod clause;
mod dimacs;
mod heap;
mod proof;
mod solver;
mod types;

pub use brute::{evaluate, solve_brute_force};
pub use cancel::CancelToken;
pub use dimacs::{parse_dimacs, Cnf, DimacsError};
pub use proof::{check_rup_refutation, Proof, ProofError, ProofStep};
pub use solver::Solver;
pub use types::{Lit, SolveResult, SolverStats, Var};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random CNFs with ≤ 10 variables and ≤ 40 3-ish literal clauses.
    fn arb_cnf() -> impl Strategy<Value = Cnf> {
        let clause = proptest::collection::vec(
            (1i64..=10, any::<bool>()).prop_map(|(v, s)| if s { v } else { -v }),
            1..=3,
        );
        proptest::collection::vec(clause, 0..40).prop_map(|cs| Cnf::from_dimacs_clauses(&cs))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cdcl_agrees_with_brute_force(cnf in arb_cnf()) {
            let brute = solve_brute_force(&cnf);
            let mut s = cnf.into_solver();
            let res = s.solve();
            match brute {
                Some(_) => {
                    prop_assert_eq!(res, SolveResult::Sat);
                    // The CDCL model must actually satisfy the formula.
                    let model = s.model().to_vec();
                    prop_assert!(evaluate(&cnf, &model),
                        "model {:?} does not satisfy {:?}", model, cnf);
                }
                None => prop_assert_eq!(res, SolveResult::Unsat),
            }
        }

        #[test]
        fn solve_is_idempotent(cnf in arb_cnf()) {
            let mut s = cnf.into_solver();
            let first = s.solve();
            let second = s.solve();
            prop_assert_eq!(first, second);
        }

        #[test]
        fn assumptions_consistent_with_added_units(cnf in arb_cnf()) {
            // Solving with assumption `l` must match solving the formula
            // with `l` added as a unit clause.
            let mut with_assumption = cnf.into_solver();
            if cnf.num_vars == 0 { return Ok(()); }
            let l = Lit::from_dimacs(1);
            let res_a = with_assumption.solve_with_assumptions(&[l]);

            let mut cnf2 = cnf.clone();
            cnf2.clauses.push(vec![l]);
            let mut with_unit = cnf2.into_solver();
            let res_u = with_unit.solve();
            prop_assert_eq!(res_a, res_u);
        }

        #[test]
        fn dimacs_roundtrip(cnf in arb_cnf()) {
            let parsed = parse_dimacs(&cnf.to_dimacs()).unwrap();
            prop_assert_eq!(parsed, cnf);
        }
    }
}
