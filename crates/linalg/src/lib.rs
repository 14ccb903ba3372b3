//! Exact linear algebra over ℚ, GF(p) and GF(2) for binary matrices, plus
//! fooling-set lower bounds.
//!
//! The EBMF solver (crate `rect-addr-ebmf`) needs two kinds of lower bounds
//! on the binary rank `r_B(M)`:
//!
//! 1. **Rank bounds** (paper Eq. 3): `rank_ℝ(M) ≤ r_B(M)`. [`real_rank`]
//!    computes the rational rank exactly by fraction-free Bareiss elimination
//!    whenever `i128` cannot overflow (all paper-size exact benchmarks), and
//!    otherwise the max of GF(p) ranks over three 61-bit primes — a sound
//!    lower bound either way. [`rank_gf2`] gives a second, cheaper sound
//!    bound (disjoint rectangles also sum over GF(2)).
//! 2. **Fooling sets** (paper §II): [`max_fooling_set`] solves the
//!    equivalent max-clique problem exactly with branch-and-bound, and
//!    [`greedy_fooling_set`] gives the fast heuristic.
//!
//! # Examples
//!
//! ```
//! use bitmatrix::BitMatrix;
//! use rect_addr_linalg::{max_fooling_set, real_rank};
//!
//! let m: BitMatrix = "110\n011\n111".parse()?; // paper Eq. (2)
//! assert_eq!(real_rank(&m).rank, 3);           // real rank 3 = binary rank
//! assert_eq!(max_fooling_set(&m, 1_000_000).size(), 2); // fooling bound is not tight
//! # Ok::<(), bitmatrix::ParseMatrixError>(())
//! ```

mod fooling;
mod gf2;
mod gfp;
mod rational;

pub use fooling::{
    greedy_fooling_set, greedy_fooling_set_within, is_fooling_set, max_fooling_set, FoolingSet,
};
pub use gf2::rank_gf2;
pub use gfp::{rank_gfp, rank_gfp_max, PRIMES_61};
pub use rational::{rank_rational, real_rank, RealRank};

#[cfg(test)]
mod proptests {
    use super::*;
    use bitmatrix::BitMatrix;
    use proptest::prelude::*;

    fn arb_matrix(max: usize) -> impl Strategy<Value = BitMatrix> {
        (1usize..=max, 1usize..=max).prop_flat_map(|(m, n)| {
            proptest::collection::vec(any::<bool>(), m * n)
                .prop_map(move |bits| BitMatrix::from_fn(m, n, |i, j| bits[i * n + j]))
        })
    }

    proptest! {
        #[test]
        fn gf2_rank_below_rational_rank(m in arb_matrix(9)) {
            let r2 = rank_gf2(&m);
            let rq = rank_rational(&m).unwrap();
            prop_assert!(r2 <= rq, "GF(2) rank {} above rational rank {}", r2, rq);
        }

        #[test]
        fn gfp_rank_equals_rational_on_small(m in arb_matrix(9)) {
            // For tiny 0/1 matrices the minors are far smaller than the
            // primes, so rank can never drop mod p.
            prop_assert_eq!(rank_gfp_max(&m), rank_rational(&m).unwrap());
        }

        #[test]
        fn real_rank_bounded_by_dims(m in arb_matrix(9)) {
            let rr = real_rank(&m);
            prop_assert!(rr.exact);
            prop_assert!(rr.rank <= m.nrows().min(m.ncols()));
        }

        #[test]
        fn rank_transpose_invariant(m in arb_matrix(8)) {
            prop_assert_eq!(rank_rational(&m), rank_rational(&m.transpose()));
            prop_assert_eq!(rank_gf2(&m), rank_gf2(&m.transpose()));
        }

        #[test]
        fn greedy_fooling_set_is_valid(m in arb_matrix(8)) {
            let f = greedy_fooling_set(&m);
            prop_assert!(is_fooling_set(&m, &f.cells));
        }

        #[test]
        fn max_fooling_set_is_valid_and_geq_greedy(m in arb_matrix(6)) {
            let g = greedy_fooling_set(&m);
            let f = max_fooling_set(&m, 200_000);
            prop_assert!(is_fooling_set(&m, &f.cells));
            prop_assert!(f.size() >= g.size());
        }

        #[test]
        fn fooling_transpose_invariant(m in arb_matrix(5)) {
            let a = max_fooling_set(&m, 200_000);
            let b = max_fooling_set(&m.transpose(), 200_000);
            prop_assert!(a.proved_maximum && b.proved_maximum);
            prop_assert_eq!(a.size(), b.size());
        }
    }
}
