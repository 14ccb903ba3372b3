//! The real-rank floor and GF(2) rank of binary matrices, plus fooling-set
//! lower bounds.
//!
//! The EBMF solver (crate `rect-addr-ebmf`) needs two kinds of lower bounds
//! on the binary rank `r_B(M)`:
//!
//! 1. **Rank bounds** (paper Eq. 3): `rank_ℝ(M) ≤ r_B(M)`. [`real_rank`]
//!    computes the rank by one fraction-free elimination modulo the prime
//!    `2⁶¹ − 1`. That is the rational rank exactly whenever the shorter side
//!    is at most 36, which covers all the paper's exact benchmarks, and a
//!    sound lower bound at every size. [`rank_gf2`] gives the GF(2) rank,
//!    another sound bound (disjoint rectangles also sum over GF(2)) that
//!    never exceeds the real rank.
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

pub use fooling::{
    greedy_fooling_set, greedy_fooling_set_within, is_fooling_set, max_fooling_set, FoolingSet,
};
pub use gf2::rank_gf2;
pub use gfp::{real_rank, RealRank};

#[cfg(test)]
mod rational;

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rational::tests::rank_rational;
    use bitmatrix::BitMatrix;
    use proptest::prelude::*;

    fn arb_matrix(max: usize) -> impl Strategy<Value = BitMatrix> {
        (1usize..=max, 1usize..=max).prop_flat_map(|(m, n)| {
            proptest::collection::vec(any::<bool>(), m * n)
                .prop_map(move |bits| BitMatrix::from_fn(m, n, |i, j| bits[i * n + j]))
        })
    }

    /// A `short×long` matrix, transposed when `tall`, whose cells are 1
    /// with probability `percent`% (all-ones from 100 on), drawn from a
    /// seeded LCG.
    fn occupied(short: usize, long: usize, tall: bool, percent: u64, seed: u64) -> BitMatrix {
        let (rows, cols) = if tall { (long, short) } else { (short, long) };
        let mut state = seed;
        BitMatrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 100 < percent
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Through a shorter side of 36 the rank mod 2^61 − 1 is the
        /// rational rank. Shapes reach 36×60 and 60×36; occupancies run
        /// 0–120%, so about one case in six is all-ones.
        #[test]
        fn real_rank_is_the_rational_rank_through_side_36(
            short in 1usize..=36,
            long in 1usize..=60,
            tall in any::<bool>(),
            percent in 0u64..=120,
            seed in any::<u64>(),
        ) {
            let m = occupied(short, long.max(short), tall, percent, seed);
            let rr = real_rank(&m);
            prop_assert!(rr.exact);
            prop_assert_eq!(Some(rr.rank), rank_rational(&m), "{}", m);
        }

        /// Past a shorter side of 36 the rank is flagged inexact, and it
        /// never exceeds the rational rank wherever Bareiss fits `i128`.
        #[test]
        fn real_rank_past_side_36_is_an_inexact_lower_bound(
            short in 37usize..=44,
            long in 37usize..=60,
            tall in any::<bool>(),
            percent in 0u64..=120,
            seed in any::<u64>(),
        ) {
            let m = occupied(short, long.max(short), tall, percent, seed);
            let rr = real_rank(&m);
            prop_assert!(!rr.exact);
            if let Some(rq) = rank_rational(&m) {
                prop_assert!(rr.rank <= rq, "rank mod p {} above rational {}", rr.rank, rq);
            }
        }
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
            // prime, so rank can never drop mod p.
            prop_assert_eq!(real_rank(&m).rank, rank_rational(&m).unwrap());
        }

        #[test]
        fn real_rank_bounded_by_dims(m in arb_matrix(9)) {
            let rr = real_rank(&m);
            prop_assert!(rr.exact);
            prop_assert!(rr.rank <= m.nrows().min(m.ncols()));
        }

        #[test]
        fn rank_transpose_invariant(m in arb_matrix(8)) {
            prop_assert_eq!(real_rank(&m), real_rank(&m.transpose()));
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
