//! Lower bounds on the binary rank.
//!
//! Soundness is what matters for Algorithm 1: any lower bound ≤ `r_B(M)` may
//! terminate the descending SAT loop and certify optimality when the
//! incumbent partition matches it. The paper uses the real rank (its Eq. 3);
//! we additionally expose the greedy fooling-set size (sound by the
//! distinctness argument of §II), which can dominate the real rank on
//! particular matrices. The GF(2) rank is sound too, but never exceeds the
//! real rank of a 0/1 matrix (a minor that is odd is nonzero), so it is not
//! part of the bound.

use bitmatrix::BitMatrix;
use linalg::{greedy_fooling_set, real_rank, RealRank};

/// A sound lower bound on `r_B(M)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerBound {
    /// The bound: `value ≤ r_B(M)`.
    pub value: usize,
    /// The real-rank component (always computed).
    pub real_rank: RealRank,
}

/// Computes the combined lower bound `max(rank_ℝ, fooling)`.
///
/// `use_fooling` toggles the greedy fooling-set component; the paper-faithful
/// configuration of [`sap`](crate::sap) keeps it off so the termination
/// bound matches Algorithm 1 exactly.
pub fn lower_bound(m: &BitMatrix, use_fooling: bool) -> LowerBound {
    let rr = real_rank(m);
    let fooling = if use_fooling {
        greedy_fooling_set(m).size()
    } else {
        0
    };
    LowerBound {
        value: rr.rank.max(fooling),
        real_rank: rr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_bound_is_n() {
        let lb = lower_bound(&BitMatrix::identity(5), true);
        assert_eq!(lb.value, 5);
        assert!(lb.real_rank.exact);
    }

    #[test]
    fn gf2_never_exceeds_real_rank_for_these() {
        let m: BitMatrix = "011\n101\n110".parse().unwrap();
        let lb = lower_bound(&m, false);
        assert_eq!(lb.real_rank.rank, 3);
        assert_eq!(linalg::rank_gf2(&m), 2);
        assert_eq!(lb.value, 3);
    }

    /// Rows 0 + 1 and rows 2 + 3 both sum to all-ones, so the real rank is
    /// 3, yet the diagonal is a fooling set of 4.
    fn fooling_beats_rank() -> BitMatrix {
        "1010\n0101\n0110\n1001".parse().unwrap()
    }

    #[test]
    fn fooling_can_be_the_best_bound() {
        let lb = lower_bound(&fooling_beats_rank(), true);
        assert_eq!(lb.real_rank.rank, 3);
        assert_eq!(lb.value, 4);
    }

    #[test]
    fn zero_matrix_bound_zero() {
        let lb = lower_bound(&BitMatrix::zeros(3, 3), true);
        assert_eq!(lb.value, 0);
    }

    #[test]
    fn disabled_fooling_is_zero() {
        let lb = lower_bound(&fooling_beats_rank(), false);
        assert_eq!(lb.value, lb.real_rank.rank);
        assert_eq!(lb.value, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Up to 30×30 the floor is the exact real rank, and the GF(2)
        /// rank never exceeds it, so leaving GF(2) out never lowers it.
        #[test]
        fn floor_is_the_exact_real_rank(
            seed in any::<u64>(),
            rows in 1usize..=30,
            cols in 1usize..=30,
            density in 1usize..=9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = bitmatrix::random_matrix(rows, cols, density as f64 / 10.0, &mut rng);
            let rr = real_rank(&m);
            prop_assert!(rr.exact);
            prop_assert_eq!(lower_bound(&m, false).value, rr.rank);
            prop_assert!(linalg::rank_gf2(&m) <= rr.rank);
        }
    }
}
