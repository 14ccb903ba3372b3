//! The real-rank floor of paper Eq. 3, `rank_ℝ(M) ≤ r_B(M)`, by one
//! fraction-free Gaussian elimination modulo the Mersenne prime
//! `P = 2⁶¹ − 1`.
//!
//! A rank mod `P` never exceeds the rank over ℚ, because a minor that is
//! nonzero mod `P` is nonzero over ℚ, so the value is a sound floor at every
//! size. By Hadamard's bound an `r×r` minor of a 0/1 matrix is at most
//! `(r+1)^((r+1)/2) / 2^r` in absolute value: below `P` for `r ≤ 36`, above
//! it from `r = 37` on. So when the shorter side is at most 36, no nonzero
//! minor vanishes mod `P` and the value is the rational rank exactly. Beyond
//! that it equals the rational rank except with negligible probability.

use bitmatrix::BitMatrix;

/// The Mersenne prime `2⁶¹ − 1`.
const P: u64 = (1 << 61) - 1;

/// The longest shorter side at which every minor of a 0/1 matrix is below
/// `P` in absolute value, so that the rank mod `P` is the rational rank.
const EXACT_SIDE: usize = 36;

/// `a·b mod P` for `a, b < P`: one `u128` product, folded twice by
/// `2⁶¹ ≡ 1 (mod P)`, then one conditional subtraction.
#[inline]
fn mul(a: u64, b: u64) -> u64 {
    let x = u128::from(a) * u128::from(b);
    let x = ((x & u128::from(P)) + (x >> 61)) as u64; // < 2⁶²
    let x = (x & P) + (x >> 61); // ≤ P + 1
    if x >= P {
        x - P
    } else {
        x
    }
}

/// `a − b mod P` for `a, b < P`.
#[inline]
fn sub(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

/// The real (rational) rank of a binary matrix, and whether it is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealRank {
    /// The rank mod `P`. Always `≤ rank_ℚ(M) ≤ r_B(M)`.
    pub rank: usize,
    /// `true` when the shorter side is at most 36, so that `rank` is the
    /// rational rank; `false` beyond, where `rank` is a lower bound that
    /// equals the rational rank except with negligible probability.
    pub exact: bool,
}

/// Computes the real rank of `m` by one forward elimination mod `P` over a
/// flat `rows·cols` buffer. For each column, a pivot at or below the
/// current rank is swapped up, and every lower row whose entry `f` in that
/// column is nonzero becomes `a_pp·row − f·pivot`. No inverse is needed,
/// because only which entries vanish matters.
///
/// The value is always a valid lower bound on the binary rank `r_B(m)`,
/// which is all the soundness of Algorithm 1 requires.
pub fn real_rank(m: &BitMatrix) -> RealRank {
    let (rows, cols) = m.shape();
    let mut a = vec![0u64; rows * cols];
    for (i, row) in m.iter_rows().enumerate() {
        for j in row.ones() {
            a[i * cols + j] = 1;
        }
    }
    let mut rank = 0;
    for col in 0..cols {
        if rank == rows {
            break;
        }
        let Some(p) = (rank..rows).find(|&i| a[i * cols + col] != 0) else {
            continue;
        };
        if p != rank {
            let (upper, lower) = a.split_at_mut(p * cols);
            upper[rank * cols..][..cols].swap_with_slice(&mut lower[..cols]);
        }
        let (upper, lower) = a.split_at_mut((rank + 1) * cols);
        let pivot = &upper[rank * cols + col..];
        let app = pivot[0];
        for row in lower.chunks_exact_mut(cols) {
            let f = row[col];
            if f != 0 {
                for (x, &y) in row[col..].iter_mut().zip(pivot) {
                    *x = sub(mul(app, *x), mul(f, y));
                }
            }
        }
        rank += 1;
    }
    RealRank {
        rank,
        exact: rows.min(cols) <= EXACT_SIDE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(m: &BitMatrix) -> usize {
        real_rank(m).rank
    }

    #[test]
    fn identity_has_full_rank() {
        assert_eq!(rank(&BitMatrix::identity(8)), 8);
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        assert_eq!(rank(&BitMatrix::zeros(4, 6)), 0);
        assert_eq!(rank(&BitMatrix::zeros(0, 6)), 0);
        assert_eq!(rank(&BitMatrix::zeros(4, 0)), 0);
    }

    #[test]
    fn all_ones_has_rank_one() {
        assert_eq!(rank(&BitMatrix::ones(5, 7)), 1);
    }

    #[test]
    fn duplicate_rows_do_not_increase_rank() {
        let m: BitMatrix = "101\n101\n010".parse().unwrap();
        assert_eq!(rank(&m), 2);
    }

    #[test]
    fn cyclic_3x3_has_rank_3_over_large_p_but_2_over_gf2() {
        // [[0,1,1],[1,0,1],[1,1,0]] has determinant 2: rank 3 over ℚ and
        // mod any odd prime, rank 2 over GF(2).
        let m: BitMatrix = "011\n101\n110".parse().unwrap();
        assert_eq!(rank(&m), 3);
        assert_eq!(crate::rank_gf2(&m), 2);
    }

    #[test]
    fn rank_bounded_by_dimensions() {
        let m: BitMatrix = "110011\n001100".parse().unwrap();
        assert!(rank(&m) <= 2);
    }

    #[test]
    fn wide_and_tall_agree_with_transpose() {
        let m: BitMatrix = "1101\n0110\n1011".parse().unwrap();
        assert_eq!(rank(&m), rank(&m.transpose()));
    }

    #[test]
    fn mul_and_sub_match_the_u128_remainder() {
        let edges = [0, 1, 2, 3, 1 << 60, (1 << 60) + 1, P - 2, P - 1];
        for &a in &edges {
            for &b in &edges {
                let want = (u128::from(a) * u128::from(b) % u128::from(P)) as u64;
                assert_eq!(mul(a, b), want, "{a} · {b}");
                assert_eq!(sub(a, b), (a + P - b) % P, "{a} − {b}");
            }
        }
    }

    #[test]
    fn exact_flips_between_side_36_and_37() {
        for (rows, cols, exact) in [
            (36, 36, true),
            (36, 100, true),
            (100, 36, true),
            (37, 37, false),
            (37, 100, false),
            (100, 37, false),
        ] {
            let rr = real_rank(&BitMatrix::ones(rows, cols));
            assert_eq!(rr, RealRank { rank: 1, exact }, "{rows}×{cols}");
        }
    }

    /// Hadamard's bound on an `r×r` minor of a 0/1 matrix,
    /// `(r+1)^((r+1)/2) / 2^r`, stays below `P` exactly through
    /// `r = EXACT_SIDE`.
    #[test]
    fn hadamard_bound_stays_below_p_through_side_36() {
        let log2_bound = |r: usize| (r as f64 + 1.0) / 2.0 * (r as f64 + 1.0).log2() - r as f64;
        let log2_p = (P as f64).log2();
        for r in 1..=EXACT_SIDE {
            assert!(log2_bound(r) < log2_p, "r = {r}");
        }
        assert!(log2_bound(EXACT_SIDE + 1) > log2_p);
    }

    #[test]
    fn large_identity_is_an_inexact_lower_bound() {
        assert_eq!(
            real_rank(&BitMatrix::identity(60)),
            RealRank {
                rank: 60,
                exact: false
            }
        );
    }
}
