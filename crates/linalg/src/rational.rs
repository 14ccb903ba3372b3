#[cfg(test)]
pub(crate) mod tests {
    //! The exact rank over ℚ by fraction-free (Bareiss) elimination: the
    //! reference that [`real_rank`] is checked against.
    //!
    //! Bareiss elimination keeps every intermediate value an exact integer
    //! (a minor of the original matrix), so for a 0/1 matrix Hadamard's
    //! bound caps the growth. With `i128` and checked operations the
    //! routine either returns the exact rational rank or reports that the
    //! values would overflow. Each step multiplies two minors, which
    //! Hadamard's bound keeps below 2¹²¹ through a shorter side of 36, so
    //! there it always answers.

    use crate::{real_rank, RealRank};
    use bitmatrix::BitMatrix;

    /// Computes the exact rank of `m` over ℚ, or `None` if intermediate minors
    /// would overflow `i128`.
    #[allow(clippy::needless_range_loop)] // pivot search reads a[i][j] under two indices
    pub(crate) fn rank_rational(m: &BitMatrix) -> Option<usize> {
        let (nrows, ncols) = m.shape();
        let mut a: Vec<Vec<i128>> = (0..nrows)
            .map(|i| (0..ncols).map(|j| i128::from(m.get(i, j))).collect())
            .collect();
        let mut prev: i128 = 1;
        let steps = nrows.min(ncols);
        let mut rank = 0usize;
        for k in 0..steps {
            // Full pivoting: any nonzero entry in the remaining block will do.
            let mut pivot = None;
            'search: for i in k..nrows {
                for j in k..ncols {
                    if a[i][j] != 0 {
                        pivot = Some((i, j));
                        break 'search;
                    }
                }
            }
            let Some((pi, pj)) = pivot else {
                return Some(rank);
            };
            a.swap(k, pi);
            if pj != k {
                for row in a.iter_mut() {
                    row.swap(k, pj);
                }
            }
            // Fraction-free update: a[i][j] = (a[k][k]*a[i][j] - a[i][k]*a[k][j]) / prev.
            // The division is exact (Bareiss); checked ops detect overflow.
            for i in (k + 1)..nrows {
                for j in (k + 1)..ncols {
                    let t1 = a[k][k].checked_mul(a[i][j])?;
                    let t2 = a[i][k].checked_mul(a[k][j])?;
                    let num = t1.checked_sub(t2)?;
                    debug_assert_eq!(num % prev, 0, "Bareiss division must be exact");
                    a[i][j] = num / prev;
                }
                a[i][k] = 0;
            }
            prev = a[k][k];
            rank += 1;
        }
        Some(rank)
    }

    #[test]
    fn identity_full_rank() {
        assert_eq!(rank_rational(&BitMatrix::identity(10)), Some(10));
    }

    #[test]
    fn zero_and_ones() {
        assert_eq!(rank_rational(&BitMatrix::zeros(5, 5)), Some(0));
        assert_eq!(rank_rational(&BitMatrix::ones(5, 5)), Some(1));
    }

    #[test]
    fn cyclic_3x3_rank_3() {
        let m: BitMatrix = "011\n101\n110".parse().unwrap();
        assert_eq!(rank_rational(&m), Some(3));
    }

    #[test]
    fn eq2_matrix_from_paper_has_rank_3() {
        // Paper Eq. (2): fooling-set bound 2 but binary rank 3; real rank 3.
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        assert_eq!(rank_rational(&m), Some(3));
    }

    #[test]
    fn rank_is_transpose_invariant() {
        let m: BitMatrix = "11010\n00111\n11101\n00010".parse().unwrap();
        assert_eq!(rank_rational(&m), rank_rational(&m.transpose()));
    }

    #[test]
    fn agrees_with_gfp_on_small_matrices() {
        // Deterministic pseudo-random small matrices: the rational rank
        // must equal the rank mod 2^61 − 1.
        let mut state = 0x9E3779B97F4A7C15u64;
        for trial in 0..50 {
            let m = BitMatrix::from_fn(6, 6, |_, _| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) & 1 == 1
            });
            let rq = rank_rational(&m).unwrap();
            let rp = real_rank(&m).rank;
            assert_eq!(rq, rp, "trial {trial}: Bareiss {rq} vs GF(p) {rp}\n{m}");
        }
    }

    #[test]
    fn real_rank_small_is_exact() {
        let m: BitMatrix = "10\n01".parse().unwrap();
        assert_eq!(
            real_rank(&m),
            RealRank {
                rank: 2,
                exact: true
            }
        );
    }

    #[test]
    fn wide_matrix_rank_at_most_nrows() {
        let m: BitMatrix = "1111111111\n0101010101".parse().unwrap();
        assert_eq!(rank_rational(&m), Some(2));
    }
}
