//! Rank over GF(2) using bit-packed row elimination.
//!
//! Because the rectangles of an exact binary matrix factorization are
//! pairwise disjoint, the ℝ-sum `M = Σ P_i` is *also* a GF(2) sum (no
//! carries), so `rank_{GF(2)}(M) ≤ r_B(M)` — another sound lower bound,
//! computed here in `O(m·n/64)` per pivot with word-parallel XOR.

use bitmatrix::{BitMatrix, BitVec};

/// Computes the rank of `m` over GF(2).
pub fn rank_gf2(m: &BitMatrix) -> usize {
    let mut rows: Vec<BitVec> = m.iter_rows().map(|r| r.to_bitvec()).collect();
    let ncols = m.ncols();
    let mut rank = 0usize;
    let mut pivot_row = 0usize;
    for col in 0..ncols {
        if pivot_row >= rows.len() {
            break;
        }
        let Some(sel) = (pivot_row..rows.len()).find(|&r| rows[r].get(col)) else {
            continue;
        };
        rows.swap(pivot_row, sel);
        let pivot = rows[pivot_row].clone();
        for (r, row) in rows.iter_mut().enumerate() {
            if r != pivot_row && row.get(col) {
                row.xor_assign(&pivot);
            }
        }
        rank += 1;
        pivot_row += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_full_rank() {
        assert_eq!(rank_gf2(&BitMatrix::identity(65)), 65);
    }

    #[test]
    fn zeros_and_ones() {
        assert_eq!(rank_gf2(&BitMatrix::zeros(3, 9)), 0);
        assert_eq!(rank_gf2(&BitMatrix::ones(3, 9)), 1);
    }

    #[test]
    fn gf2_rank_can_be_below_rational_rank() {
        let m: BitMatrix = "011\n101\n110".parse().unwrap();
        assert_eq!(rank_gf2(&m), 2);
        assert_eq!(crate::real_rank(&m).rank, 3);
    }

    #[test]
    fn xor_dependent_rows_detected() {
        // row2 = row0 XOR row1
        let m: BitMatrix = "1100\n0110\n1010".parse().unwrap();
        assert_eq!(rank_gf2(&m), 2);
    }

    #[test]
    fn transpose_invariant() {
        let m: BitMatrix = "10110\n01011\n11101".parse().unwrap();
        assert_eq!(rank_gf2(&m), rank_gf2(&m.transpose()));
    }
}
