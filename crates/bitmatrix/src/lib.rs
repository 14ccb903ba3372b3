//! Bit-packed dense binary matrices.
//!
//! This crate is the data-representation substrate of the `rect-addr`
//! workspace, which reproduces *Depth-Optimal Addressing of 2D Qubit Array
//! with 1D Controls Based on Exact Binary Matrix Factorization* (DATE 2024).
//! Everything the paper manipulates — addressing patterns, rank-1 rectangles,
//! benchmark instances — is a binary matrix, stored bit-packed in a single
//! contiguous `u64` buffer with a word-padded row stride.
//!
//! * [`BitStr`] — the one fixed-length bit-string type, with set algebra
//!   (subset, disjointness, and/or/xor/difference), over owned or borrowed
//!   words: [`BitVec`] owns them, [`RowRef`] and [`RowMut`] borrow a matrix
//!   row. Binary operations take any [`Bits`] operand.
//! * [`BitMatrix`] — dense binary matrix: transpose (with a lazy cached
//!   variant), Kronecker product, row/column dedup, outer products,
//!   parsing/printing. Rows are borrowed as [`RowRef`] / [`RowMut`].
//! * [`kernel`] — word-level kernels (fused popcounts, in-place boolean ops,
//!   lexicographic row compares, rank) over raw `u64` slices, which every
//!   bit-string operation bottoms out in.
//! * [`random_matrix`] and friends — seeded random instances.
//!
//! # Examples
//!
//! ```
//! use rect_addr_bitmatrix::{BitMatrix, BitVec};
//!
//! // The rank-1 "rectangle" spanned by rows {0,2} and columns {1,3}:
//! let rect = BitMatrix::outer(
//!     &BitVec::from_indices(3, [0, 2]),
//!     &BitVec::from_indices(4, [1, 3]),
//! );
//! assert_eq!(rect.count_ones(), 4);
//! ```

mod bitvec;
pub mod kernel;
mod matrix;
mod random;

pub use bitvec::{BitStr, BitVec, Bits, Ones, RowMut, RowRef};
pub use matrix::{BitMatrix, ParseMatrixError, Rows};
pub use random::{
    invert_permutation, random_matrix, random_matrix_with_ones, random_permutation, random_vec,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix() -> impl Strategy<Value = BitMatrix> {
        (1usize..12, 1usize..12).prop_flat_map(|(m, n)| {
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), m)
                .prop_map(move |rows| BitMatrix::from_fn(m, n, |i, j| rows[i][j]))
        })
    }

    proptest! {
        #[test]
        fn transpose_is_involution(m in arb_matrix()) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn transpose_preserves_ones(m in arb_matrix()) {
            prop_assert_eq!(m.count_ones(), m.transpose().count_ones());
        }

        #[test]
        fn display_parse_roundtrip(m in arb_matrix()) {
            let parsed: BitMatrix = m.to_string().parse().unwrap();
            prop_assert_eq!(parsed, m);
        }

        #[test]
        fn dedup_preserves_distinct_nonzero_rows(m in arb_matrix()) {
            let (d, groups) = m.dedup_rows();
            // every group member equals the kept representative
            for (k, g) in groups.iter().enumerate() {
                for &orig in g {
                    prop_assert_eq!(m.row(orig), d.row(k));
                }
            }
            // every nonzero original row is accounted for
            let covered: usize = groups.iter().map(|g| g.len()).sum();
            let nonzero = m.iter_rows().filter(|r| !r.is_zero()).count();
            prop_assert_eq!(covered, nonzero);
        }

        #[test]
        fn kron_count_is_product(a in arb_matrix(), b in arb_matrix()) {
            prop_assert_eq!(a.kron(&b).count_ones(), a.count_ones() * b.count_ones());
        }

        #[test]
        fn subset_iff_difference_empty(
            bits_a in proptest::collection::vec(any::<bool>(), 40),
            bits_b in proptest::collection::vec(any::<bool>(), 40),
        ) {
            let a = BitVec::from_bools(&bits_a);
            let b = BitVec::from_bools(&bits_b);
            prop_assert_eq!(a.is_subset_of(&b), a.difference(&b).is_zero());
        }

        #[test]
        fn xor_twice_is_identity(
            bits_a in proptest::collection::vec(any::<bool>(), 70),
            bits_b in proptest::collection::vec(any::<bool>(), 70),
        ) {
            let a = BitVec::from_bools(&bits_a);
            let b = BitVec::from_bools(&bits_b);
            prop_assert_eq!(a.xor(&b).xor(&b), a);
        }
    }
}

/// Differential tests: every word kernel must agree with a per-bit reference
/// implementation, including at tail-boundary widths (63/64/65/127/128/129)
/// and on zero-width/zero-height inputs.
#[cfg(test)]
mod kernel_proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// Widths straddling word boundaries plus small interior ones.
    const WIDTHS: &[usize] = &[1, 7, 63, 64, 65, 127, 128, 129];

    fn arb_pair() -> impl Strategy<Value = (Vec<bool>, Vec<bool>)> {
        (0usize..WIDTHS.len()).prop_flat_map(|wi| {
            let w = WIDTHS[wi];
            (
                proptest::collection::vec(any::<bool>(), w),
                proptest::collection::vec(any::<bool>(), w),
            )
        })
    }

    /// Per-bit reference for the row-string order: `'0' < '1'`, lowest index
    /// most significant.
    fn ref_cmp_lex(a: &[bool], b: &[bool]) -> Ordering {
        for (&x, &y) in a.iter().zip(b) {
            if x != y {
                return if !x {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
            }
        }
        Ordering::Equal
    }

    fn ref_rank(a: &[bool], i: usize) -> usize {
        a[..i].iter().filter(|&&b| b).count()
    }

    /// `nrows` rows of width `WIDTHS[wi]`, a cheap deterministic
    /// pseudo-random fill from `seed`.
    fn seeded_matrix(nrows: usize, wi: usize, seed: u64) -> BitMatrix {
        let ncols = WIDTHS[wi];
        BitMatrix::from_fn(nrows, ncols, |i, j| {
            let x = seed.wrapping_mul(6364136223846793005);
            (x.wrapping_add((i * ncols + j) as u64) >> 33) & 1 == 1
        })
    }

    /// Row `i` of `m` copied bit by bit into an owned vector.
    fn owned_row(m: &BitMatrix, i: usize) -> BitVec {
        (0..m.ncols()).map(|j| m.get(i, j)).collect()
    }

    fn hash_of<H: std::hash::Hash>(h: &H) -> u64 {
        use std::hash::Hasher;
        let mut s = std::collections::hash_map::DefaultHasher::new();
        h.hash(&mut s);
        s.finish()
    }

    /// Whether the words of row `i` are zero past the row's width.
    fn tail_is_zero(m: &BitMatrix, i: usize) -> bool {
        let tail = m.ncols() % 64;
        tail == 0 || m.row_words(i).last().is_none_or(|&w| w >> tail == 0)
    }

    proptest! {
        #[test]
        fn boolean_kernels_match_reference((ba, bb) in arb_pair()) {
            let a = BitVec::from_bools(&ba);
            let b = BitVec::from_bools(&bb);
            let aw = a.words();
            let bw = b.words();

            prop_assert_eq!(kernel::count(aw), ba.iter().filter(|&&x| x).count());
            prop_assert_eq!(
                kernel::and_count(aw, bw),
                ba.iter().zip(&bb).filter(|(&x, &y)| x && y).count()
            );
            prop_assert_eq!(
                kernel::andnot_count(aw, bw),
                ba.iter().zip(&bb).filter(|(&x, &y)| x && !y).count()
            );
            prop_assert_eq!(
                kernel::intersects(aw, bw),
                ba.iter().zip(&bb).any(|(&x, &y)| x && y)
            );
            prop_assert_eq!(
                kernel::is_subset(aw, bw),
                ba.iter().zip(&bb).all(|(&x, &y)| !x || y)
            );
            prop_assert_eq!(kernel::is_zero(aw), ba.iter().all(|&x| !x));
            prop_assert_eq!(kernel::first_one(aw), ba.iter().position(|&x| x));
        }

        #[test]
        fn in_place_kernels_match_reference((ba, bb) in arb_pair()) {
            let a = BitVec::from_bools(&ba);
            let b = BitVec::from_bools(&bb);
            let per_bit = |f: fn(bool, bool) -> bool| {
                BitVec::from_bools(
                    &ba.iter().zip(&bb).map(|(&x, &y)| f(x, y)).collect::<Vec<_>>(),
                )
            };
            prop_assert_eq!(a.and(&b), per_bit(|x, y| x && y));
            prop_assert_eq!(a.or(&b), per_bit(|x, y| x || y));
            prop_assert_eq!(a.xor(&b), per_bit(|x, y| x != y));
            prop_assert_eq!(a.difference(&b), per_bit(|x, y| x && !y));
        }

        #[test]
        fn compare_and_rank_match_reference((ba, bb) in arb_pair(), fr in 0usize..1000) {
            let a = BitVec::from_bools(&ba);
            let b = BitVec::from_bools(&bb);
            prop_assert_eq!(kernel::cmp_lex(a.words(), b.words()), ref_cmp_lex(&ba, &bb));
            prop_assert_eq!(
                kernel::cmp_lex_ones_first(a.words(), b.words()),
                ref_cmp_lex(&ba, &bb).reverse()
            );
            let i = ba.len() * fr / 1000;
            prop_assert_eq!(kernel::rank(a.words(), i), ref_rank(&ba, i));
        }

        #[test]
        fn matrix_row_views_match_per_bit_access(
            (nrows, wi) in (0usize..5, 0usize..WIDTHS.len()),
            seed in any::<u64>(),
        ) {
            let m = seeded_matrix(nrows, wi, seed);
            let ncols = m.ncols();
            let t = m.transpose();
            for i in 0..nrows {
                let row = m.row(i);
                let per_bit: Vec<usize> = (0..ncols).filter(|&j| m.get(i, j)).collect();
                prop_assert_eq!(row.to_indices(), per_bit.clone());
                prop_assert_eq!(row.count_ones(), per_bit.len());
                for j in 0..ncols {
                    prop_assert_eq!(row.get(j), m.get(i, j));
                    prop_assert_eq!(t.get(j, i), m.get(i, j));
                }
            }
            prop_assert_eq!(m.transposed(), &t);
        }

        #[test]
        fn owned_and_row_reads_agree(
            (i, k, wi) in (0usize..3, 0usize..3, 0usize..WIDTHS.len()),
            seed in any::<u64>(),
        ) {
            let m = seeded_matrix(3, wi, seed);
            let (row, other) = (m.row(i), m.row(k));
            let (a, b) = (owned_row(&m, i), owned_row(&m, k));
            for j in 0..m.ncols() {
                prop_assert_eq!(row.get(j), a.get(j));
            }
            prop_assert_eq!(row.count_ones(), a.count_ones());
            prop_assert_eq!(row.is_zero(), a.is_zero());
            prop_assert_eq!(row.first_one(), a.first_one());
            prop_assert_eq!(row.ones().collect::<Vec<_>>(), a.ones().collect::<Vec<_>>());
            prop_assert_eq!(row.to_indices(), a.to_indices());
            prop_assert_eq!(row.is_subset_of(other), a.is_subset_of(&b));
            prop_assert_eq!(row.is_disjoint(other), a.is_disjoint(&b));
            prop_assert_eq!(row.and(other), a.and(&b));
            prop_assert_eq!(row.or(other), a.or(&b));
            prop_assert_eq!(row.xor(other), a.xor(&b));
            prop_assert_eq!(row.difference(other), a.difference(&b));
            // Mixed operands: an owned vector against a row view.
            prop_assert_eq!(a.and(other), row.and(&b));
            prop_assert_eq!(a.is_subset_of(other), row.is_subset_of(&b));
            prop_assert_eq!(row, a);
            prop_assert_eq!(a, row);
            prop_assert_eq!(row == other, a == b);
            prop_assert_eq!(hash_of(&row), hash_of(&a));
        }

        #[test]
        fn row_writes_match_owned_writes(
            (i, k, wi) in (0usize..3, 0usize..3, 0usize..WIDTHS.len()),
            (seed, fj, value) in (any::<u64>(), 0usize..1000, any::<bool>()),
        ) {
            let m = seeded_matrix(3, wi, seed);
            let (a, b) = (owned_row(&m, i), owned_row(&m, k));
            let j = m.ncols() * fj / 1000;
            for op in ["set", "clear", "copy_from", "and", "or", "xor", "difference"] {
                if op == "set" && m.ncols() == 0 {
                    continue; // no bit to set
                }
                let mut w = m.clone();
                let mut want = a.clone();
                let (mut row, src) = (w.row_mut(i), m.row(k));
                match op {
                    "set" => {
                        row.set(j, value);
                        want.set(j, value);
                    }
                    "clear" => {
                        row.clear();
                        want = BitVec::zeros(m.ncols());
                    }
                    "copy_from" => {
                        row.copy_from(src);
                        want = b.clone();
                    }
                    "and" => {
                        row.and_assign(src);
                        want.and_assign(&b);
                    }
                    "or" => {
                        row.or_assign(src);
                        want.or_assign(&b);
                    }
                    "xor" => {
                        row.xor_assign(src);
                        want.xor_assign(&b);
                    }
                    _ => {
                        row.difference_assign(src);
                        want.difference_assign(&b);
                    }
                }
                prop_assert!(w.row(i) == want, "{} on row {} of {:?}", op, i, m);
                prop_assert!(tail_is_zero(&w, i), "{} dirtied the tail", op);
                for r in (0..3).filter(|&r| r != i) {
                    prop_assert_eq!(w.row(r), m.row(r));
                }
            }
        }
    }

    #[test]
    fn zero_width_and_zero_height_kernels() {
        let a = BitVec::zeros(0);
        assert_eq!(kernel::count(a.words()), 0);
        assert!(kernel::is_zero(a.words()));
        assert!(kernel::is_subset(a.words(), a.words()));
        assert!(!kernel::intersects(a.words(), a.words()));
        assert_eq!(
            kernel::cmp_lex(a.words(), a.words()),
            std::cmp::Ordering::Equal
        );
        assert_eq!(kernel::first_one(a.words()), None);
        assert_eq!(kernel::rank(a.words(), 0), 0);

        let m = BitMatrix::zeros(0, 7);
        assert_eq!(m.transposed().shape(), (7, 0));
        let n = BitMatrix::zeros(3, 0);
        assert!(n.row(0).is_subset_of(n.row(1)));
        assert!(n.row(0).is_disjoint(n.row(2)));
        assert_eq!(n.row(0), n.row(1));
    }
}
