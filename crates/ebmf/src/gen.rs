//! The paper's three benchmark families (§IV-A).
//!
//! * [`random_benchmark`] — iid Bernoulli matrices at a given occupancy;
//! * [`known_optimal_benchmark`] — `M = Σ_{i<k} cᵢ·rᵢ` with pairwise
//!   disjoint rows and linearly independent columns, so `rank_ℝ = r_B = k`
//!   by construction (Eq. 3 certifies the k-rectangle partition);
//! * [`gap_benchmark`] — designed so the real rank undershoots the binary
//!   rank: `k` different two-part decompositions of one hidden row `r`
//!   give `2k` rows of real rank `k+1`, but recombining them with binary
//!   (non-negative) coefficients needs more rectangles.
//!
//! All generators take explicit seeds; a `(family, parameters, seed)` triple
//! identifies an instance across runs and machines.

use bitmatrix::{random_matrix, random_vec, BitMatrix, BitVec};
use linalg::real_rank;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::Partition;
use crate::Rectangle;

/// A generated benchmark instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// The instance matrix.
    pub matrix: BitMatrix,
    /// Family tag (`"rand"`, `"opt"`, `"gap"`).
    pub family: &'static str,
    /// Human-readable parameter summary.
    pub params: String,
    /// Seed used to generate the instance.
    pub seed: u64,
    /// Known optimal depth, when the construction certifies one.
    pub known_optimal: Option<usize>,
}

/// Random matrix benchmark at the given occupancy.
pub fn random_benchmark(nrows: usize, ncols: usize, occupancy: f64, seed: u64) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(seed);
    Benchmark {
        matrix: random_matrix(nrows, ncols, occupancy, &mut rng),
        family: "rand",
        params: format!("{nrows}x{ncols}, occ {:.0}%", occupancy * 100.0),
        seed,
        known_optimal: None,
    }
}

/// Known-optimal benchmark: `k` rectangles `cᵢ × rᵢ` with pairwise disjoint
/// (hence independent) rows `rᵢ` and linearly independent columns `cᵢ`, so
/// that `rank_ℝ(M) = k` certifies the construction as optimal.
///
/// Also returns the constructing partition.
///
/// # Panics
///
/// Panics if `k` exceeds `min(nrows, ncols)` (no such construction exists).
pub fn known_optimal_benchmark(
    nrows: usize,
    ncols: usize,
    k: usize,
    seed: u64,
) -> (Benchmark, Partition) {
    assert!(
        k <= nrows.min(ncols) && k >= 1,
        "rank {k} impossible for {nrows}x{ncols}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Disjoint nonempty rows: deal the column indices into k buckets, each
    // bucket seeded with one column to be nonempty; leftovers join random
    // buckets (possibly none — a column may stay unused).
    let mut cols: Vec<usize> = (0..ncols).collect();
    cols.shuffle(&mut rng);
    let mut rows: Vec<BitVec> = (0..k).map(|_| BitVec::zeros(ncols)).collect();
    for (b, &c) in cols.iter().take(k).enumerate() {
        rows[b].set(c, true);
    }
    for &c in cols.iter().skip(k) {
        if rng.gen_bool(0.7) {
            rows[rng.gen_range(0..k)].set(c, true);
        }
    }
    // Linearly independent nonzero column selectors: rejection-sample until
    // the nrows×k selector matrix has real rank k (exact for k ≤ 36; beyond,
    // a rank that drops mod p can only reject a good selector).
    let cols_sel: Vec<BitVec> = loop {
        let candidate: Vec<BitVec> = (0..k)
            .map(|_| loop {
                let v = random_vec(nrows, 0.5, &mut rng);
                if !v.is_zero() {
                    break v;
                }
            })
            .collect();
        let sel = BitMatrix::from_fn(nrows, k, |i, b| candidate[b].get(i));
        if real_rank(&sel).rank == k {
            break candidate;
        }
    };
    let mut partition = Partition::empty(nrows, ncols);
    let mut matrix = BitMatrix::zeros(nrows, ncols);
    for b in 0..k {
        let rect = Rectangle::new(cols_sel[b].clone(), rows[b].clone());
        for i in rect.rows().ones() {
            matrix.row_mut(i).or_assign(rect.cols());
        }
        partition.push(rect);
    }
    debug_assert!(partition.validate(&matrix).is_ok());
    (
        Benchmark {
            matrix,
            family: "opt",
            params: format!("{nrows}x{ncols}, k={k}"),
            seed,
            known_optimal: Some(k),
        },
        partition,
    )
}

/// Gap benchmark: `k` row pairs, each a random two-part split of one hidden
/// row `r` (`r = r'ᵢ + r''ᵢ`), padded with random rows. The `2k` pair rows
/// have real rank `k + 1`, but an EBMF cannot use the negative coefficients
/// needed to reach it, so `r_B` exceeds the rank — the family that separates
/// the trivial heuristic from row packing in the paper's Table I.
///
/// # Panics
///
/// Panics if `2k > nrows` or `k == 0`.
pub fn gap_benchmark(nrows: usize, ncols: usize, k: usize, seed: u64) -> Benchmark {
    assert!(
        k >= 1 && 2 * k <= nrows,
        "need 2k ≤ nrows, got k={k}, m={nrows}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // The hidden row needs at least 2 ones to split into nonempty parts;
    // at 50% occupancy on ≥ 4 columns this is almost immediate.
    let r = loop {
        let v = random_vec(ncols, 0.5, &mut rng);
        if v.count_ones() >= 2 {
            break v;
        }
    };
    let mut matrix = BitMatrix::zeros(nrows, ncols);
    for pair in 0..k {
        // Random split of r into two nonempty disjoint parts.
        let (a, b) = loop {
            let mut a = BitVec::zeros(ncols);
            let mut b = BitVec::zeros(ncols);
            for j in r.ones() {
                if rng.gen_bool(0.5) {
                    a.set(j, true);
                } else {
                    b.set(j, true);
                }
            }
            if !a.is_zero() && !b.is_zero() {
                break (a, b);
            }
        };
        matrix.set_row(2 * pair, &a);
        matrix.set_row(2 * pair + 1, &b);
    }
    for i in 2 * k..nrows {
        matrix.set_row(i, random_vec(ncols, 0.5, &mut rng));
    }
    Benchmark {
        matrix,
        family: "gap",
        params: format!("{nrows}x{ncols}, {k} pairs"),
        seed,
        known_optimal: None,
    }
}

/// The full benchmark suite of the paper's Table I, as `(set name, cases)`.
///
/// Small-set sizes (10×10, 10×20, 10×30) use occupancies 10%–90% with
/// `per_cell` instances each; the 100×100 set uses occupancies
/// 1/2/5/10/20%; the known-optimal set uses k = 1..=10; the gap sets use
/// 2–5 row pairs with `gap_cases` instances each.
pub fn table1_suite(per_cell: usize, gap_cases: usize) -> Vec<(String, Vec<Benchmark>)> {
    let mut suite = Vec::new();
    for (nrows, ncols) in [(10, 10), (10, 20), (10, 30)] {
        let mut cases = Vec::new();
        for occ10 in 1..=9 {
            let occ = occ10 as f64 / 10.0;
            for c in 0..per_cell {
                let seed = (nrows * 1000 + ncols * 10 + occ10) as u64 * 1000 + c as u64;
                cases.push(random_benchmark(nrows, ncols, occ, seed));
            }
        }
        suite.push((format!("{nrows}x{ncols}, rand"), cases));
    }
    {
        let mut cases = Vec::new();
        for (idx, occ) in [0.01, 0.02, 0.05, 0.10, 0.20].into_iter().enumerate() {
            for c in 0..per_cell {
                let seed = 77_000 + (idx * per_cell + c) as u64;
                cases.push(random_benchmark(100, 100, occ, seed));
            }
        }
        suite.push(("100x100, rand".to_string(), cases));
    }
    {
        let mut cases = Vec::new();
        for k in 1..=10 {
            for c in 0..per_cell {
                let seed = 88_000 + (k * per_cell + c) as u64;
                cases.push(known_optimal_benchmark(10, 10, k, seed).0);
            }
        }
        suite.push(("10x10, opt".to_string(), cases));
    }
    for k in 2..=5 {
        let mut cases = Vec::new();
        for c in 0..gap_cases {
            let seed = 99_000 + (k * gap_cases + c) as u64;
            cases.push(gap_benchmark(10, 10, k, seed));
        }
        suite.push((format!("10x10, gap, {k}"), cases));
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_benchmark_is_reproducible() {
        let a = random_benchmark(10, 10, 0.5, 42);
        let b = random_benchmark(10, 10, 0.5, 42);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.family, "rand");
    }

    #[test]
    fn known_optimal_has_rank_k() {
        for k in 1..=8 {
            let (bench, partition) = known_optimal_benchmark(10, 10, k, 7 + k as u64);
            assert_eq!(partition.len(), k);
            assert!(partition.validate(&bench.matrix).is_ok());
            let rr = real_rank(&bench.matrix);
            assert!(rr.exact);
            assert_eq!(rr.rank, k, "construction must have real rank k={k}");
            assert_eq!(bench.known_optimal, Some(k));
        }
    }

    #[test]
    fn known_optimal_rows_are_disjoint() {
        let (_, partition) = known_optimal_benchmark(10, 10, 5, 3);
        let rects = partition.rectangles();
        for a in 0..rects.len() {
            for b in (a + 1)..rects.len() {
                assert!(
                    rects[a].cols().is_disjoint(rects[b].cols()),
                    "row supports must be disjoint by construction"
                );
            }
        }
    }

    #[test]
    fn gap_benchmark_pairs_sum_to_same_row() {
        let bench = gap_benchmark(10, 10, 3, 11);
        let m = &bench.matrix;
        let r0 = m.row(0).or(m.row(1));
        for pair in 1..3 {
            let r = m.row(2 * pair).or(m.row(2 * pair + 1));
            assert_eq!(r, r0, "every pair reassembles the hidden row");
            assert!(m.row(2 * pair).is_disjoint(m.row(2 * pair + 1)));
            assert!(!m.row(2 * pair).is_zero() && !m.row(2 * pair + 1).is_zero());
        }
    }

    #[test]
    fn gap_benchmark_rank_at_most_m_minus_k_plus_1() {
        // 2k pair rows span a (k+1)-dimensional space; total rank is at most
        // (k+1) + (m−2k) = m−k+1 (paper §IV-A).
        for k in 2..=5 {
            let bench = gap_benchmark(10, 10, k, 31 + k as u64);
            let rr = real_rank(&bench.matrix);
            assert!(rr.rank <= 10 - k + 1, "k={k}: rank {} above m-k+1", rr.rank);
        }
    }

    #[test]
    fn table1_suite_shape() {
        let suite = table1_suite(2, 3);
        let names: Vec<&str> = suite.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "10x10, rand",
                "10x20, rand",
                "10x30, rand",
                "100x100, rand",
                "10x10, opt",
                "10x10, gap, 2",
                "10x10, gap, 3",
                "10x10, gap, 4",
                "10x10, gap, 5",
            ]
        );
        assert_eq!(suite[0].1.len(), 18); // 9 occupancies × 2
        assert_eq!(suite[3].1.len(), 10); // 5 occupancies × 2
        assert_eq!(suite[4].1.len(), 20); // 10 ranks × 2
        assert_eq!(suite[5].1.len(), 3);
    }

    /// FNV-1a over the text of every matrix of `table1_suite(2, 20)` and of
    /// `known_optimal_benchmark(10, 10, k, s)` for k in 1..=10, s in 0..50.
    /// The known-optimal selector check decides which draws are kept, so a
    /// change to it that moved any instance would move this digest.
    #[test]
    fn generated_matrices_are_pinned() {
        fn fnv1a(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash ^= u64::from(b);
                *hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (_, cases) in table1_suite(2, 20) {
            for bench in cases {
                fnv1a(&mut hash, format!("{}\n", bench.matrix).as_bytes());
            }
        }
        for k in 1..=10 {
            for s in 0..50 {
                let (bench, _) = known_optimal_benchmark(10, 10, k, s);
                fnv1a(&mut hash, format!("{}\n", bench.matrix).as_bytes());
            }
        }
        assert_eq!(hash, 0xb811_c48a_6450_4798);
    }

    #[test]
    #[should_panic(expected = "need 2k")]
    fn gap_rejects_too_many_pairs() {
        gap_benchmark(10, 10, 6, 0);
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn known_optimal_rejects_excessive_rank() {
        known_optimal_benchmark(4, 4, 5, 0);
    }
}
