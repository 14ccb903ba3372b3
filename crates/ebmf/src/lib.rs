//! Exact binary matrix factorization (EBMF) — the core contribution of
//! *Depth-Optimal Addressing of 2D Qubit Array with 1D Controls Based on
//! Exact Binary Matrix Factorization* (DATE 2024).
//!
//! Given a binary pattern matrix `M`, an EBMF writes `M = Σ_i P_i` where
//! every `P_i` is 1 exactly on a combinatorial rectangle and the sum is over
//! ℝ, i.e. the rectangles are pairwise disjoint and cover exactly the 1s.
//! The minimum number of rectangles is the *binary rank* `r_B(M)` — the
//! minimum number of AOD shots needed to address the pattern. Deciding
//! `r_B(M) ≤ k` is NP-complete.
//!
//! The crate provides the paper's full algorithm suite, each algorithm
//! once:
//!
//! * [`trivial_partition`] — the `min(#rows, #cols)` baseline (§III-B);
//! * [`row_packing`] — Algorithm 2: shuffled greedy set-basis packing with
//!   the basis-update step over both orientations, plus the §VI
//!   exact-cover (DLX) upgrade behind [`PackingConfig::exact_cover`];
//! * [`EbmfEncoder`] — the Eq. 4 decision problem `r_B(M) ≤ b` as CNF with
//!   don't-care support and value-precedence symmetry breaking along a
//!   fooling-set-first cell order, queried at any depth up to its capacity
//!   by [`EbmfEncoder::solve_at`] (the paper's `narrow_down_depth`). Any
//!   fixed order is sound (relabel the rectangles by first appearance);
//!   starting with a fooling set (§II) lets unit propagation pin its cells
//!   to labels 0, 1, …, so the refutation at `r_B − 1` that proves a depth
//!   optimal is cheap. The order is part of the encoding: changing it
//!   needs a snapshot schema bump;
//! * [`sap`] — Algorithm 1: packing upper bound, real-rank floor (Eq. 3),
//!   descending incremental SAT queries, and the incumbent as the anytime
//!   answer once the conflict budget or the cancel token stops them;
//! * [`Partition::validate`] — the EBMF check every result passes;
//! * [`gen`](mod@gen) — the three Table I benchmark families;
//! * [`tensor_partition`] / [`tensor_bounds`] — the §V FTQC two-level
//!   structure and the Eq. 5 sandwich;
//! * [`complete_ebmf`] — the §VI binary-matrix-completion extension
//!   (vacancies as don't-cares): the same packer
//!   ([`row_packing_with_dont_cares`]), descent and partition check
//!   ([`validate_completion`]) with a don't-care mask as one more input.
//!
//! # Examples
//!
//! ```
//! use bitmatrix::BitMatrix;
//! use rect_addr_ebmf::{sap, SapConfig};
//!
//! // The matrix of the paper's Figure 1b.
//! let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111".parse()?;
//! let outcome = sap(&m, &SapConfig::default());
//! assert!(outcome.proved_optimal);
//! assert_eq!(outcome.depth(), 5); // five AOD shots, provably minimal
//! # Ok::<(), bitmatrix::ParseMatrixError>(())
//! ```

mod bipartite;
mod bounds;
mod completion;
pub mod cover;
mod encode;
mod exact;
pub mod gen;
mod heuristic;
mod partition;
mod rect;
mod sap;
pub mod svg;
mod tensor;

pub use bipartite::{as_bicliques, normal_set_basis, Biclique, Bipartite};
pub use bounds::{lower_bound, LowerBound};
pub use completion::{complete_ebmf, validate_completion, CompletionOutcome};
pub use encode::{AmoEncoding, EbmfEncoder, EncoderOptions};
pub use exact::{exact_search, ExactSearchOutcome};
pub use heuristic::{
    row_packing, row_packing_cancellable, row_packing_once, row_packing_with_dont_cares,
    trivial_partition, PackingConfig, RowOrder,
};
pub use partition::{Partition, PartitionError};
pub use rect::Rectangle;
pub use sap::{
    binary_rank, sap, SapConfig, SapOutcome, SapSession, SapStats, SatQuery, SessionExport,
    UnsatCertificate, DEFAULT_MAX_CORE_CLAUSES,
};
pub use tensor::{tensor_bounds, tensor_partition, TensorBounds};

#[cfg(test)]
mod proptests {
    use super::*;
    use bitmatrix::BitMatrix;
    use proptest::prelude::*;

    fn arb_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = BitMatrix> {
        (1..=max_rows, 1..=max_cols).prop_flat_map(|(m, n)| {
            proptest::collection::vec(any::<bool>(), m * n)
                .prop_map(move |bits| BitMatrix::from_fn(m, n, |i, j| bits[i * n + j]))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn trivial_partition_is_valid(m in arb_matrix(9, 9)) {
            let p = trivial_partition(&m);
            prop_assert!(p.validate(&m).is_ok());
        }

        #[test]
        fn row_packing_is_valid_and_no_worse_than_trivial(m in arb_matrix(9, 9)) {
            let p = row_packing(&m, &PackingConfig::with_trials(3));
            prop_assert!(p.validate(&m).is_ok());
            prop_assert!(p.len() <= trivial_partition(&m).len());
        }

        #[test]
        fn packing_respects_rank_floor(m in arb_matrix(8, 8)) {
            // Any valid partition has at least rank_ℝ(M) rectangles (Eq. 3).
            let p = row_packing(&m, &PackingConfig::with_trials(3));
            let lb = lower_bound(&m, true);
            prop_assert!(p.len() >= lb.value,
                "partition {} below lower bound {}", p.len(), lb.value);
        }

        #[test]
        fn exact_cover_packing_not_worse(m in arb_matrix(7, 7)) {
            let plain = row_packing(&m, &PackingConfig::with_trials(3));
            let dlx_cfg = PackingConfig {
                exact_cover: true,
                ..PackingConfig::with_trials(3)
            };
            let dlx = row_packing(&m, &dlx_cfg);
            prop_assert!(dlx.validate(&m).is_ok());
            // Same seed, same orders: exact cover never leaves a residue
            // where greedy succeeds, so it is never worse per trial — and
            // best-of-trials inherits that.
            prop_assert!(dlx.len() <= plain.len());
        }

        #[test]
        fn sap_small_is_optimal_and_valid(m in arb_matrix(5, 5)) {
            let out = sap(&m, &SapConfig::default());
            prop_assert!(out.proved_optimal);
            prop_assert!(out.partition.validate(&m).is_ok());
            prop_assert!(out.depth() >= out.lower_bound.value);
            // Exhaustive cross-check against brute force where feasible.
            if m.count_ones() <= 9 {
                let brute = brute_force_binary_rank(&m);
                prop_assert_eq!(out.depth(), brute,
                    "SAP found {} but brute force says {}\n{}", out.depth(), brute, m);
            }
        }

        #[test]
        fn sap_agrees_with_independent_bnb(m in arb_matrix(5, 5)) {
            // Two unrelated exact algorithms (SAT descent vs closure-
            // propagating branch-and-bound) must compute the same r_B.
            prop_assume!(m.count_ones() <= 14);
            let bnb = exact_search(&m, u64::MAX);
            prop_assert!(bnb.proved_optimal);
            let satr = sap(&m, &SapConfig::default());
            prop_assert!(satr.proved_optimal);
            prop_assert_eq!(bnb.partition.len(), satr.depth());
        }

        #[test]
        fn boolean_rank_at_most_binary_rank(m in arb_matrix(4, 4)) {
            let (c, bool_rank) = cover::boolean_rank(&m);
            prop_assert!(cover::is_valid_cover(&c, &m));
            let bin = sap(&m, &SapConfig::default());
            prop_assert!(bool_rank <= bin.depth());
        }

        #[test]
        fn tensor_partition_valid(
            a in arb_matrix(4, 4),
            b in arb_matrix(3, 3),
        ) {
            let pa = row_packing(&a, &PackingConfig::with_trials(2));
            let pb = row_packing(&b, &PackingConfig::with_trials(2));
            let t = tensor_partition(&pa, &pb);
            prop_assert!(t.validate(&a.kron(&b)).is_ok());
        }

        #[test]
        fn an_all_zero_mask_changes_nothing(
            m in arb_matrix(30, 30),
            trials in 0usize..8,
            seed in any::<u64>(),
        ) {
            let (r, c) = m.shape();
            let zero = BitMatrix::zeros(r, c);
            let packed = row_packing_with_dont_cares(&m, &zero, trials, seed);
            let config = PackingConfig { trials, seed, ..PackingConfig::default() };
            prop_assert_eq!(&packed, &row_packing(&m, &config));

            let mut corrupted = vec![packed.clone()];
            if let Some((first, rest)) = packed.rectangles().split_first() {
                corrupted.push(Partition::from_rectangles(r, c, rest.to_vec()));
                let mut twice = packed.clone();
                twice.push(first.clone());
                corrupted.push(twice);
            }
            if let Some((i, j)) = (0..r * c).map(|k| (k / c, k % c)).find(|&(i, j)| !m.get(i, j)) {
                let mut stray = packed.clone();
                stray.push(Rectangle::singleton(r, c, i, j));
                corrupted.push(stray);
            }
            for p in &corrupted {
                prop_assert_eq!(validate_completion(p, &m, &zero), p.validate(&m));
            }
        }

        #[test]
        fn an_all_zero_mask_completes_to_the_binary_rank(m in arb_matrix(6, 6)) {
            let out = complete_ebmf(&m, &BitMatrix::zeros(m.nrows(), m.ncols()));
            prop_assert!(out.proved_optimal);
            prop_assert_eq!(out.partition.len(), binary_rank(&m));
        }

        #[test]
        fn completion_never_worse_than_plain(m in arb_matrix(5, 5)) {
            // All-zero DC mask: completion == plain EBMF. Nonzero mask can
            // only help. Use complement cells at random-ish parity.
            let dc = BitMatrix::from_fn(m.nrows(), m.ncols(),
                |i, j| !m.get(i, j) && (i * 31 + j * 17) % 3 == 0);
            let plain = sap(&m, &SapConfig::default());
            let completed = complete_ebmf(&m, &dc);
            prop_assert!(completed.proved_optimal);
            prop_assert!(validate_completion(&completed.partition, &m, &dc).is_ok());
            prop_assert!(completed.partition.len() <= plain.depth());
        }
    }

    /// Reference `r_B` by exhaustive search over set partitions of the
    /// 1-cells (callers cap at 9 cells; Bell(9) = 21147 partitions),
    /// recursing cell-by-cell into existing or new groups and validating
    /// the rectangle closure at the leaves.
    fn brute_force_binary_rank(m: &BitMatrix) -> usize {
        let cells = m.ones_positions();
        assert!(cells.len() <= 9, "brute force capped at 9 cells");
        if cells.is_empty() {
            return 0;
        }
        let mut best = cells.len();
        let mut groups: Vec<Vec<(usize, usize)>> = Vec::new();
        assign(m, &cells, 0, &mut groups, &mut best);
        best
    }

    fn group_valid(m: &BitMatrix, group: &[(usize, usize)]) -> bool {
        // A group is realizable as a rectangle iff the product closure of
        // its cells stays within the 1s AND within the group itself.
        let rows: std::collections::BTreeSet<usize> = group.iter().map(|c| c.0).collect();
        let cols: std::collections::BTreeSet<usize> = group.iter().map(|c| c.1).collect();
        for &i in &rows {
            for &j in &cols {
                if !m.get(i, j) || !group.contains(&(i, j)) {
                    return false;
                }
            }
        }
        true
    }

    fn assign(
        m: &BitMatrix,
        cells: &[(usize, usize)],
        idx: usize,
        groups: &mut Vec<Vec<(usize, usize)>>,
        best: &mut usize,
    ) {
        if groups.len() >= *best {
            return; // cannot improve
        }
        if idx == cells.len() {
            if groups.iter().all(|g| group_valid(m, g)) {
                *best = groups.len();
            }
            return;
        }
        for g in 0..groups.len() {
            groups[g].push(cells[idx]);
            // Prune early: partial group must stay extendable; a cheap
            // necessary check is closure within the 1s of M.
            if partial_ok(m, &groups[g]) {
                assign(m, cells, idx + 1, groups, best);
            }
            groups[g].pop();
        }
        groups.push(vec![cells[idx]]);
        assign(m, cells, idx + 1, groups, best);
        groups.pop();
    }

    fn partial_ok(m: &BitMatrix, group: &[(usize, usize)]) -> bool {
        let rows: std::collections::BTreeSet<usize> = group.iter().map(|c| c.0).collect();
        let cols: std::collections::BTreeSet<usize> = group.iter().map(|c| c.1).collect();
        rows.iter().all(|&i| cols.iter().all(|&j| m.get(i, j)))
    }
}
