//! Cross-crate integration tests: the full EBMF pipeline from benchmark
//! generation through heuristics, exact solving and bound certification.

use bitmatrix::BitMatrix;
use ebmf::gen::{gap_benchmark, known_optimal_benchmark, random_benchmark};
use ebmf::{
    binary_rank, lower_bound, row_packing, sap, trivial_partition, PackingConfig, SapConfig,
};
use linalg::{max_fooling_set, rank_gf2, real_rank};

/// Paper Observation 2: on the known-optimal family, both the trivial
/// heuristic and row packing always find the optimum, and SAP certifies it.
#[test]
fn known_optimal_family_is_easy() {
    for k in 1..=10 {
        let (bench, construction) = known_optimal_benchmark(10, 10, k, 40 + k as u64);
        let m = &bench.matrix;
        assert!(construction.validate(m).is_ok());

        let out = sap(m, &SapConfig::default());
        assert!(out.proved_optimal, "k={k}");
        assert_eq!(out.depth(), k, "k={k}");

        let trivial = trivial_partition(m);
        assert_eq!(
            trivial.len(),
            k,
            "trivial finds optimum on opt family, k={k}"
        );

        let packed = row_packing(m, &PackingConfig::with_trials(1));
        assert_eq!(
            packed.len(),
            k,
            "packing finds optimum on opt family, k={k}"
        );
    }
}

/// The gap family separates real rank from binary rank (paper §IV-A): the
/// construction guarantees rank_ℝ ≤ m−k+1 while r_B stays high.
#[test]
fn gap_family_separates_rank_from_binary_rank() {
    let mut separated = 0;
    let total = 8;
    for c in 0..total {
        let bench = gap_benchmark(10, 10, 3, 300 + c);
        let m = &bench.matrix;
        let out = sap(m, &SapConfig::default());
        assert!(out.proved_optimal, "case {c}");
        assert!(out.depth() >= out.lower_bound.real_rank.rank);
        if out.depth() > out.lower_bound.real_rank.rank {
            separated += 1;
        }
    }
    assert!(
        separated > 0,
        "at least one gap instance must have r_B > rank_ℝ"
    );
}

/// All lower bounds are mutually consistent and below the certified r_B.
#[test]
fn bound_hierarchy_on_random_matrices() {
    for c in 0..10 {
        let bench = random_benchmark(7, 7, 0.4, 700 + c);
        let m = &bench.matrix;
        let rb = binary_rank(m);
        let lb = lower_bound(m, true);
        let rr = real_rank(m);
        let g2 = rank_gf2(m);
        let fool = max_fooling_set(m, 1_000_000);
        assert!(rr.exact);
        assert!(g2 <= rr.rank, "GF(2) ≤ rational");
        assert!(rr.rank <= rb, "rank_ℝ ≤ r_B (Eq. 3)");
        assert!(fool.size() <= rb, "fooling ≤ r_B");
        assert!(lb.value <= rb);
    }
}

/// The heuristic chain is ordered: packing ≤ trivial ≤ #ones.
#[test]
fn heuristic_chain_ordering() {
    for c in 0..10 {
        let bench = random_benchmark(9, 12, 0.5, 900 + c);
        let m = &bench.matrix;
        let trivial = trivial_partition(m);
        let packed = row_packing(m, &PackingConfig::with_trials(10));
        assert!(packed.len() <= trivial.len());
        assert!(trivial.len() <= m.count_ones().max(1));
        assert!(packed.validate(m).is_ok());
        assert!(trivial.validate(m).is_ok());
    }
}

/// Transposition invariance: r_B(M) = r_B(Mᵀ).
#[test]
fn binary_rank_transpose_invariant() {
    for c in 0..5 {
        let bench = random_benchmark(5, 7, 0.5, 1100 + c);
        let m = &bench.matrix;
        assert_eq!(binary_rank(m), binary_rank(&m.transpose()), "case {c}");
    }
}

/// Factor form round-trip at the pipeline level: H·W over ℝ is exactly M.
#[test]
fn factors_multiply_back_over_the_integers() {
    let bench = random_benchmark(8, 8, 0.45, 77);
    let m = &bench.matrix;
    let out = sap(m, &SapConfig::default());
    let (h, w) = out.partition.to_factors();
    // Integer matrix product: verify every entry is exactly 0 or 1 and
    // equals M (disjointness means no entry can reach 2).
    for i in 0..m.nrows() {
        for j in 0..m.ncols() {
            let sum: u32 = (0..h.ncols())
                .map(|k| u32::from(h.get(i, k) && w.get(k, j)))
                .sum();
            assert!(sum <= 1, "rectangles overlap at ({i},{j})");
            assert_eq!(sum == 1, m.get(i, j), "H·W differs from M at ({i},{j})");
        }
    }
}

/// Paper Eq. (2) and Fig. 1b as end-to-end regression anchors.
#[test]
fn paper_anchor_instances() {
    let eq2: BitMatrix = "110\n011\n111".parse().unwrap();
    assert_eq!(binary_rank(&eq2), 3);
    assert_eq!(max_fooling_set(&eq2, 1_000_000).size(), 2);

    let fig1b: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
        .parse()
        .unwrap();
    assert_eq!(binary_rank(&fig1b), 5);
    assert_eq!(max_fooling_set(&fig1b, 1_000_000).size(), 5);
    assert_eq!(
        real_rank(&fig1b).rank,
        4,
        "rank alone cannot certify Fig. 1b"
    );
}
