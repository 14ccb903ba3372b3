//! Adversarial inputs: strongly regular graph adjacency matrices.
//!
//! Signature refinement cannot split a matrix whose rows and columns all
//! look alike — exactly the structure of a strongly regular graph, where
//! every vertex has the same degree and every pair the same number of
//! common neighbors. Paley graphs (vertices `0..p`, edge `i ~ j` iff
//! `i − j` is a nonzero quadratic residue mod a prime `p ≡ 1 (mod 4)`)
//! are the classic case: vertex-transitive, self-complementary and
//! signature-uniform. Every relabeling therefore makes the canonizer run
//! its individualization search, and the leaves that search reaches
//! repeat under automorphisms, which is what its orbit pruning feeds on.
//! The default branch budget still canonizes each one completely (a few
//! search nodes per job), so a traffic mix salted with these stresses the
//! search and the pruning that benign workloads, refined to discrete
//! partitions, never reach.

use bitmatrix::BitMatrix;

/// Primes (`≡ 1 mod 4`) whose Paley graphs the adversarial mix cycles.
/// Small enough to solve, large enough that every canonization needs the
/// individualization search.
pub const PALEY_PRIMES: [usize; 2] = [13, 17];

/// The `p × p` Paley graph adjacency matrix: `M[i][j] = 1` iff `i − j`
/// is a nonzero quadratic residue mod `p`. Symmetric with zero diagonal
/// for `p ≡ 1 (mod 4)` (where `−1` is a quadratic residue).
pub fn paley_matrix(p: usize) -> BitMatrix {
    let mut residue = vec![false; p];
    for x in 1..p {
        residue[(x * x) % p] = true;
    }
    BitMatrix::from_fn(p, p, |i, j| i != j && residue[(p + i - j) % p])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paley_graphs_are_strongly_regular() {
        for p in PALEY_PRIMES {
            let m = paley_matrix(p);
            assert_eq!(m.shape(), (p, p));
            // Symmetric, zero diagonal, uniform degree (p-1)/2.
            for i in 0..p {
                assert!(!m.get(i, i));
                let degree = (0..p).filter(|&j| m.get(i, j)).count();
                assert_eq!(degree, (p - 1) / 2, "p={p} row {i}");
                for j in 0..p {
                    assert_eq!(m.get(i, j), m.get(j, i), "p={p} ({i},{j})");
                }
            }
            // Strong regularity: λ common neighbors for adjacent pairs,
            // μ for non-adjacent ones — the signature uniformity that
            // stalls the canonizer. For Paley: λ=(p-5)/4, μ=(p-1)/4.
            for i in 0..p {
                for j in 0..p {
                    if i == j {
                        continue;
                    }
                    let common = (0..p).filter(|&k| m.get(i, k) && m.get(j, k)).count();
                    let expected = if m.get(i, j) {
                        (p - 5) / 4
                    } else {
                        (p - 1) / 4
                    };
                    assert_eq!(common, expected, "p={p} pair ({i},{j})");
                }
            }
        }
    }
}
