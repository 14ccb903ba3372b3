//! Fooling-set lower bounds for the rectangle partition number.
//!
//! A *fooling set* `S` is a set of 1-cells such that for any two distinct
//! `(i,j), (i',j') ∈ S` we have `M[i,j'] = 0` **or** `M[i',j] = 0`. No
//! rectangle of a partition can contain two fooling-set cells (the closure
//! property, paper Eq. 1, would force the missing corner to be 1), so
//! `|S| ≤ r_B(M)`. The bound is not always tight — the paper's Eq. (2)
//! matrix has fooling number 2 but binary rank 3.
//!
//! Finding a maximum fooling set is itself a maximum-clique problem on the
//! *fooling graph* (vertices = 1-cells, edges = compatible pairs), provided
//! here both as a fast greedy heuristic and as an exact branch-and-bound
//! search with greedy-colouring pruning (Tomita-style), with a node budget so
//! callers control worst-case effort.

use bitmatrix::{BitMatrix, BitVec};

/// Result of a fooling-set search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoolingSet {
    /// The cells of the fooling set, as `(row, col)` pairs.
    pub cells: Vec<(usize, usize)>,
    /// Whether the search proved this set maximum (exact search within
    /// budget) or merely found it heuristically.
    pub proved_maximum: bool,
}

impl FoolingSet {
    /// Size of the set: a lower bound on the binary rank.
    pub fn size(&self) -> usize {
        self.cells.len()
    }
}

/// Whether two distinct 1-cells may coexist in a fooling set: some corner
/// of the pair lies outside `care`, the cells a rectangle may cover (the
/// matrix itself, or its 1s plus don't-cares).
#[inline]
fn compatible(care: &BitMatrix, a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 != b.0 && a.1 != b.1 && (!care.get(a.0, b.1) || !care.get(b.0, a.1))
}

/// Verifies that `cells` forms a valid fooling set of `m`.
///
/// Returns `false` if any cell is a 0 of `m` or any pair violates the
/// fooling condition.
pub fn is_fooling_set(m: &BitMatrix, cells: &[(usize, usize)]) -> bool {
    for (idx, &c) in cells.iter().enumerate() {
        if !m.get(c.0, c.1) {
            return false;
        }
        for &d in &cells[..idx] {
            if !compatible(m, c, d) {
                return false;
            }
        }
    }
    true
}

/// Greedy fooling set: scans the 1-cells (rows with fewer 1s first, a cheap
/// proxy for "hard to cover") and keeps every cell compatible with the
/// current set. Deterministic: equal matrices give equal sets.
pub fn greedy_fooling_set(m: &BitMatrix) -> FoolingSet {
    greedy_fooling_set_within(m, m)
}

/// [`greedy_fooling_set`] of `m`'s 1-cells where only corners outside
/// `care` separate two cells. `care` holds every cell a rectangle may
/// cover: `m`'s 1s plus the don't-cares of a completion problem (paper
/// §VI), so no two cells of the result share a rectangle of any
/// completion. With `care == m` this is [`greedy_fooling_set`].
pub fn greedy_fooling_set_within(m: &BitMatrix, care: &BitMatrix) -> FoolingSet {
    let mut cells = m.ones_positions();
    // Cells in sparse rows/columns are more likely to be pairwise
    // compatible; visit them first.
    let row_w: Vec<usize> = (0..m.nrows()).map(|i| m.row(i).count_ones()).collect();
    let col_w: Vec<usize> = (0..m.ncols()).map(|j| m.col(j).count_ones()).collect();
    cells.sort_by_key(|&(i, j)| row_w[i] + col_w[j]);
    let mut chosen: Vec<(usize, usize)> = Vec::new();
    for c in cells {
        if chosen.iter().all(|&d| compatible(care, c, d)) {
            chosen.push(c);
        }
    }
    chosen.sort_unstable();
    FoolingSet {
        cells: chosen,
        proved_maximum: false,
    }
}

/// Exact maximum fooling set via branch-and-bound max-clique on the fooling
/// graph, using greedy colouring as the upper bound (Tomita's MCS scheme).
///
/// `node_budget` caps the number of search-tree nodes; when exhausted the
/// best set found so far is returned with `proved_maximum = false`. A budget
/// of ~1e6 proves optimality instantly on every ≤ 10×30 paper benchmark.
pub fn max_fooling_set(m: &BitMatrix, node_budget: u64) -> FoolingSet {
    let cells = m.ones_positions();
    let n = cells.len();
    if n == 0 {
        return FoolingSet {
            cells: Vec::new(),
            proved_maximum: true,
        };
    }
    // Adjacency as bit rows over cell indices.
    let adj: Vec<BitVec> = (0..n)
        .map(|u| {
            BitVec::from_indices(
                n,
                (0..n).filter(|&v| v != u && compatible(m, cells[u], cells[v])),
            )
        })
        .collect();

    // Seed the incumbent with the greedy solution.
    let greedy = greedy_fooling_set(m);
    let mut best: Vec<usize> = greedy
        .cells
        .iter()
        .map(|c| {
            cells
                .iter()
                .position(|x| x == c)
                .expect("greedy cell exists")
        })
        .collect();

    let mut nodes_left = node_budget;
    let mut current: Vec<usize> = Vec::new();
    let all = BitVec::from_indices(n, 0..n);
    let complete = expand(&adj, &mut current, all, &mut best, &mut nodes_left);

    let mut out: Vec<(usize, usize)> = best.iter().map(|&u| cells[u]).collect();
    out.sort_unstable();
    FoolingSet {
        cells: out,
        proved_maximum: complete,
    }
}

/// Greedy colouring of the candidate set `p`: returns candidate vertices in
/// a branching order together with their colour numbers (1-based), such that
/// `|current| + colour(v)` bounds any clique extending `current` through `v`.
fn colour_order(adj: &[BitVec], p: &BitVec) -> Vec<(usize, usize)> {
    let mut uncoloured = p.clone();
    let mut order: Vec<(usize, usize)> = Vec::new();
    let mut colour = 0usize;
    while !uncoloured.is_zero() {
        colour += 1;
        // An independent set in the complement... for cliques we colour the
        // graph itself: vertices of one colour class are pairwise
        // NON-adjacent, so a clique picks at most one per class.
        let mut candidates = uncoloured.clone();
        while let Some(v) = candidates.first_one() {
            order.push((v, colour));
            uncoloured.set(v, false);
            candidates.set(v, false);
            candidates.difference_assign(&adj[v]);
        }
    }
    order
}

/// Tomita-style expansion. Returns `true` if the subtree was searched
/// exhaustively (budget never hit).
fn expand(
    adj: &[BitVec],
    current: &mut Vec<usize>,
    p: BitVec,
    best: &mut Vec<usize>,
    nodes_left: &mut u64,
) -> bool {
    if *nodes_left == 0 {
        return false;
    }
    *nodes_left -= 1;
    let mut complete = true;
    let order = colour_order(adj, &p);
    let mut p = p;
    // Branch in reverse colour order (highest bound first is traditional;
    // iterating from the back lets the bound prune whole suffixes).
    for &(v, colour) in order.iter().rev() {
        if current.len() + colour <= best.len() {
            // No vertex earlier in `order` can beat the incumbent either:
            // colours only decrease towards the front.
            break;
        }
        current.push(v);
        let next_p = p.and(&adj[v]);
        if next_p.is_zero() {
            if current.len() > best.len() {
                *best = current.clone();
            }
        } else if !expand(adj, current, next_p, best, nodes_left) {
            complete = false;
        }
        current.pop();
        p.set(v, false);
    }
    complete
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1b_has_fooling_number_5() {
        // Figure 1b of the paper: partition into 5 rectangles is optimal
        // because a fooling set of size 5 exists.
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let f = max_fooling_set(&m, 1_000_000);
        assert!(f.proved_maximum);
        assert_eq!(f.size(), 5);
        assert!(is_fooling_set(&m, &f.cells));
    }

    #[test]
    fn eq2_matrix_has_fooling_number_2() {
        // Paper Eq. (2): 3 rectangles needed, but no fooling set beats 2.
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        let f = max_fooling_set(&m, 1_000_000);
        assert!(f.proved_maximum);
        assert_eq!(f.size(), 2);
    }

    #[test]
    fn identity_fooling_number_is_n() {
        // Diagonal cells of I_n are pairwise compatible.
        let m = BitMatrix::identity(7);
        let f = max_fooling_set(&m, 1_000_000);
        assert!(f.proved_maximum);
        assert_eq!(f.size(), 7);
    }

    #[test]
    fn all_ones_fooling_number_is_1() {
        let m = BitMatrix::ones(4, 4);
        let f = max_fooling_set(&m, 1_000_000);
        assert!(f.proved_maximum);
        assert_eq!(f.size(), 1);
    }

    #[test]
    fn zero_matrix_has_empty_fooling_set() {
        let m = BitMatrix::zeros(3, 3);
        let f = max_fooling_set(&m, 100);
        assert!(f.proved_maximum);
        assert_eq!(f.size(), 0);
    }

    #[test]
    fn greedy_is_always_valid_and_at_most_max() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let g = greedy_fooling_set(&m);
        assert!(is_fooling_set(&m, &g.cells));
        let f = max_fooling_set(&m, 1_000_000);
        assert!(g.size() <= f.size());
    }

    #[test]
    fn is_fooling_set_rejects_zero_cells_and_conflicts() {
        let m: BitMatrix = "11\n11".parse().unwrap();
        assert!(!is_fooling_set(&m, &[(0, 0), (1, 1)])); // both corners are 1
        let m2: BitMatrix = "10\n01".parse().unwrap();
        assert!(is_fooling_set(&m2, &[(0, 0), (1, 1)]));
        assert!(!is_fooling_set(&m2, &[(0, 1)])); // (0,1) is a 0-cell
    }

    #[test]
    fn same_row_cells_are_incompatible() {
        let m: BitMatrix = "11\n00".parse().unwrap();
        assert!(!is_fooling_set(&m, &[(0, 0), (0, 1)]));
    }

    #[test]
    fn budget_zero_returns_greedy_without_proof() {
        let m = BitMatrix::identity(5);
        let f = max_fooling_set(&m, 0);
        assert!(!f.proved_maximum);
        assert!(is_fooling_set(&m, &f.cells));
        assert_eq!(f.size(), 5, "greedy already finds the diagonal");
    }
}
