//! Combinatorial rectangles — the rank-1 binary factors.

use std::fmt;

use bitmatrix::{BitMatrix, BitVec};

/// A combinatorial rectangle `X' × Y'`: a set of rows and a set of columns.
///
/// As a matrix it is the outer product of the two indicator vectors — a
/// rank-1 binary matrix that is 1 exactly on `rows × cols`. In the
/// addressing picture (paper Fig. 1a) the row set and column set are the
/// tones driving the two AOD axes during one shot.
///
/// # Examples
///
/// ```
/// use bitmatrix::BitVec;
/// use rect_addr_ebmf::Rectangle;
///
/// let r = Rectangle::new(
///     BitVec::from_indices(4, [0, 2]),
///     BitVec::from_indices(5, [1, 3]),
/// );
/// assert_eq!(r.cell_count(), 4);
/// assert!(r.contains(2, 3) && !r.contains(1, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rectangle {
    rows: BitVec,
    cols: BitVec,
}

impl Rectangle {
    /// Creates a rectangle from row and column indicator vectors.
    pub fn new(rows: BitVec, cols: BitVec) -> Self {
        Rectangle { rows, cols }
    }

    /// The single-cell rectangle `{i} × {j}` inside an `m × n` grid.
    ///
    /// # Panics
    ///
    /// Panics if `i >= m` or `j >= n`.
    pub fn singleton(m: usize, n: usize, i: usize, j: usize) -> Self {
        Rectangle {
            rows: BitVec::from_indices(m, [i]),
            cols: BitVec::from_indices(n, [j]),
        }
    }

    /// Builds the smallest rectangle containing all given cells
    /// (the product of their row set and column set).
    pub fn from_cells<I: IntoIterator<Item = (usize, usize)>>(
        m: usize,
        n: usize,
        cells: I,
    ) -> Self {
        let mut rows = BitVec::zeros(m);
        let mut cols = BitVec::zeros(n);
        for (i, j) in cells {
            rows.set(i, true);
            cols.set(j, true);
        }
        Rectangle { rows, cols }
    }

    /// Row indicator vector.
    pub fn rows(&self) -> &BitVec {
        &self.rows
    }

    /// Column indicator vector.
    pub fn cols(&self) -> &BitVec {
        &self.cols
    }

    /// Whether the rectangle contains cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices exceed the indicator lengths.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.rows.get(i) && self.cols.get(j)
    }

    /// Number of cells (`|rows| · |cols|`).
    pub fn cell_count(&self) -> usize {
        self.rows.count_ones() * self.cols.count_ones()
    }

    /// Whether the rectangle is empty (no rows or no columns).
    pub fn is_empty(&self) -> bool {
        self.rows.is_zero() || self.cols.is_zero()
    }

    /// Iterates over the rectangle's cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .ones()
            .flat_map(move |i| self.cols.ones().map(move |j| (i, j)))
    }

    /// Whether two rectangles share a cell (both a row and a column).
    pub fn intersects(&self, other: &Rectangle) -> bool {
        !self.rows.is_disjoint(&other.rows) && !self.cols.is_disjoint(&other.cols)
    }

    /// The rectangle as a dense rank-1 matrix.
    pub fn to_matrix(&self) -> BitMatrix {
        BitMatrix::outer(&self.rows, &self.cols)
    }

    /// The Kronecker product rectangle: rows/cols of `self ⊗ other`, matching
    /// [`BitMatrix::kron`] index conventions. Used by the FTQC two-level
    /// construction (paper §V).
    pub fn kron(&self, other: &Rectangle) -> Rectangle {
        let kron_vec = |a: &BitVec, b: &BitVec| {
            let bl = b.len();
            BitVec::from_indices(
                a.len() * bl,
                a.ones().flat_map(|i| b.ones().map(move |k| i * bl + k)),
            )
        };
        Rectangle {
            rows: kron_vec(&self.rows, &other.rows),
            cols: kron_vec(&self.cols, &other.cols),
        }
    }
}

impl fmt::Display for Rectangle {
    /// Renders as `{rows} × {cols}` using index lists.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} × {:?}",
            self.rows.to_indices(),
            self.cols.to_indices()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_contains() {
        let r = Rectangle::singleton(3, 4, 1, 2);
        assert!(r.contains(1, 2));
        assert!(!r.contains(0, 2));
        assert_eq!(r.cell_count(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn from_cells_closure() {
        // from_cells takes the product closure of the cells.
        let r = Rectangle::from_cells(4, 4, [(0, 1), (2, 3)]);
        assert!(r.contains(0, 3) && r.contains(2, 1));
        assert_eq!(r.cell_count(), 4);
    }

    #[test]
    fn cells_iteration_row_major() {
        let r = Rectangle::from_cells(3, 3, [(0, 0), (2, 2)]);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells, vec![(0, 0), (0, 2), (2, 0), (2, 2)]);
    }

    #[test]
    fn intersects_requires_shared_row_and_col() {
        let a = Rectangle::from_cells(4, 4, [(0, 0), (1, 1)]);
        let same_rows = Rectangle::from_cells(4, 4, [(0, 2), (1, 3)]);
        assert!(!a.intersects(&same_rows), "shared rows, disjoint cols");
        let overlapping = Rectangle::from_cells(4, 4, [(1, 1)]);
        assert!(a.intersects(&overlapping));
    }

    #[test]
    fn empty_rectangle() {
        let r = Rectangle::new(BitVec::zeros(3), BitVec::from_indices(3, [1]));
        assert!(r.is_empty());
        assert_eq!(r.cell_count(), 0);
        assert_eq!(r.cells().count(), 0);
    }

    #[test]
    fn to_matrix_matches_cells() {
        let r = Rectangle::from_cells(3, 5, [(0, 1), (2, 4)]);
        let m = r.to_matrix();
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(m.get(i, j), r.contains(i, j));
            }
        }
    }

    #[test]
    fn kron_matches_matrix_kron() {
        let a = Rectangle::from_cells(2, 2, [(0, 1)]);
        let b = Rectangle::from_cells(3, 2, [(1, 0), (2, 1)]);
        let k = a.kron(&b);
        assert_eq!(k.to_matrix(), a.to_matrix().kron(&b.to_matrix()));
    }

    #[test]
    fn display_shows_indices() {
        let r = Rectangle::from_cells(3, 3, [(0, 2), (1, 2)]);
        assert_eq!(r.to_string(), "[0, 1] × [2]");
    }
}
