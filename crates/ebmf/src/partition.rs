//! Rectangle partitions — exact binary matrix factorizations in rectangle
//! form.

use std::fmt;

use bitmatrix::{BitMatrix, BitVec};

use crate::Rectangle;

/// A list of pairwise-disjoint rectangles partitioning the 1s of a matrix.
///
/// `Partition` is the EBMF witness: if `validate(&m)` succeeds, then
/// `m = Σ_i P_i` with each `P_i` the rank-1 matrix of rectangle `i` and the
/// sum taken over ℝ, so `len()` upper-bounds the binary rank of `m` — and
/// equals it when produced by the exact solver. In the addressing picture,
/// `len()` is the *depth*: the number of AOD shots needed.
///
/// # Examples
///
/// ```
/// use bitmatrix::BitMatrix;
/// use rect_addr_ebmf::{Partition, Rectangle};
///
/// let m: BitMatrix = "11\n11".parse()?;
/// let p = Partition::from_rectangles(2, 2, vec![
///     Rectangle::from_cells(2, 2, [(0, 0), (1, 1)]), // full 2×2 block
/// ]);
/// assert!(p.validate(&m).is_ok());
/// assert_eq!(p.len(), 1);
/// # Ok::<(), bitmatrix::ParseMatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    nrows: usize,
    ncols: usize,
    rects: Vec<Rectangle>,
}

/// Why a [`Partition`] fails validation against a matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The partition's grid shape differs from the matrix shape.
    ShapeMismatch {
        /// Shape stored in the partition.
        partition: (usize, usize),
        /// Shape of the matrix being validated against.
        matrix: (usize, usize),
    },
    /// A rectangle has no rows or no columns.
    EmptyRectangle {
        /// Index of the offending rectangle.
        index: usize,
    },
    /// A rectangle covers a cell that is 0 in the matrix.
    CoversZero {
        /// Index of the offending rectangle.
        index: usize,
        /// The 0-cell it covers.
        cell: (usize, usize),
    },
    /// Two rectangles overlap.
    Overlap {
        /// Indices of the overlapping rectangles.
        first: usize,
        /// Indices of the overlapping rectangles.
        second: usize,
    },
    /// A 1-cell of the matrix is not covered by any rectangle.
    Uncovered {
        /// The uncovered 1-cell.
        cell: (usize, usize),
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ShapeMismatch { partition, matrix } => write!(
                f,
                "partition shape {partition:?} does not match matrix shape {matrix:?}"
            ),
            PartitionError::EmptyRectangle { index } => {
                write!(f, "rectangle {index} is empty")
            }
            PartitionError::CoversZero { index, cell } => {
                write!(f, "rectangle {index} covers zero cell {cell:?}")
            }
            PartitionError::Overlap { first, second } => {
                write!(f, "rectangles {first} and {second} overlap")
            }
            PartitionError::Uncovered { cell } => {
                write!(f, "matrix 1-cell {cell:?} is not covered")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl Partition {
    /// Creates an empty partition for an `m × n` grid.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Partition {
            nrows,
            ncols,
            rects: Vec::new(),
        }
    }

    /// Creates a partition from rectangles (not validated — call
    /// [`Partition::validate`]).
    pub fn from_rectangles(nrows: usize, ncols: usize, rects: Vec<Rectangle>) -> Self {
        Partition {
            nrows,
            ncols,
            rects,
        }
    }

    /// Grid shape `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of rectangles — the addressing *depth*.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Whether the partition has no rectangles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The rectangles.
    pub fn rectangles(&self) -> &[Rectangle] {
        &self.rects
    }

    /// Iterator over the rectangles.
    pub fn iter(&self) -> std::slice::Iter<'_, Rectangle> {
        self.rects.iter()
    }

    /// Appends a rectangle (no validation).
    pub fn push(&mut self, r: Rectangle) {
        self.rects.push(r);
    }

    /// Checks that the rectangles exactly partition the 1s of `m`:
    /// nonempty, covering only 1-cells, pairwise disjoint, and jointly
    /// covering every 1-cell.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, see [`PartitionError`].
    pub fn validate(&self, m: &BitMatrix) -> Result<(), PartitionError> {
        self.validate_with(m, None)
    }

    /// [`Partition::validate`] where cells set in `dont_care` may be
    /// covered any number of times: exactly-once coverage binds the 1s of
    /// `m` only, and a covered cell outside both is a `CoversZero`.
    pub(crate) fn validate_with(
        &self,
        m: &BitMatrix,
        dont_care: Option<&BitMatrix>,
    ) -> Result<(), PartitionError> {
        if (self.nrows, self.ncols) != m.shape() {
            return Err(PartitionError::ShapeMismatch {
                partition: (self.nrows, self.ncols),
                matrix: m.shape(),
            });
        }
        for (idx, r) in self.rects.iter().enumerate() {
            if r.is_empty() {
                return Err(PartitionError::EmptyRectangle { index: idx });
            }
            for (i, j) in r.cells() {
                if !m.get(i, j) && !dont_care.is_some_and(|d| d.get(i, j)) {
                    return Err(PartitionError::CoversZero {
                        index: idx,
                        cell: (i, j),
                    });
                }
            }
        }
        // Disjointness + coverage of the 1s via per-row accumulation.
        let mut covered = BitMatrix::zeros(self.nrows, self.ncols);
        for (idx, r) in self.rects.iter().enumerate() {
            for i in r.rows().ones() {
                let hits = r.cols().and(m.row(i));
                if !covered.row(i).is_disjoint(&hits) {
                    let second = idx;
                    // Identify the earlier overlapping rectangle for the report.
                    let clash_col = covered
                        .row(i)
                        .and(&hits)
                        .first_one()
                        .expect("non-disjoint row must share a column");
                    let first = self.rects[..idx]
                        .iter()
                        .position(|q| q.contains(i, clash_col))
                        .expect("overlap must involve an earlier rectangle");
                    return Err(PartitionError::Overlap { first, second });
                }
                covered.row_mut(i).or_assign(&hits);
            }
        }
        for i in 0..self.nrows {
            let missing = m.row(i).difference(covered.row(i));
            if let Some(j) = missing.first_one() {
                return Err(PartitionError::Uncovered { cell: (i, j) });
            }
        }
        Ok(())
    }

    /// Reassembles the matrix `Σ_i P_i` covered by the rectangles.
    pub fn to_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.nrows, self.ncols);
        for r in &self.rects {
            for i in r.rows().ones() {
                m.row_mut(i).or_assign(r.cols());
            }
        }
        m
    }

    /// The factor form of the EBMF: `H ∈ B^{m×r}` with column `k` the row
    /// indicator of rectangle `k`, and `W ∈ B^{r×n}` with row `k` its column
    /// indicator, so that `H·W` (over ℝ) reproduces the matrix when the
    /// partition is valid (paper Fig. 2b).
    pub fn to_factors(&self) -> (BitMatrix, BitMatrix) {
        let r = self.rects.len();
        let mut h = BitMatrix::zeros(self.nrows, r);
        let mut w = BitMatrix::zeros(r, self.ncols);
        for (k, rect) in self.rects.iter().enumerate() {
            for i in rect.rows().ones() {
                h.set(i, k, true);
            }
            w.set_row(k, rect.cols());
        }
        (h, w)
    }

    /// Rebuilds a partition from factor matrices (column `k` of `h` × row
    /// `k` of `w`).
    ///
    /// # Panics
    ///
    /// Panics if `h.ncols() != w.nrows()`.
    pub fn from_factors(h: &BitMatrix, w: &BitMatrix) -> Partition {
        assert_eq!(
            h.ncols(),
            w.nrows(),
            "factor inner dimensions differ: {} vs {}",
            h.ncols(),
            w.nrows()
        );
        let rects = (0..h.ncols())
            .map(|k| Rectangle::new(h.col(k), w.row(k).to_bitvec()))
            .collect();
        Partition {
            nrows: h.nrows(),
            ncols: w.ncols(),
            rects,
        }
    }

    /// Returns the label matrix: entry `(i, j)` is `Some(k)` when rectangle
    /// `k` covers the cell. Useful for rendering partitions (paper Fig. 1b
    /// uses distinct markers per rectangle).
    #[allow(clippy::needless_range_loop)]
    pub fn labels(&self) -> Vec<Vec<Option<usize>>> {
        let mut out = vec![vec![None; self.ncols]; self.nrows];
        for (k, r) in self.rects.iter().enumerate() {
            for (i, j) in r.cells() {
                out[i][j] = Some(k);
            }
        }
        out
    }

    /// Sorts rectangles canonically (by row indices, then column indices) so
    /// structurally equal partitions compare equal.
    pub fn canonicalize(&mut self) {
        self.rects.sort_by(|a, b| {
            (a.rows().to_indices(), a.cols().to_indices())
                .cmp(&(b.rows().to_indices(), b.cols().to_indices()))
        });
    }
}

impl fmt::Display for Partition {
    /// Renders the label matrix, one symbol per rectangle (`.` for zeros).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SYMBOLS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        let labels = self.labels();
        for (i, row) in labels.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            for &cell in row {
                match cell {
                    None => f.write_str(".")?,
                    Some(k) => {
                        let c = SYMBOLS[k % SYMBOLS.len()] as char;
                        write!(f, "{c}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Partition {
    type Item = &'a Rectangle;
    type IntoIter = std::slice::Iter<'a, Rectangle>;

    fn into_iter(self) -> Self::IntoIter {
        self.rects.iter()
    }
}

/// Helper: the union of multiple bit vectors.
#[allow(dead_code)]
pub(crate) fn union(vecs: &[&BitVec], len: usize) -> BitVec {
    let mut out = BitVec::zeros(len);
    for v in vecs {
        out.or_assign(v);
    }
    out
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn fig1b() -> BitMatrix {
        "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap()
    }

    fn valid_partition_of_fig1b() -> Partition {
        // A hand-checked 5-rectangle partition of the Fig. 1b matrix:
        // rows 0,2 × cols {0,2};  rows 1,3 × cols {1,5}... — instead, build
        // from singleton decomposition of each distinct row group.
        let m = fig1b();
        let (dedup, groups) = m.dedup_rows();
        let mut p = Partition::empty(6, 6);
        for (k, g) in groups.iter().enumerate() {
            let rows = BitVec::from_indices(6, g.iter().copied());
            p.push(Rectangle::new(rows, dedup.row(k).to_bitvec()));
        }
        p
    }

    #[test]
    fn row_partition_validates() {
        let m = fig1b();
        let p = valid_partition_of_fig1b();
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.to_matrix(), m);
    }

    #[test]
    fn shape_mismatch_detected() {
        let p = Partition::empty(2, 2);
        let m = BitMatrix::zeros(3, 3);
        assert_eq!(
            p.validate(&m),
            Err(PartitionError::ShapeMismatch {
                partition: (2, 2),
                matrix: (3, 3)
            })
        );
    }

    #[test]
    fn empty_rectangle_detected() {
        let m: BitMatrix = "1".parse().unwrap();
        let mut p = Partition::empty(1, 1);
        p.push(Rectangle::new(BitVec::zeros(1), BitVec::zeros(1)));
        assert_eq!(
            p.validate(&m),
            Err(PartitionError::EmptyRectangle { index: 0 })
        );
    }

    #[test]
    fn covering_zero_detected() {
        let m: BitMatrix = "10\n00".parse().unwrap();
        let mut p = Partition::empty(2, 2);
        p.push(Rectangle::from_cells(2, 2, [(0, 0), (0, 1)]));
        assert_eq!(
            p.validate(&m),
            Err(PartitionError::CoversZero {
                index: 0,
                cell: (0, 1)
            })
        );
    }

    #[test]
    fn overlap_detected() {
        let m: BitMatrix = "11\n11".parse().unwrap();
        let mut p = Partition::empty(2, 2);
        p.push(Rectangle::from_cells(2, 2, [(0, 0), (1, 1)]));
        p.push(Rectangle::from_cells(2, 2, [(1, 1)]));
        assert_eq!(
            p.validate(&m),
            Err(PartitionError::Overlap {
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn uncovered_detected() {
        let m: BitMatrix = "11".parse().unwrap();
        let mut p = Partition::empty(1, 2);
        p.push(Rectangle::singleton(1, 2, 0, 0));
        assert_eq!(
            p.validate(&m),
            Err(PartitionError::Uncovered { cell: (0, 1) })
        );
    }

    #[test]
    fn factors_roundtrip() {
        let p = valid_partition_of_fig1b();
        let (h, w) = p.to_factors();
        assert_eq!(h.shape(), (6, p.len()));
        assert_eq!(w.shape(), (p.len(), 6));
        let q = Partition::from_factors(&h, &w);
        assert_eq!(q.to_matrix(), p.to_matrix());
        assert_eq!(q.len(), p.len());
    }

    #[test]
    fn labels_mark_every_cell_once() {
        let p = valid_partition_of_fig1b();
        let m = fig1b();
        let labels = p.labels();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(labels[i][j].is_some(), m.get(i, j));
            }
        }
    }

    #[test]
    fn display_renders_label_grid() {
        let m: BitMatrix = "10\n01".parse().unwrap();
        let mut p = Partition::empty(2, 2);
        p.push(Rectangle::singleton(2, 2, 0, 0));
        p.push(Rectangle::singleton(2, 2, 1, 1));
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.to_string(), "0.\n.1");
    }

    #[test]
    fn canonicalize_makes_order_irrelevant() {
        let mut a = Partition::empty(2, 2);
        a.push(Rectangle::singleton(2, 2, 0, 0));
        a.push(Rectangle::singleton(2, 2, 1, 1));
        let mut b = Partition::empty(2, 2);
        b.push(Rectangle::singleton(2, 2, 1, 1));
        b.push(Rectangle::singleton(2, 2, 0, 0));
        assert_ne!(a, b);
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_matrix_empty_partition_is_valid() {
        let m = BitMatrix::zeros(3, 4);
        let p = Partition::empty(3, 4);
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.to_matrix(), m);
    }
}
