//! EBMF with don't-cares — binary matrix *completion* (paper §VI).
//!
//! Vacancies in an atom array hold no qubit, so a shot may illuminate them
//! any number of times. Modeling vacancies as don't-care cells turns the
//! factorization problem into a completion problem: rectangles must still
//! cover every care-1 exactly once and no care-0, but may overlap freely on
//! don't-cares — which can only reduce the depth. The paper leaves this as
//! future work. Here the mask is an input of the pipeline's own pieces:
//! [`crate::row_packing_with_dont_cares`] runs Algorithm 2's packer,
//! [`complete_ebmf`] Algorithm 1's descent over the encoder's don't-care
//! mode, and [`validate_completion`] the partition check.

use bitmatrix::BitMatrix;

use crate::sap::descend;
use crate::{
    row_packing_with_dont_cares, EbmfEncoder, EncoderOptions, Partition, PartitionError, SapConfig,
};

/// Validates a partition against a care-matrix plus don't-care mask:
/// rectangles must be nonempty, cover every 1 of `m` exactly once, and may
/// cover don't-cares arbitrarily often — but never a care-0. With an
/// all-zero mask this is [`Partition::validate`].
///
/// # Errors
///
/// Returns the first violation, reusing [`PartitionError`] variants (an
/// overlap on a care-1 reports `Overlap`; covering a care-0 reports
/// `CoversZero`).
///
/// # Panics
///
/// Panics if `m` and `dont_care` shapes differ or a cell is both.
pub fn validate_completion(
    p: &Partition,
    m: &BitMatrix,
    dont_care: &BitMatrix,
) -> Result<(), PartitionError> {
    assert_eq!(m.shape(), dont_care.shape(), "mask shape mismatch");
    assert!(m.is_disjoint(dont_care), "cell both 1 and don't-care");
    p.validate_with(m, Some(dont_care))
}

/// Outcome of the exact completion solver.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionOutcome {
    /// Best completion-partition found.
    pub partition: Partition,
    /// Whether its depth was proved minimum.
    pub proved_optimal: bool,
}

/// Exact minimum-depth EBMF with don't-cares: Algorithm 1 from the
/// don't-care-aware packing's depth, one incremental SAT query per step.
///
/// The real-rank bound of Eq. 3 does **not** apply under don't-cares
/// (completion can beat the care-matrix rank), so the descent runs to
/// UNSAT or to depth 1.
///
/// # Panics
///
/// Panics if `m` and `dont_care` shapes differ or a cell is both.
pub fn complete_ebmf(m: &BitMatrix, dont_care: &BitMatrix) -> CompletionOutcome {
    let mut partition = row_packing_with_dont_cares(m, dont_care, 10, 0);
    let proved_optimal = partition.len() <= 1 || {
        let options = EncoderOptions::new(partition.len() - 1).with_assumption_bounds();
        let mut encoder = EbmfEncoder::with_encoder_options(m, Some(dont_care), options);
        let config = SapConfig::default();
        descend(&mut encoder, &mut partition, 1, &config, &mut Vec::new()).0
    };
    debug_assert!(validate_completion(&partition, m, dont_care).is_ok());
    CompletionOutcome {
        partition,
        proved_optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{binary_rank, lower_bound, Rectangle};

    #[test]
    fn dont_cares_strictly_help_on_identity() {
        // I_3 needs 3 rectangles; with all off-diagonals don't-care, one
        // 3×3 rectangle suffices.
        let m = BitMatrix::identity(3);
        let dc = BitMatrix::from_fn(3, 3, |i, j| i != j);
        assert_eq!(binary_rank(&m), 3);
        let out = complete_ebmf(&m, &dc);
        assert!(out.proved_optimal);
        assert_eq!(out.partition.len(), 1);
        assert!(validate_completion(&out.partition, &m, &dc).is_ok());
    }

    #[test]
    fn empty_dont_care_reduces_to_plain_ebmf() {
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        let dc = BitMatrix::zeros(3, 3);
        let out = complete_ebmf(&m, &dc);
        assert!(out.proved_optimal);
        assert_eq!(out.partition.len(), 3, "Eq. (2) needs 3 without vacancies");
        assert!(out.partition.validate(&m).is_ok());
    }

    #[test]
    fn partial_dont_care_between_plain_and_full() {
        // Fig. 1b matrix with a few vacancies can only get easier.
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let dc = BitMatrix::from_fn(6, 6, |i, j| !m.get(i, j) && (i + j) % 3 == 0);
        let out = complete_ebmf(&m, &dc);
        assert!(out.proved_optimal);
        assert!(out.partition.len() <= 5);
        assert!(validate_completion(&out.partition, &m, &dc).is_ok());
    }

    #[test]
    fn heuristic_output_is_always_valid() {
        let m: BitMatrix = "1010\n0101\n1111".parse().unwrap();
        let dc = BitMatrix::from_fn(3, 4, |i, j| !m.get(i, j) && j == 0);
        let p = row_packing_with_dont_cares(&m, &dc, 5, 1);
        assert!(validate_completion(&p, &m, &dc).is_ok());
    }

    #[test]
    fn validate_completion_rejects_care_zero_cover() {
        let m: BitMatrix = "10\n00".parse().unwrap();
        let dc = BitMatrix::zeros(2, 2);
        let mut p = Partition::empty(2, 2);
        p.push(Rectangle::from_cells(2, 2, [(0, 0), (1, 0)]));
        assert!(matches!(
            validate_completion(&p, &m, &dc),
            Err(PartitionError::CoversZero { .. })
        ));
    }

    #[test]
    fn validate_completion_allows_dc_overlap() {
        // Two rectangles overlapping on a don't-care cell only.
        let m: BitMatrix = "11\n10".parse().unwrap();
        let dc: BitMatrix = "00\n01".parse().unwrap();
        let mut p = Partition::empty(2, 2);
        p.push(Rectangle::from_cells(2, 2, [(0, 0), (1, 0)])); // col 0
        p.push(Rectangle::from_cells(2, 2, [(0, 1), (1, 1)])); // col 1: (1,1) is DC
        assert!(validate_completion(&p, &m, &dc).is_ok());
    }

    #[test]
    fn validate_completion_detects_care_overlap() {
        let m: BitMatrix = "11".parse().unwrap();
        let dc = BitMatrix::zeros(1, 2);
        let mut p = Partition::empty(1, 2);
        p.push(Rectangle::from_cells(1, 2, [(0, 0), (0, 1)]));
        p.push(Rectangle::from_cells(1, 2, [(0, 1)]));
        assert!(matches!(
            validate_completion(&p, &m, &dc),
            Err(PartitionError::Overlap { .. })
        ));
    }

    #[test]
    fn lower_bound_not_binding_under_dont_cares() {
        // Sanity note test: rank of I_3 is 3, yet completion reached 1 —
        // the Eq. 3 bound genuinely does not apply to completion.
        let m = BitMatrix::identity(3);
        let lb = lower_bound(&m, false);
        assert_eq!(lb.value, 3);
        let dc = BitMatrix::from_fn(3, 3, |i, j| i != j);
        assert_eq!(complete_ebmf(&m, &dc).partition.len(), 1);
    }
}
