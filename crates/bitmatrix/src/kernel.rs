//! Word-level kernels over raw `u64` slices.
//!
//! These free functions are the data plane of the whole pipeline: the
//! canonizer's row compares, the packing heuristic's residue decomposition
//! and the SAT encoder's feasibility masks all bottom out here. Operands are
//! little-endian word slices with any tail bits (past the logical length)
//! zeroed — the invariant every [`crate::BitStr`] maintains — so whole-word
//! operations are exact and no per-bit loops are needed.
//!
//! All binary kernels require equal slice lengths (`debug_assert`ed); callers
//! compare same-width rows only, which [`crate::BitStr`], the one typed
//! wrapper over owned vectors and matrix rows alike, enforces with length
//! asserts.

use std::cmp::Ordering;

/// Number of set bits in `a`.
#[inline]
pub fn count(a: &[u64]) -> usize {
    a.iter().map(|w| w.count_ones() as usize).sum()
}

/// Whether every word of `a` is zero.
#[inline]
pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&w| w == 0)
}

/// Number of set bits in `a AND b`, without materialising the intersection.
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum()
}

/// Number of set bits in `a AND NOT b` (set difference), fused.
#[inline]
pub fn andnot_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & !y).count_ones() as usize)
        .sum()
}

/// Whether `a` and `b` share at least one set bit.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// Whether every set bit of `a` is also set in `b`.
#[inline]
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// In-place `dst &= src`.
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

/// In-place `dst |= src`.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// In-place `dst ^= src`.
#[inline]
pub fn xor_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// In-place `dst &= !src` (set difference).
#[inline]
pub fn andnot_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

/// Iterator over the set bit positions of `a`, ascending.
#[inline]
pub fn ones(a: &[u64]) -> crate::Ones<'_> {
    crate::Ones::new(a)
}

/// Index of the lowest set bit, if any.
#[inline]
pub fn first_one(a: &[u64]) -> Option<usize> {
    for (wi, &w) in a.iter().enumerate() {
        if w != 0 {
            return Some(wi * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Number of set bits at positions strictly below `i`.
///
/// This is the rank function used to map a column index to its position
/// among a row's 1-entries (DLX item numbering, SAT variable lookup).
///
/// # Panics
///
/// Debug-panics if `i` exceeds the slice's capacity in bits.
#[inline]
pub fn rank(a: &[u64], i: usize) -> usize {
    debug_assert!(i <= a.len() * 64, "rank index {i} beyond slice");
    let full = i / 64;
    let mut n = count(&a[..full]);
    let tail = i % 64;
    if tail != 0 {
        n += (a[full] & ((1u64 << tail) - 1)).count_ones() as usize;
    }
    n
}

/// Lexicographic comparison of two equal-length bit strings rendered lowest
/// index first, with `'0' < '1'` — the order `BitMatrix` rows sort in when
/// compared as display strings.
#[inline]
pub fn cmp_lex(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (&x, &y) in a.iter().zip(b) {
        if x != y {
            let bit = (x ^ y).trailing_zeros();
            // The side holding 0 at the first differing position is smaller.
            return if (x >> bit) & 1 == 0 {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
    }
    Ordering::Equal
}

/// Like [`cmp_lex`] but with `'1' < '0'`: the row holding a 1 at the first
/// differing position sorts first. This is the canonizer's row order.
#[inline]
pub fn cmp_lex_ones_first(a: &[u64], b: &[u64]) -> Ordering {
    cmp_lex(a, b).reverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_predicates() {
        let a = [0b1011u64, 1u64 << 63];
        let b = [0b0110u64, 1u64 << 63];
        assert_eq!(count(&a), 4);
        assert_eq!(and_count(&a, &b), 2);
        assert_eq!(andnot_count(&a, &b), 2);
        assert!(intersects(&a, &b));
        assert!(!is_subset(&a, &b));
        assert!(is_subset(&[0b0010, 0], &a));
        assert!(!intersects(&[0b0100, 0], &a));
        assert!(is_zero(&[0, 0]));
        assert!(!is_zero(&a));
    }

    #[test]
    fn in_place_ops() {
        let src = [0b0110u64];
        let mut d = [0b1011u64];
        and_assign(&mut d, &src);
        assert_eq!(d, [0b0010]);
        let mut d = [0b1011u64];
        or_assign(&mut d, &src);
        assert_eq!(d, [0b1111]);
        let mut d = [0b1011u64];
        xor_assign(&mut d, &src);
        assert_eq!(d, [0b1101]);
        let mut d = [0b1011u64];
        andnot_assign(&mut d, &src);
        assert_eq!(d, [0b1001]);
    }

    #[test]
    fn first_one_and_rank() {
        assert_eq!(first_one(&[0, 0]), None);
        assert_eq!(first_one(&[0, 1u64 << 3]), Some(67));
        let a = [0b1011u64, 0b101u64];
        assert_eq!(rank(&a, 0), 0);
        assert_eq!(rank(&a, 1), 1);
        assert_eq!(rank(&a, 4), 3);
        assert_eq!(rank(&a, 64), 3);
        assert_eq!(rank(&a, 65), 4);
        assert_eq!(rank(&a, 67), 5);
        assert_eq!(rank(&a, 128), 5);
    }

    #[test]
    fn lexicographic_orders() {
        // 1100... vs 1010...: first differing index is 1, a has 1 there, so
        // in string order ("11.." vs "10..") a is Greater.
        let a = [0b0011u64];
        let b = [0b0101u64];
        assert_eq!(cmp_lex(&a, &b), Ordering::Greater);
        assert_eq!(cmp_lex(&b, &a), Ordering::Less);
        assert_eq!(cmp_lex(&a, &a), Ordering::Equal);
        assert_eq!(cmp_lex_ones_first(&a, &b), Ordering::Less);
        // difference only in the second word
        let c = [0b0011u64, 0b1u64];
        let d = [0b0011u64, 0b10u64];
        assert_eq!(cmp_lex(&c, &d), Ordering::Greater);
    }
}
