//! Fixed-length bit strings backed by `u64` words.
//!
//! [`BitStr`] is the one bit-string type of the repository, generic over
//! where its words live: a [`BitVec`] owns them (basis vectors of the
//! row-packing heuristic, row/column selectors of rectangles, don't-care
//! masks), a [`RowRef`] borrows one row of a [`crate::BitMatrix`] and a
//! [`RowMut`] borrows it mutably. Bit `i` lives in word `i / 64` at
//! position `i % 64`, and every operation keeps the bits at positions
//! `>= len` zero, so word-wise comparisons are exact.
//!
//! Each read is written once for all three, each write once for the two
//! that can write, and a binary operation takes any [`Bits`] operand, so
//! set algebra mixes owned and borrowed strings without copies.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::kernel;

/// Number of bits per storage word.
pub(crate) const WORD_BITS: usize = 64;

/// Read access to a fixed-length bit string stored as little-endian `u64`
/// words with a zeroed tail: every [`BitStr`], and references to one, so
/// `a.and(&b)` and `a.and(m.row(i))` both compile.
pub trait Bits {
    /// Number of bits.
    fn bit_len(&self) -> usize;
    /// Backing words, `bit_len().div_ceil(64)` of them, tail bits zero.
    fn word_slice(&self) -> &[u64];
}

impl<B: Bits + ?Sized> Bits for &B {
    fn bit_len(&self) -> usize {
        (**self).bit_len()
    }
    fn word_slice(&self) -> &[u64] {
        (**self).word_slice()
    }
}

/// A fixed-length sequence of bits supporting set algebra, over the words
/// `W`: `Vec<u64>` ([`BitVec`]), `&[u64]` ([`RowRef`]) or `&mut [u64]`
/// ([`RowMut`]).
///
/// The length is chosen at construction time and never changes; operations
/// combining two strings panic if the lengths differ (mixing rows of
/// different matrices is always a logic error in this codebase). Strings
/// compare and hash by length and bits, whoever owns the words, so a row
/// view and its owned copy are equal and collide as map keys.
#[derive(Clone, Copy)]
pub struct BitStr<W> {
    len: usize,
    words: W,
}

/// An owned bit string.
///
/// # Examples
///
/// ```
/// use rect_addr_bitmatrix::BitVec;
///
/// let a = BitVec::from_indices(8, [0, 2, 4]);
/// let b = BitVec::from_indices(8, [2, 4, 6]);
/// let both = a.and(&b);
/// assert_eq!(both.ones().collect::<Vec<_>>(), vec![2, 4]);
/// assert!(both.is_subset_of(&a));
/// ```
pub type BitVec = BitStr<Vec<u64>>;

/// An immutable view of one matrix row (or any borrowed bit string).
pub type RowRef<'a> = BitStr<&'a [u64]>;

/// A mutable view of one matrix row.
pub type RowMut<'a> = BitStr<&'a mut [u64]>;

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitStr {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones_vec(len: usize) -> Self {
        BitVec::from_words(len, vec![!0u64; len.div_ceil(WORD_BITS)])
    }

    /// Creates a vector of `len` bits with exactly the given indices set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut v = BitVec::zeros(len);
        for i in indices {
            v.set(i, true);
        }
        v
    }

    /// Creates a vector from a slice of `bool`s, one per bit.
    pub fn from_bools(bits: &[bool]) -> Self {
        BitVec::from_indices(bits.len(), (0..bits.len()).filter(|&i| bits[i]))
    }

    /// Creates a vector of `len` bits directly from backing words.
    ///
    /// Bits past `len` in the last word are cleared, so callers may pass a
    /// buffer with a dirty tail.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    pub fn from_words(len: usize, mut words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count mismatch for {len} bits"
        );
        let tail = len % WORD_BITS;
        if tail != 0 {
            words[len / WORD_BITS] &= (1u64 << tail) - 1;
        }
        BitStr { len, words }
    }

    /// Copies the bits of any [`Bits`] value into an owned vector.
    pub fn from_bits<B: Bits>(bits: B) -> Self {
        BitStr {
            len: bits.bit_len(),
            words: bits.word_slice().to_vec(),
        }
    }
}

/// Reads, for owned and borrowed strings alike.
impl<W: AsRef<[u64]>> BitStr<W> {
    /// Wraps `words` holding `len` bits with a zeroed tail: the view
    /// constructor behind [`crate::BitMatrix::row`] and
    /// [`crate::BitMatrix::row_mut`].
    pub(crate) fn new(words: W, len: usize) -> Self {
        debug_assert_eq!(words.as_ref().len(), len.div_ceil(WORD_BITS));
        BitStr { len, words }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string has zero length (distinct from being all-zero).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backing words (little-endian, tail bits zero).
    pub fn words(&self) -> &[u64] {
        self.words.as_ref()
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        (self.words()[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        kernel::count(self.words())
    }

    /// Whether every bit is zero.
    pub fn is_zero(&self) -> bool {
        kernel::is_zero(self.words())
    }

    /// Index of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        kernel::first_one(self.words())
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        Ones::new(self.words())
    }

    /// Collects the indices of set bits into a `Vec`.
    pub fn to_indices(&self) -> Vec<usize> {
        self.ones().collect()
    }

    /// Copies the bits into an owned [`BitVec`].
    pub fn to_bitvec(&self) -> BitVec {
        BitVec::from_bits(self)
    }

    /// Whether every set bit of `self` is also set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn is_subset_of<B: Bits>(&self, other: B) -> bool {
        self.assert_same_len(&other);
        kernel::is_subset(self.words(), other.word_slice())
    }

    /// Whether `self` and `other` share no set bit.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn is_disjoint<B: Bits>(&self, other: B) -> bool {
        self.assert_same_len(&other);
        !kernel::intersects(self.words(), other.word_slice())
    }

    /// Bitwise AND, producing an owned vector.
    pub fn and<B: Bits>(&self, other: B) -> BitVec {
        let mut out = self.to_bitvec();
        out.and_assign(other);
        out
    }

    /// Bitwise OR, producing an owned vector.
    pub fn or<B: Bits>(&self, other: B) -> BitVec {
        let mut out = self.to_bitvec();
        out.or_assign(other);
        out
    }

    /// Bitwise XOR, producing an owned vector.
    pub fn xor<B: Bits>(&self, other: B) -> BitVec {
        let mut out = self.to_bitvec();
        out.xor_assign(other);
        out
    }

    /// Set difference `self \ other`, producing an owned vector.
    pub fn difference<B: Bits>(&self, other: B) -> BitVec {
        let mut out = self.to_bitvec();
        out.difference_assign(other);
        out
    }

    fn assert_same_len<B: Bits>(&self, other: &B) {
        assert_eq!(
            self.len,
            other.bit_len(),
            "bit vector length mismatch: {} vs {}",
            self.len,
            other.bit_len()
        );
    }
}

/// Writes, for owned strings and mutable row views alike. Each keeps the
/// tail zero.
impl<W: AsRef<[u64]> + AsMut<[u64]>> BitStr<W> {
    /// Mutable backing words. The caller must keep tail bits zero; this is
    /// crate-internal precisely so the invariant cannot leak.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        self.words.as_mut()
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        let mask = 1u64 << (i % WORD_BITS);
        let word = &mut self.words_mut()[i / WORD_BITS];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Overwrites the bits with those of `src`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from<B: Bits>(&mut self, src: B) {
        self.assert_same_len(&src);
        self.words_mut().copy_from_slice(src.word_slice());
    }

    /// In-place bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign<B: Bits>(&mut self, other: B) {
        self.assert_same_len(&other);
        kernel::and_assign(self.words_mut(), other.word_slice());
    }

    /// In-place bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign<B: Bits>(&mut self, other: B) {
        self.assert_same_len(&other);
        kernel::or_assign(self.words_mut(), other.word_slice());
    }

    /// In-place bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign<B: Bits>(&mut self, other: B) {
        self.assert_same_len(&other);
        kernel::xor_assign(self.words_mut(), other.word_slice());
    }

    /// In-place set difference: clears every bit that is set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn difference_assign<B: Bits>(&mut self, other: B) {
        self.assert_same_len(&other);
        kernel::andnot_assign(self.words_mut(), other.word_slice());
    }
}

impl<W: AsRef<[u64]>> Bits for BitStr<W> {
    fn bit_len(&self) -> usize {
        self.len
    }
    fn word_slice(&self) -> &[u64] {
        self.words()
    }
}

impl<W: AsRef<[u64]>, V: AsRef<[u64]>> PartialEq<BitStr<V>> for BitStr<W> {
    fn eq(&self, other: &BitStr<V>) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl<W: AsRef<[u64]>> Eq for BitStr<W> {}

impl<W: AsRef<[u64]>> Hash for BitStr<W> {
    /// Length, then words: the same for every owner of the words.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl<W: AsRef<[u64]>> fmt::Debug for BitStr<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStr[{self}]")
    }
}

impl<W: AsRef<[u64]>> fmt::Display for BitStr<W> {
    /// Renders as a string of `0`/`1` characters, lowest index first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bits)
    }
}

/// Iterator over set-bit indices of a word slice, produced by
/// [`BitStr::ones`] and [`kernel::ones`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Ones<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        Ones {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn zeros_is_all_zero() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert!(v.is_zero());
        assert!((0..130).all(|i| !v.get(i)));
    }

    #[test]
    fn ones_vec_has_all_bits_and_clean_tail() {
        let v = BitVec::ones_vec(70);
        assert_eq!(v.count_ones(), 70);
        assert!((0..70).all(|i| v.get(i)));
        // tail invariant: XOR with itself gives zero words even past len
        let z = v.xor(&v);
        assert!(z.is_zero());
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut v = BitVec::zeros(128);
        for i in [0, 1, 62, 63, 64, 65, 126, 127] {
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
        v.set(63, false);
        assert!(!v.get(63));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let mut a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        a.and_assign(&b);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitVec::from_indices(100, [1, 50, 99]);
        let b = BitVec::from_indices(100, [1, 2, 50, 99]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        let c = BitVec::from_indices(100, [0, 3]);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        // the empty set is a subset of everything and disjoint from everything
        let e = BitVec::zeros(100);
        assert!(e.is_subset_of(&a));
        assert!(e.is_disjoint(&a));
    }

    #[test]
    fn set_algebra() {
        let a = BitVec::from_indices(10, [0, 1, 2]);
        let b = BitVec::from_indices(10, [2, 3]);
        assert_eq!(a.and(&b).to_indices(), vec![2]);
        assert_eq!(a.or(&b).to_indices(), vec![0, 1, 2, 3]);
        assert_eq!(a.xor(&b).to_indices(), vec![0, 1, 3]);
        assert_eq!(a.difference(&b).to_indices(), vec![0, 1]);
    }

    #[test]
    fn ones_iterator_matches_get() {
        let v = BitVec::from_indices(200, [0, 63, 64, 127, 128, 199]);
        assert_eq!(v.to_indices(), vec![0, 63, 64, 127, 128, 199]);
        assert_eq!(v.first_one(), Some(0));
        assert_eq!(BitVec::zeros(5).first_one(), None);
    }

    #[test]
    fn display_and_from_bools() {
        let v = BitVec::from_bools(&[true, false, true, true]);
        assert_eq!(v.to_string(), "1011");
        let w: BitVec = [true, false, true, true].into_iter().collect();
        assert_eq!(v, w);
    }

    #[test]
    fn zero_length_vector_is_well_behaved() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert!(v.is_zero());
        assert_eq!(v.ones().count(), 0);
        assert_eq!(v.to_string(), "");
        let o = BitVec::ones_vec(0);
        assert_eq!(v, o);
    }

    #[test]
    fn from_words_clears_dirty_tail() {
        let v = BitVec::from_words(65, vec![!0u64, !0u64]);
        assert_eq!(v.count_ones(), 65);
        assert_eq!(v, BitVec::ones_vec(65));
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn from_words_rejects_wrong_word_count() {
        BitVec::from_words(65, vec![0u64]);
    }

    fn hash_of<H: Hash>(h: &H) -> u64 {
        let mut s = DefaultHasher::new();
        h.hash(&mut s);
        s.finish()
    }

    #[test]
    fn rowref_matches_bitvec_semantics() {
        let v = BitVec::from_indices(70, [0, 33, 64, 69]);
        let r = RowRef::new(v.words(), v.len());
        assert_eq!(r.count_ones(), 4);
        assert_eq!(r.to_indices(), vec![0, 33, 64, 69]);
        assert_eq!(r.first_one(), Some(0));
        assert!(r.get(33) && !r.get(34));
        assert_eq!(r.to_bitvec(), v);
        assert_eq!(r, v);
        assert_eq!(v, r);
        assert_eq!(r.to_string(), v.to_string());
        assert_eq!(hash_of(&r), hash_of(&v));
    }

    #[test]
    fn rowmut_edits_preserve_tail() {
        let mut v = BitVec::zeros(70);
        let len = v.len();
        {
            let mut m = RowMut::new(v.words_mut(), len);
            m.set(69, true);
            m.or_assign(BitVec::from_indices(70, [1, 2]));
            m.difference_assign(BitVec::from_indices(70, [2]));
        }
        assert_eq!(v.to_indices(), vec![1, 69]);
        // XOR with an all-ones vector then AND back stays within the tail
        let ones = BitVec::ones_vec(70);
        {
            let mut m = RowMut::new(v.words_mut(), len);
            m.xor_assign(&ones);
        }
        assert_eq!(v.count_ones(), 68);
        assert!(v.is_subset_of(&ones));
    }
}
