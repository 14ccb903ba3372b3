//! Golden canonical keys, captured from the row-of-`BitVec` storage before
//! the contiguous word-buffer rewrite. The session cache persists canonical
//! keys to disk, so any drift here silently invalidates warm-start state:
//! these exact strings must keep coming out of `canonical_form` forever.

use bitmatrix::BitMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rect_addr_engine::{canonical_form, canonical_form_with, CanonOptions};

const FIG1B: &str = "101100\n010011\n101010\n010101\n111000\n000111";

/// `(input, expected canonical key)` pairs captured pre-rewrite.
const GOLDENS: &[(&str, &str)] = &[
    (
        FIG1B,
        "6x6:000111\n001110\n110100\n111000\n110001\n001011",
    ),
    (
        "000110010\n001110101\n001010001\n100000001\n001101010\n000001100\n011011011",
        "7x9:001000100\n001001001\n110000000\n000010011\n011111001\n101001011\n010011010",
    ),
    (
        "01101001\n00101001\n01001100\n11110000\n10010100\n01010111\n00111101\n01001011",
        "8x8:00001101\n01101001\n00111110\n11000010\n10110010\n10100100\n11001110\n11100010",
    ),
    (
        "1010100\n0100010\n0000111\n0100111\n0110011\n0011111\n0101110\n0011000\n0110101",
        "9x7:1101110\n0110110\n0100110\n0010100\n0001011\n0111010\n0111100\n1001000\n1010110",
    ),
    (
        "000101\n010100\n011100\n010110\n100111\n110111\n010010",
        "7x6:011101\n000110\n010010\n110010\n010001\n011111\n010110",
    ),
    (
        "100101101\n001100100\n110011001\n001100111\n011011001\n100000110\n100010111\n101010011",
        "8x9:111000101\n010010010\n000111000\n110100011\n011011001\n000111011\n110010011\n101100101",
    ),
    (
        "00111100\n11011100\n00100101\n11111101\n11000000\n00101111\n11001111\n10000010\n01110110",
        "9x8:01101110\n01011101\n00000011\n11100111\n00000110\n01111000\n11111110\n11110001\n11010000",
    ),
];

#[test]
fn canonical_keys_match_pre_rewrite_goldens() {
    for (input, expected) in GOLDENS {
        let m: BitMatrix = input.parse().unwrap();
        let c = canonical_form(&m);
        assert!(c.is_complete(), "search must complete for {input:?}");
        assert_eq!(c.key(), *expected, "key drifted for {input:?}");
    }
}

#[test]
fn kron_golden_key() {
    let fig1b: BitMatrix = FIG1B.parse().unwrap();
    let k = fig1b.kron(&BitMatrix::identity(2));
    assert_eq!(
        canonical_form(&k).key(),
        "12x12:000000001101\n100000010010\n000100100010\n010010000100\n010000001001\n\
         000101100000\n001000001001\n100001010000\n000100110000\n100001000010\n\
         011010000000\n001010000100"
    );
}

#[test]
fn heuristic_budget_zero_golden_key() {
    let fig1b: BitMatrix = FIG1B.parse().unwrap();
    let opts = CanonOptions { max_branches: 0 };
    let c = canonical_form_with(&fig1b, &opts);
    assert!(!c.is_complete());
    assert_eq!(
        c.key(),
        "6x6:111000\n110100\n110010\n001101\n001011\n000111"
    );
}

/// The property that drives the fig1b bench hit rate: every row/column
/// permutation of the same pattern must canonicalize to the same key, so
/// permuted duplicates hit the session cache.
#[test]
fn permuted_copies_share_the_golden_key() {
    let mut rng = StdRng::seed_from_u64(99);
    for (input, expected) in GOLDENS {
        let m: BitMatrix = input.parse().unwrap();
        for _ in 0..4 {
            let rp = bitmatrix::random_permutation(m.nrows(), &mut rng);
            let cp = bitmatrix::random_permutation(m.ncols(), &mut rng);
            let p = m.submatrix(&rp, &cp);
            assert_eq!(canonical_form(&p).key(), *expected);
        }
    }
}

/// Digest of `(key, row_perm, col_perm, completeness)` over
/// [`digest_corpus`] at every budget of [`DIGEST_BUDGETS`], captured from
/// the sort-per-line refinement. Any change to label values, branching
/// cells, tree order or pruning moves some permutation even where every
/// key survives, and the permutations decide which partition a cache hit
/// maps back.
const EXPECTED_DIGEST: u64 = 0x6002_a305_df99_a536;

/// Budgets spanning the heuristic fallback (0, 1, 3), a mid-sized search
/// (17) and the default.
const DIGEST_BUDGETS: [usize; 5] = [0, 1, 3, 17, 4096];

/// FNV-1a, so the digest is fixed by this file alone.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
}

fn relabeled(m: &BitMatrix, rng: &mut StdRng) -> BitMatrix {
    let rp = bitmatrix::random_permutation(m.nrows(), rng);
    let cp = bitmatrix::random_permutation(m.ncols(), rng);
    m.submatrix(&rp, &cp)
}

/// Row `r` has ones at columns `(r + o) mod n` for each offset `o`.
fn circulant(n: usize, offsets: &[usize]) -> BitMatrix {
    BitMatrix::from_fn(n, n, |r, c| offsets.iter().any(|&o| (r + o) % n == c))
}

/// Paley graph adjacency: `i ~ j` iff `i − j` is a nonzero square mod `p`.
fn paley(p: usize) -> BitMatrix {
    let mut square = vec![false; p];
    for x in 1..p {
        square[x * x % p] = true;
    }
    BitMatrix::from_fn(p, p, |i, j| i != j && square[(p + i - j) % p])
}

/// Seeded inputs covering discrete refinement, identical-line pruning,
/// vertex-transitive search and block symmetry: random matrices up to
/// 24×70 at densities from empty to full, relabeled circulants, relabeled
/// Paley graphs, and small random matrices ⊗ I_k.
fn digest_corpus() -> Vec<BitMatrix> {
    let mut rng = StdRng::seed_from_u64(0x00D1_6E57);
    let mut corpus = Vec::new();
    for _ in 0..100 {
        let nr = rng.gen_range(1..=24);
        let nc = rng.gen_range(1..=70);
        let occ = f64::from(rng.gen_range(0u32..=100)) / 100.0;
        corpus.push(bitmatrix::random_matrix(nr, nc, occ, &mut rng));
    }
    for _ in 0..32 {
        let n = rng.gen_range(3..=16);
        let offsets: Vec<usize> = (0..rng.gen_range(1..=4))
            .map(|_| rng.gen_range(0..n))
            .collect();
        corpus.push(relabeled(&circulant(n, &offsets), &mut rng));
    }
    for (p, copies) in [(5, 3), (13, 3), (17, 3), (29, 2)] {
        let base = paley(p);
        for _ in 0..copies {
            corpus.push(relabeled(&base, &mut rng));
        }
    }
    for _ in 0..24 {
        let a = bitmatrix::random_matrix(rng.gen_range(2..=5), rng.gen_range(2..=5), 0.5, &mut rng);
        let k = a.kron(&BitMatrix::identity(rng.gen_range(2..=4)));
        corpus.push(relabeled(&k, &mut rng));
    }
    corpus
}

#[test]
fn canonical_forms_match_the_pinned_digest() {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for m in digest_corpus() {
        for max_branches in DIGEST_BUDGETS {
            let c = canonical_form_with(&m, &CanonOptions { max_branches });
            fnv1a(&mut h, c.key().as_bytes());
            for &i in c.row_perm.iter().chain(&c.col_perm) {
                fnv1a(&mut h, &(i as u64).to_le_bytes());
            }
            fnv1a(&mut h, c.completeness().as_str().as_bytes());
        }
    }
    assert_eq!(h, EXPECTED_DIGEST, "digest {h:#018x}");
}
