//! Heuristic EBMF: the trivial bound and the paper's *row packing*
//! (Algorithm 2), plus the §VI exact-cover upgrade.
//!
//! The packing inner loop runs entirely on packed `u64` words: the basis
//! vectors and row memberships of every rectangle live in two flat scratch
//! buffers ([`PackWorkspace`]) that are reused across trials, and a trial
//! only materializes a [`Partition`] when it actually improves on the
//! incumbent. [`row_packing_cancellable`] is the engine-facing multi-trial
//! entry point with the per-call setup (trivial baseline, transpose)
//! hoisted out of the trial loop.

use std::time::Instant;

use bitmatrix::{kernel, random_permutation, BitMatrix, BitVec};
use exactcover::{Dlx, DlxBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sat::CancelToken;

use crate::{Partition, Rectangle};

/// Row-ordering strategy for packing trials (paper §III-B discusses both
/// compromises; shuffling is the published default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowOrder {
    /// Uniformly random shuffle per trial — the paper's choice.
    #[default]
    Shuffle,
    /// Rows with fewer 1s first (the paper's rejected compromise #2; kept
    /// for the ablation benchmark).
    SparsestFirst,
    /// Natural order 0, 1, 2, … (single deterministic trial).
    Natural,
}

/// Configuration of the row-packing heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackingConfig {
    /// Number of shuffled trials (per orientation).
    pub trials: usize,
    /// RNG seed for the shuffles.
    pub seed: u64,
    /// Row ordering strategy.
    pub order: RowOrder,
    /// Enable the basis update of Algorithm 2 lines 9–16 (the paper's
    /// rejected compromise #1 disables it; kept for the ablation benchmark).
    pub basis_update: bool,
    /// Also run on the transpose and keep the better result (the paper does).
    pub transpose: bool,
    /// Decompose rows by *exact cover* over the basis (Algorithm X) instead
    /// of greedy first-fit — the paper's §VI future-work idea.
    pub exact_cover: bool,
    /// DLX node budget per row when `exact_cover` is on.
    pub exact_cover_budget: u64,
}

impl Default for PackingConfig {
    fn default() -> Self {
        PackingConfig {
            trials: 10,
            seed: 0,
            order: RowOrder::Shuffle,
            basis_update: true,
            transpose: true,
            exact_cover: false,
            exact_cover_budget: 20_000,
        }
    }
}

impl PackingConfig {
    /// Config with the given number of shuffled trials (other fields default).
    pub fn with_trials(trials: usize) -> Self {
        PackingConfig {
            trials,
            ..PackingConfig::default()
        }
    }
}

/// The trivial heuristic (paper §III-B): partition into single rows — or
/// single columns, whichever is fewer — consolidating duplicates and
/// skipping empty lines. Gives the upper bound
/// `r_B(M) ≤ min(#distinct nonzero rows, #distinct nonzero cols)`.
pub fn trivial_partition(m: &BitMatrix) -> Partition {
    let by_rows = trivial_rows(m);
    let by_cols = transpose_partition(&trivial_rows(m.transposed()));
    if by_rows.len() <= by_cols.len() {
        by_rows
    } else {
        by_cols
    }
}

/// One rectangle per distinct nonzero row, spanning all duplicates.
fn trivial_rows(m: &BitMatrix) -> Partition {
    let (dedup, groups) = m.dedup_rows();
    let mut p = Partition::empty(m.nrows(), m.ncols());
    for (k, g) in groups.iter().enumerate() {
        let rows = BitVec::from_indices(m.nrows(), g.iter().copied());
        p.push(Rectangle::new(rows, dedup.row(k).to_bitvec()));
    }
    p
}

/// Transposes a partition of `Mᵀ` into a partition of `M`.
fn transpose_partition(p: &Partition) -> Partition {
    let (r, c) = p.shape();
    let mut out = Partition::empty(c, r);
    for rect in p {
        out.push(Rectangle::new(rect.cols().clone(), rect.rows().clone()));
    }
    out
}

/// Reusable word-level state of one packing pass. Rectangle `k`'s basis
/// vector occupies words `k*cstride..(k+1)*cstride` of `rect_cols` and its
/// row membership words `k*rstride..(k+1)*rstride` of `rect_rows`; rows are
/// tracked in *shuffled* coordinates until [`PackWorkspace::to_partition`]
/// maps them back through the trial's order.
#[derive(Default)]
struct PackWorkspace {
    cstride: usize,
    rstride: usize,
    rect_cols: Vec<u64>,
    rect_rows: Vec<u64>,
    nrect: usize,
    residue: Vec<u64>,
    cover_items: Vec<usize>,
    candidates: Vec<usize>,
    builder: DlxBuilder,
    dlx: Dlx,
}

impl PackWorkspace {
    fn new() -> Self {
        PackWorkspace::default()
    }

    /// One pass of Algorithm 2 over `m`'s rows in `order`; leaves the
    /// resulting rectangles in the workspace and returns their count.
    fn run_trial(&mut self, m: &BitMatrix, order: &[usize], config: &PackingConfig) -> usize {
        let start = Instant::now();
        let nrows = m.nrows();
        assert_eq!(order.len(), nrows, "order must be a permutation of rows");
        let cs = m.stride();
        let rs = nrows.div_ceil(64);
        self.cstride = cs;
        self.rstride = rs;
        self.nrect = 0;
        self.rect_cols.clear();
        self.rect_rows.clear();
        self.residue.clear();
        self.residue.resize(cs, 0);

        for (t, &orig) in order.iter().enumerate() {
            self.residue.copy_from_slice(m.row_words(orig));
            if kernel::is_zero(&self.residue) {
                continue;
            }
            // Decompose the row over the current basis.
            if config.exact_cover && self.nrect > 0 && self.exact_cover_step(t, config) {
                continue; // fully decomposed, no residue
            }
            // Greedy first-fit (Algorithm 2 lines 4–7).
            for k in 0..self.nrect {
                let cols = &self.rect_cols[k * cs..(k + 1) * cs];
                if !kernel::is_zero(cols) && kernel::is_subset(cols, &self.residue) {
                    self.rect_rows[k * rs + t / 64] |= 1 << (t % 64); // vertical grow
                    kernel::andnot_assign(&mut self.residue, cols);
                }
            }
            if kernel::is_zero(&self.residue) {
                continue;
            }
            // Residue: new basis vector (lines 8–16).
            let row_base = self.nrect * rs;
            self.rect_rows.resize(row_base + rs, 0);
            self.rect_rows[row_base + t / 64] |= 1 << (t % 64);
            if config.basis_update {
                // Any existing basis vector containing the residue is split:
                // its rectangle sheds the residue columns ("horizontal
                // shrink"), and those rows are re-covered by the new
                // rectangle. (The paper's pseudo-code tracks this with the
                // column vector `c`.)
                let (old_rows, new_rows) = self.rect_rows.split_at_mut(row_base);
                for k in 0..self.nrect {
                    let cols = &mut self.rect_cols[k * cs..(k + 1) * cs];
                    if kernel::is_subset(&self.residue, cols) {
                        kernel::or_assign(new_rows, &old_rows[k * rs..(k + 1) * rs]);
                        kernel::andnot_assign(cols, &self.residue);
                    }
                }
            }
            self.rect_cols.extend_from_slice(&self.residue);
            self.nrect += 1;
        }
        obs::registry()
            .histogram(obs::names::KERNEL_US_PACK_TRIAL)
            .record(start.elapsed().as_micros() as u64);
        self.nrect
    }

    /// Tries to decompose the current residue (still the full row) as an
    /// exact disjoint cover by basis vectors contained in it; on success
    /// marks the covering rectangles' membership bit for shuffled row `t`
    /// and returns `true`.
    fn exact_cover_step(&mut self, t: usize, config: &PackingConfig) -> bool {
        let cs = self.cstride;
        let rs = self.rstride;
        let setup = Instant::now();
        self.candidates.clear();
        self.builder.reset(kernel::count(&self.residue), 0);
        for k in 0..self.nrect {
            let cols = &self.rect_cols[k * cs..(k + 1) * cs];
            if !kernel::is_zero(cols) && kernel::is_subset(cols, &self.residue) {
                // Item index of column `c` = its rank among the row's 1s.
                self.cover_items.clear();
                self.cover_items
                    .extend(kernel::ones(cols).map(|c| kernel::rank(&self.residue, c)));
                self.builder.add_row(&self.cover_items);
                self.candidates.push(k);
            }
        }
        if self.candidates.is_empty() {
            return false;
        }
        self.builder.build_into(&mut self.dlx);
        obs::registry()
            .histogram(obs::names::KERNEL_US_DLX_SETUP)
            .record(setup.elapsed().as_micros() as u64);
        let rect_rows = &mut self.rect_rows;
        let candidates = &self.candidates;
        let mut found = false;
        self.dlx.run(config.exact_cover_budget, |sol| {
            for &r in sol {
                let k = candidates[r];
                rect_rows[k * rs + t / 64] |= 1 << (t % 64);
            }
            found = true;
            false
        });
        found
    }

    /// Materializes the workspace as a [`Partition`] in original row
    /// coordinates, undoing the trial's shuffle (Algorithm 2 line 17).
    fn to_partition(&self, m: &BitMatrix, order: &[usize]) -> Partition {
        let mut out = Partition::empty(m.nrows(), m.ncols());
        for k in 0..self.nrect {
            let row_words = &self.rect_rows[k * self.rstride..(k + 1) * self.rstride];
            let rows = BitVec::from_indices(m.nrows(), kernel::ones(row_words).map(|t| order[t]));
            let col_words = self.rect_cols[k * self.cstride..(k + 1) * self.cstride].to_vec();
            out.push(Rectangle::new(
                rows,
                BitVec::from_words(m.ncols(), col_words),
            ));
        }
        out
    }
}

/// One pass of row packing (Algorithm 2) with an explicit row order:
/// `order[t]` is the original index of the row processed `t`-th. This is the
/// entry point used to reproduce the two trials of paper Fig. 3.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..m.nrows()`.
pub fn row_packing_once(m: &BitMatrix, order: &[usize], config: &PackingConfig) -> Partition {
    let mut ws = PackWorkspace::new();
    ws.run_trial(m, order, config);
    ws.to_partition(m, order)
}

/// Full row-packing heuristic: `trials` passes over shuffled row orders (and
/// the transpose, when configured), returning the best partition found,
/// never worse than [`trivial_partition`].
pub fn row_packing(m: &BitMatrix, config: &PackingConfig) -> Partition {
    let mut best = trivial_partition(m);
    if best.len() > 1 {
        let mut ws = PackWorkspace::new();
        run_orientations(m, config, &mut ws, &mut best);
    }
    best
}

/// Multi-trial row packing for a race driver: equivalent to running
/// [`row_packing`] with single-trial configs seeded `seed`, `seed+1`, … and
/// keeping the best result, but with the trivial baseline, the transpose and
/// the trial workspace hoisted out of the loop. Stops as soon as the best
/// partition reaches `floor`, a known lower bound on the binary rank (pass
/// 1 when none is known: a nonzero matrix needs at least one rectangle).
/// Polls `cancel` between trials, so a budget expiry overruns by at most
/// one trial; at least one trial always completes unless the trivial
/// partition already meets the floor.
pub fn row_packing_cancellable(
    m: &BitMatrix,
    config: &PackingConfig,
    floor: usize,
    cancel: &CancelToken,
) -> Partition {
    let mut best = trivial_partition(m);
    let mut ws = PackWorkspace::new();
    let outer = match config.order {
        RowOrder::Shuffle => config.trials.max(1),
        // Deterministic orders: extra trials are identical.
        RowOrder::SparsestFirst | RowOrder::Natural => 1,
    };
    for t in 0..outer as u64 {
        if best.len() <= floor {
            break; // cannot improve further
        }
        if t > 0 && cancel.is_cancelled() {
            break;
        }
        let per_trial = PackingConfig {
            trials: 1,
            seed: config.seed.wrapping_add(t),
            ..*config
        };
        run_orientations(m, &per_trial, &mut ws, &mut best);
    }
    best
}

/// Runs `config.trials` packing passes on `m` (and its transpose, when
/// configured), improving `best` in place. One `StdRng` seeded from
/// `config.seed` drives every shuffle, both orientations included, matching
/// the historical trial stream exactly.
fn run_orientations(
    m: &BitMatrix,
    config: &PackingConfig,
    ws: &mut PackWorkspace,
    best: &mut Partition,
) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let orientations: &[bool] = if config.transpose {
        &[false, true]
    } else {
        &[false]
    };
    for &transposed in orientations {
        let target: &BitMatrix = if transposed { m.transposed() } else { m };
        let trials = match config.order {
            RowOrder::Shuffle => config.trials,
            // Deterministic orders: extra trials are identical.
            RowOrder::SparsestFirst | RowOrder::Natural => 1,
        };
        for _ in 0..trials {
            let order: Vec<usize> = match config.order {
                RowOrder::Shuffle => random_permutation(target.nrows(), &mut rng),
                RowOrder::Natural => (0..target.nrows()).collect(),
                RowOrder::SparsestFirst => {
                    let mut idx: Vec<usize> = (0..target.nrows()).collect();
                    idx.sort_by_key(|&i| target.row(i).count_ones());
                    idx
                }
            };
            if ws.run_trial(target, &order, config) < best.len() {
                let p = ws.to_partition(target, &order);
                *best = if transposed {
                    transpose_partition(&p)
                } else {
                    p
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1b() -> BitMatrix {
        "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap()
    }

    /// The 5×5 matrix of paper Fig. 3 (rows r0..r4).
    fn fig3() -> BitMatrix {
        "11000\n00110\n01100\n10011\n11111".parse().unwrap()
    }

    #[test]
    fn trivial_on_fig1b_gives_five_via_duplicate_columns() {
        // All six rows are distinct, but columns 0 and 2 coincide, so the
        // column orientation needs only 5 rectangles.
        let m = fig1b();
        let p = trivial_partition(&m);
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn trivial_merges_duplicates_and_empty() {
        let m: BitMatrix = "1100\n0000\n1100\n0011".parse().unwrap();
        let p = trivial_partition(&m);
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn trivial_prefers_smaller_side() {
        // 4 distinct rows but only 2 distinct nonzero columns.
        let m: BitMatrix = "10\n01\n11\n10".parse().unwrap();
        let p = trivial_partition(&m);
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn fig3_natural_order_gives_five_rectangles() {
        // Paper Fig. 3a: processing rows 0..4 in order yields 5 rectangles.
        let m = fig3();
        let cfg = PackingConfig::default();
        let p = row_packing_once(&m, &[0, 1, 2, 3, 4], &cfg);
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn fig3_alternative_order_gives_four_rectangles() {
        // Paper Fig. 3b: processing r4 (all-ones), r2, r3, r0, r1 packs the
        // matrix into 4 rectangles thanks to the basis update.
        let m = fig3();
        let cfg = PackingConfig::default();
        let p = row_packing_once(&m, &[4, 2, 3, 0, 1], &cfg);
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 4, "\n{p}");
    }

    #[test]
    fn packing_beats_or_ties_trivial_everywhere() {
        let matrices = [fig1b(), fig3()];
        for m in &matrices {
            let t = trivial_partition(m).len();
            let p = row_packing(m, &PackingConfig::with_trials(5));
            assert!(p.validate(m).is_ok());
            assert!(p.len() <= t, "packing {} worse than trivial {t}", p.len());
        }
    }

    #[test]
    fn packing_fig1b_reaches_five() {
        let m = fig1b();
        let p = row_packing(&m, &PackingConfig::with_trials(50));
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 5, "optimal partition of Fig. 1b has 5 rectangles");
    }

    #[test]
    fn duplicate_rows_share_rectangles() {
        let m: BitMatrix = "1111\n1111\n1111".parse().unwrap();
        let p = row_packing(&m, &PackingConfig::with_trials(1));
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn zero_matrix_gives_empty_partition() {
        let m = BitMatrix::zeros(4, 4);
        let p = row_packing(&m, &PackingConfig::with_trials(1));
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 0);
        assert_eq!(trivial_partition(&m).len(), 0);
    }

    #[test]
    fn identity_needs_n_rectangles() {
        let m = BitMatrix::identity(6);
        let p = row_packing(&m, &PackingConfig::with_trials(3));
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn basis_update_can_matter() {
        // Fig. 3b relies on the basis update; with it disabled, the same
        // order must not produce fewer rectangles (and produces more here).
        let m = fig3();
        let with = row_packing_once(&m, &[4, 2, 3, 0, 1], &PackingConfig::default());
        let without_cfg = PackingConfig {
            basis_update: false,
            ..PackingConfig::default()
        };
        let without = row_packing_once(&m, &[4, 2, 3, 0, 1], &without_cfg);
        assert!(with.validate(&m).is_ok());
        assert!(without.validate(&m).is_ok());
        assert!(with.len() <= without.len());
        assert_eq!(with.len(), 4);
        assert_eq!(without.len(), 5);
    }

    #[test]
    fn exact_cover_decomposition_beats_greedy_order_miss() {
        // Construct the miss from §III-B: basis v0={0,1}, v1={1,2} … means
        // greedy in basis order can pick v0 first and fail where v1+v2 would
        // have worked. Matrix: rows r0={0,1,2,3}? Keep it small:
        //   r0 = 1100, r1 = 0011, r2 = 1110 … natural order:
        //   basis v0=1100, v1=0011, then r2: v0 ⊆ r2? 1100 ⊆ 1110 ✓ →
        //   residue 0010 → new basis (3 rects).
        // With rows r0=1100, r1=0110, r2=1111 natural order: v0 ⊆ r2 →
        // residue 0011; v1=0110 ⊄ 0011 → residue stays → 0011 new basis
        // (but exact cover over {1100, 0110} of 1111 does not exist either).
        // A real greedy-order miss: v0=1111? Use the paper's r4 example —
        // basis order {v0=11000, v1=00110, v2=01100, v3=10011},
        // row 11111: greedy takes v0 → 00111, v1 ⊆? 00110 ⊆ 00111 ✓ →
        // 00001 residue. Exact cover finds v2+v3 = 01100+10011 = 11111. ✓
        let m = fig3();
        let cfg_greedy = PackingConfig::default();
        let greedy = row_packing_once(&m, &[0, 1, 2, 3, 4], &cfg_greedy);
        assert_eq!(greedy.len(), 5);

        let cfg_dlx = PackingConfig {
            exact_cover: true,
            ..PackingConfig::default()
        };
        let dlx = row_packing_once(&m, &[0, 1, 2, 3, 4], &cfg_dlx);
        assert!(dlx.validate(&m).is_ok());
        assert_eq!(dlx.len(), 4, "exact cover finds r4 = v2 + v3\n{dlx}");
    }

    #[test]
    fn sparsest_first_order_is_deterministic() {
        let m = fig3();
        let cfg = PackingConfig {
            order: RowOrder::SparsestFirst,
            trials: 7,
            ..PackingConfig::default()
        };
        let a = row_packing(&m, &cfg);
        let b = row_packing(&m, &cfg);
        assert_eq!(a.len(), b.len());
        assert!(a.validate(&m).is_ok());
    }

    #[test]
    fn packing_is_reproducible_per_seed() {
        let m = fig1b();
        let cfg = PackingConfig {
            trials: 4,
            seed: 123,
            ..PackingConfig::default()
        };
        let a = row_packing(&m, &cfg);
        let b = row_packing(&m, &cfg);
        assert_eq!(a, b);
    }

    /// The cancellable multi-trial driver must agree with the equivalent
    /// sequence of single-trial `row_packing` calls (same seeds, same best).
    #[test]
    fn cancellable_matches_single_trial_sequence() {
        let matrices = [fig1b(), fig3(), BitMatrix::identity(6)];
        for m in &matrices {
            for exact_cover in [false, true] {
                let trials = 6;
                let multi = row_packing_cancellable(
                    m,
                    &PackingConfig {
                        trials,
                        exact_cover,
                        ..PackingConfig::default()
                    },
                    1,
                    &CancelToken::new(),
                );
                let mut best = trivial_partition(m);
                for t in 0..trials as u64 {
                    let cfg = PackingConfig {
                        trials: 1,
                        seed: PackingConfig::default().seed.wrapping_add(t),
                        exact_cover,
                        ..PackingConfig::default()
                    };
                    let p = row_packing(m, &cfg);
                    if p.len() < best.len() {
                        best = p;
                    }
                }
                assert!(multi.validate(m).is_ok());
                assert_eq!(multi.len(), best.len(), "exact_cover={exact_cover}\n{m}");
            }
        }
    }

    #[test]
    fn cancelled_token_still_yields_a_valid_partition() {
        let m = fig1b();
        let token = CancelToken::new();
        token.cancel();
        let p = row_packing_cancellable(&m, &PackingConfig::with_trials(64), 1, &token);
        assert!(p.validate(&m).is_ok());
        assert!(p.len() <= trivial_partition(&m).len());
    }

    #[test]
    fn cancellable_packing_stops_at_the_floor() {
        // Fig. 3's trivial partition has 5 rectangles and packing finds 4:
        // a floor of 5 is already met, so no trial runs.
        let m = fig3();
        let cfg = PackingConfig::with_trials(64);
        let token = CancelToken::new();
        assert_eq!(trivial_partition(&m).len(), 5);
        assert_eq!(row_packing_cancellable(&m, &cfg, 5, &token).len(), 5);
        assert_eq!(row_packing_cancellable(&m, &cfg, 4, &token).len(), 4);
    }
}
