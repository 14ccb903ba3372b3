//! SAT encoding of the EBMF decision problem `r_B(M) ≤ b`.
//!
//! The paper encodes the problem in SMT (uninterpreted function `f` from
//! 1-cells to bit-vector rectangle labels, constrained by its Eq. 4). Here
//! the same constraint system is expressed propositionally for the in-repo
//! CDCL solver:
//!
//! * one Boolean `x[e][k]` per 1-cell `e` and label `k < b`, with an
//!   exactly-one row per cell (`f(e) = k ⇔ x[e][k]`);
//! * for every unordered pair of 1-cells `(i,j)`, `(i',j')` with `i ≠ i'`
//!   and `j ≠ j'`, looking at the two *corners* `(i,j')` and `(i',j)`:
//!   if either corner is a 0 of `M`, the cells must get different labels
//!   (they cannot share a rectangle); otherwise each corner is itself a
//!   1-cell and must join the shared label (the closure property, Eq. 1):
//!   `(x[e][k] ∧ x[e'][k]) → x[corner][k]`;
//! * *value-precedence symmetry breaking*: labels are interchangeable, so
//!   we require label `k` to be introduced (in cell order) only after label
//!   `k−1` — this prunes the `b!` relabelings that make the plain encoding
//!   needlessly pigeonhole-hard;
//! * **don't-cares** (vacancies in the atom array, paper §VI): cells marked
//!   don't-care carry no variable and impose no corner constraint — a
//!   rectangle may cover them any number of times.
//!
//! The `narrow` method implements the paper's `narrow_down_depth`
//! (Algorithm 1 line 8): banning the top label by unit clauses and
//! re-solving incrementally.

use std::time::Instant;

use bitmatrix::{kernel, BitMatrix};
use sat::{CancelToken, SolveResult, Solver, SolverStats, Var};

use crate::{Partition, Rectangle};

/// Classification of grid cells for the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellStatus {
    /// Must be covered exactly once.
    One(usize), // cell index
    /// Must never be covered.
    Zero,
    /// May be covered any number of times (vacancy).
    DontCare,
}

/// How the per-cell at-most-one-label constraint is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmoEncoding {
    /// One binary clause per label pair: `O(b²)` clauses, no auxiliary
    /// variables. Best for the paper's small bounds (b ≤ ~30).
    #[default]
    Pairwise,
    /// Sinz's sequential (ladder) encoding: `O(b)` clauses and `b − 1`
    /// auxiliary variables per cell. Preferable for large label counts.
    Sequential,
}

/// Full encoder configuration (used by [`EbmfEncoder::with_encoder_options`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderOptions {
    /// The label bound `b` of the query `r_B(M) ≤ b`.
    pub bound: usize,
    /// Emit value-precedence symmetry-breaking clauses.
    pub symmetry_breaking: bool,
    /// At-most-one encoding for the per-cell label constraint.
    pub amo: AmoEncoding,
    /// Record a clausal proof so UNSAT answers can be independently
    /// verified (see [`EbmfEncoder::verify_unsat_proof`]).
    pub proof_logging: bool,
    /// Encode the depth bound through **assumption selector literals**
    /// instead of permanent ban clauses: one selector `off[k]` per label with
    /// `off[k] → ¬x[e][k]`, so [`EbmfEncoder::solve_at`] can query any bound
    /// `≤ capacity` — including re-widening after an UNSAT answer — while
    /// every learnt clause stays valid and is reused across queries. This is
    /// the warm-start substrate of the engine's per-canonical-class SAP
    /// sessions.
    pub assumption_bounds: bool,
}

impl EncoderOptions {
    /// Defaults matching [`EbmfEncoder::new`]: symmetry breaking on,
    /// pairwise AMO.
    pub fn new(bound: usize) -> Self {
        EncoderOptions {
            bound,
            symmetry_breaking: true,
            amo: AmoEncoding::Pairwise,
            proof_logging: false,
            assumption_bounds: false,
        }
    }

    /// Returns a copy with proof logging enabled.
    pub fn with_proof_logging(mut self) -> Self {
        self.proof_logging = true;
        self
    }

    /// Returns a copy with assumption-encoded bounds enabled.
    pub fn with_assumption_bounds(mut self) -> Self {
        self.assumption_bounds = true;
        self
    }
}

/// Incremental SAT encoder for `r_B(M) ≤ b` queries.
///
/// # Examples
///
/// ```
/// use bitmatrix::BitMatrix;
/// use rect_addr_ebmf::EbmfEncoder;
///
/// let m: BitMatrix = "110\n011\n111".parse()?; // paper Eq. (2): r_B = 3
/// let mut enc = EbmfEncoder::new(&m, 3);
/// let p = enc.solve_partition().expect("3 rectangles suffice");
/// assert!(p.validate(&m).is_ok());
/// enc.narrow(2);
/// assert!(enc.solve_partition().is_none(), "2 rectangles are too few");
/// # Ok::<(), bitmatrix::ParseMatrixError>(())
/// ```
#[derive(Debug)]
pub struct EbmfEncoder {
    solver: Solver,
    shape: (usize, usize),
    /// 1-cells in row-major order.
    cells: Vec<(usize, usize)>,
    /// Status of every grid cell (indexing 1-cells).
    status: Vec<Vec<CellStatus>>,
    /// Labels allocated at construction.
    capacity: usize,
    /// Labels currently allowed (`narrow` lowers this).
    bound: usize,
    /// Flat `cells.len() × capacity` variable table.
    vars: Vec<Var>,
    /// The options this encoder was built with (capacity in
    /// `options.bound`) — what a byte-identical rebuild needs.
    options: EncoderOptions,
    /// Per-label "ban" selectors (assumption-bound mode only): assuming
    /// `bound_selectors[k]` positive forbids label `k`.
    bound_selectors: Vec<Var>,
    /// Whether the last `solve` returned SAT (enables extraction).
    last_sat: bool,
}

impl EbmfEncoder {
    /// Builds the encoding of `r_B(m) ≤ bound` with symmetry breaking.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` while `m` has at least one 1-cell.
    pub fn new(m: &BitMatrix, bound: usize) -> Self {
        Self::with_options(m, None, bound, true)
    }

    /// Like [`EbmfEncoder::new`] but cells set in `dont_care` are vacancies:
    /// they carry no coverage obligation and rectangles may overlap on them.
    /// `m` and `dont_care` must not both be 1 at any cell.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or on a cell that is both 1 and don't-care.
    pub fn with_dont_cares(m: &BitMatrix, dont_care: &BitMatrix, bound: usize) -> Self {
        Self::with_options(m, Some(dont_care), bound, true)
    }

    /// Constructor with symmetry-breaking control (pairwise AMO); kept for
    /// the ablation benchmarks.
    ///
    /// # Panics
    ///
    /// See [`EbmfEncoder::new`] / [`EbmfEncoder::with_dont_cares`].
    pub fn with_options(
        m: &BitMatrix,
        dont_care: Option<&BitMatrix>,
        bound: usize,
        symmetry_breaking: bool,
    ) -> Self {
        Self::with_encoder_options(
            m,
            dont_care,
            EncoderOptions {
                bound,
                symmetry_breaking,
                ..EncoderOptions::new(bound)
            },
        )
    }

    /// Full-control constructor: bound, symmetry breaking and the
    /// at-most-one encoding (see [`EncoderOptions`]).
    ///
    /// # Panics
    ///
    /// See [`EbmfEncoder::new`] / [`EbmfEncoder::with_dont_cares`].
    pub fn with_encoder_options(
        m: &BitMatrix,
        dont_care: Option<&BitMatrix>,
        options: EncoderOptions,
    ) -> Self {
        Self::with_encoder_options_cancellable(m, dont_care, options, None)
            .expect("a build without a cancel token always completes")
    }

    /// [`EbmfEncoder::with_encoder_options`] under a cancel token, polled
    /// once per 1-cell of each clause-emission loop and once per label
    /// among the bound selectors. The pair loop emits `O(cells² · bound)`
    /// clauses and dominates large builds. Returns `None` once the token
    /// reads as cancelled, keeping no partial encoding.
    ///
    /// # Panics
    ///
    /// See [`EbmfEncoder::new`] / [`EbmfEncoder::with_dont_cares`].
    #[allow(clippy::needless_range_loop)] // parallel cell/label tables
    pub fn with_encoder_options_cancellable(
        m: &BitMatrix,
        dont_care: Option<&BitMatrix>,
        options: EncoderOptions,
        cancel: Option<&CancelToken>,
    ) -> Option<Self> {
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let EncoderOptions {
            bound,
            symmetry_breaking,
            amo,
            proof_logging,
            assumption_bounds,
        } = options;
        let (nrows, ncols) = m.shape();
        if let Some(dc) = dont_care {
            assert_eq!(dc.shape(), m.shape(), "don't-care mask shape mismatch");
            assert!(
                m.and(dc).is_zero(),
                "a cell cannot be both 1 and don't-care"
            );
        }
        let cells = m.ones_positions();
        assert!(
            bound > 0 || cells.is_empty(),
            "bound 0 with nonempty matrix is trivially UNSAT; handle upstream"
        );
        let mut status = vec![vec![CellStatus::Zero; ncols]; nrows];
        for (e, &(i, j)) in cells.iter().enumerate() {
            status[i][j] = CellStatus::One(e);
        }
        if let Some(dc) = dont_care {
            for (i, j) in dc.ones_positions() {
                status[i][j] = CellStatus::DontCare;
            }
        }

        let t = cells.len();
        let mut solver = Solver::new();
        if proof_logging {
            solver.enable_proof_logging();
        }
        let vars: Vec<Var> = (0..t * bound).map(|_| solver.new_var()).collect();
        let var = |e: usize, k: usize| vars[e * bound + k];

        // Exactly-one label per cell: at-least-one plus the configured AMO.
        for e in 0..t {
            if cancelled() {
                return None;
            }
            solver.add_clause((0..bound).map(|k| var(e, k).positive()));
            match amo {
                AmoEncoding::Pairwise => {
                    for k1 in 0..bound {
                        for k2 in (k1 + 1)..bound {
                            solver.add_clause([var(e, k1).negative(), var(e, k2).negative()]);
                        }
                    }
                }
                AmoEncoding::Sequential => {
                    if bound > 1 {
                        // s[k] ⇔ "some label ≤ k is chosen" (one-directional
                        // ladder suffices for AMO).
                        let s: Vec<Var> = (0..bound - 1).map(|_| solver.new_var()).collect();
                        for k in 0..bound - 1 {
                            solver.add_clause([var(e, k).negative(), s[k].positive()]);
                        }
                        for k in 1..bound - 1 {
                            solver.add_clause([s[k - 1].negative(), s[k].positive()]);
                        }
                        for k in 1..bound {
                            solver.add_clause([var(e, k).negative(), s[k - 1].negative()]);
                        }
                    }
                }
            }
        }

        // Pair constraints (Eq. 4 both orderings, deduplicated). The pairs
        // run over 1-cells in row-major order, so corners are classified a
        // row pair at a time with word masks: for cells (i1,j1), (i2,j2)
        // with i1 < i2, corner (i1,j2) is a hard 0 iff j2 falls in
        // `J_{i2} & ~care_{i1}` (precomputed once per row pair), and corner
        // (i2,j1) classifies with two bit tests that are constant across
        // row i2's inner loop. Cell indices come from popcount ranks, so no
        // per-pair status-table lookups remain. Clause emission order is
        // identical to the naive double loop over cell pairs.
        let pair_start = Instant::now();
        let stride = m.stride();
        // care[i] = columns whose (i, ·) cell is a 1 or a don't-care; a
        // corner outside the set is a hard 0.
        let mut care: Vec<u64> = vec![0; nrows * stride];
        for i in 0..nrows {
            let dst = &mut care[i * stride..(i + 1) * stride];
            dst.copy_from_slice(m.row_words(i));
            if let Some(dc) = dont_care {
                kernel::or_assign(dst, dc.row_words(i));
            }
        }
        // row_cell_start[i] = index of row i's first 1-cell in `cells`.
        let mut row_cell_start = vec![0usize; nrows + 1];
        for i in 0..nrows {
            row_cell_start[i + 1] = row_cell_start[i] + kernel::count(m.row_words(i));
        }
        // a_zero[i2] = columns of J_{i2} whose (i1, ·) corner is a hard 0;
        // rebuilt for each outer row i1.
        let mut a_zero: Vec<u64> = vec![0; nrows * stride];
        for i1 in 0..nrows {
            let ones1 = m.row_words(i1);
            if kernel::is_zero(ones1) {
                continue;
            }
            let care1 = &care[i1 * stride..(i1 + 1) * stride];
            for i2 in (i1 + 1)..nrows {
                let dst = &mut a_zero[i2 * stride..(i2 + 1) * stride];
                dst.copy_from_slice(m.row_words(i2));
                kernel::andnot_assign(dst, care1);
            }
            for (r1, j1) in kernel::ones(ones1).enumerate() {
                if cancelled() {
                    return None;
                }
                let e1 = row_cell_start[i1] + r1;
                let (w1, b1) = (j1 / 64, 1u64 << (j1 % 64));
                for i2 in (i1 + 1)..nrows {
                    let ones2 = m.row_words(i2);
                    if kernel::is_zero(ones2) {
                        continue;
                    }
                    // Corner (i2, j1) is shared by every pair of this row.
                    let b_zero = care[i2 * stride + w1] & b1 == 0;
                    let eb =
                        (ones2[w1] & b1 != 0).then(|| row_cell_start[i2] + kernel::rank(ones2, j1));
                    let az = &a_zero[i2 * stride..(i2 + 1) * stride];
                    for (r2, j2) in kernel::ones(ones2).enumerate() {
                        if j1 == j2 {
                            continue; // same column: no corner constraint
                        }
                        let e2 = row_cell_start[i2] + r2;
                        let (w2, b2) = (j2 / 64, 1u64 << (j2 % 64));
                        if b_zero || az[w2] & b2 != 0 {
                            // A 0-corner: the cells can never share a
                            // rectangle.
                            for k in 0..bound {
                                solver.add_clause([var(e1, k).negative(), var(e2, k).negative()]);
                            }
                            continue;
                        }
                        // Closure towards each 1-corner ((i1,j2) first, then
                        // (i2,j1)); don't-care corners are free.
                        if ones1[w2] & b2 != 0 {
                            let ea = row_cell_start[i1] + kernel::rank(ones1, j2);
                            for k in 0..bound {
                                solver.add_clause([
                                    var(e1, k).negative(),
                                    var(e2, k).negative(),
                                    var(ea, k).positive(),
                                ]);
                            }
                        }
                        if let Some(eb) = eb {
                            for k in 0..bound {
                                solver.add_clause([
                                    var(e1, k).negative(),
                                    var(e2, k).negative(),
                                    var(eb, k).positive(),
                                ]);
                            }
                        }
                    }
                }
            }
        }
        obs::registry()
            .histogram(obs::names::KERNEL_US_ENCODE_PAIRS)
            .record(pair_start.elapsed().as_micros() as u64);

        // Value-precedence symmetry breaking: cell 0 uses label 0; cell t
        // may open label k only if some earlier cell opened label k−1.
        if symmetry_breaking && t > 0 {
            for k in 1..bound {
                solver.add_clause([var(0, k).negative()]);
            }
            for e in 1..t {
                if cancelled() {
                    return None;
                }
                for k in 1..bound {
                    if k > e {
                        solver.add_clause([var(e, k).negative()]);
                    } else {
                        let mut clause = vec![var(e, k).negative()];
                        clause.extend((0..e).map(|s| var(s, k - 1).positive()));
                        solver.add_clause(clause);
                    }
                }
            }
        }

        // Assumption-bound mode: one ban selector per label. The clauses
        // `off[k] → ¬x[e][k]` are inert until a query assumes `off[k]`, so
        // the same clause database answers every bound `≤ capacity`.
        let bound_selectors: Vec<Var> = if assumption_bounds {
            let off: Vec<Var> = (0..bound).map(|_| solver.new_var()).collect();
            for (k, &sel) in off.iter().enumerate() {
                if cancelled() {
                    return None;
                }
                for e in 0..t {
                    solver.add_clause([sel.negative(), var(e, k).negative()]);
                }
            }
            off
        } else {
            Vec::new()
        };

        Some(EbmfEncoder {
            solver,
            shape: (nrows, ncols),
            cells,
            status,
            capacity: bound,
            bound,
            vars,
            options,
            bound_selectors,
            last_sat: false,
        })
    }

    /// The options this encoder was built with — enough to reconstruct a
    /// byte-identical encoding (same variable numbering), which is what
    /// makes an exported learnt-clause core re-importable.
    pub fn options(&self) -> EncoderOptions {
        self.options
    }

    /// Exports the solver's learnt-clause core as DIMACS-coded literals
    /// (see [`sat::Solver::export_core`]): unconditional units plus up to
    /// `max_clauses` of the strongest learnt clauses. Reinject into an
    /// encoder rebuilt with the **same matrix and options** via
    /// [`EbmfEncoder::import_core`].
    pub fn export_core(&self, max_clauses: usize) -> Vec<Vec<i64>> {
        self.solver
            .export_core(max_clauses)
            .into_iter()
            .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
            .collect()
    }

    /// Reinjects a core exported by [`EbmfEncoder::export_core`] on an
    /// identically-built encoder. Structurally invalid cores (zero or
    /// out-of-range literals) are rejected wholesale.
    ///
    /// # Errors
    ///
    /// Returns a description of the structural problem; the encoding is
    /// unchanged in that case.
    pub fn import_core(&mut self, core: &[Vec<i64>]) -> Result<usize, String> {
        let nvars = self.solver.num_vars() as i64;
        let mut lits: Vec<Vec<sat::Lit>> = Vec::with_capacity(core.len());
        for clause in core {
            let mut out = Vec::with_capacity(clause.len());
            for &v in clause {
                if v == 0 || v.unsigned_abs() > nvars as u64 {
                    return Err(format!("core literal {v} out of range (±1..={nvars})"));
                }
                out.push(sat::Lit::from_dimacs(v));
            }
            lits.push(out);
        }
        self.solver.import_core(&lits)
    }

    /// Like [`EbmfEncoder::import_core`], but each clause is **re-derived**
    /// before it is accepted (see [`sat::Solver::import_core_derived`]): a
    /// bounded refutation of its negation justifies it, so under proof
    /// logging it enters the trace as a checked lemma — never as an
    /// unjustified axiom. Clauses the effort budget cannot re-derive are
    /// dropped, costing warm-start quality but never soundness.
    ///
    /// # Errors
    ///
    /// Returns a description of the structural problem (zero or out-of-range
    /// literals); the encoding is unchanged in that case.
    pub fn import_core_derived(&mut self, core: &[Vec<i64>], effort: u64) -> Result<usize, String> {
        let nvars = self.solver.num_vars() as i64;
        let mut lits: Vec<Vec<sat::Lit>> = Vec::with_capacity(core.len());
        for clause in core {
            let mut out = Vec::with_capacity(clause.len());
            for &v in clause {
                if v == 0 || v.unsigned_abs() > nvars as u64 {
                    return Err(format!("core literal {v} out of range (±1..={nvars})"));
                }
                out.push(sat::Lit::from_dimacs(v));
            }
            lits.push(out);
        }
        self.solver.import_core_derived(&lits, effort)
    }

    /// A self-contained refutation of the last UNSAT answer (see
    /// [`sat::Solver::refutation_proof`]), or `None` when proof logging is
    /// off or the last answer was not UNSAT. Under assumption-encoded bounds
    /// the active bound selectors become unit axioms of the returned proof,
    /// so it certifies exactly the query `r_B(M) ≤ b` that was refuted.
    pub fn unsat_refutation(&self) -> Option<sat::Proof> {
        self.solver.refutation_proof()
    }

    /// The current label bound `b` of the encoded query `r_B(M) ≤ b`.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The label capacity the encoding was built with (the ceiling of
    /// [`EbmfEncoder::solve_at`] queries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Limits each subsequent solve to `budget` conflicts (anytime mode).
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.solver.set_conflict_budget(budget);
    }

    /// Installs a resumable conflict pool shared across
    /// [`EbmfEncoder::solve_at`] queries (see
    /// [`Solver::set_resumable_budget`](sat::Solver::set_resumable_budget)).
    pub fn set_resumable_budget(&mut self, budget: Option<u64>) {
        self.solver.set_resumable_budget(budget);
    }

    /// Tops up the resumable conflict pool.
    pub fn add_budget(&mut self, extra: u64) {
        self.solver.add_budget(extra);
    }

    /// Conflicts left in the resumable pool (`None` = no pool).
    pub fn remaining_budget(&self) -> Option<u64> {
        self.solver.remaining_budget()
    }

    /// Installs (or clears) a cooperative interrupt on the underlying SAT
    /// solver: once the token trips, the in-flight query answers
    /// [`SolveResult::Unknown`] at its next conflict or decision. This is
    /// the cancellation hook the `rect-addr-engine` portfolio runner uses to
    /// stop a SAT search whose budget has expired.
    pub fn set_interrupt(&mut self, token: Option<sat::CancelToken>) {
        self.solver.set_interrupt(token);
    }

    /// Statistics of the underlying SAT solver.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Lowers the bound to `new_bound`. In the default (permanent-clause)
    /// mode all higher labels are banned by unit clauses — the paper's
    /// `narrow_down_depth`, incremental because learnt clauses are kept. In
    /// assumption-bound mode nothing is added: the next solve simply assumes
    /// the ban selectors of the excluded labels.
    ///
    /// # Panics
    ///
    /// Panics if `new_bound` exceeds the current bound.
    pub fn narrow(&mut self, new_bound: usize) {
        assert!(
            new_bound <= self.bound,
            "cannot widen the bound ({new_bound} > {})",
            self.bound
        );
        if self.bound_selectors.is_empty() {
            for k in new_bound..self.bound {
                for e in 0..self.cells.len() {
                    let v = self.vars[e * self.capacity + k];
                    self.solver.add_clause([v.negative()]);
                }
            }
        }
        self.bound = new_bound;
        self.last_sat = false;
    }

    /// Runs the SAT query for the current bound.
    pub fn solve(&mut self) -> SolveResult {
        if self.cells.is_empty() {
            self.last_sat = true;
            return SolveResult::Sat;
        }
        if self.bound == 0 {
            self.last_sat = false;
            return SolveResult::Unsat;
        }
        if !self.bound_selectors.is_empty() {
            return self.solve_at(self.bound);
        }
        let res = self.solver.solve();
        self.last_sat = res.is_sat();
        res
    }

    /// Queries `r_B(M) ≤ bound` through the assumption selectors, drawing
    /// conflicts from the resumable pool when one is installed. Unlike
    /// [`EbmfEncoder::narrow`] + [`EbmfEncoder::solve`], the bound may move
    /// in **either** direction between calls, and every learnt clause is
    /// shared across all queries — this is the warm-start entry point.
    ///
    /// # Panics
    ///
    /// Panics if the encoder was not built with
    /// [`EncoderOptions::assumption_bounds`], or if `bound` exceeds the
    /// construction capacity.
    pub fn solve_at(&mut self, bound: usize) -> SolveResult {
        if self.cells.is_empty() {
            self.last_sat = true;
            return SolveResult::Sat;
        }
        assert!(
            !self.bound_selectors.is_empty(),
            "solve_at requires EncoderOptions::assumption_bounds"
        );
        assert!(
            bound <= self.capacity,
            "bound {bound} exceeds encoding capacity {}",
            self.capacity
        );
        self.bound = bound;
        if bound == 0 {
            self.last_sat = false;
            return SolveResult::Unsat;
        }
        let assumptions: Vec<sat::Lit> = self.bound_selectors[bound..]
            .iter()
            .map(|s| s.positive())
            .collect();
        // Draw from the resumable pool when one is installed; otherwise
        // honor the per-call budget of `set_conflict_budget` like `solve`
        // does, so switching encodings never silently unbounds a query.
        let res = if self.solver.remaining_budget().is_some() {
            self.solver.solve_under_assumptions(&assumptions)
        } else {
            self.solver.solve_with_assumptions(&assumptions)
        };
        self.last_sat = res.is_sat();
        res
    }

    /// Solves and extracts the partition on success.
    pub fn solve_partition(&mut self) -> Option<Partition> {
        match self.solve() {
            SolveResult::Sat => Some(self.extract_partition()),
            _ => None,
        }
    }

    /// Reads the partition out of the last SAT model, dropping unused
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics if the last solve did not return SAT.
    pub fn extract_partition(&self) -> Partition {
        assert!(self.last_sat, "no model available: last solve was not SAT");
        let (nrows, ncols) = self.shape;
        let model = self.solver.model();
        let mut groups: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.bound];
        for (e, &cell) in self.cells.iter().enumerate() {
            let k = (0..self.bound)
                .find(|&k| model[self.vars[e * self.capacity + k].index()])
                .expect("exactly-one constraint guarantees a label");
            groups[k].push(cell);
        }
        let mut p = Partition::empty(nrows, ncols);
        for g in groups.into_iter().filter(|g| !g.is_empty()) {
            p.push(Rectangle::from_cells(nrows, ncols, g));
        }
        p
    }

    /// Whether cell `(i, j)` is a don't-care for this encoder.
    pub fn is_dont_care(&self, i: usize, j: usize) -> bool {
        self.status[i][j] == CellStatus::DontCare
    }

    /// Verifies the recorded clausal proof of the last UNSAT answer with
    /// the independent RUP checker (requires
    /// [`EncoderOptions::proof_logging`]).
    ///
    /// # Errors
    ///
    /// Propagates the checker's [`sat::ProofError`].
    ///
    /// # Panics
    ///
    /// Panics if proof logging was not enabled at construction.
    pub fn verify_unsat_proof(&self) -> Result<(), sat::ProofError> {
        self.solver.verify_unsat_proof()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_rb(m: &BitMatrix, b: usize) -> Option<Partition> {
        EbmfEncoder::new(m, b).solve_partition()
    }

    #[test]
    fn eq2_matrix_needs_exactly_three() {
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        let p3 = solve_rb(&m, 3).expect("3 rectangles must suffice");
        assert!(p3.validate(&m).is_ok());
        assert!(p3.len() <= 3);
        assert!(
            solve_rb(&m, 2).is_none(),
            "binary rank of Eq. (2) matrix is 3"
        );
    }

    #[test]
    fn fig1b_matrix_needs_exactly_five() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let p = solve_rb(&m, 5).expect("5 rectangles suffice (paper Fig. 1b)");
        assert!(p.validate(&m).is_ok());
        assert!(solve_rb(&m, 4).is_none(), "fooling set of size 5 forbids 4");
    }

    #[test]
    fn all_ones_is_one_rectangle() {
        let m = BitMatrix::ones(4, 5);
        let p = solve_rb(&m, 1).expect("a full matrix is a single rectangle");
        assert!(p.validate(&m).is_ok());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn identity_needs_n() {
        let m = BitMatrix::identity(4);
        assert!(solve_rb(&m, 4).is_some());
        assert!(solve_rb(&m, 3).is_none());
    }

    #[test]
    fn empty_matrix_always_sat() {
        let m = BitMatrix::zeros(3, 3);
        let mut enc = EbmfEncoder::new(&m, 0);
        assert_eq!(enc.solve(), SolveResult::Sat);
        let p = enc.extract_partition();
        assert!(p.validate(&m).is_ok());
        assert!(p.is_empty());
    }

    #[test]
    fn narrow_walks_down_to_unsat() {
        // Identity 3: r_B = 3. Start at 5 and narrow down.
        let m = BitMatrix::identity(3);
        let mut enc = EbmfEncoder::new(&m, 5);
        assert_eq!(enc.solve(), SolveResult::Sat);
        let p = enc.extract_partition();
        assert_eq!(p.len(), 3, "unused labels are dropped on extraction");
        enc.narrow(3);
        assert_eq!(enc.solve(), SolveResult::Sat);
        enc.narrow(2);
        assert_eq!(enc.solve(), SolveResult::Unsat);
    }

    #[test]
    fn symmetry_breaking_preserves_answers() {
        let m: BitMatrix = "1101\n0111\n1011".parse().unwrap();
        for b in 1..=5 {
            let with = EbmfEncoder::with_options(&m, None, b, true).solve();
            let without = EbmfEncoder::with_options(&m, None, b, false).solve();
            assert_eq!(with, without, "bound {b}");
        }
    }

    #[test]
    fn extracted_partition_always_validates() {
        let m: BitMatrix = "10110\n11010\n00111\n10101".parse().unwrap();
        for b in 1..=6 {
            if let Some(p) = solve_rb(&m, b) {
                assert!(
                    p.validate(&m).is_ok(),
                    "bound {b} produced invalid partition"
                );
                assert!(p.len() <= b);
            }
        }
    }

    #[test]
    fn dont_cares_can_reduce_rectangles() {
        // M = I_2 with both off-diagonal cells don't-care: a single 2×2
        // rectangle covers everything (vacancies absorb the corners).
        let m = BitMatrix::identity(2);
        let dc: BitMatrix = "01\n10".parse().unwrap();
        assert!(solve_rb(&m, 1).is_none(), "plain identity needs 2");
        let mut enc = EbmfEncoder::with_dont_cares(&m, &dc, 1);
        assert_eq!(enc.solve(), SolveResult::Sat);
        let p = enc.extract_partition();
        assert_eq!(p.len(), 1);
        // The rectangle geometrically covers the don't-care corners —
        // allowed; validation against the care-matrix is done by
        // `completion::validate_completion`.
        assert!(enc.is_dont_care(0, 1));
    }

    #[test]
    fn dont_care_zero_corners_still_forbid() {
        // Only one off-diagonal is don't-care: the other corner is a hard 0,
        // so the two diagonal cells still cannot merge.
        let m = BitMatrix::identity(2);
        let dc: BitMatrix = "01\n00".parse().unwrap();
        let mut enc = EbmfEncoder::with_dont_cares(&m, &dc, 1);
        assert_eq!(enc.solve(), SolveResult::Unsat);
    }

    #[test]
    #[should_panic(expected = "both 1 and don't-care")]
    fn overlapping_one_and_dont_care_rejected() {
        let m = BitMatrix::ones(1, 1);
        let dc = BitMatrix::ones(1, 1);
        EbmfEncoder::with_dont_cares(&m, &dc, 1);
    }

    #[test]
    fn sequential_amo_agrees_with_pairwise() {
        let matrices: [BitMatrix; 3] = [
            "110\n011\n111".parse().unwrap(),
            BitMatrix::identity(4),
            "1101\n0111\n1011".parse().unwrap(),
        ];
        for m in &matrices {
            for b in 1..=5 {
                let mut pw = EbmfEncoder::with_encoder_options(
                    m,
                    None,
                    EncoderOptions {
                        bound: b,
                        symmetry_breaking: true,
                        amo: AmoEncoding::Pairwise,
                        ..EncoderOptions::new(b)
                    },
                );
                let mut seq = EbmfEncoder::with_encoder_options(
                    m,
                    None,
                    EncoderOptions {
                        bound: b,
                        symmetry_breaking: true,
                        amo: AmoEncoding::Sequential,
                        ..EncoderOptions::new(b)
                    },
                );
                assert_eq!(pw.solve(), seq.solve(), "bound {b} on\n{m}");
                if pw.solve().is_sat() {
                    let p = seq.extract_partition();
                    assert!(p.validate(m).is_ok(), "sequential model invalid, b={b}");
                }
            }
        }
    }

    #[test]
    fn sequential_amo_narrow_still_works() {
        let m = BitMatrix::identity(3);
        let mut enc = EbmfEncoder::with_encoder_options(
            &m,
            None,
            EncoderOptions {
                bound: 4,
                symmetry_breaking: true,
                amo: AmoEncoding::Sequential,
                ..EncoderOptions::new(4)
            },
        );
        assert!(enc.solve().is_sat());
        enc.narrow(3);
        assert!(enc.solve().is_sat());
        enc.narrow(2);
        assert!(enc.solve().is_unsat());
    }

    fn assumption_encoder(m: &BitMatrix, capacity: usize) -> EbmfEncoder {
        EbmfEncoder::with_encoder_options(
            m,
            None,
            EncoderOptions::new(capacity).with_assumption_bounds(),
        )
    }

    #[test]
    fn assumption_bounds_agree_with_permanent_narrowing() {
        let matrices: [BitMatrix; 3] = [
            "110\n011\n111".parse().unwrap(),
            BitMatrix::identity(4),
            "1101\n0111\n1011".parse().unwrap(),
        ];
        for m in &matrices {
            let mut warm = assumption_encoder(m, 6);
            for b in (1..=6).rev() {
                let cold = EbmfEncoder::new(m, b).solve();
                assert_eq!(warm.solve_at(b), cold, "bound {b} on\n{m}");
                if warm.solve_at(b).is_sat() {
                    let p = warm.extract_partition();
                    assert!(p.validate(m).is_ok(), "bound {b} model invalid");
                    assert!(p.len() <= b);
                }
            }
        }
    }

    #[test]
    fn assumption_bounds_can_rewiden_after_unsat() {
        // Permanent narrowing can never widen; the selector encoding can.
        let m = BitMatrix::identity(3);
        let mut enc = assumption_encoder(&m, 5);
        assert!(enc.solve_at(2).is_unsat());
        assert!(enc.solve_at(3).is_sat());
        assert!(enc.extract_partition().validate(&m).is_ok());
        assert!(enc.solve_at(2).is_unsat(), "learnt clauses stay sound");
    }

    #[test]
    fn assumption_bounds_resume_from_exhausted_pool() {
        // Identity 7 at bound 6 without symmetry breaking is pigeonhole-hard;
        // a tiny resumable pool must be exhausted at least once and, after
        // refills, conclude UNSAT using the clauses learnt in earlier slices.
        let m = BitMatrix::identity(7);
        let mut enc = EbmfEncoder::with_encoder_options(
            &m,
            None,
            EncoderOptions {
                symmetry_breaking: false,
                ..EncoderOptions::new(6).with_assumption_bounds()
            },
        );
        enc.set_resumable_budget(Some(20));
        let mut refills = 0u32;
        let result = loop {
            match enc.solve_at(6) {
                SolveResult::Unknown => {
                    assert_eq!(enc.remaining_budget(), Some(0));
                    enc.add_budget(20);
                    refills += 1;
                    assert!(refills < 10_000, "must terminate");
                }
                done => break done,
            }
        };
        assert!(result.is_unsat());
        assert!(refills > 0, "instance must exhaust the first pool slice");
    }

    #[test]
    fn assumption_bounds_honor_per_call_budget_without_pool() {
        // No resumable pool installed: solve_at must still respect the
        // per-call conflict budget instead of running unbounded.
        let m = BitMatrix::identity(7);
        let mut enc = EbmfEncoder::with_encoder_options(
            &m,
            None,
            EncoderOptions {
                symmetry_breaking: false,
                ..EncoderOptions::new(6).with_assumption_bounds()
            },
        );
        enc.set_conflict_budget(Some(10));
        assert_eq!(enc.solve_at(6), SolveResult::Unknown);
        enc.set_conflict_budget(None);
        assert!(enc.solve_at(6).is_unsat());
    }

    #[test]
    fn cancelled_build_returns_no_encoder() {
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        let opts = EncoderOptions::new(3).with_assumption_bounds();
        let token = CancelToken::new();
        let mut enc = EbmfEncoder::with_encoder_options_cancellable(&m, None, opts, Some(&token))
            .expect("an untripped token lets the build finish");
        assert_eq!(enc.solve_at(3), SolveResult::Sat);
        token.cancel();
        assert!(
            EbmfEncoder::with_encoder_options_cancellable(&m, None, opts, Some(&token)).is_none()
        );
    }

    #[test]
    fn conflict_budget_gives_unknown() {
        // A hard UNSAT instance (identity 6 with bound 5 is pigeonhole-ish).
        let m = BitMatrix::identity(6);
        let mut enc = EbmfEncoder::with_options(&m, None, 5, false);
        enc.set_conflict_budget(Some(1));
        assert_eq!(enc.solve(), SolveResult::Unknown);
    }
}
