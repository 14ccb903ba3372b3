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
//!   along a fixed order of the 1-cells label `k` may first appear only
//!   after label `k−1` has — this prunes the `b!` relabelings that make the
//!   plain encoding needlessly pigeonhole-hard (see below for the order);
//! * **don't-cares** (vacancies in the atom array, paper §VI): cells marked
//!   don't-care carry no variable and impose no corner constraint — a
//!   rectangle may cover them any number of times.
//!
//! Under [`EncoderOptions::assumption_bounds`], [`EbmfEncoder::solve_at`]
//! is the paper's `narrow_down_depth` (Algorithm 1 line 8): each query
//! assumes the top labels banned, so one clause database and every learnt
//! clause serve the whole descent.
//!
//! # The precedence order
//!
//! Value precedence along **any** fixed cell order preserves
//! satisfiability: relabel a partition's rectangles by their first
//! appearance along the order and it satisfies every precedence clause. So
//! soundness never rests on the order. Strength does: two cells of one row
//! never conflict, so along row-major order the clauses pin only the first
//! cell. The order here starts with a greedy fooling set `F` (paper §II:
//! 1-cells no two of which share a rectangle; under a don't-care mask, no
//! two that share a rectangle of any completion), then takes the other
//! 1-cells in row-major order. `F`'s pairwise 0-corner clauses plus
//! precedence put `F_0, F_1, …` on labels 0, 1, … by unit propagation
//! before the first decision — the clique-fixing move of SAT graph
//! colouring — so a bound below `|F|` is refuted with no decision, and a
//! bound just below the binary rank, the refutation that proves a depth
//! optimal, searches only the labels `F` leaves open. `F`'s labels are left
//! to propagation, never asserted as units, so a mistaken fooling set costs
//! strength, not answers.
//!
//! The order is part of the encoding: a clause learnt under one order is
//! not a consequence of another order's clauses, so changing the order
//! needs a bump of the engine's snapshot schema (its stored learnt cores
//! would otherwise be imported as trusted axioms).

use std::time::Instant;

use bitmatrix::{kernel, BitMatrix};
use linalg::{greedy_fooling_set, greedy_fooling_set_within};
use sat::{CancelToken, SolveResult, Solver, SolverStats, Var};

use crate::{Partition, Rectangle};

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

/// The encoder's configuration. [`EbmfEncoder::new`] builds with
/// [`EncoderOptions::new`]; [`EbmfEncoder::with_encoder_options`] takes any
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderOptions {
    /// The label bound `b` of the query `r_B(M) ≤ b`.
    pub bound: usize,
    /// Emit value-precedence symmetry-breaking clauses (along the
    /// fooling-set-first order of the module docs).
    pub symmetry_breaking: bool,
    /// At-most-one encoding for the per-cell label constraint.
    pub amo: AmoEncoding,
    /// Record a clausal proof so UNSAT answers can be independently
    /// verified (see [`EbmfEncoder::unsat_refutation`]).
    pub proof_logging: bool,
    /// Encode the depth bound through **assumption selector literals**
    /// instead of fixing it at construction: one selector `off[k]` per
    /// label with `off[k] → ¬x[e][k]`, so [`EbmfEncoder::solve_at`] can
    /// query any bound `≤ capacity` — including re-widening after an UNSAT
    /// answer — while every learnt clause stays valid and is reused across
    /// queries. This is the substrate of Algorithm 1's descent and of the
    /// engine's warm-started per-canonical-class SAP sessions.
    pub assumption_bounds: bool,
}

impl EncoderOptions {
    /// The defaults [`EbmfEncoder::new`] builds with: symmetry breaking
    /// on, pairwise AMO, no proof logging, one bound fixed at construction.
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
/// use rect_addr_ebmf::{EbmfEncoder, EncoderOptions};
///
/// let m: BitMatrix = "110\n011\n111".parse()?; // paper Eq. (2): r_B = 3
/// let options = EncoderOptions::new(3).with_assumption_bounds();
/// let mut enc = EbmfEncoder::with_encoder_options(&m, None, options);
/// assert!(enc.solve_at(3).is_sat(), "3 rectangles suffice");
/// assert!(enc.extract_partition().validate(&m).is_ok());
/// assert!(enc.solve_at(2).is_unsat(), "2 rectangles are too few");
/// # Ok::<(), bitmatrix::ParseMatrixError>(())
/// ```
#[derive(Debug)]
pub struct EbmfEncoder {
    solver: Solver,
    shape: (usize, usize),
    /// 1-cells in row-major order.
    cells: Vec<(usize, usize)>,
    /// Labels allocated at construction.
    capacity: usize,
    /// Labels allowed in the last query (the capacity before any).
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
        Self::with_encoder_options(m, None, EncoderOptions::new(bound))
    }

    /// Full-control constructor: every field of [`EncoderOptions`]. Cells
    /// set in `dont_care` are vacancies: they carry no coverage obligation
    /// and rectangles may overlap on them.
    ///
    /// # Panics
    ///
    /// Panics if `options.bound == 0` while `m` has at least one 1-cell, on
    /// a mask of another shape, or on a cell that is both 1 and don't-care.
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
    /// reads as cancelled, keeping no partial encoding. Every call, a
    /// cancelled one included, records its wall time in the
    /// [`obs::names::ENCODE_BUILD_US`] histogram.
    ///
    /// # Panics
    ///
    /// See [`EbmfEncoder::with_encoder_options`].
    pub fn with_encoder_options_cancellable(
        m: &BitMatrix,
        dont_care: Option<&BitMatrix>,
        options: EncoderOptions,
        cancel: Option<&CancelToken>,
    ) -> Option<Self> {
        let start = Instant::now();
        let built = Self::build(m, dont_care, options, cancel);
        obs::registry()
            .histogram(obs::names::ENCODE_BUILD_US)
            .record(start.elapsed().as_micros() as u64);
        built
    }

    #[allow(clippy::needless_range_loop)] // parallel cell/label tables
    fn build(
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

        // Value-precedence symmetry breaking along the fooling-set-first
        // order: `order[0]` uses label 0, and `order[e]` may open label k
        // only if some earlier cell of the order has label k−1.
        if symmetry_breaking && t > 0 {
            let order = precedence_order(m, dont_care, &row_cell_start);
            for k in 1..bound {
                solver.add_clause([var(order[0], k).negative()]);
            }
            for e in 1..t {
                if cancelled() {
                    return None;
                }
                for k in 1..bound {
                    if k > e {
                        solver.add_clause([var(order[e], k).negative()]);
                    } else {
                        let opens = order[..e].iter().map(|&s| var(s, k - 1).positive());
                        solver
                            .add_clause(std::iter::once(var(order[e], k).negative()).chain(opens));
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
        let lits = self.decode_core(core)?;
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
        let lits = self.decode_core(core)?;
        self.solver.import_core_derived(&lits, effort)
    }

    /// Decodes a DIMACS-coded core into solver literals, rejecting it
    /// wholesale on a zero or out-of-range literal.
    fn decode_core(&self, core: &[Vec<i64>]) -> Result<Vec<Vec<sat::Lit>>, String> {
        let nvars = self.solver.num_vars() as u64;
        core.iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|&v| {
                        if v == 0 || v.unsigned_abs() > nvars {
                            return Err(format!("core literal {v} out of range (±1..={nvars})"));
                        }
                        Ok(sat::Lit::from_dimacs(v))
                    })
                    .collect()
            })
            .collect()
    }

    /// A self-contained refutation of the last UNSAT answer (see
    /// [`sat::Solver::refutation_proof`]), or `None` when proof logging is
    /// off or the last answer was not UNSAT. Under assumption-encoded bounds
    /// the active bound selectors become unit axioms of the returned proof,
    /// so it certifies exactly the query `r_B(M) ≤ b` that was refuted.
    pub fn unsat_refutation(&self) -> Option<sat::Proof> {
        self.solver.refutation_proof()
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

    /// Alias of [`EbmfEncoder::set_conflict_budget`], kept for the
    /// benchmark client that calls it.
    pub fn set_resumable_budget(&mut self, budget: Option<u64>) {
        self.set_conflict_budget(budget);
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

    /// Runs the SAT query at the construction bound (under assumption
    /// bounds: at the last bound queried).
    pub fn solve(&mut self) -> SolveResult {
        if !self.bound_selectors.is_empty() {
            return self.solve_at(self.bound);
        }
        let res = self.solver.solve();
        self.last_sat = res.is_sat();
        res
    }

    /// Queries `r_B(M) ≤ bound` through the assumption selectors, under the
    /// per-call budget of [`EbmfEncoder::set_conflict_budget`]. The bound
    /// may move in **either** direction between calls, and every learnt
    /// clause is shared across all queries — this is the warm-start entry
    /// point.
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
        let res = self.solver.solve_with_assumptions(&assumptions);
        self.last_sat = res.is_sat();
        res
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
}

/// The cell order value precedence runs along (see the module docs): a
/// greedy fooling set of `m` first, computed against the corners that are
/// neither 1 nor don't-care, then the other 1-cells in row-major order.
/// Entries index the row-major 1-cells; `row_cell_start[i]` is the index
/// of row `i`'s first 1-cell.
fn precedence_order(
    m: &BitMatrix,
    dont_care: Option<&BitMatrix>,
    row_cell_start: &[usize],
) -> Vec<usize> {
    let fooling = match dont_care {
        Some(dc) => greedy_fooling_set_within(m, &m.or(dc)),
        None => greedy_fooling_set(m),
    };
    let t = row_cell_start[m.nrows()];
    let mut first = vec![false; t];
    let mut order = Vec::with_capacity(t);
    for (i, j) in fooling.cells {
        let e = row_cell_start[i] + kernel::rank(m.row_words(i), j);
        first[e] = true;
        order.push(e);
    }
    order.extend((0..t).filter(|&e| !first[e]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The partition of a model of `r_B(m) ≤ b` (cells of `dont_care`
    /// free), or `None` when the query is UNSAT.
    fn solve_with(m: &BitMatrix, dont_care: Option<&BitMatrix>, b: usize) -> Option<Partition> {
        let mut enc = EbmfEncoder::with_encoder_options(m, dont_care, EncoderOptions::new(b));
        enc.solve().is_sat().then(|| enc.extract_partition())
    }

    fn solve_rb(m: &BitMatrix, b: usize) -> Option<Partition> {
        solve_with(m, None, b)
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
    fn solve_at_walks_down_to_unsat() {
        // Identity 3: r_B = 3. Start at 5 and walk down.
        let m = BitMatrix::identity(3);
        let mut enc = assumption_encoder(&m, 5);
        assert_eq!(enc.solve_at(5), SolveResult::Sat);
        let p = enc.extract_partition();
        assert_eq!(p.len(), 3, "unused labels are dropped on extraction");
        assert_eq!(enc.solve_at(3), SolveResult::Sat);
        assert_eq!(enc.solve_at(2), SolveResult::Unsat);
    }

    #[test]
    fn symmetry_breaking_preserves_answers() {
        let m: BitMatrix = "1101\n0111\n1011".parse().unwrap();
        for b in 1..=5 {
            let with = EbmfEncoder::new(&m, b).solve();
            let without = EbmfEncoder::with_encoder_options(
                &m,
                None,
                EncoderOptions {
                    symmetry_breaking: false,
                    ..EncoderOptions::new(b)
                },
            )
            .solve();
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
        let p = solve_with(&m, Some(&dc), 1).expect("one rectangle suffices");
        assert_eq!(p.len(), 1);
        // The rectangle geometrically covers the don't-care corners —
        // allowed; validation against the care-matrix is done by
        // `completion::validate_completion`.
        assert!(p.iter().next().is_some_and(|r| r.contains(0, 1)));
    }

    #[test]
    fn dont_care_zero_corners_still_forbid() {
        // Only one off-diagonal is don't-care: the other corner is a hard 0,
        // so the two diagonal cells still cannot merge.
        let m = BitMatrix::identity(2);
        let dc: BitMatrix = "01\n00".parse().unwrap();
        assert!(solve_with(&m, Some(&dc), 1).is_none());
    }

    #[test]
    #[should_panic(expected = "both 1 and don't-care")]
    fn overlapping_one_and_dont_care_rejected() {
        let m = BitMatrix::ones(1, 1);
        let dc = BitMatrix::ones(1, 1);
        solve_with(&m, Some(&dc), 1);
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
    fn sequential_amo_solve_at_walks_down() {
        let m = BitMatrix::identity(3);
        let mut enc = EbmfEncoder::with_encoder_options(
            &m,
            None,
            EncoderOptions {
                amo: AmoEncoding::Sequential,
                ..EncoderOptions::new(4).with_assumption_bounds()
            },
        );
        assert!(enc.solve_at(4).is_sat());
        assert!(enc.solve_at(3).is_sat());
        assert!(enc.solve_at(2).is_unsat());
    }

    fn assumption_encoder(m: &BitMatrix, capacity: usize) -> EbmfEncoder {
        EbmfEncoder::with_encoder_options(
            m,
            None,
            EncoderOptions::new(capacity).with_assumption_bounds(),
        )
    }

    #[test]
    fn assumption_bounds_agree_with_single_bound_encoders() {
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
        // The selector encoding answers any bound up to its capacity.
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
        // a tiny per-call budget must be exhausted at least once and, after
        // more calls, conclude UNSAT using the clauses learnt in earlier
        // slices.
        let m = BitMatrix::identity(7);
        let mut enc = EbmfEncoder::with_encoder_options(
            &m,
            None,
            EncoderOptions {
                symmetry_breaking: false,
                ..EncoderOptions::new(6).with_assumption_bounds()
            },
        );
        enc.set_conflict_budget(Some(20));
        let mut slices = 0u32;
        let result = loop {
            match enc.solve_at(6) {
                SolveResult::Unknown => {
                    slices += 1;
                    assert!(slices < 10_000, "must terminate");
                }
                done => break done,
            }
        };
        assert!(result.is_unsat());
        assert!(slices > 0, "instance must exhaust the first slice");
    }

    #[test]
    fn assumption_bounds_honor_per_call_budget_without_pool() {
        // solve_at respects the per-call conflict budget instead of
        // running unbounded.
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

    /// FNV-1a 64 of the DIMACS CNF an encoder built with proof logging
    /// recorded: every clause it added, up to a level-0 refutation.
    fn cnf_digest(enc: &EbmfEncoder) -> u64 {
        let cnf = enc.solver.proof().expect("proof logging").to_dimacs_cnf();
        cnf.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins the CNF of two session encoders (assumption bounds, capacity
    /// one below the optimum, as SAP builds them): Fig. 1b, whose
    /// five-cell fooling set refutes bound 4 mid-build, and the SAT-hard
    /// gap fixture of the session tests, which needs a search. Sessions
    /// persist learnt cores that a non-certify rebuild imports as trusted
    /// clauses, so any change to these digests (the precedence order
    /// included) needs a bump of the engine's `SNAPSHOT_SCHEMA`.
    #[test]
    fn session_encodings_are_pinned() {
        let fig1b: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let gap = crate::gen::gap_benchmark(14, 14, 3, 1).matrix;
        for (m, bound, digest) in [
            (fig1b, 4, 0xd4d5_a38e_3198_7621),
            (gap, 13, 0xdfee_75cc_239d_427e),
        ] {
            let options = EncoderOptions::new(bound)
                .with_assumption_bounds()
                .with_proof_logging();
            let enc = EbmfEncoder::with_encoder_options(&m, None, options);
            assert_eq!(
                cnf_digest(&enc),
                digest,
                "{:#018x} at bound {bound}",
                cnf_digest(&enc)
            );
        }
    }

    #[test]
    fn conflict_budget_gives_unknown() {
        // A hard UNSAT instance (identity 6 with bound 5 is pigeonhole-ish).
        let m = BitMatrix::identity(6);
        let mut enc = EbmfEncoder::with_encoder_options(
            &m,
            None,
            EncoderOptions {
                symmetry_breaking: false,
                ..EncoderOptions::new(5)
            },
        );
        enc.set_conflict_budget(Some(1));
        assert_eq!(enc.solve(), SolveResult::Unknown);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::validate_completion;
    use proptest::prelude::*;

    /// A matrix up to 6×8 and, when `masked`, a don't-care mask over some
    /// of its 0s.
    fn arb_instance(masked: bool) -> impl Strategy<Value = (BitMatrix, Option<BitMatrix>)> {
        (1..=6usize, 1..=8usize).prop_flat_map(move |(r, c)| {
            proptest::collection::vec((any::<bool>(), any::<bool>()), r * c).prop_map(move |bits| {
                let m = BitMatrix::from_fn(r, c, |i, j| bits[i * c + j].0);
                let dc = masked.then(|| {
                    BitMatrix::from_fn(r, c, |i, j| {
                        let (one, dc) = bits[i * c + j];
                        !one && dc
                    })
                });
                (m, dc)
            })
        })
    }

    /// Checks the shipped encoder against one without symmetry breaking
    /// at every bound up to `min(rows, cols)`: equal SAT/UNSAT answers,
    /// valid models, and every model puts the `i`-th fooling cell of the
    /// precedence order on label `i` whenever the bound admits them all.
    fn agrees_with_unbroken(m: &BitMatrix, dc: Option<&BitMatrix>) -> Result<(), TestCaseError> {
        let fooling = match dc {
            Some(dc) => greedy_fooling_set_within(m, &m.or(dc)),
            None => greedy_fooling_set(m),
        };
        let cells = m.ones_positions();
        for b in 1..=m.nrows().min(m.ncols()) {
            let mut shipped = EbmfEncoder::with_encoder_options(m, dc, EncoderOptions::new(b));
            let mut unbroken = EbmfEncoder::with_encoder_options(
                m,
                dc,
                EncoderOptions {
                    symmetry_breaking: false,
                    ..EncoderOptions::new(b)
                },
            );
            let answer = shipped.solve();
            prop_assert_eq!(answer, unbroken.solve(), "bound {}", b);
            if !answer.is_sat() {
                continue;
            }
            for enc in [&shipped, &unbroken] {
                let p = enc.extract_partition();
                let valid = match dc {
                    Some(dc) => validate_completion(&p, m, dc),
                    None => p.validate(m),
                };
                prop_assert!(valid.is_ok(), "bound {}: {:?}", b, valid);
            }
            if fooling.size() <= b {
                let model = shipped.solver.model();
                for (label, cell) in fooling.cells.iter().enumerate() {
                    let e = cells.iter().position(|c| c == cell).expect("a 1-cell");
                    prop_assert!(
                        model[shipped.vars[e * b + label].index()],
                        "fooling cell {:?} off label {} at bound {}",
                        cell,
                        label,
                        b
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn symmetry_breaking_answers_what_no_symmetry_breaking_answers(
            (m, _) in arb_instance(false),
        ) {
            agrees_with_unbroken(&m, None)?;
        }

        #[test]
        fn symmetry_breaking_under_a_mask_answers_what_no_symmetry_breaking_answers(
            (m, dc) in arb_instance(true),
        ) {
            agrees_with_unbroken(&m, dc.as_ref())?;
        }
    }
}
