//! Permutation-invariant canonical forms of binary matrices.
//!
//! Two addressing patterns that differ only by a relabeling of rows and
//! columns have the same binary rank, and any EBMF of one maps to an EBMF of
//! the other by applying the same relabeling to every rectangle. The engine
//! exploits this: jobs are keyed by a *canonical representative* of their
//! permutation class, so a circuit whose layers repeat a pattern under
//! different wire orders is solved once.
//!
//! # Algorithm: individualization–refinement
//!
//! The canonical labeling is a graph-canonization-grade search on the
//! bipartite row/column graph:
//!
//! 1. **Signature refinement** — rows and columns iterate hashes of their
//!    neighbours' labels (Weisfeiler–Leman style) until the induced partition
//!    into label classes stops splitting. The labels are isomorphism
//!    invariants: corresponding vertices of two permuted copies always carry
//!    equal labels. Each side is kept sorted by `(label, index)` (rank
//!    order), so a round hands every line its neighbours' labels already
//!    ascending by walking the other side in rank order, and the sort that
//!    ranks the next round also counts its cells, which is the stability
//!    probe. Cells, branching targets and leaf orderings are read off the
//!    same sorted order.
//! 2. **Individualization** — if refinement stalls with a non-singleton cell
//!    (e.g. a *biregular* matrix, where every row/column degree ties), the
//!    search picks an invariant target cell, individualizes each of its
//!    vertices in turn (giving it a fresh unique label), re-refines, and
//!    recurses — a branch per vertex.
//! 3. **Leaf selection** — a branch whose partition is discrete determines a
//!    full row/column ordering; the canonical form is the lexicographically
//!    minimal matrix over all leaves, which is identical for every member of
//!    the permutation class.
//! 4. **Automorphism pruning** — a leaf whose matrix was already produced by
//!    an earlier branch yields an automorphism (the two leaf orderings
//!    composed); vertices mapped onto an already-explored sibling by
//!    automorphisms that fix the current branching prefix are skipped, as are
//!    cell-mates whose row/column content is bit-identical (swapping two
//!    identical lines is always an automorphism). Each search node keeps
//!    the orbits of its prefix-fixing automorphisms in one union-find,
//!    folding in generators as later siblings discover them.
//!
//! The search is exact but worst-case exponential, so it runs under a
//! configurable budget ([`CanonOptions::max_branches`] individualization
//! steps). Within budget the result is tagged [`Completeness::Complete`]:
//! equal permutation classes are **guaranteed** equal keys. On exhaustion —
//! pathologically symmetric inputs whose automorphism pruning cannot keep
//! up — the canonizer falls back to the pre-search heuristic (label order
//! settled lexicographically by bit content) and tags the form
//! [`Completeness::Heuristic`]; such keys may split a class across several
//! cache entries, which only costs cache misses. **Soundness never depends
//! on the tag**: the cache key is the full canonical bit pattern, so equal
//! keys always mean genuinely permutation-equivalent matrices.

use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use bitmatrix::{kernel, BitMatrix, BitVec};
use ebmf::{Partition, Rectangle};

/// Which path produced a [`CanonicalForm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// The individualization-refinement search finished within budget: every
    /// member of the permutation class canonizes to this exact key.
    Complete,
    /// The search budget was exhausted and the heuristic settling order was
    /// used instead: permuted duplicates may canonize to different keys
    /// (a cache miss, never an incorrect hit).
    Heuristic,
}

impl Completeness {
    /// Lower-case tag used in stats and bench output.
    pub fn as_str(&self) -> &'static str {
        match self {
            Completeness::Complete => "complete",
            Completeness::Heuristic => "heuristic",
        }
    }
}

/// Default [`CanonOptions::max_branches`].
pub const DEFAULT_CANON_BUDGET: usize = 4096;

/// Tuning knobs of [`canonical_form_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonOptions {
    /// Maximum individualization *branches* (siblings beyond the first
    /// member of each target cell; forced descents are free) before the
    /// search gives up and falls back to the heuristic labeling. `0`
    /// disables search entirely: only matrices settled by refinement plus
    /// sound pruning (discrete partitions, identical-line cells) canonize
    /// completely.
    pub max_branches: usize,
}

impl Default for CanonOptions {
    fn default() -> Self {
        CanonOptions {
            max_branches: DEFAULT_CANON_BUDGET,
        }
    }
}

/// A matrix together with the permutations that canonize it.
///
/// Row `i` of [`CanonicalForm::matrix`] is row `row_perm[i]` of the original
/// matrix (and likewise for columns), i.e.
/// `matrix[i][j] == original[row_perm[i]][col_perm[j]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// The canonical representative of the permutation class.
    pub matrix: BitMatrix,
    /// Original row index of each canonical row.
    pub row_perm: Vec<usize>,
    /// Original column index of each canonical column.
    pub col_perm: Vec<usize>,
    /// Which canonization path produced this form.
    completeness: Completeness,
    /// Rendered once at construction: shape plus the canonical bit pattern.
    key: String,
}

impl CanonicalForm {
    /// The cache key: shape plus the canonical bit pattern (precomputed).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Which canonization path produced this form.
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// `true` when the complete search finished within budget (equal
    /// permutation classes are then guaranteed equal keys).
    pub fn is_complete(&self) -> bool {
        self.completeness == Completeness::Complete
    }

    /// Maps a partition of the *canonical* matrix back onto the original.
    pub fn partition_to_original(&self, p: &Partition) -> Partition {
        permute_partition(p, &self.row_perm, &self.col_perm)
    }

    /// Maps a partition of the *original* matrix onto the canonical one.
    pub fn partition_to_canonical(&self, p: &Partition) -> Partition {
        permute_partition(
            p,
            &invert_permutation(&self.row_perm),
            &invert_permutation(&self.col_perm),
        )
    }
}

/// Relabels a partition: index `i` becomes `row_map[i]` / `col_map[j]`.
fn permute_partition(p: &Partition, row_map: &[usize], col_map: &[usize]) -> Partition {
    let (nrows, ncols) = p.shape();
    let rects = p
        .iter()
        .map(|r| {
            Rectangle::new(
                BitVec::from_indices(nrows, r.rows().ones().map(|i| row_map[i])),
                BitVec::from_indices(ncols, r.cols().ones().map(|j| col_map[j])),
            )
        })
        .collect();
    Partition::from_rectangles(nrows, ncols, rects)
}

fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn combine(h: u64, x: u64) -> u64 {
    mix(h ^ x.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// One side's refinement labels as `(label, index)` pairs sorted
/// ascending: each run of equal labels is one cell of the ordered
/// partition, with its members in index order. Label values are
/// isomorphism invariants.
#[derive(Debug, Clone)]
struct SideLabels {
    sorted: Vec<(u64, usize)>,
    /// Number of distinct labels, i.e. cells.
    classes: usize,
}

impl SideLabels {
    /// Sorts one entry per index and counts the cells.
    fn new(mut sorted: Vec<(u64, usize)>) -> Self {
        let classes = sort_and_count(&mut sorted);
        SideLabels { sorted, classes }
    }

    /// The indices in label order.
    fn order(&self) -> Vec<usize> {
        self.sorted.iter().map(|&(_, i)| i).collect()
    }

    /// The labels indexed by line.
    fn by_index(&self) -> Vec<u64> {
        let mut labels = vec![0; self.sorted.len()];
        for &(l, i) in &self.sorted {
            labels[i] = l;
        }
        labels
    }

    /// Gives the vertex at position `pos` the label `combine(label, salt)`,
    /// which no cell-mate shares, and moves it to its sorted position. The
    /// vertex's old cell keeps its other members, so the count grows by
    /// one unless the new label happens to equal an existing one.
    fn individualize(&mut self, pos: usize, salt: u64) {
        let (l, v) = self.sorted.remove(pos);
        let entry = (combine(l, salt), v);
        let at = self.sorted.partition_point(|&e| e < entry);
        let taken = |k: usize| self.sorted.get(k).is_some_and(|e| e.0 == entry.0);
        if !taken(at) && (at == 0 || !taken(at - 1)) {
            self.classes += 1;
        }
        self.sorted.insert(at, entry);
    }
}

/// Sorts `(label, index)` entries and returns the number of distinct
/// labels.
fn sort_and_count(entries: &mut [(u64, usize)]) -> usize {
    entries.sort_unstable();
    usize::from(!entries.is_empty()) + entries.windows(2).filter(|w| w[0].0 != w[1].0).count()
}

/// Row and column labels of one refinement state.
#[derive(Debug, Clone)]
struct Labels {
    rows: SideLabels,
    cols: SideLabels,
}

impl Labels {
    fn side(&self, side: Side) -> &SideLabels {
        match side {
            Side::Row => &self.rows,
            Side::Col => &self.cols,
        }
    }

    fn side_mut(&mut self, side: Side) -> &mut SideLabels {
        match side {
            Side::Row => &mut self.rows,
            Side::Col => &mut self.cols,
        }
    }
}

/// Computes one side's next-round labels into `out` and returns its class
/// count. Line `i`'s new label folds its own label, salted by `salt`, with
/// its neighbours' labels in ascending order. Walking the other side in
/// its sorted order and pushing each label onto that line's neighbours
/// (row `j` of `adj` lists them) delivers every line's neighbour labels
/// already ascending, so no line sorts its own. The closing sort orders
/// the side for the next round and counts its cells.
fn hash_side(
    own: &[(u64, usize)],
    other: &[(u64, usize)],
    adj: &BitMatrix,
    salt: u64,
    out: &mut Vec<(u64, usize)>,
) -> usize {
    out.clear();
    out.resize(own.len(), (0, 0));
    for &(l, i) in own {
        out[i] = (mix(l ^ salt), i);
    }
    for &(l, j) in other {
        for i in kernel::ones(adj.row_words(j)) {
            out[i].0 = combine(out[i].0, l);
        }
    }
    sort_and_count(out)
}

/// Refines until the induced class partition stops splitting. Classes only
/// ever split (a new label is a function of the old label), so stable class
/// counts mean a stable partition; at most `nrows + ncols` useful rounds.
fn refine_to_stable(m: &BitMatrix, mt: &BitMatrix, lab: &mut Labels) {
    let mut next_rows = Vec::with_capacity(m.nrows());
    let mut next_cols = Vec::with_capacity(m.ncols());
    for _ in 0..=(m.nrows() + m.ncols()) {
        let rows = hash_side(
            &lab.rows.sorted,
            &lab.cols.sorted,
            mt,
            Side::Row.salt(),
            &mut next_rows,
        );
        let cols = hash_side(
            &lab.cols.sorted,
            &lab.rows.sorted,
            m,
            Side::Col.salt(),
            &mut next_cols,
        );
        std::mem::swap(&mut lab.rows.sorted, &mut next_rows);
        std::mem::swap(&mut lab.cols.sorted, &mut next_cols);
        let stable = (rows, cols) == (lab.rows.classes, lab.cols.classes);
        (lab.rows.classes, lab.cols.classes) = (rows, cols);
        if stable {
            break;
        }
    }
}

/// Degree-seeded initial labels (row and column streams salted apart).
fn initial_labels(m: &BitMatrix, mt: &BitMatrix) -> Labels {
    let side = |lines: &BitMatrix, salt: u64| {
        SideLabels::new(
            (0..lines.nrows())
                .map(|i| (mix(lines.row(i).count_ones() as u64 ^ salt), i))
                .collect(),
        )
    };
    Labels {
        rows: side(m, Side::Row.salt()),
        cols: side(mt, Side::Col.salt()),
    }
}

/// Gathers every row of `m` bit-packed under the column order `cols`:
/// bit `j` of packed row `i` is `m[i][cols[j]]`. Returns the flat buffer
/// (indexed by *original* row) and its per-row word stride, so two rows
/// compare with one word-level pass instead of per-bit `get()` calls.
fn pack_rows_under(m: &BitMatrix, cols: &[usize], out: &mut Vec<u64>) -> usize {
    let stride = cols.len().div_ceil(64);
    out.clear();
    out.resize(m.nrows() * stride, 0);
    for i in 0..m.nrows() {
        let src = m.row_words(i);
        let base = i * stride;
        let mut acc = 0u64;
        for (j, &cj) in cols.iter().enumerate() {
            acc |= ((src[cj / 64] >> (cj % 64)) & 1) << (j % 64);
            if j % 64 == 63 {
                out[base + j / 64] = acc;
                acc = 0;
            }
        }
        if !cols.len().is_multiple_of(64) {
            out[base + (cols.len() - 1) / 64] = acc;
        }
    }
    stride
}

/// Compares two packed rows of a [`pack_rows_under`] buffer, 1s first
/// (denser rows sort earlier) — the same order the old per-bit `cmp_rows`
/// produced.
#[inline]
fn cmp_packed_rows(packed: &[u64], stride: usize, a: usize, b: usize) -> std::cmp::Ordering {
    kernel::cmp_lex_ones_first(
        &packed[a * stride..(a + 1) * stride],
        &packed[b * stride..(b + 1) * stride],
    )
}

/// Which side of the bipartite row/column graph a vertex lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Side {
    Row,
    Col,
}

impl Side {
    /// XORed into a line's label before hashing, so row and column label
    /// streams never coincide.
    fn salt(self) -> u64 {
        match self {
            Side::Row => 0,
            Side::Col => !0,
        }
    }
}

/// An automorphism of the input matrix, as original→original index maps.
#[derive(Debug, Clone)]
struct Automorphism {
    rows: Vec<usize>,
    cols: Vec<usize>,
}

impl Automorphism {
    fn fixes(&self, side: Side, v: usize) -> bool {
        match side {
            Side::Row => self.rows[v] == v,
            Side::Col => self.cols[v] == v,
        }
    }

    fn map(&self, side: Side) -> &[usize] {
        match side {
            Side::Row => &self.rows,
            Side::Col => &self.cols,
        }
    }
}

/// Path-compressed union-find used for orbit partitions.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.0[root] != root {
            root = self.0[root];
        }
        let mut cur = x;
        while self.0[cur] != root {
            cur = std::mem::replace(&mut self.0[cur], root);
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

/// The individualization-refinement search over one matrix.
struct Search<'a> {
    m: &'a BitMatrix,
    mt: &'a BitMatrix,
    /// Remaining individualization steps before giving up.
    budget: usize,
    exhausted: bool,
    /// Vertices individualized on the current tree path, in order.
    prefix: Vec<(Side, usize)>,
    /// Leaf matrices already produced, with the perms that produced them —
    /// a repeat yields an automorphism (new perm composed with the stored
    /// inverse). Stores the most recent occurrence: temporally adjacent
    /// equal leaves share long prefixes, so the derived generators fix deep
    /// prefixes and prune nearby siblings. Leaves are keyed by their packed
    /// word rendering (row-major, word-padded rows), whose lexicographic
    /// word order equals the old rendered-string order.
    seen: HashMap<Vec<u64>, (Vec<usize>, Vec<usize>)>,
    /// Automorphism generators discovered from leaf repeats.
    generators: Vec<Automorphism>,
    /// Lexicographically minimal leaf so far: (packed rendering, perms).
    best: Option<(Vec<u64>, Vec<usize>, Vec<usize>)>,
    /// Time spent in [`refine_to_stable`], root and children alike.
    refine_time: Duration,
}

impl Search<'_> {
    /// [`refine_to_stable`], timed into `refine_time`.
    fn refine(&mut self, lab: &mut Labels) {
        let start = Instant::now();
        refine_to_stable(self.m, self.mt, lab);
        self.refine_time += start.elapsed();
    }

    /// The invariant branching target: the smallest non-singleton cell,
    /// rows preferred on ties, then smallest label (cell sizes and label
    /// values are isomorphism invariants, so permuted copies pick
    /// corresponding cells). Returns its side and its range of positions
    /// in that side's sorted order, or `None` when the partition is
    /// discrete.
    fn target_cell(lab: &Labels) -> Option<(Side, Range<usize>)> {
        let mut pick: Option<(usize, Side, u64, usize)> = None;
        for side in [Side::Row, Side::Col] {
            let labels = lab.side(side);
            if labels.classes == labels.sorted.len() {
                continue;
            }
            let mut start = 0;
            for run in labels.sorted.chunk_by(|a, b| a.0 == b.0) {
                let cand = (run.len(), side, run[0].0, start);
                if run.len() >= 2 && pick.is_none_or(|p| cand < p) {
                    pick = Some(cand);
                }
                start += run.len();
            }
        }
        pick.map(|(n, side, _, start)| (side, start..start + n))
    }

    /// Renders the candidate matrix under the leaf orderings as packed
    /// words: row-major, each permuted row gathered into word-padded words.
    /// Because rows start on word boundaries and compare most-significant
    /// word first, lexicographic order on these buffers coincides with the
    /// order of the old rendered `0`/`1` strings.
    fn render_leaf(&self, rp: &[usize], cp: &[usize]) -> Vec<u64> {
        let stride = cp.len().div_ceil(64);
        let mut out = vec![0u64; rp.len() * stride];
        for (i, &ri) in rp.iter().enumerate() {
            let src = self.m.row_words(ri);
            let base = i * stride;
            let mut acc = 0u64;
            for (j, &cj) in cp.iter().enumerate() {
                acc |= ((src[cj / 64] >> (cj % 64)) & 1) << (j % 64);
                if j % 64 == 63 {
                    out[base + j / 64] = acc;
                    acc = 0;
                }
            }
            if !cp.len().is_multiple_of(64) {
                out[base + (cp.len() - 1) / 64] = acc;
            }
        }
        out
    }

    /// Handles a discrete partition: reads both orderings off the sorted
    /// labels, renders the candidate matrix, and either records a new leaf
    /// (tracking the lexicographic minimum) or derives an automorphism
    /// from a repeat.
    fn leaf(&mut self, lab: &Labels) {
        let rp = lab.rows.order();
        let cp = lab.cols.order();
        let rendered = self.render_leaf(&rp, &cp);
        if let Some((prev_rp, prev_cp)) = self.seen.get(&rendered) {
            // Both orderings map the original onto the same matrix, so
            // prev ∘ new⁻¹ maps the original onto itself.
            let mut rows = vec![0usize; rp.len()];
            for (i, &r) in rp.iter().enumerate() {
                rows[r] = prev_rp[i];
            }
            let mut cols = vec![0usize; cp.len()];
            for (j, &c) in cp.iter().enumerate() {
                cols[c] = prev_cp[j];
            }
            self.generators.push(Automorphism { rows, cols });
            self.seen.insert(rendered, (rp, cp));
            return;
        }
        if self
            .best
            .as_ref()
            .is_none_or(|(best, _, _)| kernel::cmp_lex(&rendered, best).is_lt())
        {
            self.best = Some((rendered.clone(), rp.clone(), cp.clone()));
        }
        self.seen.insert(rendered, (rp, cp));
    }

    /// Explores the subtree below one refined state.
    ///
    /// A sibling is pruned when it is bit-identical to an explored one
    /// (swapping identical lines always fixes the rest of the matrix), or
    /// when an automorphism fixing every vertex of the prefix maps it onto
    /// one (such an automorphism maps this node's whole subtree onto the
    /// sibling's, leaf for leaf). The prefix stays fixed while the
    /// siblings run, so one union-find of the cell's side holds the orbits
    /// of those automorphisms; each sibling's check folds in only the
    /// generators found since the previous check.
    fn explore(&mut self, lab: &Labels) {
        let Some((side, cell)) = Self::target_cell(lab) else {
            self.leaf(lab);
            return;
        };
        let content = match side {
            Side::Row => self.m,
            Side::Col => self.mt,
        };
        let mut orbits = UnionFind::new(content.nrows());
        let mut folded = 0;
        let mut explored: Vec<usize> = Vec::new();
        for pos in cell {
            if self.exhausted {
                return;
            }
            let v = lab.side(side).sorted[pos].1;
            // The first member of a cell is a forced descent, not a branch:
            // only genuine siblings consume budget, so `max_branches: 0`
            // still canonizes anything refinement plus pruning settles
            // (identical-line cells, already-discrete partitions).
            if !explored.is_empty() {
                for gen in &self.generators[folded..] {
                    if self.prefix.iter().all(|&(s, x)| gen.fixes(s, x)) {
                        for (x, &gx) in gen.map(side).iter().enumerate() {
                            orbits.union(x, gx);
                        }
                    }
                }
                folded = self.generators.len();
                if explored
                    .iter()
                    .any(|&u| content.row(u) == content.row(v) || orbits.find(u) == orbits.find(v))
                {
                    continue;
                }
                if self.budget == 0 {
                    self.exhausted = true;
                    return;
                }
                self.budget -= 1;
            }
            let mut child = lab.clone();
            // A fresh label no cell-mate shares, identical across branches
            // of this cell (it depends only on the shared cell label and
            // depth), so permuted copies individualize consistently.
            let salt = 0x1BD1_1BDA_A9FC_1A22 ^ self.prefix.len() as u64;
            child.side_mut(side).individualize(pos, salt);
            self.refine(&mut child);
            self.prefix.push((side, v));
            self.explore(&child);
            self.prefix.pop();
            explored.push(v);
        }
    }
}

/// Heuristic labeling used when the search budget runs out: order by label,
/// settling label ties lexicographically by bit content under the other
/// side's current order; alternate until stable. Fast and sound, but
/// permuted copies of a symmetric matrix may settle differently.
fn heuristic_perms(m: &BitMatrix, mt: &BitMatrix, lab: &Labels) -> (Vec<usize>, Vec<usize>) {
    let mut row_perm = lab.rows.order();
    let mut col_perm = lab.cols.order();
    let (row_labels, col_labels) = (lab.rows.by_index(), lab.cols.by_index());
    let mut packed: Vec<u64> = Vec::new();
    for _ in 0..32 {
        let mut next_rows = row_perm.clone();
        let stride = pack_rows_under(m, &col_perm, &mut packed);
        next_rows.sort_by(|&a, &b| {
            row_labels[a]
                .cmp(&row_labels[b])
                .then_with(|| cmp_packed_rows(&packed, stride, a, b))
        });
        let mut next_cols = col_perm.clone();
        let stride = pack_rows_under(mt, &next_rows, &mut packed);
        next_cols.sort_by(|&a, &b| {
            col_labels[a]
                .cmp(&col_labels[b])
                .then_with(|| cmp_packed_rows(&packed, stride, a, b))
        });
        let stable = next_rows == row_perm && next_cols == col_perm;
        row_perm = next_rows;
        col_perm = next_cols;
        if stable {
            break;
        }
    }
    (row_perm, col_perm)
}

/// Renders the cache key of an (already canonical) matrix: shape plus the
/// bit pattern. The single source of the key format — the snapshot
/// restore path re-derives session keys from their stored canonical
/// matrices through this same function.
pub(crate) fn matrix_key(m: &BitMatrix) -> String {
    let (nr, nc) = m.shape();
    format!("{nr}x{nc}:{m}")
}

/// Computes the canonical form of `m` with the default search budget
/// ([`DEFAULT_CANON_BUDGET`] branches); see [`canonical_form_with`].
///
/// # Examples
///
/// ```
/// use bitmatrix::BitMatrix;
/// use rect_addr_engine::canonical_form;
///
/// let a: BitMatrix = "110\n001".parse()?;
/// let b: BitMatrix = "100\n011".parse()?; // a with columns rotated
/// assert_eq!(canonical_form(&a).key(), canonical_form(&b).key());
/// assert!(canonical_form(&a).is_complete());
/// # Ok::<(), bitmatrix::ParseMatrixError>(())
/// ```
pub fn canonical_form(m: &BitMatrix) -> CanonicalForm {
    canonical_form_with(m, &CanonOptions::default())
}

/// Computes the canonical form of `m` under explicit [`CanonOptions`].
///
/// A refinement round costs `O(E + n log n)` over the `E` one-cells and
/// `n` lines; matrices whose refinement is already discrete (the common
/// case for irregular patterns) never branch. Symmetric inputs
/// additionally explore up to `max_branches` individualization branches
/// before falling back to the heuristic labeling (see the module docs and
/// [`Completeness`]).
pub fn canonical_form_with(m: &BitMatrix, opts: &CanonOptions) -> CanonicalForm {
    let mt = m.transposed();
    let start = Instant::now();
    let mut search = Search {
        m,
        mt,
        budget: opts.max_branches,
        exhausted: false,
        prefix: Vec::new(),
        seen: HashMap::new(),
        generators: Vec::new(),
        best: None,
        refine_time: Duration::ZERO,
    };
    let mut lab = initial_labels(m, mt);
    search.refine(&mut lab);
    search.explore(&lab);

    let (row_perm, col_perm, completeness) = if search.exhausted {
        let (rp, cp) = heuristic_perms(m, mt, &lab);
        (rp, cp, Completeness::Heuristic)
    } else {
        let (_, rp, cp) = search.best.expect("finished search visits >= 1 leaf");
        (rp, cp, Completeness::Complete)
    };
    let elapsed = start.elapsed();
    obs::registry()
        .histogram(obs::names::KERNEL_US_CANON_REFINE)
        .record(search.refine_time.as_micros() as u64);
    obs::registry()
        .histogram(obs::names::KERNEL_US_CANON_SEARCH)
        .record(elapsed.saturating_sub(search.refine_time).as_micros() as u64);

    let matrix = m.submatrix(&row_perm, &col_perm);
    let key = matrix_key(&matrix);
    CanonicalForm {
        matrix,
        row_perm,
        col_perm,
        completeness,
        key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn permuted(m: &BitMatrix, seed: u64) -> BitMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let rp = bitmatrix::random_permutation(m.nrows(), &mut rng);
        let cp = bitmatrix::random_permutation(m.ncols(), &mut rng);
        m.submatrix(&rp, &cp)
    }

    fn fig1b() -> BitMatrix {
        "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap()
    }

    #[test]
    fn canonical_matrix_is_a_permutation_of_input() {
        let m = fig1b();
        let c = canonical_form(&m);
        assert_eq!(c.matrix, m.submatrix(&c.row_perm, &c.col_perm));
        assert_eq!(c.matrix.count_ones(), m.count_ones());
    }

    #[test]
    fn permuted_duplicates_share_a_key() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let m = bitmatrix::random_matrix(8, 10, 0.45, &mut rng);
            let base = canonical_form(&m);
            assert!(base.is_complete());
            for seed in 0..5 {
                let p = permuted(&m, seed * 31 + trial);
                assert_eq!(
                    canonical_form(&p).key(),
                    base.key(),
                    "trial {trial} seed {seed}\n{m}"
                );
            }
        }
    }

    #[test]
    fn biregular_duplicates_share_a_key() {
        // Fig. 1b is 3-regular on both sides: refinement alone never splits
        // it, so only the complete search can canonize it consistently.
        let m = fig1b();
        let base = canonical_form(&m);
        assert_eq!(base.completeness(), Completeness::Complete);
        for seed in 0..16 {
            let p = permuted(&m, 1000 + seed);
            let c = canonical_form(&p);
            assert!(c.is_complete());
            assert_eq!(c.key(), base.key(), "seed {seed}\n{p}");
        }
    }

    #[test]
    fn zero_budget_falls_back_to_heuristic_on_symmetric_input() {
        let opts = CanonOptions { max_branches: 0 };
        let c = canonical_form_with(&fig1b(), &opts);
        assert_eq!(c.completeness(), Completeness::Heuristic);
        assert_eq!(c.completeness().as_str(), "heuristic");
        // Irregular matrices refine to a discrete partition without any
        // branching, so they stay complete even at budget 0.
        let irregular: BitMatrix = "110\n001".parse().unwrap();
        assert!(canonical_form_with(&irregular, &opts).is_complete());
    }

    #[test]
    fn degenerate_uniform_matrices_canonize_completely() {
        // All-equal lines are pruned by the identical-content rule, so even
        // the fully symmetric extremes stay within budget.
        for m in [BitMatrix::ones(9, 7), BitMatrix::zeros(6, 8)] {
            let base = canonical_form(&m);
            assert!(base.is_complete(), "{m}");
            let c = canonical_form(&permuted(&m, 5));
            assert_eq!(c.key(), base.key());
        }
    }

    #[test]
    fn different_matrices_get_different_keys() {
        let a: BitMatrix = "110\n011".parse().unwrap();
        let b: BitMatrix = "111\n011".parse().unwrap();
        assert_ne!(canonical_form(&a).key(), canonical_form(&b).key());
    }

    #[test]
    fn partition_roundtrips_through_canonical_coordinates() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = bitmatrix::random_matrix(7, 7, 0.5, &mut rng);
        let c = canonical_form(&m);
        let p = ebmf::row_packing(&m, &ebmf::PackingConfig::with_trials(4));
        assert!(p.validate(&m).is_ok());
        let canon_p = c.partition_to_canonical(&p);
        assert!(
            canon_p.validate(&c.matrix).is_ok(),
            "canonical image must be valid"
        );
        let back = c.partition_to_original(&canon_p);
        assert!(back.validate(&m).is_ok());
        assert_eq!(back.len(), p.len());
    }

    #[test]
    fn hit_partition_maps_to_permuted_instance() {
        // Solve the canonical instance once, then reuse it for a permuted
        // duplicate — the core cache scenario.
        let mut rng = StdRng::seed_from_u64(3);
        let m = bitmatrix::random_matrix(6, 9, 0.4, &mut rng);
        let dup = permuted(&m, 99);
        let (cm, cd) = (canonical_form(&m), canonical_form(&dup));
        assert_eq!(cm.key(), cd.key());

        let solved = ebmf::row_packing(&m, &ebmf::PackingConfig::with_trials(8));
        let canonical_partition = cm.partition_to_canonical(&solved);
        let mapped = cd.partition_to_original(&canonical_partition);
        assert!(mapped.validate(&dup).is_ok());
        assert_eq!(mapped.len(), solved.len());
    }
}
