//! SAP — *SMT and packing* (paper Algorithm 1), with the SMT oracle replaced
//! by the in-repo SAT encoder.
//!
//! The driver obtains a quick upper bound from row packing, then walks the
//! rectangle budget `b` downward with incremental SAT queries until either a
//! query is UNSAT (the incumbent is optimal), the budget drops below a sound
//! lower bound (the incumbent matches it — optimal), or a resource limit is
//! hit (the incumbent is returned as the best-so-far, exactly the anytime
//! behaviour the paper highlights for its Figure 4 cases).

use std::time::Instant;

use bitmatrix::{BitMatrix, BitVec};
use linalg::RealRank;
use sat::{CancelToken, SolveResult};

use crate::{
    lower_bound, row_packing, EbmfEncoder, LowerBound, PackingConfig, Partition, Rectangle,
};

/// Configuration of the [`sap`] solver. The SAT phase stops on its
/// per-query [`SapConfig::conflict_budget`] or on [`SapConfig::cancel`],
/// which also carries any wall-clock limit ([`CancelToken::with_deadline`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SapConfig {
    /// Configuration of the row-packing phase.
    pub packing: PackingConfig,
    /// Conflict budget per SAT query (`None` = run to completion).
    pub conflict_budget: Option<u64>,
    /// Record a clausal proof, exported as a self-contained DRAT refutation
    /// in [`SapOutcome::certificate`] whenever optimality is concluded from
    /// an UNSAT answer. Works on warm (resumed / rehydrated) sessions too:
    /// a core learnt without logging, restored from disk or left by an
    /// uncertified run, is re-derived clause by clause in a logging
    /// rebuild, so the trace stays self-justifying.
    pub certify: bool,
    /// Cooperative cancellation: when the token trips, the SAT phase stops
    /// at its next conflict or decision (even mid-query or mid-build) and
    /// the best incumbent found so far is returned; a token tripped before
    /// [`SapSession::run`] starts skips the phase without building an
    /// encoder. `None` disables the hook. This is how the
    /// `rect-addr-engine` pipeline reclaims a worker whose time budget
    /// expired.
    pub cancel: Option<CancelToken>,
}

impl SapConfig {
    /// Config with the given number of packing trials (other fields default).
    pub fn with_trials(trials: usize) -> Self {
        SapConfig {
            packing: PackingConfig::with_trials(trials),
            ..SapConfig::default()
        }
    }
}

/// Learnt clauses a core keeps by default, the strongest first: bounds a
/// snapshot to roughly megabytes at the engine's default 128-session
/// store, and the re-derivation a certified rebuild pays.
pub const DEFAULT_MAX_CORE_CLAUSES: usize = 4096;

/// Per-clause conflict budget when a learnt core is re-derived under
/// [`SapConfig::certify`]. Most exported clauses re-derive by propagation
/// alone or within a handful of conflicts (they were consequences of the
/// same formula); the cap bounds the worst case so rehydration never costs
/// more than a fraction of a fresh descent.
const CORE_DERIVE_EFFORT: u64 = 100;

/// One SAT query made by the descending loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatQuery {
    /// The bound `b` queried (`r_B ≤ b`?).
    pub bound: usize,
    /// The answer.
    pub result: SolveResult,
    /// Wall-clock seconds spent in this query.
    pub seconds: f64,
    /// Conflicts spent in this query.
    pub conflicts: u64,
    /// Decisions spent in this query.
    pub decisions: u64,
    /// Literals propagated in this query.
    pub propagations: u64,
}

/// Phase timings and query log — the data behind the paper's Figure 4.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SapStats {
    /// Seconds spent in the row-packing heuristic.
    pub packing_seconds: f64,
    /// Seconds spent computing lower bounds.
    pub bound_seconds: f64,
    /// Seconds spent in SAT solving (the paper's "SMT" share).
    pub sat_seconds: f64,
    /// Per-query log, in descending-bound order.
    pub queries: Vec<SatQuery>,
}

impl SapStats {
    /// Total wall-clock seconds across all phases.
    pub fn total_seconds(&self) -> f64 {
        self.packing_seconds + self.bound_seconds + self.sat_seconds
    }
}

/// A self-contained DRAT certificate of one refuted depth query
/// `r_B(M) ≤ bound`, emitted when [`SapConfig::certify`] is set and
/// optimality was concluded from an UNSAT answer.
///
/// The pair (`cnf`, `drat`) is independently checkable: `cnf` holds the
/// full encoding **plus the active bound selectors as unit axioms**, and
/// `drat` is the lemma/deletion trace ending in the empty clause. Any DRAT
/// validator — the in-repo `rect-addr-certcheck` crate, or an external tool
/// such as `drat-trim` — can replay it with no knowledge of this solver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnsatCertificate {
    /// The refuted bound `b`: the certificate proves `r_B(M) > b`.
    pub bound: usize,
    /// DIMACS CNF of the axioms (encoding ∧ assumption units).
    pub cnf: String,
    /// DRAT refutation trace (text format, `d`-prefixed deletions).
    pub drat: String,
}

/// Result of [`sap`].
#[derive(Debug, Clone, PartialEq)]
pub struct SapOutcome {
    /// The best partition found (always valid for the input matrix).
    pub partition: Partition,
    /// Whether `partition.len()` was *proved* equal to `r_B(M)`.
    pub proved_optimal: bool,
    /// The lower bound used for termination.
    pub lower_bound: LowerBound,
    /// The real-rank component (reported in the paper's Table I/Fig. 4).
    pub real_rank: RealRank,
    /// The exportable refutation of the bound below the incumbent: present
    /// exactly when certification was on and an UNSAT answer concluded the
    /// descent (cold **or** warm). `None` when optimality needed no SAT
    /// proof (the incumbent met the floor) or certification was off.
    pub certificate: Option<UnsatCertificate>,
    /// Phase timings and the SAT query log.
    pub stats: SapStats,
}

impl SapOutcome {
    /// The number of rectangles of the best partition — an upper bound on
    /// (and, when `proved_optimal`, equal to) the binary rank.
    pub fn depth(&self) -> usize {
        self.partition.len()
    }
}

/// A persistent SAP solver for one matrix, warm-startable across runs.
///
/// The session owns the incumbent, the lower bound and — from the first
/// query until the depth is proved — one incremental [`EbmfEncoder`] whose
/// learnt clauses survive between [`SapSession::run`] calls. A run that
/// stops on an exhausted budget leaves the session mid-descent; a later
/// run **resumes**
/// from the same depth bound with every learnt clause retained, so the
/// conflicts already spent are never re-spent. The engine keeps one session
/// per canonical matrix class for exactly this reason: cache-adjacent jobs
/// (same class, fresh budgets) continue each other's SAT search instead of
/// re-encoding from scratch.
///
/// The depth bound is always encoded through assumption selector literals
/// ([`crate::EncoderOptions::assumption_bounds`]) — including under
/// [`SapConfig::certify`]: an UNSAT answer relative to assumptions is made
/// self-contained by appending the assumption core as unit axioms (see
/// [`sat::Solver::refutation_proof`]), so certification and warm starts
/// compose instead of excluding each other.
#[derive(Debug)]
pub struct SapSession {
    m: BitMatrix,
    lb: LowerBound,
    best: Partition,
    proved: bool,
    encoder: Option<EbmfEncoder>,
    /// A learnt-clause core waiting to be reinjected when the encoder is
    /// (re)built — the lazy half of session rehydration from disk.
    pending_core: Option<PendingCore>,
    /// SAT conflicts spent across all runs of this session.
    conflicts: u64,
    /// Construction-phase timings, reported by the first run only.
    packing_seconds: f64,
    bound_seconds: f64,
}

/// Encoder rebuild recipe carried by a rehydrated session until its first
/// SAT query actually needs the encoder.
#[derive(Debug, Clone)]
struct PendingCore {
    capacity: usize,
    core: Vec<Vec<i64>>,
}

/// The durable knowledge of a [`SapSession`], extracted by
/// [`SapSession::export`] and restored by [`SapSession::import`]. Plain
/// typed data — serialization format is the storage layer's business.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionExport {
    /// The matrix the session solves (canonical coordinates for the
    /// engine's per-class sessions).
    pub matrix: BitMatrix,
    /// The incumbent partition, one `(rows, cols)` index pair per
    /// rectangle.
    pub best: Vec<(Vec<usize>, Vec<usize>)>,
    /// Whether the incumbent depth was proved equal to the binary rank.
    pub proved: bool,
    /// Label capacity of the encoder, when a descent had started.
    pub encoder_capacity: Option<usize>,
    /// The learnt-clause core in DIMACS literal coding (empty when no
    /// descent had started).
    pub core: Vec<Vec<i64>>,
}

impl SapSession {
    /// Creates a session: runs row packing and the real-rank floor, but no
    /// SAT.
    pub fn new(m: &BitMatrix, config: &SapConfig) -> Self {
        let t0 = Instant::now();
        let best = row_packing(m, &config.packing);
        let packing_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let lb = lower_bound(m, false);
        let bound_seconds = t1.elapsed().as_secs_f64();

        SapSession {
            packing_seconds,
            bound_seconds,
            ..Self::seeded(m, best, lb)
        }
    }

    /// Creates a session that descends from `incumbent`, a valid partition
    /// of `m`, towards `lb`, a sound lower bound on its binary rank: the
    /// first two steps of Algorithm 1, already run by the caller, so
    /// neither packing nor the bound is computed here.
    pub fn seeded(m: &BitMatrix, incumbent: Partition, lb: LowerBound) -> Self {
        debug_assert!(incumbent.validate(m).is_ok());
        SapSession {
            m: m.clone(),
            lb,
            proved: incumbent.len() <= lb.value,
            best: incumbent,
            encoder: None,
            pending_core: None,
            conflicts: 0,
            packing_seconds: 0.0,
            bound_seconds: 0.0,
        }
    }

    /// Extracts the session's durable knowledge — incumbent, proved flag
    /// and (when a descent has started under assumption-encoded bounds)
    /// the strongest `max_core_clauses` learnt clauses — for spilling to
    /// disk. See [`SapSession::import`] for the inverse.
    pub fn export(&self, max_core_clauses: usize) -> SessionExport {
        let best = self
            .best
            .iter()
            .map(|r| (r.rows().to_indices(), r.cols().to_indices()))
            .collect();
        // Every encoder this session builds uses assumption bounds, so its
        // core re-imports into a rebuild at the same capacity.
        let (encoder_capacity, core) = match (&self.encoder, &self.pending_core) {
            (Some(e), _) => (Some(e.capacity()), e.export_core(max_core_clauses)),
            // Rehydrated but never queried since: pass the parked core
            // through unchanged, so back-to-back restarts don't shed it.
            (None, Some(p)) => (Some(p.capacity), p.core.clone()),
            (None, None) => (None, Vec::new()),
        };
        SessionExport {
            matrix: self.m.clone(),
            best,
            proved: self.proved,
            encoder_capacity,
            core,
        }
    }

    /// Rebuilds a session from [`SapSession::export`] output, descending
    /// towards `lb`, a sound lower bound on the export's matrix (the
    /// caller's [`lower_bound`]). Neither packing nor the bound runs (the
    /// exported incumbent replaces the one, the caller supplies the other)
    /// and the learnt-clause core is held back until the first run that
    /// actually needs the encoder — rehydration is lazy beyond this
    /// validation.
    ///
    /// # Errors
    ///
    /// Rejects an export whose incumbent is not a valid partition of its
    /// matrix (the telltale of a snapshot mismatch), or whose encoder
    /// capacity lies outside `1..=min(rows, cols)` or below `|best| − 1`;
    /// the caller should fall back to a cold session.
    pub fn import(export: &SessionExport, lb: LowerBound) -> Result<SapSession, String> {
        let (nrows, ncols) = export.matrix.shape();
        let mut best = Partition::empty(nrows, ncols);
        for (rows, cols) in &export.best {
            if rows.iter().any(|&i| i >= nrows) || cols.iter().any(|&j| j >= ncols) {
                return Err("rectangle index out of range".to_string());
            }
            best.push(Rectangle::new(
                BitVec::from_indices(nrows, rows.iter().copied()),
                BitVec::from_indices(ncols, cols.iter().copied()),
            ));
        }
        best.validate(&export.matrix)
            .map_err(|e| format!("exported incumbent invalid: {e}"))?;
        if export.proved && best.len() > export.matrix.nrows().min(export.matrix.ncols()) {
            return Err("proved incumbent deeper than the trivial bound".to_string());
        }
        if let Some(cap) = export.encoder_capacity {
            // Exported capacities are always 1..min(r,c) (the initial
            // packing incumbent never exceeds the trivial partition); an
            // out-of-range value is a mismatched snapshot — and an
            // unvalidated large one would be a memory bomb at rebuild.
            if cap == 0 || cap > nrows.min(ncols) {
                return Err(format!("encoder capacity {cap} out of range"));
            }
            // A session builds its encoder at |best| − 1 and |best| only
            // falls, so a smaller capacity is a mismatched record: `run`
            // would descend from it and call the incumbent optimal.
            if cap + 1 < best.len() {
                return Err(format!(
                    "encoder capacity {cap} below the {}-rectangle incumbent",
                    best.len()
                ));
            }
        }
        let pending_core = export.encoder_capacity.map(|capacity| PendingCore {
            capacity,
            core: export.core.clone(),
        });
        Ok(SapSession {
            m: export.matrix.clone(),
            lb,
            best,
            proved: export.proved,
            encoder: None,
            pending_core,
            conflicts: 0,
            packing_seconds: 0.0,
            bound_seconds: 0.0,
        })
    }

    /// The matrix this session solves.
    pub fn matrix(&self) -> &BitMatrix {
        &self.m
    }

    /// The best partition found so far (always valid for the matrix).
    pub fn best(&self) -> &Partition {
        &self.best
    }

    /// Whether the incumbent depth is proved equal to the binary rank.
    pub fn proved_optimal(&self) -> bool {
        self.proved
    }

    /// Total SAT conflicts spent across all runs of this session since it
    /// was created or imported.
    pub fn total_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Adopts an externally-found partition (e.g. a cached result from a
    /// permuted duplicate) when it beats the current incumbent, so the next
    /// run descends from below it instead of re-deriving it.
    pub fn offer_incumbent(&mut self, p: &Partition) {
        debug_assert!(p.validate(&self.m).is_ok());
        if p.len() < self.best.len() {
            self.best = p.clone();
            if self.best.len() <= self.lb.value {
                self.proved = true;
                self.drop_encoder_if_proved();
            }
        }
    }

    /// A proved session never queries again: frees its encoding (and any
    /// core waiting for one), which is most of a session's memory.
    fn drop_encoder_if_proved(&mut self) {
        if self.proved {
            self.encoder = None;
            self.pending_core = None;
        }
    }

    /// Builds the session's encoder, reinjecting a pending core. Returns
    /// `None` when `config.cancel` trips mid-build; the pending core then
    /// waits for the next run.
    fn build_encoder(&mut self, config: &SapConfig) -> Option<EbmfEncoder> {
        let pending = self.pending_core.take();
        // Rebuild byte-identically to the exporting encoder so the core's
        // variable numbering lines up.
        let capacity = pending.as_ref().map_or(self.best.len() - 1, |p| p.capacity);
        let enc_opts = crate::EncoderOptions {
            proof_logging: config.certify,
            assumption_bounds: true,
            ..crate::EncoderOptions::new(capacity)
        };
        let Some(mut encoder) = EbmfEncoder::with_encoder_options_cancellable(
            &self.m,
            None,
            enc_opts,
            config.cancel.as_ref(),
        ) else {
            self.pending_core = pending;
            return None;
        };
        if let Some(p) = pending {
            // A structurally-broken core just costs the warm start; the
            // fresh encoding stays sound either way.
            if config.certify {
                // Under certify a reinjected clause must never enter the
                // trace as an unjustified axiom: re-derive each one with a
                // bounded refutation of its negation, so it lands as a
                // checked lemma. Clauses the effort cannot justify are
                // dropped (warm-start cost only).
                let _ = encoder.import_core_derived(&p.core, CORE_DERIVE_EFFORT);
            } else {
                let _ = encoder.import_core(&p.core);
            }
        }
        Some(encoder)
    }

    /// Runs (or resumes) the depth descent under `config`'s budgets and
    /// returns the current outcome. Proved sessions return immediately, and
    /// so does a run whose `config.cancel` has already tripped: it builds
    /// no encoder.
    pub fn run(&mut self, config: &SapConfig) -> SapOutcome {
        let mut stats = SapStats {
            packing_seconds: std::mem::take(&mut self.packing_seconds),
            bound_seconds: std::mem::take(&mut self.bound_seconds),
            ..SapStats::default()
        };
        let cancelled = config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
        let mut certificate = None;
        if !self.proved && !cancelled && self.best.len() > 1 {
            let sat_start = Instant::now();
            // A certificate needs every lemma in one trace: an encoder that
            // learnt without logging hands its core to a logging rebuild,
            // which re-derives it as for a session restored from disk.
            if let Some(e) = self
                .encoder
                .take_if(|e| config.certify && !e.options().proof_logging)
            {
                self.pending_core = Some(PendingCore {
                    capacity: e.capacity(),
                    core: e.export_core(DEFAULT_MAX_CORE_CLAUSES),
                });
            }
            if self.encoder.is_none() {
                self.encoder = self.build_encoder(config);
            }
            if let Some(encoder) = self.encoder.as_mut() {
                let proved;
                (proved, certificate) = descend(
                    encoder,
                    &mut self.best,
                    self.lb.value,
                    config,
                    &mut stats.queries,
                );
                self.proved = proved;
                self.conflicts += stats.queries.iter().map(|q| q.conflicts).sum::<u64>();
                debug_assert!(self.best.validate(&self.m).is_ok());
            }
            stats.sat_seconds = sat_start.elapsed().as_secs_f64();
        }
        self.drop_encoder_if_proved();

        SapOutcome {
            partition: self.best.clone(),
            proved_optimal: self.proved,
            lower_bound: self.lb,
            real_rank: self.lb.real_rank,
            certificate,
            stats,
        }
    }
}

/// The descent of Algorithm 1 (lines 5–9, the paper's `narrow_down_depth`
/// loop): queries `r_B ≤ b` one below the incumbent `best`, clamped to
/// what the encoder can express, and adopts every model, until a query is
/// UNSAT, `b` drops below `floor` (a sound lower bound; 1 when none is
/// known), a query exhausts `config.conflict_budget` or `config.cancel`
/// trips. Logs every query in `queries`. Returns whether `best` is proved
/// optimal and, under `config.certify`, the refutation that proved it.
///
/// `encoder` must encode the matrix of `best` with assumption-encoded
/// bounds.
pub(crate) fn descend(
    encoder: &mut EbmfEncoder,
    best: &mut Partition,
    floor: usize,
    config: &SapConfig,
    queries: &mut Vec<SatQuery>,
) -> (bool, Option<UnsatCertificate>) {
    encoder.set_conflict_budget(config.conflict_budget);
    encoder.set_interrupt(config.cancel.clone());
    loop {
        // Resume point: one below the incumbent, clamped to what the
        // encoding can express (a session's incumbent may have improved
        // past its first run's starting capacity via `offer_incumbent`).
        let b = (best.len() - 1).min(encoder.capacity());
        if b < floor {
            return (true, None); // |best| == floor
        }
        if config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return (false, None); // anytime exit: keep the incumbent
        }
        let stats_before = encoder.solver_stats();
        let tq = Instant::now();
        let result = encoder.solve_at(b);
        let seconds = tq.elapsed().as_secs_f64();
        let spent = encoder.solver_stats().since(&stats_before);
        queries.push(SatQuery {
            bound: b,
            result,
            seconds,
            conflicts: spent.conflicts,
            decisions: spent.decisions,
            propagations: spent.propagations,
        });
        match result {
            SolveResult::Sat => {
                let p = encoder.extract_partition();
                debug_assert!(p.len() <= b);
                *best = p;
            }
            SolveResult::Unsat => {
                // r_B > b, and |best| == b + 1.
                let proof = config.certify.then(|| encoder.unsat_refutation());
                let certificate = proof.flatten().map(|p| UnsatCertificate {
                    bound: b,
                    cnf: p.to_dimacs_cnf(),
                    drat: p.to_drat(),
                });
                return (true, certificate);
            }
            SolveResult::Unknown => return (false, None), // budget exhausted
        }
    }
}

/// Runs SAP (paper Algorithm 1) on `m`.
///
/// 1. Row packing provides a valid EBMF `P` (upper bound).
/// 2. The real rank provides the termination floor (paper Eq. 3).
/// 3. A SAT encoder is built for `b = |P| − 1` and the bound is narrowed
///    after every satisfiable query; the incumbent is updated so an
///    interrupt at any time still returns the best solution found.
///
/// This is a one-shot wrapper over [`SapSession`]; long-lived callers (the
/// engine's per-canonical-class warm store) keep the session and resume it.
pub fn sap(m: &BitMatrix, config: &SapConfig) -> SapOutcome {
    SapSession::new(m, config).run(config)
}

/// The binary rank `r_B(m)`, computed exactly (no resource limits).
///
/// Practical for matrices up to roughly the paper's exact-benchmark sizes
/// (≤ 10×30); larger inputs may take exponential time.
///
/// # Examples
///
/// ```
/// use bitmatrix::BitMatrix;
/// use rect_addr_ebmf::binary_rank;
///
/// let m: BitMatrix = "110\n011\n111".parse()?;
/// assert_eq!(binary_rank(&m), 3); // paper Eq. (2)
/// # Ok::<(), bitmatrix::ParseMatrixError>(())
/// ```
pub fn binary_rank(m: &BitMatrix) -> usize {
    let outcome = sap(m, &SapConfig::with_trials(20));
    assert!(
        outcome.proved_optimal,
        "sap without limits must prove optimality"
    );
    outcome.partition.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1b_is_five() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let out = sap(&m, &SapConfig::default());
        assert!(out.proved_optimal);
        assert_eq!(out.depth(), 5);
        assert!(out.partition.validate(&m).is_ok());
    }

    #[test]
    fn eq2_is_three_with_rank_three() {
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        let out = sap(&m, &SapConfig::default());
        assert!(out.proved_optimal);
        assert_eq!(out.depth(), 3);
        assert_eq!(out.real_rank.rank, 3);
    }

    #[test]
    fn rank_gap_matrix_proved_by_unsat() {
        // XOR-style matrix where rank_ℝ < r_B: [[0,1,1],[1,0,1],[1,1,0]]
        // has rank 3 … use a genuine gap case instead: rows {110, 001, 111}.
        // rank = 2? [1,1,0],[0,0,1],[1,1,1]: row3 = row1+row2 → rank 2.
        // r_B: the 1s of row 111 can't merge across… compute: must be ≥ 2.
        let m: BitMatrix = "110\n001\n111".parse().unwrap();
        let out = sap(&m, &SapConfig::default());
        assert!(out.proved_optimal);
        assert_eq!(out.real_rank.rank, 2);
        assert_eq!(out.depth(), 2, "{:?}", out.partition.to_string());
    }

    #[test]
    fn zero_matrix_is_zero() {
        let out = sap(&BitMatrix::zeros(4, 4), &SapConfig::default());
        assert!(out.proved_optimal);
        assert_eq!(out.depth(), 0);
    }

    #[test]
    fn single_cell_is_one() {
        let m: BitMatrix = "01\n00".parse().unwrap();
        let out = sap(&m, &SapConfig::default());
        assert!(out.proved_optimal);
        assert_eq!(out.depth(), 1);
    }

    #[test]
    fn binary_rank_of_identity() {
        assert_eq!(binary_rank(&BitMatrix::identity(5)), 5);
    }

    #[test]
    fn stats_record_queries() {
        let m = BitMatrix::identity(4); // packing finds 4 = rank: no SAT needed
        let out = sap(&m, &SapConfig::default());
        assert!(out.proved_optimal);
        assert!(out.stats.queries.is_empty());

        // Fig. 1b has real rank 4 but binary rank 5: optimality needs the
        // SAT descent, which ends with UNSAT at bound 4.
        let fig1b: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let out = sap(&fig1b, &SapConfig::default());
        assert!(out.proved_optimal);
        assert_eq!((out.lower_bound.value, out.depth()), (4, 5));
        let last = out.stats.queries.last().expect("the descent queried SAT");
        assert_eq!((last.bound, last.result), (4, SolveResult::Unsat));
    }

    #[test]
    fn certified_optimality_on_fig1b() {
        // Fig. 1b's optimality rests on an UNSAT answer at b = 4 (the rank
        // floor is only 4); with `certify` the standalone checker accepts
        // the exported proof.
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let cfg = SapConfig {
            certify: true,
            ..SapConfig::default()
        };
        let out = sap(&m, &cfg);
        assert!(out.proved_optimal);
        assert_eq!(out.depth(), 5);
        let cert = out.certificate.expect("UNSAT at 4 is certified");
        certcheck::check_certificate(&cert.cnf, &cert.drat).expect("checker must accept the proof");
    }

    #[test]
    fn certified_outcome_carries_a_self_contained_certificate() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let cfg = SapConfig {
            certify: true,
            ..SapConfig::default()
        };
        let out = sap(&m, &cfg);
        let cert = out.certificate.expect("certificate present");
        assert_eq!(cert.bound, 4, "Fig. 1b optimality rests on UNSAT at 4");
        assert!(cert.cnf.starts_with("p cnf "));
        assert!(cert.drat.trim_end().ends_with("0"));
        // The DRAT trace must end by deriving the empty clause.
        assert_eq!(cert.drat.lines().last(), Some("0"));
    }

    #[test]
    fn certify_composes_with_warm_session_resume() {
        // The previously-skipped combination: a session that exhausts its
        // budget mid-descent and *resumes* — with certify on the whole way.
        let m = hard_matrix();
        let cfg = SapConfig {
            conflict_budget: Some(SLICE),
            packing: PackingConfig::with_trials(4),
            certify: true,
            ..SapConfig::default()
        };
        let mut session = SapSession::new(&m, &cfg);
        let mut runs = 0u32;
        let mut last = session.run(&cfg);
        while !session.proved_optimal() {
            last = session.run(&cfg);
            runs += 1;
            assert!(runs < 10_000, "session must converge");
        }
        assert!(runs > 1, "first slice must exhaust its budget");
        let cert = last.certificate.expect("warm UNSAT emits a certificate");
        assert_eq!(cert.bound + 1, last.partition.len());
        certcheck::check_certificate(&cert.cnf, &cert.drat)
            .expect("warm-path proof must check like a cold one");
    }

    #[test]
    fn pending_core_rehydration_under_certify_is_honest_and_warm() {
        // Regression for the old `certify ⇒ drop the rehydrated core` rule:
        // importing a mid-descent export and continuing under certify must
        // (a) still produce a proof the independent checker accepts and
        // (b) actually resume — not silently restart from scratch.
        let m = hard_matrix();
        let cfg = SapConfig {
            conflict_budget: Some(SLICE),
            packing: PackingConfig::with_trials(4),
            ..SapConfig::default()
        };
        let mut donor = SapSession::new(&m, &cfg);
        for _ in 0..4 {
            if donor.proved_optimal() {
                break;
            }
            donor.run(&cfg);
        }
        let export = donor.export(100_000);
        assert!(!export.core.is_empty(), "mid-descent core must be nonempty");

        let certify_cfg = SapConfig {
            certify: true,
            ..cfg.clone()
        };
        let mut warm = SapSession::import(&export, lower_bound(&export.matrix, false))
            .expect("genuine export imports");
        let warm_start = warm.total_conflicts();
        let mut last = warm.run(&certify_cfg);
        let mut rounds = 0u32;
        while !warm.proved_optimal() {
            last = warm.run(&certify_cfg);
            rounds += 1;
            assert!(rounds < 10_000, "rehydrated certify session must converge");
        }
        let cert = last
            .certificate
            .expect("rehydrated UNSAT emits a certificate");
        certcheck::check_certificate(&cert.cnf, &cert.drat).expect("rehydrated proof must verify");
        let warm_spent = warm.total_conflicts() - warm_start;

        let mut cold = SapSession::new(&m, &cfg);
        let mut cold_rounds = 0u32;
        while !cold.proved_optimal() {
            cold.run(&cfg);
            cold_rounds += 1;
            assert!(cold_rounds < 10_000);
        }
        assert!(
            warm_spent < cold.total_conflicts(),
            "certify must not silently discard the warm start: {warm_spent} vs {}",
            cold.total_conflicts()
        );
    }

    #[test]
    fn certification_not_applicable_without_unsat() {
        // Identity: packing meets the rank floor, no SAT query happens.
        let out = sap(
            &BitMatrix::identity(4),
            &SapConfig {
                certify: true,
                ..SapConfig::default()
            },
        );
        assert!(out.proved_optimal);
        assert!(out.certificate.is_none());
    }

    #[test]
    fn pre_cancelled_token_skips_sat_phase() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let cfg = SapConfig {
            cancel: Some(token),
            ..SapConfig::default()
        };
        let out = sap(&m, &cfg);
        // The incumbent is still the (valid) packing result; no query ran
        // and optimality was not claimed via SAT.
        assert!(out.partition.validate(&m).is_ok());
        assert!(out.stats.queries.is_empty());
        assert!(!out.proved_optimal);
    }

    /// Skipping the exact phase outright (the Table I harness does so for
    /// its 100×100 family) is an already-cancelled token: the session keeps
    /// its packing incumbent without querying SAT or building an encoder.
    #[test]
    fn max_sat_cells_skips_exact_phase() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let cfg = SapConfig {
            cancel: Some(token),
            ..SapConfig::default()
        };
        let mut session = SapSession::new(&m, &cfg);
        let out = session.run(&cfg);
        assert!(out.stats.queries.is_empty(), "SAT phase must be skipped");
        assert_eq!(session.export(0).encoder_capacity, None);
        assert!(out.partition.validate(&m).is_ok());
        assert!(!out.proved_optimal);
    }

    #[test]
    fn cancelled_encoder_build_keeps_no_encoding_and_the_pending_core() {
        let m = hard_matrix();
        let cfg = SapConfig {
            conflict_budget: Some(SLICE),
            ..SapConfig::default()
        };
        let mut donor = SapSession::new(&m, &cfg);
        donor.run(&cfg);
        let export = donor.export(100_000);
        assert!(!export.core.is_empty(), "mid-descent core must be nonempty");

        let token = CancelToken::new();
        token.cancel();
        let cancelled = SapConfig {
            cancel: Some(token),
            ..cfg
        };
        let mut warm = SapSession::import(&export, lower_bound(&export.matrix, false))
            .expect("genuine export imports");
        let out = warm.run(&cancelled);
        assert!(warm.encoder.is_none(), "a cancelled build keeps no encoder");
        assert!(out.stats.queries.is_empty());
        assert!(!out.proved_optimal);
        assert!(out.partition.validate(&m).is_ok());
        // The learnt core still waits for the next run's build.
        assert_eq!(warm.export(100_000).core, export.core);
    }

    /// Conflicts per run in the sliced-descent tests: a few times less
    /// than [`hard_matrix`]'s descent needs.
    const SLICE: u64 = 5;

    /// A matrix whose descent needs enough conflicts that a [`SLICE`]
    /// budget leaves the session mid-descent at least once (a rank-gap
    /// instance whose final UNSAT query costs about 30 conflicts).
    fn hard_matrix() -> BitMatrix {
        crate::gen::gap_benchmark(10, 10, 3, 2).matrix
    }

    #[test]
    fn session_resumes_descent_across_runs() {
        let m = hard_matrix();
        let cfg = SapConfig {
            conflict_budget: Some(SLICE),
            packing: PackingConfig::with_trials(4),
            ..SapConfig::default()
        };
        let mut session = SapSession::new(&m, &cfg);
        let mut runs = 0u32;
        while !session.proved_optimal() {
            let out = session.run(&cfg);
            assert!(out.partition.validate(&m).is_ok());
            runs += 1;
            assert!(runs < 10_000, "session must converge");
        }
        assert!(runs > 1, "first slice must exhaust its budget");

        // Cold baseline: the same budget restarted from scratch each round
        // makes no progress at all — it re-spends the same conflicts.
        let cold = sap(&m, &cfg);
        assert!(!cold.proved_optimal, "one cold slice must not prove it");
        // And the session's total spend stays close to a single unlimited
        // descent (no re-derivation), far below runs × cold-slice work.
        let unlimited = sap(
            &m,
            &SapConfig {
                conflict_budget: None,
                ..cfg.clone()
            },
        );
        assert!(unlimited.proved_optimal);
        let single_shot: u64 = unlimited.stats.queries.iter().map(|q| q.conflicts).sum();
        assert!(
            session.total_conflicts() <= single_shot.max(SLICE) * 3,
            "warm resume must not blow up: {} vs single-shot {}",
            session.total_conflicts(),
            single_shot
        );
    }

    #[test]
    fn session_offer_incumbent_skips_proved_work() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let cfg = SapConfig::default();
        let mut donor = SapSession::new(&m, &cfg);
        let proved = donor.run(&cfg);
        assert!(proved.proved_optimal);

        let mut session = SapSession::new(&m, &cfg);
        session.offer_incumbent(&proved.partition);
        assert_eq!(session.best().len(), 5);
        // The offered depth-5 incumbent is above the rank floor (4), so the
        // session still has to prove UNSAT at 4 — but never re-searches 5.
        let out = session.run(&cfg);
        assert!(out.proved_optimal);
        assert!(out.stats.queries.iter().all(|q| q.bound <= 4));
    }

    #[test]
    fn session_on_proved_matrix_runs_no_queries() {
        let cfg = SapConfig::default();
        let mut session = SapSession::new(&BitMatrix::identity(4), &cfg);
        assert!(session.proved_optimal(), "packing meets the rank floor");
        let out = session.run(&cfg);
        assert!(out.proved_optimal);
        assert!(out.stats.queries.is_empty());
        assert_eq!(session.total_conflicts(), 0);
    }

    #[test]
    fn exported_session_roundtrips_and_resumes_cheaper() {
        let m = hard_matrix();
        let cfg = SapConfig {
            conflict_budget: Some(SLICE),
            packing: PackingConfig::with_trials(4),
            ..SapConfig::default()
        };
        // Burn a few budget slices so the session sits mid-descent with a
        // real learnt-clause core.
        let mut donor = SapSession::new(&m, &cfg);
        for _ in 0..4 {
            if donor.proved_optimal() {
                break;
            }
            donor.run(&cfg);
        }
        let export = donor.export(100_000);
        assert_eq!(export.matrix, m);
        assert!(!export.core.is_empty(), "mid-descent core must be nonempty");

        // The rehydrated session must converge with (far) fewer fresh
        // conflicts than a cold session run under the same slicing.
        let mut warm = SapSession::import(&export, lower_bound(&export.matrix, false))
            .expect("genuine export imports");
        assert_eq!(warm.best().len(), donor.best().len());
        let warm_start = warm.total_conflicts();
        let mut rounds = 0u32;
        while !warm.proved_optimal() {
            warm.run(&cfg);
            rounds += 1;
            assert!(rounds < 10_000, "rehydrated session must converge");
        }
        let warm_spent = warm.total_conflicts() - warm_start;

        let mut cold = SapSession::new(&m, &cfg);
        let mut cold_rounds = 0u32;
        while !cold.proved_optimal() {
            cold.run(&cfg);
            cold_rounds += 1;
            assert!(cold_rounds < 10_000);
        }
        assert!(
            warm_spent < cold.total_conflicts(),
            "rehydrated descent must resume, not restart: {warm_spent} vs {}",
            cold.total_conflicts()
        );
    }

    #[test]
    fn proved_session_export_answers_instantly_after_import() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let cfg = SapConfig::default();
        let mut donor = SapSession::new(&m, &cfg);
        assert!(donor.run(&cfg).proved_optimal);
        let export = donor.export(10_000);
        assert!(export.proved);

        let mut warm =
            SapSession::import(&export, lower_bound(&export.matrix, false)).expect("imports");
        assert!(warm.proved_optimal());
        let before = warm.total_conflicts();
        let out = warm.run(&cfg);
        assert!(out.proved_optimal);
        assert_eq!(out.partition.len(), 5);
        assert!(out.partition.validate(&m).is_ok());
        assert_eq!(warm.total_conflicts(), before, "no fresh SAT work");
    }

    #[test]
    fn import_rejects_mismatched_exports() {
        let m: BitMatrix = "110\n011\n111".parse().unwrap();
        let cfg = SapConfig::default();
        let mut donor = SapSession::new(&m, &cfg);
        donor.run(&cfg);
        let good = donor.export(1_000);
        assert!(SapSession::import(&good, lower_bound(&good.matrix, false)).is_ok());

        // Out-of-range rectangle indices.
        let mut bad = good.clone();
        bad.best = vec![(vec![7], vec![0])];
        assert!(SapSession::import(&bad, lower_bound(&bad.matrix, false)).is_err());

        // An incumbent that is not a partition of the matrix.
        let mut bad = good.clone();
        bad.best = vec![(vec![0], vec![0])];
        assert!(SapSession::import(&bad, lower_bound(&bad.matrix, false)).is_err());

        // An absurd encoder capacity (memory-bomb guard).
        let mut bad = good.clone();
        bad.encoder_capacity = Some(10_000);
        assert!(SapSession::import(&bad, lower_bound(&bad.matrix, false)).is_err());
        let mut bad = good;
        bad.encoder_capacity = Some(0);
        assert!(SapSession::import(&bad, lower_bound(&bad.matrix, false)).is_err());
    }

    /// A record that claims an encoder below its own incumbent (every
    /// session builds at `|best| − 1`, and `|best|` only falls) would make
    /// `run` descend from that capacity: under the floor (1) it calls the
    /// incumbent optimal at once, at the floor (7) an UNSAT answer does.
    #[test]
    fn import_rejects_a_capacity_below_the_incumbent() {
        let m = crate::gen::gap_benchmark(10, 10, 3, 2).matrix;
        let lb = lower_bound(&m, false);
        assert_eq!(lb.value, 7);
        for capacity in [1, 7] {
            let export = SessionExport {
                best: m
                    .ones_positions()
                    .into_iter()
                    .map(|(i, j)| (vec![i], vec![j]))
                    .collect(),
                matrix: m.clone(),
                proved: false,
                encoder_capacity: Some(capacity),
                core: Vec::new(),
            };
            assert_eq!(export.best.len(), 34);
            assert!(
                SapSession::import(&export, lb).is_err(),
                "capacity {capacity} below a 34-rectangle incumbent imported"
            );
        }
    }

    #[test]
    fn reexport_without_rehydration_keeps_the_core() {
        let m = hard_matrix();
        let cfg = SapConfig {
            conflict_budget: Some(SLICE),
            packing: PackingConfig::with_trials(4),
            ..SapConfig::default()
        };
        let mut donor = SapSession::new(&m, &cfg);
        donor.run(&cfg);
        let export = donor.export(100_000);
        assert!(!export.core.is_empty());
        // import → export without any run in between: the parked core must
        // survive the round trip (double-restart scenario).
        let warm =
            SapSession::import(&export, lower_bound(&export.matrix, false)).expect("imports");
        let again = warm.export(100_000);
        assert_eq!(again.core, export.core);
        assert_eq!(again.encoder_capacity, export.encoder_capacity);
    }

    #[test]
    fn anytime_budget_returns_valid_incumbent() {
        let m: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap();
        let cfg = SapConfig {
            conflict_budget: Some(1),
            ..SapConfig::default()
        };
        let out = sap(&m, &cfg);
        assert!(out.partition.validate(&m).is_ok());
        // With a 1-conflict budget the outcome may or may not be proved,
        // but the incumbent must be at least as good as packing alone.
        assert!(out.depth() <= 6);
    }
}
