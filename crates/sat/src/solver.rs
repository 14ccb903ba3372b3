//! The CDCL search engine.

use crate::cancel::CancelToken;
use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::proof::{check_rup_refutation, Proof, ProofError, ProofStep};
use crate::types::{Lit, SolveResult, SolverStats, Var};

/// Entry of a watch list: the clause plus a *blocker* literal whose
/// satisfaction lets propagation skip the clause without touching it.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: ClauseRef,
    blocker: Lit,
}

/// A conflict-driven clause-learning (CDCL) SAT solver.
///
/// Implements the standard modern architecture: two-watched-literal unit
/// propagation, VSIDS variable activities with an indexed heap, phase saving,
/// first-UIP conflict analysis with clause minimization, non-chronological
/// backtracking, Luby-sequence restarts and LBD-based learnt-clause database
/// reduction. Clauses may be added incrementally between `solve` calls, and
/// solving under assumptions is supported — both are used by the EBMF solver
/// of this workspace to shrink the rectangle budget one step at a time
/// (paper Algorithm 1).
///
/// # Examples
///
/// ```
/// use rect_addr_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([a.negative()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// s.add_clause([b.negative()]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    /// Watch lists indexed by literal code: `watches[p]` holds the clauses
    /// that must be inspected when literal `p` becomes **true** (they watch
    /// `¬p`, which just became false).
    watches: Vec<Vec<Watcher>>,
    assign: Vec<Option<bool>>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause of each propagated variable (`None` for decisions).
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    saved_phase: Vec<bool>,
    /// False once an unconditional contradiction has been derived.
    ok: bool,
    seen: Vec<bool>,
    stats: SolverStats,
    conflict_budget: Option<u64>,
    /// Cooperative interrupt checked at every conflict and decision.
    interrupt: Option<CancelToken>,
    /// Learnt-clause count that triggers the next database reduction.
    max_learnt: f64,
    model: Vec<bool>,
    /// Clausal proof trace (axioms + lemmas), when logging is enabled.
    proof: Option<Proof>,
    /// The assumption set in effect when the last `solve` answered Unsat
    /// **under assumptions** (no standalone refutation of the base formula
    /// exists in that case); `None` after SAT/Unknown answers and after
    /// global UNSAT. See [`Solver::refutation_proof`].
    last_assumption_core: Option<Vec<Lit>>,
}

const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 100;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::new(),
            saved_phase: Vec::new(),
            ok: true,
            seen: Vec::new(),
            stats: SolverStats::default(),
            conflict_budget: None,
            interrupt: None,
            max_learnt: 2000.0,
            model: Vec::new(),
            proof: None,
            last_assumption_core: None,
        }
    }

    /// Creates a solver pre-sized with `n` variables.
    pub fn with_vars(n: usize) -> Self {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new()); // positive literal
        self.watches.push(Vec::new()); // negative literal
        self.order.grow_to(self.assign.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Search statistics accumulated over all `solve` calls.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits each subsequent `solve` call to at most `budget` conflicts
    /// (`None` removes the limit). When exhausted, `solve` returns
    /// [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Installs (or clears) a cooperative interrupt token. While solving,
    /// the token is polled at every conflict and decision; once tripped the
    /// solver backtracks to level 0 and answers
    /// [`SolveResult::Unknown`], exactly like an exhausted conflict budget.
    pub fn set_interrupt(&mut self, token: Option<CancelToken>) {
        self.interrupt = token;
    }

    #[inline]
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }

    /// Starts recording a clausal proof: every clause added from now on is
    /// an axiom, every learnt clause a lemma, and an UNSAT answer ends the
    /// trace with the empty clause. Verify with
    /// [`Solver::verify_unsat_proof`] or export via [`Proof::to_drat`].
    ///
    /// # Panics
    ///
    /// Panics if clauses were already added (their derivations would be
    /// missing from the trace).
    pub fn enable_proof_logging(&mut self) {
        assert!(
            self.db.live_refs().next().is_none() && self.trail.is_empty(),
            "enable proof logging before adding clauses"
        );
        self.proof = Some(Proof::default());
    }

    /// The recorded proof, if logging was enabled.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }

    /// The assumptions in effect when the last solve answered Unsat under
    /// assumptions (empty slice ⇒ the last UNSAT was global, or the last
    /// answer was not UNSAT).
    pub fn last_assumption_core(&self) -> &[Lit] {
        self.last_assumption_core.as_deref().unwrap_or(&[])
    }

    /// A **self-contained refutation** of the last UNSAT answer, or `None`
    /// when proof logging is off or the last answer was not UNSAT.
    ///
    /// For a global UNSAT the recorded trace already ends in the empty
    /// clause and is returned as-is. For an UNSAT **under assumptions** —
    /// which has no standalone refutation — the assumption core is appended
    /// as unit axioms and the trace gains a final empty-clause step (see
    /// [`Proof::assuming`]): the result refutes *formula ∧ assumptions* and
    /// checks under any DRAT validator with no knowledge of this solver.
    pub fn refutation_proof(&self) -> Option<Proof> {
        let proof = self.proof.as_ref()?;
        match &self.last_assumption_core {
            Some(core) => Some(proof.assuming(core)),
            None => proof.derives_empty_clause().then(|| proof.clone()),
        }
    }

    /// Replays the recorded refutation through the independent RUP checker,
    /// confirming that the UNSAT answer is certified. UNSAT-under-assumptions
    /// answers are checked through [`Solver::refutation_proof`], i.e. against
    /// the assumption-strengthened axiom set.
    ///
    /// # Errors
    ///
    /// Returns the first failed step, or [`ProofError::NoEmptyClause`] when
    /// no refutation was recorded (e.g. the last answer was SAT).
    ///
    /// # Panics
    ///
    /// Panics if proof logging was never enabled.
    pub fn verify_unsat_proof(&self) -> Result<(), ProofError> {
        assert!(self.proof.is_some(), "proof logging not enabled");
        match self.refutation_proof() {
            Some(refutation) => check_rup_refutation(&refutation),
            None => Err(ProofError::NoEmptyClause),
        }
    }

    fn log_lemma(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.steps.push(ProofStep::Add(lits.to_vec()));
        }
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.steps.push(ProofStep::Delete(lits.to_vec()));
        }
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|b| b == l.is_positive())
    }

    /// Truth value of `v` in the model of the last `Sat` answer, or in the
    /// current (level-0) partial assignment otherwise.
    pub fn value(&self, v: Var) -> Option<bool> {
        if !self.model.is_empty() {
            self.model.get(v.index()).copied()
        } else {
            self.assign[v.index()]
        }
    }

    /// The satisfying assignment found by the last successful `solve` call,
    /// indexed by variable. Empty if the last call did not return
    /// [`SolveResult::Sat`].
    pub fn model(&self) -> &[bool] {
        &self.model
    }

    /// Adds a clause. Returns `false` if the solver is now known
    /// unsatisfiable at level 0 (the clause was empty after simplification,
    /// or propagating its unit consequence produced a contradiction).
    ///
    /// May be called freely between `solve` calls.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable not created with
    /// [`Solver::new_var`].
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for &l in &lits {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} references unallocated variable"
            );
        }
        if let Some(p) = self.proof.as_mut() {
            p.axioms.push(lits.clone());
        }
        // Simplify w.r.t. the level-0 assignment: sort/dedup, detect
        // tautologies, drop false literals, skip satisfied clauses.
        lits.sort_unstable();
        lits.dedup();
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        for (k, &l) in lits.iter().enumerate() {
            if k + 1 < lits.len() && lits[k + 1] == !l {
                return true; // tautology: x ∨ ¬x
            }
            match self.value_lit(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => {}          // drop falsified literal
                None => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                self.log_lemma(&[]);
                false
            }
            1 => {
                self.enqueue(simplified[0], None);
                // Propagate eagerly so later additions see the consequences
                // and level-0 conflicts surface immediately.
                if self.propagate().is_some() {
                    self.ok = false;
                    self.log_lemma(&[]);
                }
                self.ok
            }
            _ => {
                let cr = self.db.add(simplified, false, 0);
                self.attach(cr);
                true
            }
        }
    }

    fn attach(&mut self, cr: ClauseRef) {
        let (l0, l1) = {
            let c = self.db.get(cr);
            (c.lits[0], c.lits[1])
        };
        self.watches[(!l0).code()].push(Watcher {
            clause: cr,
            blocker: l1,
        });
        self.watches[(!l1).code()].push(Watcher {
            clause: cr,
            blocker: l0,
        });
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Puts `l` on the trail as true with the given reason.
    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.value_lit(l).is_none(), "enqueue of assigned literal");
        let v = l.var();
        self.assign[v.index()] = Some(l.is_positive());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        'queue: while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'next_watcher: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                if self.value_lit(w.blocker) == Some(true) {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cr = w.clause;
                // The false watched literal is ¬p; normalize it to lits[1].
                let false_lit = !p;
                {
                    let c = self.db.get_mut(cr);
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.db.get(cr).lits[0];
                if first != w.blocker && self.value_lit(first) == Some(true) {
                    ws[j] = Watcher {
                        clause: cr,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a replacement watch among the tail literals.
                let len = self.db.get(cr).lits.len();
                for k in 2..len {
                    let lk = self.db.get(cr).lits[k];
                    if self.value_lit(lk) != Some(false) {
                        self.db.get_mut(cr).lits.swap(1, k);
                        // lk != !p (lk is non-false, !p is false), so this
                        // never pushes into the list we are draining.
                        self.watches[(!lk).code()].push(Watcher {
                            clause: cr,
                            blocker: first,
                        });
                        continue 'next_watcher;
                    }
                }
                // No replacement: clause is unit or conflicting.
                ws[j] = Watcher {
                    clause: cr,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == Some(false) {
                    // Conflict: flush the queue, keep remaining watchers.
                    conflict = Some(cr);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[p.code()] = ws;
                    break 'queue;
                }
                self.enqueue(first, Some(cr));
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a /= RESCALE_LIMIT;
            }
            self.var_inc /= RESCALE_LIMIT;
        }
        self.order.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first, a maximal-level literal second) and the backtrack
    /// level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0: asserting literal
        let mut path_c = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = Some(confl);
        loop {
            let cr = confl.expect("propagated literal must have a reason");
            let start = usize::from(p.is_some());
            let clause_len = self.db.get(cr).lits.len();
            for k in start..clause_len {
                let q = self.db.get(cr).lits[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal to resolve on: the most recently
            // assigned seen literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            p = Some(pl);
            if path_c == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
        }
        learnt[0] = !p.expect("asserting literal");

        // Remember every var whose seen flag is still set (= learnt[1..]),
        // then minimize: a literal is redundant if its reason consists only
        // of literals already in the clause or fixed at level 0.
        let seen_vars: Vec<Var> = learnt[1..].iter().map(|l| l.var()).collect();
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.literal_redundant(l))
            .collect();
        learnt.truncate(1);
        learnt.extend(keep);
        for v in seen_vars {
            self.seen[v.index()] = false;
        }

        // Backtrack level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    /// Whether a learnt-clause literal is implied by the remaining clause
    /// literals (basic, non-recursive check — cf. minisat ccmin "basic").
    fn literal_redundant(&self, l: Lit) -> bool {
        let Some(r) = self.reason[l.var().index()] else {
            return false;
        };
        self.db.get(r).lits[1..]
            .iter()
            .all(|&q| self.seen[q.var().index()] || self.level[q.var().index()] == 0)
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for k in (lim..self.trail.len()).rev() {
            let l = self.trail[k];
            let v = l.var();
            self.saved_phase[v.index()] = l.is_positive();
            self.assign[v.index()] = None;
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// Number of distinct decision levels among the literals (the LBD).
    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// Deletes roughly the worse half of the learnt clauses (high LBD
    /// first), keeping binary, glue and reason clauses.
    fn reduce_db(&mut self) {
        let mut candidates: Vec<ClauseRef> = self
            .db
            .learnt_refs()
            .filter(|&cr| {
                let c = self.db.get(cr);
                c.lits.len() > 2 && c.lbd > 2 && !self.is_reason(cr)
            })
            .collect();
        candidates.sort_by_key(|&cr| std::cmp::Reverse(self.db.get(cr).lbd));
        let to_delete = candidates.len() / 2;
        for &cr in candidates.iter().take(to_delete) {
            let lits = self.db.get(cr).lits.clone();
            self.log_delete(&lits);
            self.db.delete(cr);
            self.stats.learnt_deleted += 1;
        }
        self.rebuild_watches();
    }

    fn is_reason(&self, cr: ClauseRef) -> bool {
        let first = self.db.get(cr).lits[0];
        self.reason[first.var().index()] == Some(cr) && self.value_lit(first) == Some(true)
    }

    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        let refs: Vec<ClauseRef> = self.db.live_refs().collect();
        for cr in refs {
            self.attach(cr);
        }
    }

    /// Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
    fn luby(x: u64) -> u64 {
        let (mut size, mut seq) = (1u64, 0u32);
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        let mut x = x;
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// Exports a **learnt-clause core**: the strongest derived knowledge of
    /// this solver, suitable for reinjection into a fresh solver built from
    /// the *identical* formula (see [`Solver::import_core`]). The core holds
    /// every level-0 implied literal as a unit clause plus up to
    /// `max_clauses` live learnt clauses, lowest LBD (then shortest) first —
    /// the same quality order the database reduction keeps.
    ///
    /// Learnt clauses are logical consequences of the formula alone (never
    /// of any assumptions), so the core is sound to re-add to an equivalent
    /// clause set.
    pub fn export_core(&self, max_clauses: usize) -> Vec<Vec<Lit>> {
        let mut core: Vec<Vec<Lit>> = Vec::new();
        // Level-0 trail: unconditional consequences. Between solve calls the
        // solver sits at level 0, so the whole trail qualifies.
        let level0 = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..level0] {
            core.push(vec![l]);
        }
        let mut learnt: Vec<ClauseRef> = self.db.learnt_refs().collect();
        learnt.sort_by_key(|&cr| {
            let c = self.db.get(cr);
            (c.lbd, c.lits.len())
        });
        for cr in learnt.into_iter().take(max_clauses) {
            core.push(self.db.get(cr).lits.clone());
        }
        core
    }

    /// Reinjects a core previously produced by [`Solver::export_core`] on a
    /// solver with the **same formula**. Returns `Ok(n)` with the number of
    /// clauses accepted.
    ///
    /// Structurally defensive — this is fed from disk: a literal referencing
    /// an unallocated variable, or an empty clause, rejects the whole core
    /// (`Err`) before any mutation. A level-0 conflict while re-adding is
    /// **not** an error: a genuine core from a solver that had derived
    /// global UNSAT re-derives that contradiction instantly, which is
    /// exactly the saved work. Semantic integrity (the core matching this
    /// formula) is the responsibility of the storage layer's checksum.
    pub fn import_core(&mut self, core: &[Vec<Lit>]) -> Result<usize, String> {
        for clause in core {
            if clause.is_empty() {
                return Err("core contains an empty clause".to_string());
            }
            for &l in clause {
                if l.var().index() >= self.num_vars() {
                    return Err(format!("core literal {l} references unallocated variable"));
                }
            }
        }
        let mut added = 0usize;
        for clause in core {
            added += 1;
            if !self.add_clause(clause.iter().copied()) {
                // Level-0 UNSAT derived: every further clause is moot.
                break;
            }
        }
        Ok(added)
    }

    /// Core reinjection that **re-derives** every clause instead of
    /// asserting it — the certify-mode counterpart of
    /// [`Solver::import_core`]. A plain import records each core clause as
    /// an *axiom*, which is a lie in a proof trace: the clause was learnt by
    /// a previous session, not given. Here each clause `C` is first refuted
    /// against the current formula by solving under the assumptions `¬C`
    /// (spending at most `effort` conflicts); an UNSAT answer means the
    /// solver's own trace now contains lemmas from which `C` follows by
    /// unit propagation, so `C` is appended as a **lemma** (RUP at that
    /// point, checkable by any DRAT validator). Clauses that cannot be
    /// re-derived within the effort budget are dropped — that only costs
    /// warm-start quality, never soundness. Returns the number of clauses
    /// accepted.
    ///
    /// Works with or without proof logging; structural validation matches
    /// [`Solver::import_core`].
    ///
    /// # Errors
    ///
    /// Rejects the whole core before any mutation when a clause is empty or
    /// references an unallocated variable.
    pub fn import_core_derived(&mut self, core: &[Vec<Lit>], effort: u64) -> Result<usize, String> {
        for clause in core {
            if clause.is_empty() {
                return Err("core contains an empty clause".to_string());
            }
            for &l in clause {
                if l.var().index() >= self.num_vars() {
                    return Err(format!("core literal {l} references unallocated variable"));
                }
            }
        }
        let saved_budget = self.conflict_budget;
        let mut accepted = 0usize;
        for clause in core {
            if !self.ok {
                break;
            }
            let negation: Vec<Lit> = clause.iter().map(|&l| !l).collect();
            self.conflict_budget = Some(effort);
            let refuted = self.solve_with_assumptions(&negation) == SolveResult::Unsat;
            if refuted && self.add_derived_clause(clause.clone()) {
                accepted += 1;
            }
        }
        self.conflict_budget = saved_budget;
        // The derivation queries are internal bookkeeping, not answers.
        self.last_assumption_core = None;
        Ok(accepted)
    }

    /// Adds a clause known to be RUP w.r.t. the current formula, logging it
    /// as a **lemma** (never an axiom). The logged literals are the
    /// simplified, stored form, so later `Delete` steps match; dropping a
    /// level-0-false literal preserves RUP because the justifying unit is
    /// itself in the trace. Returns whether the clause was actually stored
    /// (tautologies and satisfied clauses are skipped).
    fn add_derived_clause(&mut self, lits: Vec<Lit>) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        let mut lits = lits;
        lits.sort_unstable();
        lits.dedup();
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        for (k, &l) in lits.iter().enumerate() {
            if k + 1 < lits.len() && lits[k + 1] == !l {
                return false; // tautology: nothing to learn
            }
            match self.value_lit(l) {
                Some(true) => return false, // already satisfied at level 0
                Some(false) => {}
                None => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                self.log_lemma(&[]);
                true
            }
            1 => {
                self.log_lemma(&simplified);
                self.enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    self.log_lemma(&[]);
                }
                true
            }
            _ => {
                self.log_lemma(&simplified);
                let cr = self.db.add(simplified, false, 0);
                self.attach(cr);
                true
            }
        }
    }

    /// Solves the current formula. See [`Solver::solve_with_assumptions`].
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals: the answer is relative to
    /// the formula **and** all assumptions held true. Assumptions do not
    /// persist between calls.
    ///
    /// Returns [`SolveResult::Unknown`] only when the conflict budget set via
    /// [`Solver::set_conflict_budget`] is exhausted (or the interrupt
    /// trips). Every learnt clause and all variable activity survive such
    /// an answer, so calling again continues the search where it stopped.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.model.clear();
        self.last_assumption_core = None;
        self.cancel_until(0);
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            self.log_lemma(&[]);
            return SolveResult::Unsat;
        }
        for &a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption {a} references unallocated variable"
            );
        }
        let budget_start = self.stats.conflicts;
        let mut restart_round = 0u64;
        let mut conflicts_until_restart = RESTART_BASE * Self::luby(restart_round);
        let mut conflicts_this_restart = 0u64;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.log_lemma(&[]);
                    return SolveResult::Unsat;
                }
                if (self.decision_level() as usize) <= assumptions.len() {
                    // Conflict inside the assumption prefix: unsatisfiable
                    // under these assumptions. Record the core so a
                    // self-contained refutation of formula ∧ assumptions
                    // can be emitted (see `refutation_proof`).
                    self.last_assumption_core = Some(assumptions.to_vec());
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bt_nat) = self.analyze(confl);
                self.log_lemma(&learnt);
                // Never backtrack into the assumption prefix.
                let bt = bt_nat.max(assumptions.len() as u32);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    // Asserting literal is unassigned after backtracking
                    // (it was assigned strictly above `bt`).
                    self.enqueue(learnt[0], None);
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let first = learnt[0];
                    let cr = self.db.add(learnt, true, lbd);
                    self.attach(cr);
                    self.enqueue(first, Some(cr));
                }
                self.var_inc /= VAR_DECAY;
                if let Some(b) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= b {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                }
                if self.interrupted() {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                if self.db.num_learnt() as f64 > self.max_learnt {
                    self.reduce_db();
                    self.max_learnt *= 1.3;
                }
                if conflicts_this_restart >= conflicts_until_restart {
                    self.stats.restarts += 1;
                    restart_round += 1;
                    conflicts_until_restart = RESTART_BASE * Self::luby(restart_round);
                    conflicts_this_restart = 0;
                    self.cancel_until(0);
                }
            } else {
                // Assumptions first, then VSIDS decisions.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value_lit(p) {
                        Some(true) => {
                            // Dummy level keeps the level ↔ assumption-index
                            // correspondence.
                            self.new_decision_level();
                        }
                        Some(false) => {
                            // An assumption is already refuted by earlier
                            // assumptions + propagation: same core story as
                            // the prefix-conflict path above.
                            self.last_assumption_core = Some(assumptions.to_vec());
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        None => {
                            self.new_decision_level();
                            self.enqueue(p, None);
                        }
                    }
                    continue;
                }
                let mut next = None;
                while let Some(v) = self.order.pop_max(&self.activity) {
                    if self.assign[v.index()].is_none() {
                        next = Some(v);
                        break;
                    }
                }
                let Some(v) = next else {
                    // All variables assigned: model found.
                    self.model = self.assign.iter().map(|a| a.unwrap_or(false)).collect();
                    self.cancel_until(0);
                    return SolveResult::Sat;
                };
                if self.interrupted() {
                    self.order.insert(v, &self.activity);
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                self.stats.decisions += 1;
                self.new_decision_level();
                self.enqueue(v.lit(self.saved_phase[v.index()]), None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, v: i64) -> Lit {
        while s.num_vars() < v.unsigned_abs() as usize {
            s.new_var();
        }
        Lit::from_dimacs(v)
    }

    fn add(s: &mut Solver, c: &[i64]) -> bool {
        let lits: Vec<Lit> = c.iter().map(|&v| lit(s, v)).collect();
        s.add_clause(lits)
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit_clause() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(0)), Some(true));
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        assert!(!add(&mut s, &[-1]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        add(&mut s, &[-1, 2]);
        add(&mut s, &[-2, 3]);
        add(&mut s, &[-3, 4]);
        add(&mut s, &[1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for i in 0..4 {
            assert_eq!(s.value(Var::from_index(i)), Some(true));
        }
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        assert!(add(&mut s, &[1, -1]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn xor_chain_sat() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1 encoded as CNF; satisfiable.
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        add(&mut s, &[-1, -2]);
        add(&mut s, &[2, 3]);
        add(&mut s, &[-2, -3]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model().to_vec();
        assert_ne!(m[0], m[1]);
        assert_ne!(m[1], m[2]);
    }

    /// Pigeonhole principle PHP(n+1, n): n+1 pigeons, n holes — UNSAT.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        // var(p, h) = p * holes + h + 1 (DIMACS numbering)
        let v = |p: usize, h: usize| (p * holes + h + 1) as i64;
        for p in 0..pigeons {
            let clause: Vec<i64> = (0..holes).map(|h| v(p, h)).collect();
            add(s, &clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    add(s, &[-v(p1, h), -v(p2, h)]);
                }
            }
        }
    }

    #[test]
    fn php_4_3_unsat() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn php_5_5_sat() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 5);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn php_7_6_unsat_exercises_learning() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        let a = Lit::from_dimacs(-1);
        let b = Lit::from_dimacs(-2);
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(1)), Some(true));
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        // The formula itself is still satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn contradictory_assumptions_unsat() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]); // ensure vars exist
        let p = Lit::from_dimacs(1);
        assert_eq!(s.solve_with_assumptions(&[p, !p]), SolveResult::Unsat);
    }

    #[test]
    fn incremental_tightening() {
        // Start satisfiable, add clauses until UNSAT — the EBMF usage
        // pattern of Algorithm 1.
        let mut s = Solver::new();
        add(&mut s, &[1, 2, 3]);
        assert_eq!(s.solve(), SolveResult::Sat);
        add(&mut s, &[-1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        add(&mut s, &[-2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(2)), Some(true));
        add(&mut s, &[-3]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Once UNSAT at level 0, it stays UNSAT.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn resumable_budget_accumulates_progress_to_unsat() {
        // A hard UNSAT instance; repeated 50-conflict calls must eventually
        // prove it because learnt clauses persist across exhausted calls.
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        s.set_conflict_budget(Some(50));
        let mut rounds = 0u32;
        let result = loop {
            match s.solve() {
                SolveResult::Unknown => {
                    rounds += 1;
                    assert!(rounds < 10_000, "descent must terminate");
                }
                done => break done,
            }
        };
        assert_eq!(result, SolveResult::Unsat);
        assert!(
            rounds > 0,
            "instance must be hard enough to exhaust a budget"
        );
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_formula() {
        let mut s = Solver::new();
        let clauses: Vec<Vec<i64>> = vec![vec![1, 2, -3], vec![-1, 3], vec![2, 3], vec![-2, -3, 1]];
        for c in &clauses {
            add(&mut s, c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model();
        for c in &clauses {
            assert!(
                c.iter().any(|&v| {
                    let val = m[(v.unsigned_abs() - 1) as usize];
                    (v > 0) == val
                }),
                "clause {c:?} unsatisfied by model {m:?}"
            );
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn duplicate_literals_are_deduped() {
        let mut s = Solver::new();
        add(&mut s, &[1, 1, 1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(0)), Some(true));
    }

    #[test]
    fn clause_added_after_unsat_reports_false() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        add(&mut s, &[-1]);
        assert!(!add(&mut s, &[2]));
    }

    #[test]
    fn unsat_proof_verifies_on_pigeonhole() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        pigeonhole(&mut s, 5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.verify_unsat_proof(), Ok(()));
        let proof = s.proof().unwrap();
        assert!(proof.derives_empty_clause());
        assert!(!proof.axioms.is_empty());
    }

    #[test]
    fn sat_answer_has_no_refutation() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        add(&mut s, &[1, 2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.verify_unsat_proof().is_err());
    }

    #[test]
    fn incremental_unsat_proof_verifies() {
        // The EBMF narrow-down pattern: solve SAT, add bans, end UNSAT.
        let mut s = Solver::new();
        s.enable_proof_logging();
        add(&mut s, &[1, 2, 3]);
        assert_eq!(s.solve(), SolveResult::Sat);
        add(&mut s, &[-1]);
        add(&mut s, &[-2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        add(&mut s, &[-3]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.verify_unsat_proof(), Ok(()));
    }

    #[test]
    fn proof_with_db_reduction_still_verifies() {
        // Force learnt-clause deletions during a long UNSAT run, ensuring
        // Delete steps replay correctly.
        let mut s = Solver::new();
        s.enable_proof_logging();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.verify_unsat_proof(), Ok(()));
    }

    #[test]
    fn tampered_proof_is_rejected() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        pigeonhole(&mut s, 4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let mut proof = s.proof().unwrap().clone();
        // Remove one axiom: the derivation should no longer check.
        proof.axioms.remove(0);
        assert!(crate::proof::check_rup_refutation(&proof).is_err());
    }

    #[test]
    fn assumption_unsat_yields_self_contained_refutation() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        // Satisfiable formula; UNSAT only under the assumptions.
        add(&mut s, &[-1, -2]);
        add(&mut s, &[1, 2]);
        let a = Lit::from_dimacs(1);
        let b = Lit::from_dimacs(2);
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        assert_eq!(s.last_assumption_core(), &[a, b]);
        // The raw trace has no standalone refutation…
        assert!(!s.proof().unwrap().derives_empty_clause());
        // …but the assumption-strengthened one checks end to end.
        let refutation = s.refutation_proof().expect("refutation present");
        assert_eq!(crate::proof::check_rup_refutation(&refutation), Ok(()));
        // A later SAT answer clears the core: no refutation to hand out.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.last_assumption_core().is_empty());
        assert!(s.refutation_proof().is_none());
    }

    #[test]
    fn falsified_assumption_refutation_checks() {
        // ¬a propagates at level 0 (unit axiom); assuming a hits the
        // `Some(false)` path rather than a prefix conflict.
        let mut s = Solver::new();
        s.enable_proof_logging();
        add(&mut s, &[-1]);
        add(&mut s, &[1, 2]);
        let a = Lit::from_dimacs(1);
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Unsat);
        let refutation = s.refutation_proof().expect("refutation present");
        assert_eq!(crate::proof::check_rup_refutation(&refutation), Ok(()));
    }

    #[test]
    fn global_unsat_refutation_is_the_plain_trace() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        pigeonhole(&mut s, 4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.last_assumption_core().is_empty());
        let refutation = s.refutation_proof().expect("refutation present");
        assert_eq!(refutation, s.proof().unwrap().clone());
        assert_eq!(crate::proof::check_rup_refutation(&refutation), Ok(()));
    }

    #[test]
    fn hard_assumption_unsat_refutation_checks_with_learning() {
        // Pigeonhole with the hole ban expressed as assumptions: the run
        // learns clauses (and may reduce the DB) before concluding, and the
        // strengthened trace must still replay.
        let mut t = Solver::new();
        t.enable_proof_logging();
        pigeonhole(&mut t, 6, 6);
        // Ban hole 5 for every pigeon via assumptions: PHP(6,5) in disguise.
        let bans: Vec<Lit> = (0..6)
            .map(|p| Lit::from_dimacs(-((p * 6 + 5 + 1) as i64)))
            .collect();
        assert_eq!(t.solve_with_assumptions(&bans), SolveResult::Unsat);
        assert!(t.stats().conflicts > 0, "must exercise clause learning");
        let refutation = t.refutation_proof().expect("refutation present");
        assert_eq!(crate::proof::check_rup_refutation(&refutation), Ok(()));
    }

    #[test]
    fn derived_core_import_logs_lemmas_not_axioms() {
        let mut donor = Solver::new();
        pigeonhole(&mut donor, 6, 5);
        assert_eq!(donor.solve(), SolveResult::Unsat);
        let core = donor.export_core(64);
        assert!(!core.is_empty());

        let mut warm = Solver::new();
        warm.enable_proof_logging();
        pigeonhole(&mut warm, 6, 5);
        let axioms_before = warm.proof().unwrap().axioms.len();
        let accepted = warm
            .import_core_derived(&core, 200)
            .expect("genuine core imports");
        assert!(accepted > 0, "some clauses must re-derive");
        let proof = warm.proof().unwrap();
        assert_eq!(
            proof.axioms.len(),
            axioms_before,
            "imported clauses must never masquerade as axioms"
        );
        assert_eq!(warm.solve(), SolveResult::Unsat);
        assert_eq!(warm.verify_unsat_proof(), Ok(()));
    }

    #[test]
    fn derived_import_drops_clauses_it_cannot_justify() {
        // ¬x is not implied by (x ∨ y): the derivation query answers SAT
        // and the clause must be dropped, keeping the trace honest.
        let mut s = Solver::new();
        s.enable_proof_logging();
        add(&mut s, &[1, 2]);
        let foreign = vec![vec![Lit::from_dimacs(-1)]];
        let accepted = s.import_core_derived(&foreign, 100).unwrap();
        assert_eq!(accepted, 0);
        assert!(s.proof().unwrap().steps.is_empty());
        assert_eq!(
            s.solve_with_assumptions(&[Lit::from_dimacs(1)]),
            SolveResult::Sat
        );
        // Structural garbage is still rejected wholesale.
        assert!(s.import_core_derived(&[Vec::new()], 10).is_err());
        assert!(s
            .import_core_derived(&[vec![Lit::from_dimacs(99)]], 10)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "before adding clauses")]
    fn late_proof_enabling_panics() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        s.enable_proof_logging();
    }

    #[test]
    fn exported_core_accelerates_a_fresh_solver() {
        // Learn on a hard UNSAT instance, then rebuild the same formula and
        // reinject the core: the warm solver must finish with strictly fewer
        // conflicts than the cold one did.
        let mut donor = Solver::new();
        pigeonhole(&mut donor, 7, 6);
        assert_eq!(donor.solve(), SolveResult::Unsat);
        let cold_conflicts = donor.stats().conflicts;
        assert!(cold_conflicts > 0);
        let core = donor.export_core(10_000);
        assert!(!core.is_empty(), "an UNSAT run must have learnt something");

        let mut warm = Solver::new();
        pigeonhole(&mut warm, 7, 6);
        let added = warm.import_core(&core).expect("genuine core imports");
        assert!(added > 0);
        assert_eq!(warm.solve(), SolveResult::Unsat);
        assert!(
            warm.stats().conflicts < cold_conflicts,
            "core reinjection must save conflicts: {} vs {}",
            warm.stats().conflicts,
            cold_conflicts
        );
    }

    #[test]
    fn export_core_caps_learnt_clauses_and_keeps_units() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let full = s.export_core(usize::MAX);
        let capped = s.export_core(3);
        assert!(capped.len() <= full.len());
        let units = full.iter().filter(|c| c.len() == 1).count();
        assert_eq!(
            capped.len(),
            units + 3.min(full.len() - units),
            "cap applies to learnt clauses only"
        );
    }

    #[test]
    fn import_core_rejects_unallocated_variables_and_contradictions() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        // Unknown variable: rejected wholesale, solver untouched.
        let bad = vec![vec![Lit::from_dimacs(99)]];
        assert!(s.import_core(&bad).is_err());
        assert_eq!(s.solve(), SolveResult::Sat);
        // Empty clause in the core: rejected before any mutation.
        assert!(s.import_core(&[Vec::new()]).is_err());
        assert_eq!(s.solve(), SolveResult::Sat);
        // A core that re-derives a contradiction makes the solver conclude
        // UNSAT at level 0 — the instant-answer path, not an error.
        let mut t = Solver::new();
        add(&mut t, &[1]);
        let contradiction = vec![vec![Lit::from_dimacs(-1)]];
        assert!(t.import_core(&contradiction).is_ok());
        assert_eq!(t.solve(), SolveResult::Unsat);
    }
}
