//! Clause storage: one flat literal arena plus a small header per clause.
//!
//! Every clause's literals sit back to back in one `Vec<Lit>`, in the
//! order the clauses were added; a clause is a header naming its slice of
//! that arena, its LBD and two flags. Adding a clause appends to both
//! vectors and allocates nothing per clause, so building a large encoding
//! costs two amortized vector growths instead of one heap block per
//! clause, and dropping it frees two blocks.
//!
//! A [`ClauseRef`] indexes the headers. Deletion only marks a header;
//! [`ClauseDb::compact`] then drops the marked clauses' literals and
//! headers, keeps the survivors in their order, and returns the map from
//! old to new references, which the solver applies to its reason table
//! before rebuilding the watch lists. The arena therefore holds exactly
//! the live clauses after every compaction, and a long-lived solver does
//! not grow with the clauses it deleted.

use crate::types::Lit;

/// Reference to a clause: an index into the arena's headers. Valid until
/// the next [`ClauseDb::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where one clause's literals sit in the arena, plus its metadata.
#[derive(Debug, Clone, Copy)]
struct Header {
    /// Offset of the first literal in [`ClauseDb::lits`].
    start: u32,
    /// Number of literals.
    len: u32,
    /// Literal Block Distance at learning time (0 for problem clauses).
    lbd: u32,
    /// Whether this clause was learnt (eligible for database reduction).
    learnt: bool,
    /// Set by [`ClauseDb::delete`]; the next compaction drops the clause.
    deleted: bool,
}

/// The clause arena. Invariant during search, for every clause: its first
/// two literals are the watched ones, and when the clause is the reason
/// for a propagation, the propagated literal is the first.
#[derive(Debug, Default, Clone)]
pub(crate) struct ClauseDb {
    /// Every clause's literals, back to back in header order.
    lits: Vec<Lit>,
    headers: Vec<Header>,
    /// Count of live learnt clauses, maintained on add/delete.
    num_learnt: usize,
}

impl ClauseDb {
    pub fn new() -> Self {
        ClauseDb::default()
    }

    /// Appends a copy of `lits` as a new clause.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` literals.
    pub fn add(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses live on the trail");
        // The arena's end bounds every offset and length, and every clause
        // holds at least one literal, so the header count stays below it.
        assert!(
            u32::try_from(self.lits.len() + lits.len()).is_ok(),
            "clause arena exceeds u32 literals"
        );
        let cr = ClauseRef(self.headers.len() as u32);
        self.headers.push(Header {
            start: self.lits.len() as u32,
            len: lits.len() as u32,
            lbd,
            learnt,
            deleted: false,
        });
        self.lits.extend_from_slice(lits);
        if learnt {
            self.num_learnt += 1;
        }
        cr
    }

    /// Number of clauses stored, deleted ones included until the next
    /// compaction.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Number of literals in the arena.
    #[cfg(test)]
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    #[inline]
    pub fn lits(&self, cr: ClauseRef) -> &[Lit] {
        let h = self.headers[cr.index()];
        let start = h.start as usize;
        &self.lits[start..start + h.len as usize]
    }

    #[inline]
    pub fn lits_mut(&mut self, cr: ClauseRef) -> &mut [Lit] {
        let h = self.headers[cr.index()];
        let start = h.start as usize;
        &mut self.lits[start..start + h.len as usize]
    }

    #[inline]
    pub fn lbd(&self, cr: ClauseRef) -> u32 {
        self.headers[cr.index()].lbd
    }

    /// Marks a clause deleted; [`ClauseDb::compact`] reclaims it.
    pub fn delete(&mut self, cr: ClauseRef) {
        let h = &mut self.headers[cr.index()];
        if !h.deleted {
            if h.learnt {
                self.num_learnt -= 1;
            }
            h.deleted = true;
        }
    }

    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// References of the clauses from the `from`-th on, in arena order.
    pub fn refs_from(&self, from: usize) -> impl Iterator<Item = ClauseRef> {
        (from..self.headers.len()).map(|i| ClauseRef(i as u32))
    }

    /// References of live learnt clauses, in arena order.
    pub fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.headers
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.deleted && h.learnt)
            .map(|(i, _)| ClauseRef(i as u32))
    }

    /// Drops every deleted clause's literals and header, keeping the
    /// survivors in their order. Returns the new index of each old
    /// reference; a deleted clause maps to `u32::MAX`, which no header has.
    pub fn compact(&mut self) -> Vec<u32> {
        let mut remap = vec![u32::MAX; self.headers.len()];
        let (mut kept, mut lit_end) = (0usize, 0usize);
        for (old, new) in remap.iter_mut().enumerate() {
            let h = self.headers[old];
            if h.deleted {
                continue;
            }
            let start = h.start as usize;
            let len = h.len as usize;
            // Survivors only move towards the front, so `copy_within`
            // never overwrites a literal it has yet to read.
            self.lits.copy_within(start..start + len, lit_end);
            self.headers[kept] = Header {
                start: lit_end as u32,
                ..h
            };
            *new = kept as u32;
            kept += 1;
            lit_end += len;
        }
        self.headers.truncate(kept);
        self.lits.truncate(lit_end);
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;
    use crate::{SolveResult, Solver};

    fn lits(xs: &[i64]) -> Vec<Lit> {
        xs.iter().map(|&x| Lit::from_dimacs(x)).collect()
    }

    #[test]
    fn add_get_delete() {
        let mut db = ClauseDb::new();
        let a = db.add(&lits(&[1, 2]), false, 0);
        let b = db.add(&lits(&[-1, 3, 4]), true, 2);
        assert_eq!(db.lits(a)[0].var(), Var::from_index(0));
        assert_eq!(db.lits(b), lits(&[-1, 3, 4]));
        assert_eq!(db.lbd(b), 2);
        assert_eq!(db.num_learnt(), 1);
        assert_eq!(db.len(), 2);
        assert_eq!(db.num_lits(), 5);
        db.delete(b);
        assert_eq!(db.num_learnt(), 0);
        // double delete is a no-op
        db.delete(b);
        assert_eq!(db.num_learnt(), 0);
    }

    #[test]
    fn learnt_refs_only_learnt() {
        let mut db = ClauseDb::new();
        db.add(&lits(&[1, 2]), false, 0);
        let l = db.add(&lits(&[2, 3]), true, 1);
        let learnt: Vec<_> = db.learnt_refs().collect();
        assert_eq!(learnt, vec![l]);
    }

    #[test]
    fn compact_keeps_survivors_in_order_and_remaps() {
        let mut db = ClauseDb::new();
        let a = db.add(&lits(&[1, 2]), false, 0);
        let b = db.add(&lits(&[-1, 3, 4]), true, 3);
        let c = db.add(&lits(&[2, -3, 5, 6]), true, 4);
        let d = db.add(&lits(&[-2, 4]), false, 0);
        db.delete(b);
        let remap = db.compact();
        assert_eq!(remap, vec![0, u32::MAX, 1, 2]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.num_lits(), 8);
        assert_eq!(db.lits(ClauseRef(remap[a.index()])), lits(&[1, 2]));
        assert_eq!(db.lits(ClauseRef(remap[c.index()])), lits(&[2, -3, 5, 6]));
        assert_eq!(db.lbd(ClauseRef(remap[c.index()])), 4);
        assert_eq!(db.lits(ClauseRef(remap[d.index()])), lits(&[-2, 4]));
        assert_eq!(db.num_learnt(), 1);
        // A later clause lands right after the compacted survivors.
        let e = db.add(&lits(&[5, 6]), false, 0);
        assert_eq!(db.lits(e), lits(&[5, 6]));
        assert_eq!(db.num_lits(), 10);
    }

    /// Pigeonhole PHP(n+1, n) in DIMACS numbering: UNSAT.
    fn pigeonhole(pigeons: usize, holes: usize) -> Vec<Vec<i64>> {
        let v = |p: usize, h: usize| (p * holes + h + 1) as i64;
        let mut clauses: Vec<Vec<i64>> = (0..pigeons)
            .map(|p| (0..holes).map(|h| v(p, h)).collect())
            .collect();
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        clauses
    }

    #[test]
    fn reduction_leaves_exactly_the_live_literals() {
        // PHP(8, 8) is satisfiable; with hole 7 banned by assumptions it is
        // PHP(8, 7), whose search learns past the first reduction
        // threshold (2 000 learnt clauses).
        let php = pigeonhole(8, 8);
        let mut s = Solver::new();
        for _ in 0..8 * 8 {
            s.new_var();
        }
        for c in &php {
            s.add_clause(c.iter().map(|&x| Lit::from_dimacs(x)));
        }
        let ban_hole_7: Vec<Lit> = (0..8).map(|p| Lit::from_dimacs(-(p * 8 + 8))).collect();
        s.set_conflict_budget(Some(4_000));
        assert_ne!(s.solve_with_assumptions(&ban_hole_7), SolveResult::Sat);
        assert!(s.stats().learnt_deleted > 0, "a reduction must have run");
        let live: usize = s.db().refs_from(0).map(|cr| s.db().lits(cr).len()).sum();
        assert_eq!(s.db().num_lits(), live, "the arena holds only live clauses");
        assert!(s.db().headers.iter().all(|h| !h.deleted));
        assert_eq!(s.db().learnt_refs().count(), s.db().num_learnt());

        // The learnt clauses follow from the formula alone, so without the
        // assumptions the answer is SAT and the model satisfies every
        // problem clause.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model();
        for c in &php {
            assert!(
                c.iter()
                    .any(|&x| model[(x.unsigned_abs() - 1) as usize] == (x > 0)),
                "clause {c:?} unsatisfied"
            );
        }
    }
}
