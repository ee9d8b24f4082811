//! Query elimination for linear TGDs (Section 6): dependency graph
//! (Definition 3), equality types (Definition 4), atom coverage
//! (Definition 5) and the `eliminate` procedure (Lemmas 8 and 9).
//!
//! An atom `b` of a query is *covered* by another atom `a` when, in every
//! instance satisfying Σ, a match of `a` guarantees a match of `b` that
//! agrees on all shared terms — so `b` (and everything the rewriting would
//! have derived from it) can be dropped. Coverage is witnessed by a single
//! chain of linear TGDs `σ1 … σ_{k−1}` whose equality types are pairwise
//! compatible and whose dependency-graph paths carry every shared term of
//! `b` from its positions in `a` to its positions in `b`.
//!
//! Two deliberate strengthenings of the literal text of Definition 5 (both
//! required for Lemma 8, see DESIGN.md): (1) a single chain must serve all
//! shared terms simultaneously — a chase derivation under linear TGDs is
//! one chain; (2) when `b` has no shared terms at all we still require a
//! chain deriving `pred(b)` from `pred(a)`.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::{PoisonError, RwLock};

use nyaya_core::{Atom, ConjunctiveQuery, Position, Predicate, Symbol, Term, Tgd};

use crate::applicability::{is_shared_in, shared_variables, CompiledSigma};
use crate::error::RewriteError;

/// Maximum predicate arity supported by the bitset chain search.
pub(crate) const MAX_ARITY: usize = 8;

/// The equality type of an atom (Definition 4): variable-equality pairs and
/// constant bindings, by 0-based position.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct EqType {
    /// `(i, j)` with `i < j`: positions holding the same non-constant term.
    pub pairs: BTreeSet<(usize, usize)>,
    /// `(i, c)`: position `i` holds the constant `c`.
    pub consts: BTreeSet<(usize, Symbol)>,
}

impl EqType {
    /// Compute `eq(a)`.
    pub(crate) fn of(atom: &Atom) -> EqType {
        let mut pairs = BTreeSet::new();
        let mut consts = BTreeSet::new();
        for (i, t) in atom.args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    consts.insert((i, *c));
                }
                Term::Var(_) | Term::Null(_) => {
                    for (j, u) in atom.args.iter().enumerate().skip(i + 1) {
                        if t == u {
                            pairs.insert((i, j));
                        }
                    }
                }
                Term::Func(..) => {
                    // Function terms never reach elimination (TGD-rewrite is
                    // function-free); treat like opaque non-constants.
                    for (j, u) in atom.args.iter().enumerate().skip(i + 1) {
                        if t == u {
                            pairs.insert((i, j));
                        }
                    }
                }
            }
        }
        EqType { pairs, consts }
    }

    /// Is `self ⊆ other` (every equality required by `self` holds in
    /// `other`)? `eq(body(σ')) ⊆ eq(head(σ))` guarantees a substitution μ
    /// with `μ(body(σ')) = head(σ)`.
    pub(crate) fn subset_of(&self, other: &EqType) -> bool {
        self.pairs.is_subset(&other.pairs) && self.consts.is_subset(&other.consts)
    }
}

/// The dependency graph of a set of TGDs (Definition 3): a labeled directed
/// multigraph over positions, one edge `(π_b, π_h)` per TGD and variable
/// occurring at `π_b` in the body and `π_h` in the head.
pub(crate) struct DependencyGraph {
    /// Edges grouped by TGD index: `(from, to)` position pairs.
    pub edges: Vec<Vec<(Position, Position)>>,
}

impl DependencyGraph {
    pub(crate) fn new(tgds: &[Tgd]) -> Self {
        let edges = tgds
            .iter()
            .map(|tgd| {
                let mut out = Vec::new();
                for b in &tgd.body {
                    for (i, t) in b.args.iter().enumerate() {
                        let Some(v) = t.as_var() else { continue };
                        for h in &tgd.head {
                            for (j, u) in h.args.iter().enumerate() {
                                if u.as_var() == Some(v) {
                                    out.push((
                                        Position {
                                            pred: b.pred,
                                            index: i,
                                        },
                                        Position {
                                            pred: h.pred,
                                            index: j,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
                out
            })
            .collect();
        DependencyGraph { edges }
    }
}

impl fmt::Display for DependencyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, edges) in self.edges.iter().enumerate() {
            for (from, to) in edges {
                writeln!(f, "{from} --σ{}--> {to}", i + 1)?;
            }
        }
        Ok(())
    }
}

/// Per-TGD data for the chain search, with the position-flow relation as
/// bit rows (`step[m]` = bitmask of head positions fed by body position
/// `m`).
struct TgdInfo {
    head_pred: Predicate,
    step: [u8; MAX_ARITY],
    eq_body: EqType,
    eq_head: EqType,
}

/// What the chain search reads of a pair `(a, b)`: the question
/// "does `a` cover `b`" has one answer per value of this.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CoverKey {
    a: Predicate,
    /// The equality type of `a`, per position: the first position holding
    /// the same non-constant term, or the constant's tag (see
    /// [`EliminationContext::constant_tag`]).
    pattern: [u32; MAX_ARITY],
    b: Predicate,
    /// Per shared term of `b`: its positions in `a` and in `b`; `(0, 0)`
    /// past the last one.
    targets: [(u8, u8); MAX_ARITY],
}

/// Tag of every constant that no TGD body mentions. The chain search only
/// asks whether a TGD body's constants occur in `a`, so all of them behave
/// alike — and a stream of point queries over never-seen constants maps to
/// the keys it mapped to before.
const OTHER_CONSTANT: u32 = u32::MAX;
const CONSTANT_TAGS: u32 = MAX_ARITY as u32;

/// One body atom of the query under elimination, with what
/// [`EliminationContext::covers_prepared`] needs of it computed once.
struct Prepared<'a> {
    atom: &'a Atom,
    /// TGDs whose body predicate is the atom's; `None`: it covers nothing.
    starts: Option<&'a [usize]>,
    /// Does some TGD derive the atom's predicate? If not, nothing covers it.
    derivable: bool,
    pattern: [u32; MAX_ARITY],
    /// The shared terms of the atom (constants, plus variables shared in
    /// the query) with their positions in it.
    targets: Vec<(&'a Term, u8)>,
}

/// Everything the rewriter derives from a fixed set of *linear, normal*
/// TGDs Σ alone, built once per Σ and shared by every compile (and every
/// thread) that rewrites against it: the Section 6 chain-search tables with
/// a memo of their answers, and the compiled TGDs the rewriting step runs
/// on. Building it costs O(|Σ|); a [`covers`](Self::covers) query the
/// memo has not seen is a BFS over (TGD, relation) states.
pub struct EliminationContext {
    infos: Vec<TgdInfo>,
    by_body_pred: HashMap<Predicate, Vec<usize>>,
    head_preds: HashSet<Predicate>,
    /// The constants of the TGD bodies, sorted.
    body_constants: Vec<Symbol>,
    /// Answers of the chain search. The keys are made of Σ's predicates,
    /// position patterns and Σ's constants, so Σ bounds the map however
    /// many queries go through it. Hits take the shared lock only.
    memo: RwLock<HashMap<CoverKey, bool>>,
    sigma: Result<CompiledSigma, RewriteError>,
}

impl EliminationContext {
    /// Build the context. Panics if some TGD is non-linear or an arity
    /// exceeds `MAX_ARITY` = 8 (the paper's optimization is defined for
    /// linear TGDs only — Theorem 10).
    pub fn new(tgds: &[Tgd]) -> Self {
        let mut infos = Vec::with_capacity(tgds.len());
        let mut by_body_pred: HashMap<Predicate, Vec<usize>> = HashMap::new();
        let mut head_preds = HashSet::new();
        let mut body_constants = Vec::new();
        for (idx, tgd) in tgds.iter().enumerate() {
            assert!(
                tgd.is_linear(),
                "query elimination requires linear TGDs, got {tgd}"
            );
            assert_eq!(tgd.head.len(), 1, "query elimination requires normal TGDs");
            let body = &tgd.body[0];
            let head = &tgd.head[0];
            assert!(
                body.pred.arity <= MAX_ARITY && head.pred.arity <= MAX_ARITY,
                "predicate arity exceeds MAX_ARITY ({MAX_ARITY})"
            );
            let mut step = [0u8; MAX_ARITY];
            for (i, t) in body.args.iter().enumerate() {
                let Some(v) = t.as_var() else { continue };
                for (j, u) in head.args.iter().enumerate() {
                    if u.as_var() == Some(v) {
                        step[i] |= 1 << j;
                    }
                }
            }
            by_body_pred.entry(body.pred).or_default().push(idx);
            head_preds.insert(head.pred);
            let eq_body = EqType::of(body);
            body_constants.extend(eq_body.consts.iter().map(|&(_, c)| c));
            infos.push(TgdInfo {
                head_pred: head.pred,
                step,
                eq_body,
                eq_head: EqType::of(head),
            });
        }
        body_constants.sort_unstable();
        body_constants.dedup();
        EliminationContext {
            infos,
            by_body_pred,
            head_preds,
            body_constants,
            memo: RwLock::new(HashMap::new()),
            sigma: CompiledSigma::new("tgd_rewrite", tgds),
        }
    }

    /// Σ compiled for the rewriting step, or the `NotNormalized` error
    /// `tgd_rewrite` reports for it.
    pub(crate) fn sigma(&self) -> Result<&CompiledSigma, RewriteError> {
        self.sigma.as_ref().map_err(Clone::clone)
    }

    fn constant_tag(&self, c: Symbol) -> u32 {
        match self.body_constants.binary_search(&c) {
            Ok(at) => CONSTANT_TAGS + at as u32,
            Err(_) => OTHER_CONSTANT,
        }
    }

    /// View the body of `q` for coverage tests against each other.
    fn prepare<'a>(&'a self, q: &'a ConjunctiveQuery) -> Vec<Prepared<'a>> {
        let shared = shared_variables(q);
        q.body
            .iter()
            .map(|atom| self.prepare_atom(atom, &shared))
            .collect()
    }

    fn prepare_atom<'a>(&'a self, atom: &'a Atom, shared: &[Symbol]) -> Prepared<'a> {
        let starts = self.by_body_pred.get(&atom.pred).map(Vec::as_slice);
        let derivable = self.head_preds.contains(&atom.pred);
        let mut pattern = [0u32; MAX_ARITY];
        let mut targets = Vec::new();
        // Predicates of Σ respect MAX_ARITY; an atom over any other
        // predicate neither covers nor is covered.
        if starts.is_some() || derivable {
            for (i, t) in atom.args.iter().enumerate() {
                let first = atom.args[..i].iter().position(|u| u == t);
                pattern[i] = match t {
                    Term::Const(c) => self.constant_tag(*c),
                    _ => first.unwrap_or(i) as u32,
                };
                let relevant = match t {
                    Term::Var(v) => is_shared_in(shared, *v),
                    Term::Const(_) | Term::Null(_) | Term::Func(..) => true,
                };
                if relevant && first.is_none() {
                    targets.push((t, position_mask(atom, t)));
                }
            }
        }
        Prepared {
            atom,
            starts,
            derivable,
            pattern,
            targets,
        }
    }

    /// Does `a` cover `b` w.r.t. `q` and Σ (`a ≺_Σ^q b`, Definition 5)?
    pub fn covers(&self, a: &Atom, b: &Atom, q: &ConjunctiveQuery) -> bool {
        let shared = shared_variables(q);
        self.covers_prepared(
            &self.prepare_atom(a, &shared),
            &self.prepare_atom(b, &shared),
        )
    }

    fn covers_prepared(&self, a: &Prepared<'_>, b: &Prepared<'_>) -> bool {
        if a.atom == b.atom || !b.derivable {
            return false;
        }
        let Some(starts) = a.starts else {
            return false;
        };
        // Shared terms of b: constants, plus variables shared in q.
        let mut key = CoverKey {
            a: a.atom.pred,
            pattern: a.pattern,
            b: b.atom.pred,
            targets: [(0, 0); MAX_ARITY],
        };
        for (slot, (t, pos_b)) in key.targets.iter_mut().zip(&b.targets) {
            let pos_a = position_mask(a.atom, t);
            if pos_a == 0 {
                return false; // condition (i): t must occur in a
            }
            *slot = (pos_a, *pos_b);
        }
        // Advisory memo state, valid after every insert: recover.
        if let Some(&known) = self
            .memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return known;
        }
        let found = self.chain_exists(starts, a.atom, b.atom.pred, &key.targets[..b.targets.len()]);
        self.memo
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, found);
        found
    }

    /// Chain search: BFS over (TGD, relation ⊆ pos(a) × pos(head)) from the
    /// TGDs `starts` that `a` can fire, for a chain ending in `b_pred` that
    /// routes every target.
    fn chain_exists(
        &self,
        starts: &[usize],
        a: &Atom,
        b_pred: Predicate,
        targets: &[(u8, u8)],
    ) -> bool {
        let eq_a = EqType::of(a);
        let mut queue: Vec<(usize, [u8; MAX_ARITY])> = Vec::new();
        let mut visited: HashSet<(usize, [u8; MAX_ARITY])> = HashSet::new();
        for &j in starts {
            if self.infos[j].eq_body.subset_of(&eq_a) {
                let rel = self.infos[j].step;
                if visited.insert((j, rel)) {
                    queue.push((j, rel));
                }
            }
        }
        while let Some((j, rel)) = queue.pop() {
            let info = &self.infos[j];
            if info.head_pred == b_pred && accepts(&rel, targets) {
                return true;
            }
            if let Some(nexts) = self.by_body_pred.get(&info.head_pred) {
                for &k in nexts {
                    if !self.infos[k].eq_body.subset_of(&info.eq_head) {
                        continue;
                    }
                    let composed = compose(&rel, &self.infos[k].step);
                    // Relations can only shrink along a chain; if every
                    // target needs positions and the relation died, prune.
                    if composed.iter().all(|r| *r == 0) && !targets.is_empty() {
                        continue;
                    }
                    if visited.insert((k, composed)) {
                        queue.push((k, composed));
                    }
                }
            }
        }
        false
    }

    /// An atom is eliminated when its turn comes iff an atom still standing
    /// covers it: the cover sets are those of the *original* query, minus
    /// the atoms eliminated so far.
    fn eliminated(
        &self,
        q: &ConjunctiveQuery,
        strategy: impl Iterator<Item = usize>,
    ) -> Vec<usize> {
        let view = self.prepare(q);
        let mut gone = vec![false; view.len()];
        let mut eliminated = Vec::new();
        for i in strategy {
            if (0..view.len())
                .any(|k| k != i && !gone[k] && self.covers_prepared(&view[k], &view[i]))
            {
                gone[i] = true;
                eliminated.push(i);
            }
        }
        eliminated
    }

    /// `eliminate(q, Σ)`: drop every eliminable atom (Lemma 9 makes the
    /// count strategy-independent; we use body order).
    ///
    /// This is the paper's single-pass procedure: cover sets are computed
    /// once against the *original* query's shared variables. It is not
    /// idempotent — dropping an atom can turn a shared variable into an
    /// unshared one and enable further coverage.
    pub fn eliminate(&self, q: &ConjunctiveQuery) -> ConjunctiveQuery {
        let mut out = q.clone();
        self.eliminate_in_place(&mut out);
        out
    }

    /// [`eliminate`](Self::eliminate) on an owned query; returns how many
    /// atoms were dropped.
    pub(crate) fn eliminate_in_place(&self, q: &mut ConjunctiveQuery) -> usize {
        if q.body.len() <= 1 {
            return 0;
        }
        let eliminated = self.eliminated(q, 0..q.body.len());
        if !eliminated.is_empty() {
            let mut index = 0;
            q.body.retain(|_| {
                index += 1;
                !eliminated.contains(&(index - 1))
            });
            debug_assert!(!q.body.is_empty(), "elimination emptied a query body");
        }
        eliminated.len()
    }
}

/// Bitmask of the argument positions of `atom` holding exactly term `t`.
fn position_mask(atom: &Atom, t: &Term) -> u8 {
    let mut mask = 0u8;
    for (i, u) in atom.args.iter().enumerate() {
        if u == t {
            mask |= 1 << i;
        }
    }
    mask
}

/// Does relation `rel` route every target? For each `(pos_a, pos_b)` pair,
/// every bit of `pos_b` must be reachable from some bit of `pos_a`.
fn accepts(rel: &[u8; MAX_ARITY], targets: &[(u8, u8)]) -> bool {
    targets.iter().all(|&(pos_a, pos_b)| {
        let mut reachable = 0u8;
        for (i, row) in rel.iter().enumerate() {
            if pos_a & (1 << i) != 0 {
                reachable |= row;
            }
        }
        pos_b & !reachable == 0
    })
}

/// Compose `rel` (pos(a) → pos(mid)) with `step` (pos(mid) → pos(head)).
fn compose(rel: &[u8; MAX_ARITY], step: &[u8; MAX_ARITY]) -> [u8; MAX_ARITY] {
    let mut out = [0u8; MAX_ARITY];
    for (o, &mids) in out.iter_mut().zip(rel.iter()) {
        if mids == 0 {
            continue;
        }
        for (m, s) in step.iter().enumerate() {
            if mids & (1 << m) != 0 {
                *o |= s;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tgd(body: (&str, &[&str]), head: (&str, &[&str])) -> Tgd {
        let mk = |(p, args): (&str, &[&str])| {
            let terms: Vec<Term> = args
                .iter()
                .map(|a| {
                    if a.chars().next().unwrap().is_uppercase() {
                        Term::var(a)
                    } else {
                        Term::constant(a)
                    }
                })
                .collect();
            Atom::new(Predicate::new(p, terms.len()), terms)
        };
        Tgd::new(vec![mk(body)], vec![mk(head)])
    }

    fn cq(head: &[&str], body: &[(&str, &[&str])]) -> ConjunctiveQuery {
        let head_terms = head.iter().map(|a| Term::var(a)).collect();
        let atoms = body
            .iter()
            .map(|(p, args)| {
                let terms: Vec<Term> = args
                    .iter()
                    .map(|a| {
                        if a.chars().next().unwrap().is_uppercase() {
                            Term::var(a)
                        } else {
                            Term::constant(a)
                        }
                    })
                    .collect();
                Atom::new(Predicate::new(p, terms.len()), terms)
            })
            .collect();
        ConjunctiveQuery::new(head_terms, atoms)
    }

    /// The Σ of Example 6 / Figure 2.
    fn example6() -> Vec<Tgd> {
        vec![
            tgd(("p", &["X", "Y"]), ("r", &["X", "Y", "Z"])), // σ1
            tgd(("r", &["X", "Y", "c"]), ("s", &["X", "Y", "Y"])), // σ2
            tgd(("s", &["X", "X", "Y"]), ("p", &["X", "Y"])), // σ3
        ]
    }

    #[test]
    fn equality_types_of_example6() {
        let tgds = example6();
        assert_eq!(EqType::of(&tgds[0].body[0]), EqType::default());
        assert_eq!(EqType::of(&tgds[0].head[0]), EqType::default());
        let eq_b2 = EqType::of(&tgds[1].body[0]);
        assert!(eq_b2.pairs.is_empty());
        assert_eq!(eq_b2.consts.len(), 1); // r[3] = c
        let eq_h2 = EqType::of(&tgds[1].head[0]);
        assert_eq!(eq_h2.pairs, BTreeSet::from([(1, 2)])); // s[2] = s[3]
        let eq_b3 = EqType::of(&tgds[2].body[0]);
        assert_eq!(eq_b3.pairs, BTreeSet::from([(0, 1)])); // s[1] = s[2]
        assert_eq!(EqType::of(&tgds[2].head[0]), EqType::default());
    }

    #[test]
    fn dependency_graph_of_figure2() {
        // Figure 2 edges: σ1: p[1]→r[1], p[2]→r[2];
        // σ2: r[1]→s[1], r[2]→s[2], r[2]→s[3];
        // σ3: s[1]→p[1], s[2]→p[1], s[3]→p[2].
        let g = DependencyGraph::new(&example6());
        assert_eq!(g.edges[0].len(), 2);
        assert_eq!(g.edges[1].len(), 3);
        assert_eq!(g.edges[2].len(), 3);
        assert_eq!(g.edges.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn example7_cover_sets_and_elimination() {
        let ctx = EliminationContext::new(&example6());
        // q() ← p(A,B), r(A,B,C), s(A,A,D)
        let q = cq(
            &[],
            &[
                ("p", &["A", "B"]),
                ("r", &["A", "B", "C"]),
                ("s", &["A", "A", "D"]),
            ],
        );
        // The cover set `cover(x, q, Σ)` as indices into `body(q)`.
        let cover_set = |x: usize| -> Vec<usize> {
            (0..q.body.len())
                .filter(|&i| i != x && ctx.covers(&q.body[i], &q.body[x], &q))
                .collect()
        };
        assert_eq!(cover_set(0), Vec::<usize>::new()); // cover(a) = ∅
        assert_eq!(cover_set(1), vec![0]); // cover(b) = {a}
        assert_eq!(cover_set(2), Vec::<usize>::new()); // cover(c) = ∅
        let e = ctx.eliminate(&q);
        assert_eq!(e.body.len(), 2);
        assert_eq!(e.body[0].pred, Predicate::new("p", 2));
        assert_eq!(e.body[1].pred, Predicate::new("s", 3));
    }

    #[test]
    fn example8_equality_chain_blocks_coverage() {
        // q() ← r(A,A,c), p(A,A): r(A,A,c) does NOT cover p(A,A) because
        // eq(body(σ3)) ⊄ eq(head(σ2)), even though the implication holds
        // semantically (the C&B algorithm would catch it — Example 8).
        let ctx = EliminationContext::new(&example6());
        let q = cq(&[], &[("r", &["A", "A", "c"]), ("p", &["A", "A"])]);
        assert!(!ctx.covers(&q.body[0], &q.body[1], &q));
        let e = ctx.eliminate(&q);
        assert_eq!(e.body.len(), 2, "nothing may be eliminated");
    }

    #[test]
    fn running_example_elimination() {
        // Section 1: σ1, σ2, σ3, σ8 make fin_ins(A), company(B,E,F) and
        // fin_idx(C,G,H) redundant in the example query. These TGDs have two
        // existential variables each, so normalize (Lemma 2) first.
        let norm = nyaya_core::normalize(&[
            Tgd::new(
                vec![Atom::make("stock_portf", ["X", "Y", "Z"])],
                vec![Atom::make("company", ["X", "V", "W"])],
            ),
            Tgd::new(
                vec![Atom::make("stock_portf", ["X", "Y", "Z"])],
                vec![Atom::make("stock", ["Y", "V", "W"])],
            ),
            Tgd::new(
                vec![Atom::make("list_comp", ["X", "Y"])],
                vec![Atom::make("fin_idx", ["Y", "Z", "W"])],
            ),
            Tgd::new(
                vec![Atom::make("stock", ["X", "Y", "Z"])],
                vec![Atom::make("fin_ins", ["X"])],
            ),
        ]);
        let ctx = EliminationContext::new(&norm.tgds);
        // q(A,B,C) ← fin_ins(A), stock_portf(B,A,D), company(B,E,F),
        //            list_comp(A,C), fin_idx(C,G,H)
        let q = cq(
            &["A", "B", "C"],
            &[
                ("fin_ins", &["A"]),
                ("stock_portf", &["B", "A", "D"]),
                ("company", &["B", "E", "F"]),
                ("list_comp", &["A", "C"]),
                ("fin_idx", &["C", "G", "H"]),
            ],
        );
        let e = ctx.eliminate(&q);
        let preds: Vec<String> = e.body.iter().map(|a| a.pred.sym.name()).collect();
        assert_eq!(
            preds,
            vec!["stock_portf".to_owned(), "list_comp".to_owned()],
            "the paper reduces the query to stock_portf + list_comp, got {e}"
        );
    }

    #[test]
    fn lemma9_elimination_count_is_strategy_independent() {
        let ctx = EliminationContext::new(&example6());
        let q = cq(
            &[],
            &[
                ("p", &["A", "B"]),
                ("r", &["A", "B", "C"]),
                ("s", &["A", "A", "D"]),
            ],
        );
        let n = q.body.len();
        // All 6 permutations of 3 atoms.
        let strategies = [
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        let counts: Vec<usize> = strategies
            .iter()
            .map(|s| ctx.eliminated(&q, s.iter().copied()).len())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert!(counts[0] < n);
    }

    #[test]
    fn mutual_coverage_keeps_one_atom() {
        // p(X) → q(X), q(X) → p(X): p(A) and q(A) cover each other.
        let tgds = vec![
            tgd(("p", &["X"]), ("q", &["X"])),
            tgd(("q", &["X"]), ("p", &["X"])),
        ];
        let ctx = EliminationContext::new(&tgds);
        let q = cq(&["A"], &[("p", &["A"]), ("q", &["A"])]);
        assert!(ctx.covers(&q.body[0], &q.body[1], &q));
        assert!(ctx.covers(&q.body[1], &q.body[0], &q));
        let e = ctx.eliminate(&q);
        assert_eq!(e.body.len(), 1);
    }

    #[test]
    fn unshared_targets_require_predicate_chain() {
        // Strengthening (2): with NO axioms, p(X) must not cover s(Y) even
        // though s(Y) has no shared terms.
        let tgds = vec![tgd(("a", &["X"]), ("b", &["X"]))];
        let ctx = EliminationContext::new(&tgds);
        let q = cq(&[], &[("p", &["X"]), ("s", &["Y"])]);
        assert!(!ctx.covers(&q.body[0], &q.body[1], &q));
        // …but with p(X) → s(Z) it does (fresh value fills the unshared Y).
        let tgds2 = vec![tgd(("p", &["X"]), ("s", &["Z"]))];
        let ctx2 = EliminationContext::new(&tgds2);
        assert!(ctx2.covers(&q.body[0], &q.body[1], &q));
        let e = ctx2.eliminate(&q);
        assert_eq!(e.body.len(), 1);
        assert_eq!(e.body[0].pred, Predicate::new("p", 1));
    }

    #[test]
    fn constants_in_covered_atom_must_occur_in_coverer() {
        // b = s(c) with constant c not occurring in a → no coverage, even
        // with a chain p → s.
        let tgds = vec![tgd(("p", &["X"]), ("s", &["X"]))];
        let ctx = EliminationContext::new(&tgds);
        let q = cq(&[], &[("p", &["X"]), ("s", &["c"])]);
        assert!(!ctx.covers(&q.body[0], &q.body[1], &q));
        // With the constant present in a, the chain carries it.
        let q2 = cq(&[], &[("p", &["c"]), ("s", &["c"])]);
        assert!(ctx.covers(&q2.body[0], &q2.body[1], &q2));
    }

    #[test]
    fn coverage_is_transitive_on_chains() {
        // p(X) → q(X) → r(X): p(A) covers r(A) through a 2-TGD chain.
        let tgds = vec![
            tgd(("p", &["X"]), ("q", &["X"])),
            tgd(("q", &["X"]), ("r", &["X"])),
        ];
        let ctx = EliminationContext::new(&tgds);
        let q = cq(&["A"], &[("p", &["A"]), ("r", &["A"])]);
        assert!(ctx.covers(&q.body[0], &q.body[1], &q));
    }

    #[test]
    fn existential_position_fills_unshared_variable() {
        // has_stock ⊑ stock_portf⁻ style: σ6: has_stock(X,Y) →
        // ∃Z stock_portf(Y,X,Z). stock_portf(B,A,D) with D unshared is
        // covered by has_stock(A,B).
        let tgds = vec![tgd(
            ("has_stock", &["X", "Y"]),
            ("stock_portf", &["Y", "X", "Z"]),
        )];
        let ctx = EliminationContext::new(&tgds);
        let q = cq(
            &["A", "B"],
            &[
                ("has_stock", &["A", "B"]),
                ("stock_portf", &["B", "A", "D"]),
            ],
        );
        assert!(ctx.covers(&q.body[0], &q.body[1], &q));
        // If D is shared with another atom, coverage must fail (the chain
        // cannot guarantee the join on D).
        let q2 = cq(
            &["A", "B"],
            &[
                ("has_stock", &["A", "B"]),
                ("stock_portf", &["B", "A", "D"]),
                ("qty", &["D"]),
            ],
        );
        assert!(!ctx.covers(&q2.body[0], &q2.body[1], &q2));
    }

    #[test]
    fn coverage_memo_is_bounded_by_sigma_not_by_the_queries() {
        // advisor(X,Y) → Student(X): Student(S) is covered by
        // advisor(S, c) whatever the constant. 10 000 point queries that
        // differ only in a constant Σ does not mention are one memo key.
        let tgds = vec![
            tgd(("advisor", &["X", "Y"]), ("Student", &["X"])),
            tgd(("Student", &["X"]), ("Person", &["X"])),
        ];
        let ctx = EliminationContext::new(&tgds);
        let point = |i: usize| {
            let c = format!("fac{i}");
            cq(
                &["S"],
                &[("Student", &["S"]), ("advisor", &["S", c.as_str()])],
            )
        };
        let memo_len = || ctx.memo.read().unwrap().len();
        assert_eq!(ctx.eliminate(&point(0)).body.len(), 1);
        let after_first = memo_len();
        assert!(after_first > 0, "the chain search ran and was recorded");
        for i in 1..10_000 {
            let e = ctx.eliminate(&point(i));
            assert_eq!(e.body.len(), 1);
            assert_eq!(e.body[0].pred, Predicate::new("advisor", 2));
        }
        assert_eq!(memo_len(), after_first);
    }

    #[test]
    fn memo_keeps_the_constants_sigma_mentions_apart() {
        // σ2 of Example 6 fires on r(_,_,c) only: r(A,B,c) covers s(A,B,B),
        // r(A,B,d) does not — in either order of asking.
        for order in [["c", "d"], ["d", "c"]] {
            let ctx = EliminationContext::new(&example6());
            for constant in order {
                let q = cq(
                    &["A", "B"],
                    &[("r", &["A", "B", constant]), ("s", &["A", "B", "B"])],
                );
                assert_eq!(
                    ctx.covers(&q.body[0], &q.body[1], &q),
                    constant == "c",
                    "r(A,B,{constant}) asked in order {order:?}"
                );
            }
        }
    }

    #[test]
    fn atoms_outside_sigma_may_exceed_max_arity() {
        // Only Σ's predicates are held to MAX_ARITY; a wider atom over some
        // other predicate neither covers nor is covered (its position masks
        // are never built).
        let ctx = EliminationContext::new(&example6());
        let wide: Vec<&str> = vec!["A"; MAX_ARITY + 2];
        let q = cq(&["A"], &[("p", &["A", "A"]), ("wide", &wide)]);
        assert_eq!(ctx.eliminate(&q).body.len(), 2);
    }
}
