//! Applicability of a TGD to a set of query atoms (Definition 1).
//!
//! A TGD `σ` is applicable to a set `A ⊆ body(q)` (which unifies) iff
//! (i) `A ∪ {head(σ)}` unifies, and (ii) no atom of `A` carries a constant
//! or a variable *shared in q* at the existential position `π_σ`.
//!
//! Dropping the condition loses soundness (Example 3): a constant or a join
//! variable can never be matched by the labeled null that `σ` invents in the
//! chase.
//!
//! What depends only on Σ is computed once, in `CompiledSigma`: each
//! TGD's existential position, the TGDs indexed by head predicate, and a
//! copy of each TGD over reserved variable names, so that no renaming-apart
//! happens per query.

use std::collections::HashMap;

use nyaya_core::{
    mgu_set, symbols, Atom, ConjunctiveQuery, Predicate, Substitution, Symbol, Term, Tgd,
};

use crate::error::RewriteError;

/// One TGD of a [`CompiledSigma`].
pub(crate) struct CompiledTgd {
    /// The TGD with its variables renamed to `_T0, _T1, …`. The parser
    /// rejects `_`-names and the worklist hands every engine queries in
    /// canonical form (`V0, V1, …`), so the copy shares no variable with
    /// any query it is resolved against. TGDs share the names among
    /// themselves: a step involves one TGD.
    pub tgd: Tgd,
    /// `π_σ`, `None` for a full TGD.
    pub existential: Option<usize>,
}

/// A set of normal TGDs prepared for the rewriting step. Built once per Σ
/// (inside [`EliminationContext`](crate::EliminationContext) when there is
/// one), never per query.
pub(crate) struct CompiledSigma {
    rules: Vec<CompiledTgd>,
    by_head: HashMap<Predicate, Vec<usize>>,
}

impl CompiledSigma {
    /// Compile `tgds`, or name the first one that is not in Lemma 1/2
    /// normal form.
    pub(crate) fn new(algorithm: &'static str, tgds: &[Tgd]) -> Result<Self, RewriteError> {
        let mut rules = Vec::with_capacity(tgds.len());
        let mut by_head: HashMap<Predicate, Vec<usize>> = HashMap::new();
        for (index, tgd) in tgds.iter().enumerate() {
            if !tgd.is_normal() {
                return Err(RewriteError::NotNormalized {
                    algorithm,
                    tgd: tgd.to_string(),
                });
            }
            by_head.entry(tgd.head_atom().pred).or_default().push(index);
            rules.push(CompiledTgd {
                existential: tgd.existential_position(),
                tgd: with_reserved_names(tgd),
            });
        }
        Ok(CompiledSigma { rules, by_head })
    }

    /// The compiled TGDs, in the order of Σ.
    pub(crate) fn rules(&self) -> &[CompiledTgd] {
        &self.rules
    }

    /// Indices (ascending) of the TGDs whose head predicate is `pred`.
    pub(crate) fn with_head(&self, pred: Predicate) -> &[usize] {
        self.by_head.get(&pred).map_or(&[], Vec::as_slice)
    }
}

/// `tgd` with its `n` variables renamed to `_T0 … _T{n-1}`, simultaneously.
/// The names are interned once per process; a later Σ finds them.
fn with_reserved_names(tgd: &Tgd) -> Tgd {
    let from = tgd.all_vars();
    let to: Vec<Symbol> = (0..from.len())
        .map(|i| symbols::intern(&format!("_T{i}")))
        .collect();
    fn rename(t: &Term, from: &[Symbol], to: &[Symbol]) -> Term {
        match t {
            Term::Var(v) => {
                let at = from
                    .iter()
                    .position(|w| w == v)
                    .expect("a variable of the TGD");
                Term::Var(to[at])
            }
            Term::Func(f, args) => {
                Term::Func(*f, args.iter().map(|a| rename(a, from, to)).collect())
            }
            Term::Const(_) | Term::Null(_) => t.clone(),
        }
    }
    let atoms = |atoms: &[Atom]| -> Vec<Atom> {
        atoms
            .iter()
            .map(|a| Atom {
                pred: a.pred,
                args: a.args.iter().map(|t| rename(t, &from, &to)).collect(),
            })
            .collect()
    };
    Tgd {
        label: tgd.label,
        body: atoms(&tgd.body),
        head: atoms(&tgd.head),
    }
}

/// The variables occurring more than once in `q` (head occurrences count),
/// sorted — computed once per query, then probed with
/// [`is_shared_in`] wherever Definition 1 or 5 asks "shared in q".
pub(crate) fn shared_variables(q: &ConjunctiveQuery) -> Vec<Symbol> {
    let mut occ = Vec::new();
    for t in &q.head {
        t.collect_vars(&mut occ);
    }
    for a in &q.body {
        a.collect_vars(&mut occ);
    }
    occ.sort_unstable();
    let mut shared: Vec<Symbol> = Vec::new();
    for w in occ.windows(2) {
        if w[0] == w[1] && shared.last() != Some(&w[0]) {
            shared.push(w[0]);
        }
    }
    shared
}

#[inline]
pub(crate) fn is_shared_in(shared: &[Symbol], v: Symbol) -> bool {
    shared.binary_search(&v).is_ok()
}

/// Condition (ii) of Definition 1 for one atom: does it carry a constant
/// (or null, or function term) or a shared variable at `π_σ`? Then no set
/// containing it admits σ.
pub(crate) fn blocks_existential(atom: &Atom, pi: Option<usize>, shared: &[Symbol]) -> bool {
    match pi.map(|pi| &atom.args[pi]) {
        None => false,
        Some(Term::Var(v)) => is_shared_in(shared, *v),
        Some(Term::Const(_) | Term::Null(_) | Term::Func(..)) => true,
    }
}

/// The MGU `γ_{A ∪ {head(σ)}}` used by the rewriting step.
pub(crate) fn rewrite_mgu(
    tgd: &Tgd,
    a_set: &[usize],
    q: &ConjunctiveQuery,
) -> Option<Substitution> {
    let mut atoms: Vec<&Atom> = a_set.iter().map(|&i| &q.body[i]).collect();
    atoms.push(tgd.head_atom());
    mgu_set(&atoms)
}

/// Apply the rewriting step of Algorithm 1:
/// `q' = γ_{A ∪ {head(σ)}}( q[A / body(σ)] )`, or `None` when
/// `A ∪ {head(σ)}` does not unify (condition (i)). Callers must have
/// established condition (ii) first.
///
/// Replaces the atoms of `A` by `body(σ)` and applies the MGU to the whole
/// query (head included — non-Boolean CQs propagate bindings into the
/// answer tuple).
pub(crate) fn apply_rewrite_step(
    tgd: &Tgd,
    a_set: &[usize],
    q: &ConjunctiveQuery,
) -> Option<ConjunctiveQuery> {
    let gamma = rewrite_mgu(tgd, a_set, q)?;
    let mut body: Vec<Atom> = Vec::with_capacity(q.body.len() - a_set.len() + tgd.body.len());
    for (i, atom) in q.body.iter().enumerate() {
        if !a_set.contains(&i) {
            body.push(gamma.apply_atom(atom));
        }
    }
    for atom in &tgd.body {
        body.push(gamma.apply_atom(atom));
    }
    let head = q.head.iter().map(|t| gamma.apply_term(t)).collect();
    let mut out = ConjunctiveQuery {
        head_pred: q.head_pred,
        head,
        body,
    };
    out.dedup_body();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::Predicate;

    /// Definition 1 as the engine checks it for the atom set `A` (indices
    /// into `body(q)`): no atom of `A` blocks σ's existential position
    /// (condition (ii)), then the rewriting step unifies `A ∪ {head(σ)}`
    /// (condition (i)).
    fn is_applicable(tgd: &Tgd, a_set: &[usize], q: &ConjunctiveQuery) -> bool {
        let pi = tgd.existential_position();
        let shared = shared_variables(q);
        !a_set
            .iter()
            .any(|&i| blocks_existential(&q.body[i], pi, &shared))
            && apply_rewrite_step(tgd, a_set, q).is_some()
    }

    fn tgd(body: &[(&str, &[&str])], head: &[(&str, &[&str])]) -> Tgd {
        let mk = |spec: &[(&str, &[&str])]| {
            spec.iter()
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
                .collect::<Vec<_>>()
        };
        Tgd::new(mk(body), mk(head))
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

    #[test]
    fn example2_sigma1_blocked_by_shared_variable() {
        // Example 2: σ1: s(X) → ∃Z t(X,X,Z), q() ← t(A,B,C), r(B,C):
        // C is shared (occurs in both atoms) and sits at π_σ = t[3] → σ1 is
        // not applicable to {t(A,B,C)}.
        let s1 = tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]);
        let q = cq(&[], &[("t", &["A", "B", "C"]), ("r", &["B", "C"])]);
        assert!(!is_applicable(&s1.rename_apart(), &[0], &q));
    }

    #[test]
    fn example2_sigma2_applicable_to_r() {
        // σ2: t(X,Y,Z) → r(Y,Z) is applicable to {r(B,C)}.
        let s2 = tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]);
        let q = cq(&[], &[("t", &["A", "B", "C"]), ("r", &["B", "C"])]);
        let s2r = s2.rename_apart();
        assert!(is_applicable(&s2r, &[1], &q));
        let q1 = apply_rewrite_step(&s2r, &[1], &q).unwrap();
        // q1: q() ← t(A,B,C), t(V1,B,C)
        assert_eq!(q1.body.len(), 2);
        assert_eq!(q1.body[0].pred, Predicate::new("t", 3));
        assert_eq!(q1.body[1].pred, Predicate::new("t", 3));
        // positions 2 and 3 of the new atom join the old one
        assert_eq!(q1.body[0].args[1], q1.body[1].args[1]);
        assert_eq!(q1.body[0].args[2], q1.body[1].args[2]);
    }

    #[test]
    fn example3_constant_blocks_applicability() {
        // q1: q() ← t(A,B,c): σ1: s(X) → ∃Z t(X,X,Z) must NOT be applicable
        // (the constant c sits at π_σ) — otherwise soundness is lost.
        let s1 = tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]);
        let q = cq(&[], &[("t", &["A", "B", "c"])]);
        assert!(!is_applicable(&s1.rename_apart(), &[0], &q));
    }

    #[test]
    fn example3_intra_atom_shared_blocks_applicability() {
        // q'': q() ← t(A,B,B): B occurs twice → shared → not applicable.
        let s1 = tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]);
        let q = cq(&[], &[("t", &["A", "B", "B"])]);
        assert!(!is_applicable(&s1.rename_apart(), &[0], &q));
    }

    #[test]
    fn applicable_after_factorization_shape() {
        // After factorizing Example 2's q1 to q2: q() ← t(A,B,C), σ1 becomes
        // applicable to {t(A,B,C)} and yields q() ← s(A).
        let s1 = tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]);
        let q2 = cq(&[], &[("t", &["A", "B", "C"])]);
        let s1r = s1.rename_apart();
        assert!(is_applicable(&s1r, &[0], &q2));
        let q3 = apply_rewrite_step(&s1r, &[0], &q2).unwrap();
        assert_eq!(q3.body.len(), 1);
        assert_eq!(q3.body[0].pred, Predicate::new("s", 1));
    }

    #[test]
    fn head_variables_count_as_shared() {
        // Non-Boolean: q(C) ← t(A,B,C): C occurs in head + body → shared.
        let s1 = tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]);
        let q = cq(&["C"], &[("t", &["A", "B", "C"])]);
        assert!(!is_applicable(&s1.rename_apart(), &[0], &q));
    }

    #[test]
    fn multi_atom_set_with_full_tgd() {
        // Full TGD r(X,Y) → p(X,Y): applicable to {p(A,B), p(A,C)} jointly
        // (they unify with the head simultaneously).
        let t = tgd(&[("r", &["X", "Y"])], &[("p", &["X", "Y"])]);
        let q = cq(&[], &[("p", &["A", "B"]), ("p", &["A", "C"])]);
        let tr = t.rename_apart();
        assert!(is_applicable(&tr, &[0, 1], &q));
        let q2 = apply_rewrite_step(&tr, &[0, 1], &q).unwrap();
        assert_eq!(q2.body.len(), 1);
        assert_eq!(q2.body[0].pred, Predicate::new("r", 2));
    }

    #[test]
    fn rewrite_step_substitutes_into_query_head() {
        // q(B) ← r(B,C) with σ2: t(X,Y,Z) → r(Y,Z): head var B is bound to
        // the TGD's Y, which stays a variable — head must follow the MGU.
        let s2 = tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]);
        let q = cq(&["B"], &[("r", &["B", "C"])]);
        let s2r = s2.rename_apart();
        assert!(is_applicable(&s2r, &[0], &q));
        let q2 = apply_rewrite_step(&s2r, &[0], &q).unwrap();
        assert_eq!(q2.body.len(), 1);
        // The head variable must appear at position 2 of the new t-atom.
        assert_eq!(q2.head.len(), 1);
        assert_eq!(q2.body[0].args[1], q2.head[0]);
    }
}
