//! Normalization of TGDs per Lemmas 1 and 2: every TGD is transformed into
//! an equivalent (for query answering) set of single-head TGDs with at most
//! one existential variable that occurs exactly once.
//!
//! The transformation introduces auxiliary predicates; the paper's UX, AX
//! and P5X ontologies are exactly U, A and P5 with those auxiliary
//! predicates "considered part of the schema".

use std::collections::HashSet;

use crate::atom::{Atom, Predicate};
use crate::symbols::{self, Symbol};
use crate::term::Term;
use crate::tgd::Tgd;

/// The result of normalizing a set of TGDs.
#[derive(Clone)]
pub struct Normalization {
    /// Normalized TGDs: single head atom, at most one existential variable,
    /// occurring exactly once.
    pub tgds: Vec<Tgd>,
    /// Auxiliary predicates introduced by the transformation.
    pub aux_predicates: HashSet<Predicate>,
}

/// Normalize a set of TGDs (Lemmas 1 and 2). TGDs already in normal form
/// are passed through untouched, so normalization is idempotent.
pub fn normalize(tgds: &[Tgd]) -> Normalization {
    let mut out = Vec::with_capacity(tgds.len());
    let mut aux = HashSet::new();
    for tgd in tgds {
        if tgd.is_normal() {
            out.push(tgd.clone());
            continue;
        }
        let singles = split_multi_head(tgd, &mut aux);
        for single in singles {
            if single.is_normal() {
                out.push(single);
            } else {
                out.extend(split_existentials(&single, &mut aux));
            }
        }
    }
    Normalization {
        tgds: out,
        aux_predicates: aux,
    }
}

/// Lemma 1: replace a multi-head TGD `body → a1, …, ak` by
/// `body → r_σ(X)` and `r_σ(X) → a_i`, where `X` is the set of variables
/// occurring in the head.
fn split_multi_head(tgd: &Tgd, aux: &mut HashSet<Predicate>) -> Vec<Tgd> {
    if tgd.head.len() == 1 {
        return vec![tgd.clone()];
    }
    let head_vars: Vec<Symbol> = tgd.head_vars();
    let r = aux_predicate(tgd.label, head_vars.len(), aux);
    let r_atom = Atom::new(r, head_vars.iter().map(|v| Term::Var(*v)).collect());
    let mut out = Vec::with_capacity(tgd.head.len() + 1);
    out.push(Tgd {
        label: tgd.label,
        body: tgd.body.clone(),
        head: vec![r_atom.clone()],
    });
    for a in &tgd.head {
        out.push(Tgd {
            label: tgd.label,
            body: vec![r_atom.clone()],
            head: vec![a.clone()],
        });
    }
    out
}

/// Lemma 2: replace a single-head TGD whose head has `m` existential
/// variables (or one occurring several times) by a chain of TGDs each
/// introducing exactly one existential variable exactly once:
///
/// ```text
/// body                     → ∃Z1 r¹(X, Z1)
/// r¹(X, Z1)                → ∃Z2 r²(X, Z1, Z2)
/// …
/// rᵐ(X, Z1, …, Zm)         → head(σ)
/// ```
fn split_existentials(tgd: &Tgd, aux: &mut HashSet<Predicate>) -> Vec<Tgd> {
    debug_assert_eq!(tgd.head.len(), 1);
    let frontier: Vec<Symbol> = tgd.frontier();
    let existentials: Vec<Symbol> = tgd.existential_vars();
    debug_assert!(!existentials.is_empty());

    let mut out = Vec::with_capacity(existentials.len() + 1);
    let mut carried: Vec<Symbol> = frontier.clone();
    let mut prev_atom: Option<Atom> = None;
    for z in &existentials {
        carried.push(*z);
        let r = aux_predicate(tgd.label, carried.len(), aux);
        let atom = Atom::new(r, carried.iter().map(|v| Term::Var(*v)).collect());
        let body = match &prev_atom {
            None => tgd.body.clone(),
            Some(prev) => vec![prev.clone()],
        };
        out.push(Tgd {
            label: tgd.label,
            body,
            head: vec![atom.clone()],
        });
        prev_atom = Some(atom);
    }
    out.push(Tgd {
        label: tgd.label,
        body: vec![prev_atom.expect("at least one existential")],
        head: tgd.head.clone(),
    });
    out
}

fn aux_predicate(label: Option<Symbol>, arity: usize, aux: &mut HashSet<Predicate>) -> Predicate {
    let base = match label {
        Some(l) => format!("aux_{l}_"),
        None => "aux_".to_owned(),
    };
    let sym = symbols::fresh(&base);
    let pred = Predicate { sym, arity };
    aux.insert(pred);
    pred
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn normal_tgds_pass_through() {
        let t = tgd(&[("s", &["X"])], &[("t", &["X", "Z"])]);
        let n = normalize(std::slice::from_ref(&t));
        assert_eq!(n.tgds.len(), 1);
        assert!(n.aux_predicates.is_empty());
        assert_eq!(n.tgds[0], t);
    }

    #[test]
    fn multi_head_split_lemma1() {
        // p(X) → ∃Y r(X,Y), q(Y): two head atoms sharing existential Y.
        let t = tgd(&[("p", &["X"])], &[("r", &["X", "Y"]), ("q", &["Y"])]);
        let n = normalize(&[t]);
        // body → r_σ(X,Y) [one existential], r_σ → r(X,Y), r_σ → q(Y)
        assert_eq!(n.tgds.len(), 3);
        assert_eq!(n.aux_predicates.len(), 1);
        for t in &n.tgds {
            assert!(t.is_normal(), "non-normal output: {t}");
        }
        // First TGD introduces the aux predicate with both head variables.
        let first = &n.tgds[0];
        assert!(n.aux_predicates.contains(&first.head[0].pred));
        assert_eq!(first.head[0].pred.arity, 2);
    }

    #[test]
    fn multi_existential_split_lemma2() {
        // list_comp(X,Y) → ∃Z∃W fin_idx(Y,Z,W)  (σ3 of the running example)
        let t = tgd(
            &[("list_comp", &["X", "Y"])],
            &[("fin_idx", &["Y", "Z", "W"])],
        );
        let n = normalize(&[t]);
        // body → ∃Z r1(Y,Z); r1(Y,Z) → ∃W r2(Y,Z,W); r2(Y,Z,W) → head.
        assert_eq!(n.tgds.len(), 3);
        assert_eq!(n.aux_predicates.len(), 2);
        for t in &n.tgds {
            assert!(t.is_normal(), "non-normal output: {t}");
        }
        // Last TGD is full and re-derives the original head.
        let last = n.tgds.last().unwrap();
        assert!(last.is_full());
        assert_eq!(last.head[0].pred, Predicate::new("fin_idx", 3));
    }

    #[test]
    fn repeated_existential_in_head_is_normalized() {
        // s(X) → ∃Z t(X,Z,Z): single existential occurring twice.
        let t = tgd(&[("s", &["X"])], &[("t", &["X", "Z", "Z"])]);
        assert!(!t.is_normal());
        let n = normalize(&[t]);
        assert_eq!(n.tgds.len(), 2);
        for t in &n.tgds {
            assert!(t.is_normal(), "non-normal output: {t}");
        }
        // The chain's last rule places Z at both positions.
        let last = n.tgds.last().unwrap();
        assert_eq!(last.head[0].args[1], last.head[0].args[2]);
    }

    #[test]
    fn normalization_is_idempotent() {
        let t = tgd(
            &[("stock_portf", &["X", "Y", "Z"])],
            &[("company", &["X", "V", "W"])],
        );
        let n1 = normalize(&[t]);
        let n2 = normalize(&n1.tgds);
        assert_eq!(n1.tgds.len(), n2.tgds.len());
        assert!(n2.aux_predicates.is_empty());
    }

    #[test]
    fn normalization_preserves_language_classes() {
        // The paper notes the transformations preserve linearity/stickiness.
        let tgds = vec![
            tgd(
                &[("stock_portf", &["X", "Y", "Z"])],
                &[("company", &["X", "V", "W"])],
            ),
            tgd(&[("p", &["X"])], &[("r", &["X", "Y"]), ("q", &["Y"])]),
        ];
        assert!(crate::classes::is_linear(&tgds));
        let n = normalize(&tgds);
        assert!(crate::classes::is_linear(&n.tgds));
    }
}
