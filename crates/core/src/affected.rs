//! Affected positions and weakly-guarded sets of TGDs (Section 4.1, \[25\]).
//!
//! A position is *affected* if a labeled null can appear there during the
//! chase: either an existential variable occurs at it in some head, or a
//! body variable occurring **only** at affected positions propagates to it.
//! A set of TGDs is *weakly guarded* iff every TGD has a body atom (the
//! weak guard) containing all universally quantified variables that occur
//! only at affected positions — the variables that may be bound to nulls.

use std::collections::HashSet;

use crate::atom::Position;
use crate::symbols::Symbol;
use crate::tgd::Tgd;

/// Compute the set of affected positions of a TGD set (least fixpoint).
pub(crate) fn affected_positions(tgds: &[Tgd]) -> HashSet<Position> {
    let mut affected: HashSet<Position> = HashSet::new();

    // Base: positions of existential variables in heads.
    for tgd in tgds {
        let ex: HashSet<Symbol> = tgd.existential_vars().into_iter().collect();
        for h in &tgd.head {
            for (i, t) in h.args.iter().enumerate() {
                if let Some(v) = t.as_var() {
                    if ex.contains(&v) {
                        affected.insert(Position {
                            pred: h.pred,
                            index: i,
                        });
                    }
                }
            }
        }
    }

    // Induction: a frontier variable occurring in the body only at affected
    // positions contaminates its head positions.
    loop {
        let mut changed = false;
        for tgd in tgds {
            let head_vars: HashSet<Symbol> = tgd.head_vars().into_iter().collect();
            for v in tgd.body_vars() {
                if !head_vars.contains(&v) {
                    continue;
                }
                if !occurs_only_at_affected(tgd, v, &affected) {
                    continue;
                }
                for h in &tgd.head {
                    for (i, t) in h.args.iter().enumerate() {
                        if t.as_var() == Some(v)
                            && affected.insert(Position {
                                pred: h.pred,
                                index: i,
                            })
                        {
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            return affected;
        }
    }
}

/// Does `v` occur in `tgd`'s body only at affected positions?
fn occurs_only_at_affected(tgd: &Tgd, v: Symbol, affected: &HashSet<Position>) -> bool {
    let mut occurs = false;
    for b in &tgd.body {
        for (i, t) in b.args.iter().enumerate() {
            if t.as_var() == Some(v) {
                occurs = true;
                if !affected.contains(&Position {
                    pred: b.pred,
                    index: i,
                }) {
                    return false;
                }
            }
        }
    }
    occurs
}

/// Is the set weakly guarded (\[25\])? Every TGD needs a body atom containing
/// all universally quantified variables that occur only at affected
/// positions. Query answering under weakly-guarded sets is
/// EXPTIME-complete in data complexity — decidable but not FO-rewritable.
pub(crate) fn is_weakly_guarded(tgds: &[Tgd]) -> bool {
    let affected = affected_positions(tgds);
    tgds.iter().all(|tgd| {
        let dangerous: Vec<Symbol> = tgd
            .body_vars()
            .into_iter()
            .filter(|v| occurs_only_at_affected(tgd, *v, &affected))
            .collect();
        if dangerous.is_empty() {
            return true;
        }
        tgd.body
            .iter()
            .any(|a| dangerous.iter().all(|v| a.contains_var(*v)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Predicate};
    use crate::term::Term;

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
    fn existential_positions_are_affected() {
        // p(X) → ∃Y r(X,Y): r[2] affected, r[1] not, p[1] not.
        let tgds = vec![tgd(&[("p", &["X"])], &[("r", &["X", "Y"])])];
        let aff = affected_positions(&tgds);
        assert!(aff.contains(&Position {
            pred: Predicate::new("r", 2),
            index: 1
        }));
        assert!(!aff.contains(&Position {
            pred: Predicate::new("r", 2),
            index: 0
        }));
        assert!(!aff.contains(&Position {
            pred: Predicate::new("p", 1),
            index: 0
        }));
    }

    #[test]
    fn affectedness_propagates_through_frontiers() {
        // p(X) → ∃Y r(X,Y);  r(X,Y) → s(Y): the null at r[2] flows to s[1].
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("r", &["X", "Y"])]),
            tgd(&[("r", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let aff = affected_positions(&tgds);
        assert!(aff.contains(&Position {
            pred: Predicate::new("s", 1),
            index: 0
        }));
    }

    #[test]
    fn mixed_occurrence_blocks_propagation() {
        // r(X,Y), p(Y) → s(Y): Y occurs at r[2] (affected) AND p[1] (not
        // affected) → only non-null values bind Y → s[1] not affected.
        let tgds = vec![
            tgd(&[("p0", &["X"])], &[("r", &["X", "Y"])]),
            tgd(&[("r", &["X", "Y"]), ("p", &["Y"])], &[("s", &["Y"])]),
        ];
        let aff = affected_positions(&tgds);
        assert!(!aff.contains(&Position {
            pred: Predicate::new("s", 1),
            index: 0
        }));
    }

    #[test]
    fn guarded_implies_weakly_guarded() {
        let tgds = vec![tgd(
            &[("r", &["X", "Y"]), ("s", &["X", "Y", "Z"])],
            &[("s", &["Z", "X", "W"])],
        )];
        assert!(crate::classes::is_guarded(&tgds));
        assert!(is_weakly_guarded(&tgds));
    }

    #[test]
    fn weakly_guarded_but_not_guarded() {
        // Classic example: the join variables never see nulls, so no weak
        // guard is needed even though no atom contains all body variables.
        // r(X,Y), r(Y,Z) → r(X,Z) with no existential rules: no affected
        // positions at all → weakly guarded, not guarded.
        let tgds = vec![tgd(
            &[("r", &["X", "Y"]), ("r", &["Y", "Z"])],
            &[("r", &["X", "Z"])],
        )];
        assert!(!crate::classes::is_guarded(&tgds));
        assert!(is_weakly_guarded(&tgds));
    }

    #[test]
    fn unguarded_nulls_break_weak_guardedness() {
        // p(X) → ∃Y r(X,Y);  r(X,Y), r(Z,Y) → q(X,Z): Y occurs only at the
        // affected position r[2] in both atoms, but no single atom contains
        // … it does: each atom contains Y. Dangerous vars = {Y}; the weak
        // guard only needs to cover Y → weakly guarded.
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("r", &["X", "Y"])]),
            tgd(
                &[("r", &["X", "Y"]), ("r", &["Z", "Y"])],
                &[("q", &["X", "Z"])],
            ),
        ];
        assert!(is_weakly_guarded(&tgds));

        // Two distinct dangerous variables in different atoms: not WG.
        // p(X) → ∃Y r(X,Y); r(X,Y), r(Y2,W) … make Y and W both dangerous
        // and never co-occur:
        let tgds2 = vec![
            tgd(&[("p", &["X"])], &[("r", &["X", "Y"])]),
            tgd(&[("p2", &["X"])], &[("r2", &["X", "Y"])]),
            tgd(
                &[("r", &["X", "Y"]), ("r2", &["Z", "W"])],
                &[("q", &["X", "Z"])],
            ),
        ];
        // Dangerous: Y (only at r[2], affected), W (only at r2[2], affected).
        // No body atom contains both → not weakly guarded.
        assert!(!is_weakly_guarded(&tgds2));
    }
}
