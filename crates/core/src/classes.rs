//! Syntactic Datalog± language classes (paper, Section 4): linear, guarded,
//! weakly-acyclic, sticky, and a sufficient check for sticky-join.

use std::collections::{HashMap, HashSet};

use crate::atom::Position;
use crate::symbols::Symbol;
use crate::tgd::Tgd;

/// Is every TGD linear (single body atom)?
pub fn is_linear(tgds: &[Tgd]) -> bool {
    tgds.iter().all(Tgd::is_linear)
}

/// Is every TGD guarded (some body atom contains all universal variables)?
pub fn is_guarded(tgds: &[Tgd]) -> bool {
    tgds.iter().all(Tgd::is_guarded)
}

/// Weak acyclicity (Fagin et al., referenced as \[29\]): build the position
/// graph with regular and special edges; the set is weakly acyclic iff no
/// cycle passes through a special edge. Guarantees chase termination.
pub(crate) fn is_weakly_acyclic(tgds: &[Tgd]) -> bool {
    let mut regular: HashMap<Position, HashSet<Position>> = HashMap::new();
    let mut special: Vec<(Position, Position)> = Vec::new();

    for tgd in tgds {
        let head_vars: HashSet<Symbol> = tgd.head_vars().into_iter().collect();
        let ex_vars: HashSet<Symbol> = tgd.existential_vars().into_iter().collect();
        // Positions of existential variables in the head.
        let mut ex_positions: Vec<Position> = Vec::new();
        for h in &tgd.head {
            for (i, t) in h.args.iter().enumerate() {
                if let Some(v) = t.as_var() {
                    if ex_vars.contains(&v) {
                        ex_positions.push(Position {
                            pred: h.pred,
                            index: i,
                        });
                    }
                }
            }
        }
        for b in &tgd.body {
            for (i, t) in b.args.iter().enumerate() {
                let Some(v) = t.as_var() else { continue };
                if !head_vars.contains(&v) {
                    continue;
                }
                let from = Position {
                    pred: b.pred,
                    index: i,
                };
                // Regular edges: to every head position of the same variable.
                for h in &tgd.head {
                    for (j, u) in h.args.iter().enumerate() {
                        if u.as_var() == Some(v) {
                            regular.entry(from).or_default().insert(Position {
                                pred: h.pred,
                                index: j,
                            });
                        }
                    }
                }
                // Special edges: to every existential position of the head.
                for &to in &ex_positions {
                    special.push((from, to));
                    regular.entry(from).or_default(); // ensure node exists
                }
            }
        }
    }

    // Combined reachability (regular ∪ special edges).
    let mut all_edges: HashMap<Position, HashSet<Position>> = regular.clone();
    for (u, v) in &special {
        all_edges.entry(*u).or_default().insert(*v);
    }
    // A cycle through a special edge (u, v) exists iff v reaches u.
    for (u, v) in &special {
        if reaches(&all_edges, *v, *u) {
            return false;
        }
    }
    true
}

fn reaches(edges: &HashMap<Position, HashSet<Position>>, from: Position, to: Position) -> bool {
    if from == to {
        return true;
    }
    let mut stack = vec![from];
    let mut seen: HashSet<Position> = HashSet::new();
    seen.insert(from);
    while let Some(p) = stack.pop() {
        if let Some(next) = edges.get(&p) {
            for &n in next {
                if n == to {
                    return true;
                }
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
    }
    false
}

/// The sticky variable-marking procedure (\[9\], sketched in Section 4.1).
///
/// Returns, for each TGD, the set of marked body variables. A set of TGDs is
/// sticky iff no marked variable occurs more than once in its body.
pub(crate) fn sticky_marking(tgds: &[Tgd]) -> Vec<HashSet<Symbol>> {
    let mut marked: Vec<HashSet<Symbol>> = vec![HashSet::new(); tgds.len()];

    // Initial step: mark body variables that do not occur in the head.
    for (i, tgd) in tgds.iter().enumerate() {
        let head_vars: HashSet<Symbol> = tgd.head_vars().into_iter().collect();
        for v in tgd.body_vars() {
            if !head_vars.contains(&v) {
                marked[i].insert(v);
            }
        }
    }

    // Propagation: if a universal variable of head(σ) occurs (in the head)
    // at a position at which some body holds a marked variable, mark it in
    // body(σ). Iterate to fixpoint.
    loop {
        // Positions where some TGD's body has a marked variable.
        let mut marked_positions: HashSet<Position> = HashSet::new();
        for (i, tgd) in tgds.iter().enumerate() {
            for b in &tgd.body {
                for (j, t) in b.args.iter().enumerate() {
                    if let Some(v) = t.as_var() {
                        if marked[i].contains(&v) {
                            marked_positions.insert(Position {
                                pred: b.pred,
                                index: j,
                            });
                        }
                    }
                }
            }
        }
        let mut changed = false;
        for (i, tgd) in tgds.iter().enumerate() {
            let body_vars: HashSet<Symbol> = tgd.body_vars().into_iter().collect();
            for h in &tgd.head {
                for (j, t) in h.args.iter().enumerate() {
                    let Some(v) = t.as_var() else { continue };
                    if !body_vars.contains(&v) {
                        continue; // existential variables are never marked
                    }
                    let pos = Position {
                        pred: h.pred,
                        index: j,
                    };
                    if marked_positions.contains(&pos) && marked[i].insert(v) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return marked;
        }
    }
}

/// Is the set sticky (\[9\])? Decidable in PTIME via the marking procedure.
pub fn is_sticky(tgds: &[Tgd]) -> bool {
    let marking = sticky_marking(tgds);
    tgds.iter().zip(marking.iter()).all(|(tgd, marked)| {
        marked.iter().all(|v| {
            let mut occ = Vec::new();
            for b in &tgd.body {
                b.collect_vars(&mut occ);
            }
            occ.iter().filter(|w| *w == v).count() <= 1
        })
    })
}

/// Human-readable classification report for an ontology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classification {
    pub linear: bool,
    pub guarded: bool,
    pub weakly_guarded: bool,
    pub weakly_acyclic: bool,
    pub sticky: bool,
}

impl Classification {
    /// Does the classification guarantee first-order rewritability
    /// (Section 1: linear, sticky and sticky-join sets are FO-rewritable)?
    /// Sticky-join sets generalise both linear and sticky ones, but
    /// deciding membership is PSPACE-complete, so only the two classes it
    /// generalises are checked: `false` is inconclusive.
    pub fn fo_rewritable(&self) -> bool {
        self.linear || self.sticky
    }
}

/// Classify a set of TGDs against all implemented language classes.
pub fn classify(tgds: &[Tgd]) -> Classification {
    Classification {
        linear: is_linear(tgds),
        guarded: is_guarded(tgds),
        weakly_guarded: crate::affected::is_weakly_guarded(tgds),
        weakly_acyclic: is_weakly_acyclic(tgds),
        sticky: is_sticky(tgds),
    }
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
    fn linear_implies_guarded() {
        let tgds = vec![tgd(&[("s", &["X"])], &[("t", &["X", "Z"])])];
        assert!(is_linear(&tgds));
        assert!(is_guarded(&tgds));
    }

    #[test]
    fn transitivity_is_not_guarded() {
        let tgds = vec![tgd(
            &[("r", &["X", "Y"]), ("r", &["Y", "Z"])],
            &[("r", &["X", "Z"])],
        )];
        assert!(!is_linear(&tgds));
        assert!(!is_guarded(&tgds));
        // …but it is sticky? r(X,Y), r(Y,Z) → r(X,Z): Y is marked (it does
        // not occur in the head) and occurs twice → NOT sticky.
        assert!(!is_sticky(&tgds));
    }

    #[test]
    fn weak_acyclicity_detects_self_feeding_existential() {
        // r(X,Y) → ∃Z r(Y,Z): Y propagates (regular r[2]→r[1]) and the
        // special edge r[2]→r[2] closes a cycle through itself → not WA.
        let looping = vec![tgd(&[("r", &["X", "Y"])], &[("r", &["Y", "Z"])])];
        assert!(!is_weakly_acyclic(&looping));
        // p(X) → ∃Y p(Y): X does not occur in the head, so the position
        // graph has no edges at all; weakly acyclic (and indeed the
        // restricted chase terminates: p(z1) already satisfies the TGD).
        let fresh_only = vec![tgd(&[("p", &["X"])], &[("p", &["Y"])])];
        assert!(is_weakly_acyclic(&fresh_only));
        // p(X) → q(X): no existential at all → weakly acyclic.
        let flat = vec![tgd(&[("p", &["X"])], &[("q", &["X"])])];
        assert!(is_weakly_acyclic(&flat));
    }

    #[test]
    fn weak_acyclicity_two_step_cycle() {
        // p(X) → ∃Y r(X,Y);  r(X,Y) → p(Y): null flows back into p[1].
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("r", &["X", "Y"])]),
            tgd(&[("r", &["X", "Y"])], &[("p", &["Y"])]),
        ];
        assert!(!is_weakly_acyclic(&tgds));
        // Without the feedback rule the set is weakly acyclic.
        let tgds2 = vec![tgd(&[("p", &["X"])], &[("r", &["X", "Y"])])];
        assert!(is_weakly_acyclic(&tgds2));
    }

    #[test]
    fn sticky_marking_example() {
        // σ1: r(X,Y) → p(X):  Y marked initially.
        // σ2: p(X), q(X) → s(X): X occurs twice; is X marked? X occurs in
        // head at s[1]; no body holds a marked variable at s[1], so X stays
        // unmarked and the set is sticky.
        let tgds = vec![
            tgd(&[("r", &["X", "Y"])], &[("p", &["X"])]),
            tgd(&[("p", &["X"]), ("q", &["X"])], &[("s", &["X"])]),
        ];
        assert!(is_sticky(&tgds));

        // Now feed s back into r's body: s(X,?)… make marking propagate:
        // σ3: s(X) → r(X, W) puts existential at r[2]; and σ1 marks Y at
        // r[2]; propagation: X of σ3's head occurs at r[1] — no marking.
        // Construct an explicitly non-sticky set instead:
        // σ: p(X), q(X) → t(X); τ: t(X) → u(X); u-body position carries X
        // which is joined… simplest non-sticky: join variable that does not
        // reach the head.
        let non_sticky = vec![tgd(
            &[("p", &["X", "Y"]), ("q", &["Y", "Z"])],
            &[("s", &["X", "Z"])],
        )];
        // Y occurs twice and not in head → marked twice → not sticky.
        assert!(!is_sticky(&non_sticky));
    }

    #[test]
    fn sticky_propagation_through_heads() {
        // σ1: a(X,Y) → b(X):   Y marked at a[2].
        // σ2: c(X,Y) → a(Y,X): head a[2] holds X (universal) — position a[2]
        //     is marked by σ1's body? marked positions are those of *bodies*
        //     holding marked vars: a[2] holds Y in σ1's body (marked) → X of
        //     σ2 becomes marked. X occurs once in σ2's body → still sticky.
        let tgds = vec![
            tgd(&[("a", &["X", "Y"])], &[("b", &["X"])]),
            tgd(&[("c", &["X", "Y"])], &[("a", &["Y", "X"])]),
        ];
        let marking = sticky_marking(&tgds);
        assert!(marking[1].contains(&crate::symbols::intern("X")));
        assert!(is_sticky(&tgds));

        // Same propagation but X occurs twice in σ2's body → not sticky.
        let tgds2 = vec![
            tgd(&[("a", &["X", "Y"])], &[("b", &["X"])]),
            tgd(&[("c", &["X", "X"])], &[("a", &["Y", "X"])]),
        ];
        assert!(!is_sticky(&tgds2));
    }

    #[test]
    fn classification_report() {
        let tgds = vec![tgd(&[("s", &["X"])], &[("t", &["X", "Z"])])];
        let c = classify(&tgds);
        assert!(c.linear && c.guarded && c.weakly_acyclic && c.sticky);
        assert!(c.weakly_guarded, "guarded ⊆ weakly guarded");
        assert!(c.fo_rewritable());
    }
}
