//! The restricted TGD chase (paper, Section 3.3).
//!
//! The chase exhaustively applies the TGD chase rule in breadth-first
//! fashion. Under arbitrary TGDs it may not terminate, so every run carries
//! a budget (rounds and atoms); the outcome records whether a fixpoint was
//! actually reached.

use std::collections::HashSet;

use nyaya_core::{HomSearch, Substitution, Term, Tgd};

use crate::instance::Instance;

/// Which chase rule to apply.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ChaseKind {
    /// The restricted (standard) chase of Section 3.3: a trigger fires only
    /// if no extension of the homomorphism already satisfies the head.
    #[default]
    Restricted,
    /// The oblivious chase: every trigger fires exactly once, regardless of
    /// satisfaction. Produces a larger (often infinite) but simpler-to-
    /// reason-about universal model; terminates for weakly-acyclic sets.
    Oblivious,
    /// The Skolem (semi-oblivious) chase: existential variables become
    /// function terms over the frontier, so re-firing a trigger is a no-op
    /// by construction — the firing history the oblivious chase has to
    /// keep is encoded in the terms themselves. This is the chase the
    /// Requiem-style baseline reasons against (Skolemized TGD heads).
    Skolem,
}

/// Budget for a chase run.
#[derive(Copy, Clone, Debug)]
pub struct ChaseConfig {
    /// Maximum number of breadth-first rounds (chase "levels").
    pub max_rounds: usize,
    /// Hard cap on the number of atoms in the chase instance.
    pub max_atoms: usize,
    /// Restricted (default) or oblivious firing.
    pub kind: ChaseKind,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 32,
            max_atoms: 100_000,
            kind: ChaseKind::Restricted,
        }
    }
}

impl ChaseConfig {
    pub fn rounds(max_rounds: usize) -> Self {
        ChaseConfig {
            max_rounds,
            ..Default::default()
        }
    }
}

/// The result of a chase run.
#[derive(Clone)]
pub struct ChaseOutcome {
    pub instance: Instance,
    /// Did the chase reach a fixpoint (i.e. is `instance` a universal model)?
    pub saturated: bool,
    /// Number of rounds actually executed.
    pub rounds: usize,
}

/// Run the restricted chase of `db` with `tgds` under `config`.
///
/// Each round finds every TGD trigger `(σ, h)` with `h(body(σ)) ⊆ I` whose
/// head is not already satisfiable by an extension of `h` (the *restricted*
/// applicability check of the TGD chase rule), then fires them all with
/// fresh labeled nulls.
pub fn chase(db: &Instance, tgds: &[Tgd], config: ChaseConfig) -> ChaseOutcome {
    let mut instance = db.clone();
    let mut rounds = 0usize;
    // Oblivious firing history: (TGD index, body image) pairs already used.
    let mut fired: HashSet<(usize, Vec<Term>)> = HashSet::new();
    while rounds < config.max_rounds {
        let additions = chase_round(&instance, tgds, config.kind, &mut fired);
        if additions.is_empty() {
            return ChaseOutcome {
                instance,
                saturated: true,
                rounds,
            };
        }
        rounds += 1;
        let mut grew = false;
        for head in additions {
            grew |= apply_trigger(&mut instance, head);
            if instance.len() >= config.max_atoms {
                return ChaseOutcome {
                    instance,
                    saturated: false,
                    rounds,
                };
            }
        }
        if !grew {
            return ChaseOutcome {
                instance,
                saturated: true,
                rounds,
            };
        }
    }
    // Budget exhausted: check whether we were, by luck, already saturated.
    let saturated = chase_round(&instance, tgds, config.kind, &mut fired).is_empty();
    ChaseOutcome {
        instance,
        saturated,
        rounds,
    }
}

/// A pending trigger: the head atoms under `h` with existential variables
/// still unbound (they get fresh nulls at application time), plus the part
/// of the head pattern needed to re-check satisfaction.
struct Trigger {
    /// Head atoms with frontier variables substituted, existential
    /// variables left as variables.
    head_pattern: Vec<nyaya_core::Atom>,
    /// Oblivious triggers skip the pre-fire satisfaction re-check.
    oblivious: bool,
}

fn chase_round(
    instance: &Instance,
    tgds: &[Tgd],
    kind: ChaseKind,
    fired: &mut HashSet<(usize, Vec<Term>)>,
) -> Vec<Trigger> {
    let search = HomSearch::new(instance.atoms());
    let mut triggers = Vec::new();
    for (ti, tgd) in tgds.iter().enumerate() {
        let body_vars = tgd.body_vars();
        search.search(&tgd.body, &Substitution::new(), &mut |h| {
            match kind {
                ChaseKind::Restricted => {
                    // Skip if some extension of h satisfies the head.
                    let head_pattern: Vec<nyaya_core::Atom> =
                        tgd.head.iter().map(|a| partial_apply(h, a, tgd)).collect();
                    if !search.exists(&head_pattern, &Substitution::new()) {
                        triggers.push(Trigger {
                            head_pattern,
                            oblivious: false,
                        });
                    }
                }
                ChaseKind::Oblivious => {
                    // Fire every (σ, h) exactly once.
                    let image: Vec<Term> = body_vars
                        .iter()
                        .map(|v| h.apply_term(&Term::Var(*v)))
                        .collect();
                    if fired.insert((ti, image)) {
                        let head_pattern: Vec<nyaya_core::Atom> =
                            tgd.head.iter().map(|a| partial_apply(h, a, tgd)).collect();
                        triggers.push(Trigger {
                            head_pattern,
                            oblivious: true,
                        });
                    }
                }
                ChaseKind::Skolem => {
                    // Existentials become f_{σ,Z}(frontier): the resulting
                    // atoms are ground, so set insertion dedups re-firings.
                    let mut s = h.clone();
                    let frontier: Vec<Term> = tgd
                        .frontier()
                        .iter()
                        .map(|v| h.apply_term(&Term::Var(*v)))
                        .collect();
                    for (k, z) in tgd.existential_vars().into_iter().enumerate() {
                        let sym = nyaya_core::symbols::intern(&format!("sk{ti}_{k}"));
                        s.bind(z, Term::Func(sym, frontier.clone().into_boxed_slice()));
                    }
                    let head_pattern: Vec<nyaya_core::Atom> =
                        tgd.head.iter().map(|a| s.apply_atom(a)).collect();
                    if head_pattern.iter().any(|a| !instance.contains(a)) {
                        triggers.push(Trigger {
                            head_pattern,
                            oblivious: true,
                        });
                    }
                }
            }
            true
        });
    }
    triggers
}

/// Apply `h` to the head atom, substituting only universally quantified
/// (body) variables; existential variables stay as variables.
fn partial_apply(h: &Substitution, atom: &nyaya_core::Atom, tgd: &Tgd) -> nyaya_core::Atom {
    let existential: Vec<_> = tgd.existential_vars();
    let restricted = h.restrict(|v| !existential.contains(&v));
    restricted.apply_atom(atom)
}

/// Fire a trigger against the current instance, re-checking satisfaction
/// first (another firing in the same round may have satisfied it).
fn apply_trigger(instance: &mut Instance, trigger: Trigger) -> bool {
    if !trigger.oblivious {
        let search = HomSearch::new(instance.atoms());
        if search.exists(&trigger.head_pattern, &Substitution::new()) {
            return false;
        }
    }
    // Bind remaining variables (the existential ones) to fresh nulls.
    let mut s = Substitution::new();
    let mut grew = false;
    let mut vars = Vec::new();
    for a in &trigger.head_pattern {
        a.collect_vars(&mut vars);
    }
    vars.dedup();
    for v in vars {
        if !s.contains(v) {
            let n = instance.fresh_null();
            s.bind(v, n);
        }
    }
    for a in &trigger.head_pattern {
        grew |= instance.insert(s.apply_atom(a));
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::{Atom, Predicate, Term};

    /// Does the instance satisfy every TGD (no applicable trigger remains)?
    fn satisfies_tgds(instance: &Instance, tgds: &[Tgd]) -> bool {
        chase_round(instance, tgds, ChaseKind::Restricted, &mut HashSet::new()).is_empty()
    }

    fn of_kind(kind: ChaseKind) -> ChaseConfig {
        ChaseConfig {
            kind,
            ..Default::default()
        }
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

    #[test]
    fn full_tgd_closure() {
        // edge(X,Y) → reach(X,Y); reach(X,Y),edge(Y,Z) → reach(X,Z)
        let tgds = vec![
            tgd(&[("edge", &["X", "Y"])], &[("reach", &["X", "Y"])]),
            tgd(
                &[("reach", &["X", "Y"]), ("edge", &["Y", "Z"])],
                &[("reach", &["X", "Z"])],
            ),
        ];
        let db = Instance::from_atoms([
            Atom::make("edge", ["a", "b"]),
            Atom::make("edge", ["b", "c"]),
        ]);
        let out = chase(&db, &tgds, ChaseConfig::default());
        assert!(out.saturated);
        assert!(out.instance.contains(&Atom::make("reach", ["a", "c"])));
        assert_eq!(out.instance.len(), 2 + 3);
    }

    #[test]
    fn existential_introduces_null_once() {
        // Example 4 of the paper: p(X) → ∃Y t(X,Y);  t(X,Y) → s(Y)
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let db = Instance::from_atoms([Atom::make("p", ["a"])]);
        let out = chase(&db, &tgds, ChaseConfig::default());
        assert!(out.saturated);
        // chase(D,Σ) = {p(a), t(a,z1), s(z1)}
        assert_eq!(out.instance.len(), 3);
        assert!(out.instance.has_nulls());
    }

    #[test]
    fn restricted_chase_does_not_refire_satisfied_heads() {
        // p(X) → ∃Y t(X,Y): already satisfied when t(a,b) present.
        let tgds = vec![tgd(&[("p", &["X"])], &[("t", &["X", "Y"])])];
        let db = Instance::from_atoms([Atom::make("p", ["a"]), Atom::make("t", ["a", "b"])]);
        let out = chase(&db, &tgds, ChaseConfig::default());
        assert!(out.saturated);
        assert_eq!(out.instance.len(), 2, "no new atom should be created");
    }

    #[test]
    fn non_terminating_chase_respects_budget() {
        // r(X,Y) → ∃Z r(Y,Z): infinite chain under the restricted chase.
        let tgds = vec![tgd(&[("r", &["X", "Y"])], &[("r", &["Y", "Z"])])];
        let db = Instance::from_atoms([Atom::make("r", ["a", "b"])]);
        let out = chase(&db, &tgds, ChaseConfig::rounds(5));
        assert!(!out.saturated);
        assert_eq!(out.rounds, 5);
        assert_eq!(out.instance.len(), 6);
    }

    #[test]
    fn multi_head_tgds_fire_atomically() {
        let tgds = vec![tgd(&[("c", &["X"])], &[("r", &["X", "Y"]), ("d", &["Y"])])];
        let db = Instance::from_atoms([Atom::make("c", ["a"])]);
        let out = chase(&db, &tgds, ChaseConfig::default());
        assert!(out.saturated);
        assert_eq!(out.instance.len(), 3);
        // The same null links r and d.
        let r_atom = out
            .instance
            .by_predicate(Predicate::new("r", 2))
            .next()
            .unwrap()
            .clone();
        let d_atom = out
            .instance
            .by_predicate(Predicate::new("d", 1))
            .next()
            .unwrap()
            .clone();
        assert_eq!(r_atom.args[1], d_atom.args[0]);
    }

    #[test]
    fn oblivious_chase_fires_satisfied_triggers() {
        // p(X) → ∃Y t(X,Y) with t(a,b) present: the restricted chase adds
        // nothing; the oblivious chase invents a fresh null anyway.
        let tgds = vec![tgd(&[("p", &["X"])], &[("t", &["X", "Y"])])];
        let db = Instance::from_atoms([Atom::make("p", ["a"]), Atom::make("t", ["a", "b"])]);
        let restricted = chase(&db, &tgds, ChaseConfig::default());
        assert!(restricted.saturated);
        assert_eq!(restricted.instance.len(), 2);
        let oblivious = chase(&db, &tgds, of_kind(ChaseKind::Oblivious));
        assert!(oblivious.saturated);
        assert_eq!(oblivious.instance.len(), 3);
    }

    #[test]
    fn oblivious_chase_diverges_where_restricted_terminates() {
        // p(X) → ∃Y p(Y): the restricted chase adds nothing at all — p(a)
        // itself witnesses ∃Y p(Y); the oblivious chase fires on every new
        // null forever.
        let tgds = vec![tgd(&[("p", &["X"])], &[("p", &["Y"])])];
        let db = Instance::from_atoms([Atom::make("p", ["a"])]);
        let restricted = chase(&db, &tgds, ChaseConfig::default());
        assert!(restricted.saturated);
        assert_eq!(restricted.instance.len(), 1);
        let oblivious = chase(
            &db,
            &tgds,
            ChaseConfig {
                max_rounds: 6,
                kind: ChaseKind::Oblivious,
                ..Default::default()
            },
        );
        assert!(!oblivious.saturated);
        assert_eq!(oblivious.instance.len(), 7); // one new null per round
    }

    #[test]
    fn oblivious_and_restricted_agree_on_bcq_entailment() {
        // Both chases are universal models, so they entail the same BCQs
        // (when both saturate). Weakly-acyclic example.
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let db = Instance::from_atoms([Atom::make("p", ["a"]), Atom::make("t", ["a", "b"])]);
        let r = chase(&db, &tgds, ChaseConfig::default());
        let o = chase(&db, &tgds, of_kind(ChaseKind::Oblivious));
        assert!(r.saturated && o.saturated);
        assert!(o.instance.len() >= r.instance.len());
        for src in [
            vec![Atom::make("s", ["B"])],
            vec![Atom::make("t", ["A", "B"]), Atom::make("s", ["B"])],
            vec![Atom::make("s", ["b"])],
        ] {
            let q = nyaya_core::ConjunctiveQuery::boolean(src);
            assert_eq!(
                crate::answer::entails_bcq(&r.instance, &q),
                crate::answer::entails_bcq(&o.instance, &q),
                "disagreement on {q}"
            );
        }
    }

    #[test]
    fn skolem_chase_invents_function_terms() {
        // Example 4: p(X) → ∃Y t(X,Y); t(X,Y) → s(Y) over {p(a)} gives
        // {p(a), t(a, sk(a)), s(sk(a))}.
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let db = Instance::from_atoms([Atom::make("p", ["a"])]);
        let out = chase(&db, &tgds, of_kind(ChaseKind::Skolem));
        assert!(out.saturated);
        assert_eq!(out.instance.len(), 3);
        assert!(
            !out.instance.has_nulls(),
            "Skolem chase uses terms, not nulls"
        );
        let t_atom = out
            .instance
            .by_predicate(Predicate::new("t", 2))
            .next()
            .unwrap();
        assert!(t_atom.args[1].is_func());
        let s_atom = out
            .instance
            .by_predicate(Predicate::new("s", 1))
            .next()
            .unwrap();
        assert_eq!(t_atom.args[1], s_atom.args[0], "terms share structure");
    }

    #[test]
    fn skolem_refiring_is_a_noop() {
        // Unlike the oblivious chase, the Skolem chase is idempotent per
        // trigger: with t(a,b) present, p(a) still fires, but only once
        // ever — the invented atom t(a, sk(a)) is stable across rounds.
        let tgds = vec![tgd(&[("p", &["X"])], &[("t", &["X", "Y"])])];
        let db = Instance::from_atoms([Atom::make("p", ["a"]), Atom::make("t", ["a", "b"])]);
        let out = chase(&db, &tgds, of_kind(ChaseKind::Skolem));
        assert!(out.saturated);
        assert_eq!(out.instance.len(), 3); // p(a), t(a,b), t(a,sk(a))
    }

    #[test]
    fn skolem_and_restricted_agree_on_bcq_entailment() {
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
            tgd(&[("s", &["X"])], &[("u", &["X", "X"])]),
        ];
        let db = Instance::from_atoms([Atom::make("p", ["a"]), Atom::make("t", ["a", "b"])]);
        let r = chase(&db, &tgds, ChaseConfig::default());
        let k = chase(&db, &tgds, of_kind(ChaseKind::Skolem));
        assert!(r.saturated && k.saturated);
        for src in [
            vec![Atom::make("u", ["B", "B"])],
            vec![Atom::make("t", ["A", "B"])],
            vec![Atom::make("s", ["b"])],
            vec![Atom::make("u", ["a", "a"])],
        ] {
            let q = nyaya_core::ConjunctiveQuery::boolean(src);
            assert_eq!(
                crate::answer::entails_bcq(&r.instance, &q),
                crate::answer::entails_bcq(&k.instance, &q),
                "disagreement on {q}"
            );
        }
    }

    #[test]
    fn skolem_diverges_on_non_terminating_sets() {
        // r(X,Y) → ∃Z r(Y,Z): sk-terms nest unboundedly.
        let tgds = vec![tgd(&[("r", &["X", "Y"])], &[("r", &["Y", "Z"])])];
        let db = Instance::from_atoms([Atom::make("r", ["a", "b"])]);
        let out = chase(
            &db,
            &tgds,
            ChaseConfig {
                max_rounds: 4,
                kind: ChaseKind::Skolem,
                ..Default::default()
            },
        );
        assert!(!out.saturated);
        assert_eq!(out.instance.len(), 5);
    }

    #[test]
    fn satisfies_tgds_checks_fixpoint() {
        // A saturated restricted chase is a model of Σ (Section 3.3): the
        // database leaves a trigger, the chase leaves none.
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let db = Instance::from_atoms([Atom::make("p", ["a"])]);
        assert!(!satisfies_tgds(&db, &tgds));
        let out = chase(&db, &tgds, ChaseConfig::default());
        assert!(out.saturated);
        assert!(satisfies_tgds(&out.instance, &tgds));
    }

    #[test]
    fn running_example_derivation() {
        // Section 1: list_comp(ibm, nasdaq) and ∃list_comp⁻ ⊑ fin_idx,
        // i.e. list_comp(X,Y) → ∃Z∃W fin_idx(Y,Z,W).
        let tgds = vec![tgd(
            &[("list_comp", &["X", "Y"])],
            &[("fin_idx", &["Y", "Z", "W"])],
        )];
        let db = Instance::from_atoms([Atom::make("list_comp", ["ibm", "nasdaq"])]);
        let out = chase(&db, &tgds, ChaseConfig::default());
        assert!(out.saturated);
        let fin = out
            .instance
            .by_predicate(Predicate::new("fin_idx", 3))
            .next()
            .unwrap();
        assert_eq!(fin.args[0], Term::constant("nasdaq"));
    }
}
