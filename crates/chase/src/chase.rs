//! The restricted TGD chase (paper, Section 3.3).
//!
//! The chase exhaustively applies the TGD chase rule in breadth-first
//! fashion. Under arbitrary TGDs it may not terminate, so every run carries
//! a budget (rounds and atoms); the outcome records whether a fixpoint was
//! actually reached.

use nyaya_core::{Atom, HomSearch, Substitution, Tgd};

use crate::instance::Instance;

/// Budget for a chase run.
#[derive(Copy, Clone, Debug)]
pub struct ChaseConfig {
    /// Maximum number of breadth-first rounds (chase "levels").
    pub max_rounds: usize,
    /// Hard cap on the number of atoms in the chase instance.
    pub max_atoms: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 32,
            max_atoms: 100_000,
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
    while rounds < config.max_rounds {
        let additions = chase_round(&instance, tgds);
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
            grew |= apply_trigger(&mut instance, &head);
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
    let saturated = chase_round(&instance, tgds).is_empty();
    ChaseOutcome {
        instance,
        saturated,
        rounds,
    }
}

/// The round's pending triggers, each as its head atoms with the frontier
/// variables substituted and the existential ones left as variables (they
/// get fresh nulls when it fires): every `(σ, h)` with `h(body(σ)) ⊆ I`
/// whose head no extension of `h` satisfies.
fn chase_round(instance: &Instance, tgds: &[Tgd]) -> Vec<Vec<Atom>> {
    let search = HomSearch::new(instance.atoms());
    let mut triggers = Vec::new();
    for tgd in tgds {
        search.search(&tgd.body, &Substitution::new(), &mut |h| {
            let head: Vec<Atom> = tgd.head.iter().map(|a| partial_apply(h, a, tgd)).collect();
            if !search.exists(&head, &Substitution::new()) {
                triggers.push(head);
            }
            true
        });
    }
    triggers
}

/// Apply `h` to the head atom, substituting only universally quantified
/// (body) variables; existential variables stay as variables.
fn partial_apply(h: &Substitution, atom: &Atom, tgd: &Tgd) -> Atom {
    let existential: Vec<_> = tgd.existential_vars();
    let restricted = h.restrict(|v| !existential.contains(&v));
    restricted.apply_atom(atom)
}

/// Fire a trigger against the current instance, re-checking satisfaction
/// first (another firing in the same round may have satisfied it).
fn apply_trigger(instance: &mut Instance, head: &[Atom]) -> bool {
    let search = HomSearch::new(instance.atoms());
    if search.exists(head, &Substitution::new()) {
        return false;
    }
    // Bind remaining variables (the existential ones) to fresh nulls.
    let mut s = Substitution::new();
    let mut grew = false;
    let mut vars = Vec::new();
    for a in head {
        a.collect_vars(&mut vars);
    }
    vars.dedup();
    for v in vars {
        if !s.contains(v) {
            let n = instance.fresh_null();
            s.bind(v, n);
        }
    }
    for a in head {
        grew |= instance.insert(s.apply_atom(a));
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::{Predicate, Term};

    /// Does the instance satisfy every TGD (no applicable trigger remains)?
    fn satisfies_tgds(instance: &Instance, tgds: &[Tgd]) -> bool {
        chase_round(instance, tgds).is_empty()
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
