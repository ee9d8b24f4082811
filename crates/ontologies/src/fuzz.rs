//! Random databases and (unions of) conjunctive queries for
//! differential testing.
//!
//! The engine-differential harness and the execution benchmark both need
//! streams of small, adversarial inputs: queries with repeated variables,
//! constants in arbitrary positions, Cartesian products, Boolean heads,
//! and databases skewed enough to make join order matter. Generation is a
//! pure function of a [`Prng`] seed, so a failing seed reproduces exactly.

use nyaya_core::{
    AggFunc, Aggregate, Atom, ColumnFilter, ConjunctiveQuery, FilterOp, Predicate, SelectOptions,
    SortDir, Term, Tgd, UnionQuery,
};

use crate::rng::Prng;

/// Shape limits for the random generator.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Constants `c0..c{n-1}` the database and queries draw from.
    pub constants: usize,
    /// Facts per generated database.
    pub max_facts: usize,
    /// Disjuncts per generated UCQ.
    pub max_disjuncts: usize,
    /// Atoms per generated CQ body.
    pub max_atoms: usize,
    /// Variables `X0..X{n-1}` a CQ may use.
    pub max_vars: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            constants: 8,
            max_facts: 60,
            max_disjuncts: 4,
            max_atoms: 4,
            max_vars: 6,
        }
    }
}

/// The fixed relational schema the generator populates and queries:
/// small arities 1–3 so repeated variables and constant filters all get
/// exercised.
pub(crate) fn fuzz_schema() -> Vec<Predicate> {
    vec![
        Predicate::new("f0", 1),
        Predicate::new("f1", 2),
        Predicate::new("f2", 2),
        Predicate::new("f3", 3),
        Predicate::new("f4", 1),
    ]
}

fn random_constant(rng: &mut Prng, config: &FuzzConfig) -> Term {
    Term::constant(&format!("c{}", rng.gen_range(0..config.constants)))
}

/// A random ground database over `fuzz_schema()`.
pub fn random_database(rng: &mut Prng, config: &FuzzConfig) -> Vec<Atom> {
    let schema = fuzz_schema();
    let facts = rng.gen_range(1..config.max_facts.max(2));
    (0..facts)
        .map(|_| {
            let pred = schema[rng.gen_range(0..schema.len())];
            let args = (0..pred.arity)
                .map(|_| random_constant(rng, config))
                .collect();
            Atom::new(pred, args)
        })
        .collect()
}

/// A random *normalized linear* TGD set over `fuzz_schema()`: one body
/// atom, one head atom, at most one existential variable occurring once —
/// exactly the Lemma 1/2 shape the rewriting engines require, and linear,
/// so every engine (including TGD-rewrite⋆'s elimination) is applicable
/// and guaranteed to terminate (Theorem 7).
///
/// Body arguments repeat variables with positive probability (exercising
/// the applicability conditions); head arguments draw from the body's
/// variables, with at most one position holding a fresh existential.
pub fn random_linear_tgds(rng: &mut Prng, count: usize) -> Vec<Tgd> {
    let schema = fuzz_schema();
    (0..count.max(1))
        .map(|_| {
            let body_pred = schema[rng.gen_range(0..schema.len())];
            // Draw body variables from a pool of `arity` names so repeats
            // (t(X,X)-style bodies) occur but bodies stay mostly general.
            let body_args: Vec<Term> = (0..body_pred.arity)
                .map(|i| {
                    let pick = if rng.gen_bool(0.8) {
                        i
                    } else {
                        rng.gen_range(0..body_pred.arity)
                    };
                    Term::var(&format!("X{pick}"))
                })
                .collect();
            let body = Atom::new(body_pred, body_args.clone());
            let body_vars: Vec<Term> = {
                let mut vs = Vec::new();
                for t in &body_args {
                    if !vs.contains(t) {
                        vs.push(t.clone());
                    }
                }
                vs
            };
            let head_pred = schema[rng.gen_range(0..schema.len())];
            let mut existential_used = false;
            let head_args: Vec<Term> = (0..head_pred.arity)
                .map(|_| {
                    if !existential_used && rng.gen_bool(0.3) {
                        existential_used = true;
                        Term::var("Z_ex")
                    } else {
                        body_vars[rng.gen_range(0..body_vars.len())].clone()
                    }
                })
                .collect();
            Tgd::new(vec![body], vec![Atom::new(head_pred, head_args)])
        })
        .collect()
}

/// A random CQ over `fuzz_schema()` with `head_arity` head terms.
///
/// Head terms are drawn from the body's variables when possible (safe
/// queries), falling back to constants for variable-free bodies.
pub fn random_cq(rng: &mut Prng, config: &FuzzConfig, head_arity: usize) -> ConjunctiveQuery {
    let schema = fuzz_schema();
    let atoms = rng.gen_range(1..config.max_atoms.max(2));
    let body: Vec<Atom> = (0..atoms)
        .map(|_| {
            let pred = schema[rng.gen_range(0..schema.len())];
            let args = (0..pred.arity)
                .map(|_| {
                    if rng.gen_bool(0.75) {
                        Term::var(&format!("X{}", rng.gen_range(0..config.max_vars)))
                    } else {
                        random_constant(rng, config)
                    }
                })
                .collect();
            Atom::new(pred, args)
        })
        .collect();
    let mut body_vars = Vec::new();
    for atom in &body {
        for v in atom.variables() {
            if !body_vars.contains(&v) {
                body_vars.push(v);
            }
        }
    }
    let head = (0..head_arity)
        .map(|_| {
            if body_vars.is_empty() {
                random_constant(rng, config)
            } else {
                Term::Var(body_vars[rng.gen_range(0..body_vars.len())])
            }
        })
        .collect();
    ConjunctiveQuery::new(head, body)
}

/// A random UCQ: 1–`max_disjuncts` CQs sharing one head arity (0–2, so
/// Boolean unions are generated too).
pub fn random_ucq(rng: &mut Prng, config: &FuzzConfig) -> UnionQuery {
    let head_arity = rng.gen_range(0..3);
    let disjuncts = rng.gen_range(1..config.max_disjuncts.max(2));
    UnionQuery::new(
        (0..disjuncts)
            .map(|_| random_cq(rng, config, head_arity))
            .collect(),
    )
}

/// Random result modifiers for a query with `head_arity` head columns:
/// comparison filters, ORDER BY keys, a small LIMIT, and occasionally a
/// COUNT/MIN/MAX aggregate with a GROUP BY subset. Roughly a third of the
/// draws are plain (no modifiers), so differential harnesses keep
/// exercising the unmodified path too. Always valid for `head_arity`
/// (`SelectOptions::validate` passes by construction).
pub(crate) fn random_select(
    rng: &mut Prng,
    config: &FuzzConfig,
    head_arity: usize,
) -> SelectOptions {
    let mut sel = SelectOptions::default();
    if head_arity == 0 || rng.gen_bool(0.3) {
        return sel;
    }
    while rng.gen_bool(0.4) && sel.filters.len() < 3 {
        let op = match rng.gen_range(0..5) {
            0 => FilterOp::Lt,
            1 => FilterOp::Le,
            2 => FilterOp::Gt,
            3 => FilterOp::Ge,
            _ => FilterOp::Ne,
        };
        sel.filters.push(ColumnFilter {
            column: rng.gen_range(0..head_arity),
            op,
            value: random_constant(rng, config),
        });
    }
    if rng.gen_bool(0.3) {
        let func = match rng.gen_range(0..3) {
            0 => AggFunc::Count,
            1 => AggFunc::Min(rng.gen_range(0..head_arity)),
            _ => AggFunc::Max(rng.gen_range(0..head_arity)),
        };
        let group_by = (0..head_arity).filter(|_| rng.gen_bool(0.4)).collect();
        sel.aggregate = Some(Aggregate { group_by, func });
    }
    let output_arity = sel.output_arity(head_arity);
    while rng.gen_bool(0.4) && sel.order_by.len() < output_arity {
        let dir = if rng.gen_bool(0.5) {
            SortDir::Asc
        } else {
            SortDir::Desc
        };
        sel.order_by.push((rng.gen_range(0..output_arity), dir));
    }
    if rng.gen_bool(0.4) {
        sel.limit = Some(rng.gen_range(0..8));
    }
    sel
}

/// A random UCQ paired with modifiers valid for its head arity — the
/// generator pair the planner-differential harness consumes.
pub fn random_select_ucq(rng: &mut Prng, config: &FuzzConfig) -> (UnionQuery, SelectOptions) {
    let u = random_ucq(rng, config);
    let head_arity = u.cqs.first().map_or(0, |q| q.head.len());
    let sel = random_select(rng, config, head_arity);
    (u, sel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = FuzzConfig::default();
        for seed in 0..20 {
            let mut a = Prng::seed_from_u64(seed);
            let mut b = Prng::seed_from_u64(seed);
            assert_eq!(
                random_database(&mut a, &config),
                random_database(&mut b, &config)
            );
            assert_eq!(
                random_ucq(&mut a, &config).cqs,
                random_ucq(&mut b, &config).cqs
            );
        }
    }

    #[test]
    fn queries_are_safe_and_within_limits() {
        let config = FuzzConfig::default();
        let mut rng = Prng::seed_from_u64(7);
        for _ in 0..200 {
            let u = random_ucq(&mut rng, &config);
            assert!(!u.cqs.is_empty() && u.cqs.len() < config.max_disjuncts.max(2));
            let arity = u.cqs[0].head.len();
            for cq in u.iter() {
                assert_eq!(cq.head.len(), arity, "disjuncts share one head arity");
                assert!(!cq.body.is_empty());
                // Safety must be checked against the *body* occurrences:
                // ConjunctiveQuery::variables() lists head variables too,
                // which would make this assertion vacuous.
                let body_vars: Vec<_> = cq.body.iter().flat_map(|a| a.variables()).collect();
                for t in &cq.head {
                    if let Term::Var(v) = t {
                        assert!(body_vars.contains(v), "unsafe head variable in {cq}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_selects_are_valid_and_deterministic() {
        let config = FuzzConfig::default();
        let mut saw_filter = false;
        let mut saw_agg = false;
        let mut saw_order = false;
        let mut saw_limit = false;
        let mut saw_plain = false;
        for seed in 0..200 {
            let mut a = Prng::seed_from_u64(seed);
            let mut b = Prng::seed_from_u64(seed);
            let (u, sel) = random_select_ucq(&mut a, &config);
            let (u2, sel2) = random_select_ucq(&mut b, &config);
            assert_eq!(u.cqs, u2.cqs);
            assert_eq!(sel, sel2);
            let head_arity = u.cqs[0].head.len();
            sel.validate(head_arity)
                .expect("generated options are valid");
            saw_filter |= !sel.filters.is_empty();
            saw_agg |= sel.aggregate.is_some();
            saw_order |= !sel.order_by.is_empty();
            saw_limit |= sel.limit.is_some();
            saw_plain |= sel.is_plain();
        }
        assert!(
            saw_filter && saw_agg && saw_order && saw_limit && saw_plain,
            "200 seeds should cover every modifier kind and the plain case"
        );
    }

    #[test]
    fn random_tgds_are_normal_linear_and_deterministic() {
        for seed in 0..50 {
            let mut a = Prng::seed_from_u64(seed);
            let mut b = Prng::seed_from_u64(seed);
            let tgds = random_linear_tgds(&mut a, 6);
            assert_eq!(tgds.len(), 6);
            for t in &tgds {
                assert!(t.is_normal(), "non-normal TGD generated: {t}");
                assert!(t.is_linear(), "non-linear TGD generated: {t}");
            }
            let again = random_linear_tgds(&mut b, 6);
            assert_eq!(
                tgds.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
                again.iter().map(|t| t.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn databases_are_ground_over_the_schema() {
        let config = FuzzConfig::default();
        let schema = fuzz_schema();
        let mut rng = Prng::seed_from_u64(11);
        for _ in 0..50 {
            for fact in random_database(&mut rng, &config) {
                assert!(fact.is_ground());
                assert!(schema.contains(&fact.pred));
            }
        }
    }
}
