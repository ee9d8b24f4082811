//! Requiem-style resolution baseline (the RQ column of Table 1).
//!
//! Pérez-Urbina et al. \[19\] avoid the factorization step by handling
//! existential quantification through **functional terms**: every
//! existential variable is Skolemized over the TGD's frontier, resolution
//! proceeds with full first-order unification, and the final rewriting
//! keeps only function-free CQs. Two atoms whose nulls would have to
//! coincide end up carrying the *same* Skolem term and merge by plain
//! unification — no factorization, none of its superfluous products.
//!
//! The fixpoint loop is the shared [`worklist`] core; this
//! module contributes the binary-resolution expansion relation plus the
//! function-free output filter.

use std::collections::HashSet;

use nyaya_core::{mgu_pair, symbols, Atom, ConjunctiveQuery, Term, Tgd};

use crate::engine::{RewriteOptions, RewriteStats, Rewriting};
use crate::error::{ensure_normalized, RewriteError};
use crate::worklist::{self, Expand, Products};

/// A TGD with its head Skolemized: the existential variable replaced by
/// `f_σ(frontier…)`.
#[derive(Clone)]
struct SkolemRule {
    body: Vec<Atom>,
    head: Atom,
}

fn skolemize(tgds: &[Tgd]) -> Vec<SkolemRule> {
    tgds.iter()
        .map(|tgd| {
            let head = tgd.head_atom().clone();
            let head = match tgd.existential_position() {
                None => head,
                Some(pi) => {
                    let f = symbols::fresh("f");
                    let frontier: Vec<Term> = tgd.frontier().into_iter().map(Term::Var).collect();
                    let mut args = head.args.clone();
                    args[pi] = Term::Func(f, frontier.into_boxed_slice());
                    Atom::new(head.pred, args)
                }
            };
            SkolemRule {
                body: tgd.body.clone(),
                head,
            }
        })
        .collect()
}

fn rename_rule_apart(rule: &SkolemRule) -> SkolemRule {
    let mut vars = Vec::new();
    for a in rule.body.iter().chain(std::iter::once(&rule.head)) {
        a.collect_vars(&mut vars);
    }
    let mut s = nyaya_core::Substitution::new();
    let mut seen = HashSet::new();
    for v in vars {
        if seen.insert(v) {
            s.bind(v, Term::fresh_var());
        }
    }
    SkolemRule {
        body: s.apply_atoms(&rule.body),
        head: s.apply_atom(&rule.head),
    }
}

/// Maximum Skolem nesting depth per term; resolution products exceeding it
/// are discarded. For DL-Lite-shaped linear TGDs depth 1 suffices (\[19\]);
/// the default is generous.
fn term_depth(t: &Term) -> usize {
    match t {
        Term::Func(_, args) => 1 + args.iter().map(term_depth).max().unwrap_or(0),
        _ => 0,
    }
}

fn query_depth(q: &ConjunctiveQuery) -> usize {
    q.body
        .iter()
        .flat_map(|a| a.args.iter())
        .map(term_depth)
        .max()
        .unwrap_or(0)
}

/// Compute a Requiem-style perfect rewriting. `tgds` must be normalized.
///
/// Honours `options.max_queries`, `options.hidden_predicates`,
/// `options.parallel_workers` and `options.minimize`; the TGD-rewrite-only
/// flags (`elimination`, `nc_pruning`) are ignored.
pub fn requiem_rewrite(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    options: &RewriteOptions,
) -> Result<Rewriting, RewriteError> {
    requiem_rewrite_split(q, tgds, options, worklist::SPLIT_FRONTIER)
}

/// [`requiem_rewrite`], splitting frontier rounds of at least `split_at`
/// queries (see [`worklist::run`]).
pub(crate) fn requiem_rewrite_split(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    options: &RewriteOptions,
    split_at: usize,
) -> Result<Rewriting, RewriteError> {
    ensure_normalized("requiem_rewrite", tgds)?;
    let rules = skolemize(tgds);
    // Requiem bounds Skolem nesting: for DL-Lite-shaped (normalized linear)
    // TGDs, depth 2 suffices for every function-free consequence — a Skolem
    // term must be consumed by resolving against the rule that produced it
    // before another existential can stack on top. Validated empirically:
    // RQ sizes match NY (provably sound and complete) across the suite.
    let expander = RequiemExpander {
        rules,
        max_depth: 2,
    };
    worklist::run(q.clone(), &expander, options, split_at)
}

/// Binary resolution of one body atom against one Skolemized rule head;
/// every depth-bounded resolvent carries the output label, and Skolem
/// carriers are filtered at emission.
struct RequiemExpander {
    rules: Vec<SkolemRule>,
    max_depth: usize,
}

impl Expand for RequiemExpander {
    fn expand(
        &self,
        query: &ConjunctiveQuery,
        out: &mut Products,
        stats: &mut RewriteStats,
    ) -> Result<(), RewriteError> {
        for rule in &self.rules {
            if !query.body.iter().any(|a| a.pred == rule.head.pred) {
                continue;
            }
            let renamed = rename_rule_apart(rule);
            for i in 0..query.body.len() {
                if query.body[i].pred != renamed.head.pred {
                    continue;
                }
                let Some(gamma) = mgu_pair(&query.body[i], &renamed.head) else {
                    continue;
                };
                let mut body: Vec<Atom> =
                    Vec::with_capacity(query.body.len() - 1 + renamed.body.len());
                for (j, atom) in query.body.iter().enumerate() {
                    if j != i {
                        body.push(gamma.apply_atom(atom));
                    }
                }
                for atom in &renamed.body {
                    body.push(gamma.apply_atom(atom));
                }
                let head = query.head.iter().map(|t| gamma.apply_term(t)).collect();
                let mut product = ConjunctiveQuery {
                    head_pred: query.head_pred,
                    head,
                    body,
                };
                product.dedup_body();
                if query_depth(&product) > self.max_depth {
                    continue;
                }
                stats.rewriting_products += 1;
                out.push(product, true);
            }
        }
        Ok(())
    }

    /// Final rewriting: function-free queries only (hidden predicates are
    /// filtered by the core; answer-variable bindings stay intact).
    fn emit(&self, query: &ConjunctiveQuery) -> bool {
        !query.has_function_terms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{tgd_rewrite, RewriteOptions};
    use nyaya_core::Predicate;

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

    fn opts(max_queries: usize) -> RewriteOptions {
        RewriteOptions {
            max_queries,
            ..Default::default()
        }
    }

    #[test]
    fn skolem_terms_replace_factorization_on_example4() {
        // Requiem reaches q() ← p(A) without any factorization step.
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let q = cq(&[], &[("t", &["A", "B"]), ("s", &["B"])]);
        let res = requiem_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        assert!(
            res.ucq
                .iter()
                .any(|c| c.body.len() == 1 && c.body[0].pred == Predicate::new("p", 1)),
            "RQ missing q() ← p(A):\n{}",
            res.ucq
        );
        // And the function-free output matches TGD-rewrite's on this input.
        let ny = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        assert_eq!(res.ucq.size(), ny.ucq.size());
    }

    #[test]
    fn function_terms_never_leak_into_output() {
        let tgds = vec![tgd(&[("p", &["X"])], &[("t", &["X", "Y"])])];
        let q = cq(&[], &[("t", &["A", "B"])]);
        let res = requiem_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        for c in res.ucq.iter() {
            assert!(!c.has_function_terms(), "leaked: {c}");
        }
        assert_eq!(res.ucq.size(), 2); // q itself + q() ← p(A)
    }

    #[test]
    fn soundness_on_example3() {
        // q() ← t(A,B,c): unifying c with a Skolem term fails → no unsound
        // rewriting into s.
        let tgds = vec![tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])])];
        let q = ConjunctiveQuery::boolean(vec![Atom::new(
            Predicate::new("t", 3),
            vec![Term::var("A"), Term::var("B"), Term::constant("c")],
        )]);
        let res = requiem_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        assert_eq!(res.ucq.size(), 1);
        // Shared-variable case q() ← t(A,B,B): f(X) cannot unify with the
        // variable bound across positions 1–2… it CAN unify (B→f(X), then
        // t[2]=X requires X=f(X): occurs check fails) → sound.
        let q2 = cq(&[], &[("t", &["A", "B", "B"])]);
        let res2 = requiem_rewrite(&q2, &tgds, &opts(100_000)).unwrap();
        assert_eq!(res2.ucq.size(), 1);
    }

    #[test]
    fn inverse_role_round_trip_terminates() {
        // r(X,Y) → s(Y,X); s(X,Y) → r(Y,X): pure renaming cycle.
        let tgds = vec![
            tgd(&[("r", &["X", "Y"])], &[("s", &["Y", "X"])]),
            tgd(&[("s", &["X", "Y"])], &[("r", &["Y", "X"])]),
        ];
        let q = cq(&[], &[("r", &["A", "B"])]);
        let res = requiem_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        assert!(!res.stats.budget_exhausted);
        assert_eq!(res.ucq.size(), 2);
    }

    #[test]
    fn requiem_parallel_matches_sequential() {
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let q = cq(&[], &[("t", &["A", "B"]), ("s", &["B"])]);
        let seq = requiem_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        let options = RewriteOptions {
            parallel_workers: 4,
            ..Default::default()
        };
        let par = requiem_rewrite_split(&q, &tgds, &options, 2).unwrap();
        assert!(par.stats.workers > 1, "no round split: {:?}", par.stats);
        assert_eq!(seq.ucq.to_string(), par.ucq.to_string());
    }
}
