//! QuOnto/PerfectRef-style baseline (the QO column of Table 1).
//!
//! Reimplementation of the rewriting of Calvanese et al. \[5\] as generalized
//! to TGDs by Calì et al. \[14\], with the three weaknesses the paper calls
//! out in Section 2 reproduced faithfully:
//!
//! 1. the rewriting step resolves **one atom at a time**;
//! 2. the factorization ("reduce") step is applied **exhaustively** to every
//!    unifiable pair of body atoms, not only when a TGD benefits;
//! 3. reduce products are **included in the final rewriting**, generating
//!    the superfluous queries that inflate the QO columns.
//!
//! The fixpoint loop is the shared [`worklist`] core; this
//! module contributes only the PerfectRef expansion relation, so the
//! baseline gets canonical-key dedup, budgeting and parallel exploration
//! for free while keeping its characteristic output.

use nyaya_core::{mgu_pair, ConjunctiveQuery, Tgd};

use crate::applicability::{
    apply_rewrite_step, blocks_existential, shared_variables, CompiledSigma,
};
use crate::engine::{RewriteOptions, RewriteStats, Rewriting};
use crate::error::RewriteError;
use crate::worklist::{self, Expand, Products};

/// Compute a QuOnto-style perfect rewriting. `tgds` must be normalized.
///
/// Honours `options.max_queries`, `options.hidden_predicates`,
/// `options.parallel_workers` and `options.minimize`; the TGD-rewrite-only
/// flags (`elimination`, `nc_pruning`) are ignored — reproducing the
/// baseline faithfully means reproducing it *without* the paper's
/// optimizations.
pub fn quonto_rewrite(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    options: &RewriteOptions,
) -> Result<Rewriting, RewriteError> {
    quonto_rewrite_split(q, tgds, options, worklist::SPLIT_FRONTIER)
}

/// [`quonto_rewrite`], splitting frontier rounds of at least `split_at`
/// queries (see [`worklist::run`]).
pub(crate) fn quonto_rewrite_split(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    options: &RewriteOptions,
    split_at: usize,
) -> Result<Rewriting, RewriteError> {
    let sigma = CompiledSigma::new("quonto_rewrite", tgds)?;
    worklist::run(q.clone(), &QuontoExpander { sigma }, options, split_at)
}

/// The PerfectRef expansion: atom-at-a-time rewriting plus the exhaustive
/// reduce step, every product labeled for the final union.
struct QuontoExpander {
    sigma: CompiledSigma,
}

impl Expand for QuontoExpander {
    fn expand(
        &self,
        query: &ConjunctiveQuery,
        out: &mut Products,
        stats: &mut RewriteStats,
    ) -> Result<(), RewriteError> {
        // Atom-at-a-time rewriting step.
        let shared = shared_variables(query);
        for rule in self.sigma.rules() {
            let head_pred = rule.tgd.head_atom().pred;
            for (i, atom) in query.body.iter().enumerate() {
                if atom.pred != head_pred || blocks_existential(atom, rule.existential, &shared) {
                    continue;
                }
                if let Some(product) = apply_rewrite_step(&rule.tgd, &[i], query) {
                    stats.rewriting_products += 1;
                    out.push(product, true);
                }
            }
        }

        // Exhaustive reduce step: unify every unifiable pair of body atoms;
        // products stay in the final rewriting.
        for i in 0..query.body.len() {
            for j in i + 1..query.body.len() {
                let (a, b) = (&query.body[i], &query.body[j]);
                if a.pred != b.pred {
                    continue;
                }
                if let Some(gamma) = mgu_pair(a, b) {
                    stats.factorization_products += 1;
                    out.push(query.apply(&gamma), true);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{tgd_rewrite, RewriteOptions};
    use nyaya_core::{Atom, Predicate, Term};

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
    fn quonto_is_complete_on_example4() {
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let q = cq(&[], &[("t", &["A", "B"]), ("s", &["B"])]);
        let res = quonto_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        assert!(
            res.ucq
                .iter()
                .any(|c| c.body.len() == 1 && c.body[0].pred == Predicate::new("p", 1)),
            "QO missing q() ← p(A):\n{}",
            res.ucq
        );
    }

    #[test]
    fn quonto_includes_reduce_products() {
        // NY excludes the factorized query t(A,B,C); QO keeps it.
        let tgds = vec![
            tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]),
            tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]),
        ];
        let q = cq(&[], &[("t", &["A", "B", "C"]), ("r", &["B", "C"])]);
        let qo = quonto_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        let ny = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        assert!(
            qo.ucq.size() > ny.ucq.size(),
            "QO = {} should exceed NY = {}",
            qo.ucq.size(),
            ny.ucq.size()
        );
        assert!(qo
            .ucq
            .iter()
            .any(|c| c.body.len() == 1 && c.body[0].pred == Predicate::new("t", 3)));
    }

    #[test]
    fn quonto_respects_applicability() {
        // Soundness: the constant case of Example 3 must hold for QO too.
        let tgds = vec![tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])])];
        let q = ConjunctiveQuery::boolean(vec![Atom::new(
            Predicate::new("t", 3),
            vec![Term::var("A"), Term::var("B"), Term::constant("c")],
        )]);
        let res = quonto_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        assert_eq!(res.ucq.size(), 1);
    }

    #[test]
    fn quonto_parallel_matches_sequential() {
        let tgds = vec![
            tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]),
            tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]),
            tgd(&[("p", &["X"])], &[("t", &["X", "X", "Y"])]),
        ];
        let q = cq(&[], &[("t", &["A", "B", "C"]), ("r", &["B", "C"])]);
        let seq = quonto_rewrite(&q, &tgds, &opts(100_000)).unwrap();
        let options = RewriteOptions {
            parallel_workers: 4,
            ..Default::default()
        };
        let par = quonto_rewrite_split(&q, &tgds, &options, 2).unwrap();
        assert!(par.stats.workers > 1, "no round split: {:?}", par.stats);
        assert_eq!(seq.ucq.to_string(), par.ucq.to_string());
    }
}
