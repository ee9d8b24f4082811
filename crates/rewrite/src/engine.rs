//! The TGD-rewrite algorithm (Algorithm 1, Section 5) and its optimized
//! variant TGD-rewrite⋆ (Section 6): compute the perfect UCQ rewriting of a
//! conjunctive query w.r.t. a set of TGDs.
//!
//! The engine exhaustively applies two steps until a fixpoint:
//! - **factorization** (label 0 — excluded from the final rewriting): merge
//!   atom sets whose shared existential variable must come from one chase
//!   atom (Definition 2);
//! - **rewriting** (label 1 — included): resolve an applicable TGD against
//!   a subset of body atoms (Definition 1).
//!
//! With [`RewriteOptions::elimination`] the `eliminate` step of Section 6 is
//! applied to the input query and to every generated query (TGD-rewrite⋆,
//! Theorem 10 — sound and complete for linear TGDs). With
//! [`RewriteOptions::nc_pruning`] queries matched by a negative-constraint
//! body are discarded (Section 5.1).
//!
//! The fixpoint loop itself — canonical-key dedup, budget, parallel
//! exploration, deterministic assembly — lives in the shared
//! [`worklist`] core; this module contributes only the
//! TGD-rewrite expansion relation.

use std::collections::HashSet;

use nyaya_core::par::cores;
use nyaya_core::{
    exists_homomorphism, ConjunctiveQuery, NegativeConstraint, Predicate, Tgd, UnionQuery,
};

use crate::applicability::{
    apply_rewrite_step, blocks_existential, shared_variables, CompiledSigma,
};
use crate::elimination::EliminationContext;
use crate::error::{ensure_normalized, RewriteError};
use crate::factorize::factorize_group;
use crate::worklist::{self, Expand, Products};

/// Options controlling a rewriting run.
#[derive(Clone)]
pub struct RewriteOptions {
    /// Apply the query-elimination step (TGD-rewrite⋆). Requires linear
    /// TGDs (Theorem 10).
    pub elimination: bool,
    /// Prune queries whose body is matched by a negative constraint
    /// (Section 5.1).
    pub nc_pruning: bool,
    /// Safety budget: maximum number of distinct queries explored.
    pub max_queries: usize,
    /// Predicates to exclude from the *final* rewriting (queries mentioning
    /// them are still rewritten further). Used for the auxiliary predicates
    /// of Lemmas 1–2 when they are not part of the schema (U vs UX mode):
    /// a CQ mentioning a predicate the database can never store is
    /// unsatisfiable and can be dropped from the output.
    pub hidden_predicates: HashSet<Predicate>,
    /// The most workers a frontier round is split across (1 = always
    /// sequential; default [`cores`]). Only rounds of at least 256 queries
    /// (`SPLIT_FRONTIER`) split. Results are bit-identical to the
    /// sequential path for every run that completes within budget.
    pub parallel_workers: usize,
    /// Post-process the final union with signature-indexed subsumption
    /// ([`minimize_union_with_stats`](crate::minimize_union_with_stats)),
    /// recording the check counters in
    /// [`RewriteStats`]. The result is answer-equivalent but may be
    /// smaller; off by default to keep the raw Algorithm 1 output.
    pub minimize: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            elimination: false,
            nc_pruning: false,
            max_queries: 500_000,
            hidden_predicates: HashSet::new(),
            parallel_workers: cores(),
            minimize: false,
        }
    }
}

impl RewriteOptions {
    /// Plain TGD-rewrite (the NY configuration of Table 1).
    pub fn nyaya() -> Self {
        RewriteOptions::default()
    }

    /// TGD-rewrite⋆ — factorization + query elimination (NY⋆).
    pub fn nyaya_star() -> Self {
        RewriteOptions {
            elimination: true,
            ..Default::default()
        }
    }
}

/// Counters describing a rewriting run.
///
/// For any run that completes within budget every field except
/// [`rewrite_micros`](Self::rewrite_micros) and
/// [`workers`](Self::workers) is independent of the exploration order, so
/// sequential and parallel runs of the same input report identical
/// counters once those two fields are set aside.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Distinct queries explored (processed through both steps).
    pub explored: usize,
    /// Queries produced by the factorization step (label 0).
    pub factorization_products: usize,
    /// Queries produced by the rewriting step (label 1).
    pub rewriting_products: usize,
    /// Queries discarded by NC pruning.
    pub nc_pruned: usize,
    /// Body atoms removed by the elimination step.
    pub atoms_eliminated: usize,
    /// True if `max_queries` stopped the run early (result incomplete).
    pub budget_exhausted: bool,
    /// Generated products that were already in the canonical table.
    pub dedup_hits: usize,
    /// Breadth-first frontier rounds until the fixpoint.
    pub frontier_rounds: usize,
    /// The most workers any frontier round actually ran on (1 when no
    /// round split).
    pub workers: usize,
    /// Wall-clock of the whole compile, in microseconds.
    pub rewrite_micros: u64,
    /// Containment (homomorphism) checks actually run by the final
    /// subsumption pass ([`RewriteOptions::minimize`]; 0 when disabled).
    pub subsumption_checks: usize,
    /// Candidate pairs the predicate-signature index rejected without a
    /// homomorphism check.
    pub subsumption_avoided: usize,
    /// Rules of the compiled program (0 for UCQ compiles) — set by
    /// [`nr_datalog_rewrite`](crate::nr_datalog_rewrite) after optimization.
    pub program_rules: usize,
    /// Stratum levels of the compiled program (0 for UCQ compiles).
    pub program_strata: usize,
}

/// The result of a rewriting run.
pub struct Rewriting {
    /// The perfect rewriting (label-1 queries, hidden predicates filtered).
    pub ucq: UnionQuery,
    pub stats: RewriteStats,
}

/// The rewriting step enumerates every non-empty subset of same-predicate
/// body atoms; beyond this many atoms of one predicate the 2ⁿ enumeration
/// is computationally infeasible (and the subset mask would overflow), so
/// the engine reports [`RewriteError::AtomGroupTooLarge`] instead of
/// hanging or silently skipping subsets.
pub(crate) const MAX_SUBSET_ATOMS: usize = 30;

/// Compute the perfect rewriting of `q` w.r.t. `tgds` (TGD-rewrite /
/// TGD-rewrite⋆ depending on `options`).
///
/// `tgds` must be in normal form (single head atom, at most one existential
/// variable occurring once) — apply [`nyaya_core::normalize()`] first;
/// non-normal input yields [`RewriteError::NotNormalized`]. Termination is
/// guaranteed for linear, sticky and sticky-join sets (Theorem 7); for
/// arbitrary TGDs the `max_queries` budget applies.
pub fn tgd_rewrite(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    ncs: &[NegativeConstraint],
    options: &RewriteOptions,
) -> Result<Rewriting, RewriteError> {
    tgd_rewrite_with(q, tgds, ncs, options, None)
}

/// [`tgd_rewrite`] with a caller-supplied [`EliminationContext`].
///
/// The context holds everything the rewriter derives from Σ alone (the
/// compiled TGDs the rewriting step runs on, the coverage tables of query
/// elimination); building it costs a pass over Σ, so a long-lived knowledge
/// base builds it once and reuses it for every query — with a context, no
/// call looks at `tgds` again. It must have been built from the same `tgds`
/// that are passed here. Elimination itself is applied only when
/// `options.elimination` is set.
pub fn tgd_rewrite_with(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    ncs: &[NegativeConstraint],
    options: &RewriteOptions,
    elim_ctx: Option<&EliminationContext>,
) -> Result<Rewriting, RewriteError> {
    tgd_rewrite_split(q, tgds, ncs, options, elim_ctx, worklist::SPLIT_FRONTIER)
}

/// [`tgd_rewrite_with`], splitting frontier rounds of at least `split_at`
/// queries (see [`worklist::run`]).
pub(crate) fn tgd_rewrite_split(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    ncs: &[NegativeConstraint],
    options: &RewriteOptions,
    elim_ctx: Option<&EliminationContext>,
    split_at: usize,
) -> Result<Rewriting, RewriteError> {
    let owned_ctx;
    let owned_sigma;
    let (sigma, elim_ctx) = match elim_ctx {
        Some(ctx) => (ctx.sigma()?, options.elimination.then_some(ctx)),
        None if options.elimination => {
            // The context asserts what it needs; a caller's mistake about
            // normal form stays a typed error.
            ensure_normalized("tgd_rewrite", tgds)?;
            owned_ctx = EliminationContext::new(tgds);
            (owned_ctx.sigma()?, Some(&owned_ctx))
        }
        // Sticky and other non-linear sets: the rewriting step's half only.
        None => {
            owned_sigma = CompiledSigma::new("tgd_rewrite", tgds)?;
            (&owned_sigma, None)
        }
    };
    let expander = NyExpander {
        sigma,
        ncs,
        nc_pruning: options.nc_pruning,
        elim_ctx,
    };
    worklist::run(q.clone(), &expander, options, split_at)
}

/// The Algorithm 1 expansion relation: restricted factorization (label 0)
/// plus the subset rewriting step (label 1), with Section 6 elimination and
/// Section 5.1 NC pruning applied to every product on admission.
struct NyExpander<'a> {
    sigma: &'a CompiledSigma,
    ncs: &'a [NegativeConstraint],
    nc_pruning: bool,
    elim_ctx: Option<&'a EliminationContext>,
}

impl Expand for NyExpander<'_> {
    fn prepare(
        &self,
        mut query: ConjunctiveQuery,
        stats: &mut RewriteStats,
    ) -> Option<ConjunctiveQuery> {
        if let Some(ctx) = self.elim_ctx {
            stats.atoms_eliminated += ctx.eliminate_in_place(&mut query);
        }
        if self.nc_pruning
            && self
                .ncs
                .iter()
                .any(|nc| exists_homomorphism(&nc.body, &query.body))
        {
            stats.nc_pruned += 1;
            return None;
        }
        Some(query)
    }

    fn expand(
        &self,
        query: &ConjunctiveQuery,
        out: &mut Products,
        stats: &mut RewriteStats,
    ) -> Result<(), RewriteError> {
        let shared = shared_variables(query);
        // Body atoms by predicate: only a TGD whose head predicate occurs
        // can factorize or rewrite anything, and only within that group.
        let mut groups: Vec<(Predicate, Vec<usize>)> = Vec::new();
        for (i, atom) in query.body.iter().enumerate() {
            match groups.iter_mut().find(|(pred, _)| *pred == atom.pred) {
                Some((_, group)) => group.push(i),
                None => groups.push((atom.pred, vec![i])),
            }
        }
        // (TGD, its group), in the order of Σ.
        let mut steps: Vec<(usize, usize)> = Vec::new();
        for (g, (pred, _)) in groups.iter().enumerate() {
            steps.extend(self.sigma.with_head(*pred).iter().map(|&t| (t, g)));
        }
        steps.sort_unstable();
        let rules = self.sigma.rules();

        // --- factorization step (label 0) ---
        for &(t, g) in &steps {
            if let Some(pi) = rules[t].existential {
                factorize_group(query, &groups[g].1, pi, &shared, |product| {
                    stats.factorization_products += 1;
                    out.push(product, false);
                });
            }
        }

        // --- rewriting step (label 1) ---
        for &(t, g) in &steps {
            let (rule, (head_pred, group)) = (&rules[t], &groups[g]);
            if group.len() > MAX_SUBSET_ATOMS {
                return Err(RewriteError::AtomGroupTooLarge {
                    predicate: head_pred.to_string(),
                    atoms: group.len(),
                    limit: MAX_SUBSET_ATOMS,
                });
            }
            // Every non-empty subset of same-predicate atoms (Algorithm 1
            // ranges over all A ⊆ body(q); other subsets cannot unify with
            // the head) — minus the subsets containing an atom that fails
            // condition (ii) of Definition 1 on its own.
            let eligible: Vec<usize> = group
                .iter()
                .copied()
                .filter(|&i| !blocks_existential(&query.body[i], rule.existential, &shared))
                .collect();
            let limit: u64 = 1 << eligible.len();
            for mask in 1..limit {
                let a_set: Vec<usize> = eligible
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| mask & (1 << bit) != 0)
                    .map(|(_, &i)| i)
                    .collect();
                if let Some(product) = apply_rewrite_step(&rule.tgd, &a_set, query) {
                    stats.rewriting_products += 1;
                    out.push(product, true);
                }
            }
        }
        Ok(())
    }
}

/// Convenience wrapper: TGD-rewrite⋆ (Theorem 10).
pub fn tgd_rewrite_star(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    ncs: &[NegativeConstraint],
) -> Result<Rewriting, RewriteError> {
    tgd_rewrite(q, tgds, ncs, &RewriteOptions::nyaya_star())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::{Atom, Term};

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
    fn example2_perfect_rewriting() {
        // Σ = {σ1: s(X) → ∃Z t(X,X,Z), σ2: t(X,Y,Z) → r(Y,Z)},
        // q() ← t(A,B,C), r(B,C). Expected rewriting: {q, q1, q3} where
        // q1 = t(A,B,C), t(V1,B,C) and q3 = s(A); q2 (factorized) excluded.
        let tgds = vec![
            tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]),
            tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]),
        ];
        let q = cq(&[], &[("t", &["A", "B", "C"]), ("r", &["B", "C"])]);
        let res = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        assert!(!res.stats.budget_exhausted);
        assert_eq!(res.ucq.size(), 3, "rewriting:\n{}", res.ucq);
        // q3: q() ← s(A) must be present.
        assert!(
            res.ucq
                .iter()
                .any(|c| c.body.len() == 1 && c.body[0].pred == Predicate::new("s", 1)),
            "missing q() ← s(A) in:\n{}",
            res.ucq
        );
        // The factorized two-atom query collapses: q() ← t(A,B,C) must be
        // label 0 only (excluded).
        assert!(
            !res.ucq
                .iter()
                .any(|c| c.body.len() == 1 && c.body[0].pred == Predicate::new("t", 3)),
            "factorization product leaked into output:\n{}",
            res.ucq
        );
    }

    #[test]
    fn example4_completeness_needs_factorization() {
        // Σ = {σ1: p(X) → ∃Y t(X,Y), σ2: t(X,Y) → s(Y)};
        // q() ← t(A,B), s(B). The rewriting must contain q() ← p(A).
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let q = cq(&[], &[("t", &["A", "B"]), ("s", &["B"])]);
        let res = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        assert!(
            res.ucq
                .iter()
                .any(|c| c.body.len() == 1 && c.body[0].pred == Predicate::new("p", 1)),
            "missing q() ← p(A) in:\n{}",
            res.ucq
        );
    }

    #[test]
    fn example3_soundness_constants_preserved() {
        // q() ← t(A,B,c) must NOT rewrite to q() ← s(V).
        let tgds = vec![
            tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]),
            tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]),
        ];
        let q = ConjunctiveQuery::boolean(vec![Atom::new(
            Predicate::new("t", 3),
            vec![Term::var("A"), Term::var("B"), Term::constant("c")],
        )]);
        let res = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        assert!(
            !res.ucq
                .iter()
                .any(|c| c.body.iter().any(|a| a.pred == Predicate::new("s", 1))),
            "unsound rewriting:\n{}",
            res.ucq
        );
        assert_eq!(res.ucq.size(), 1); // only the original query
    }

    #[test]
    fn nc_pruning_drops_queries() {
        // Example 5: σ: t(X), s(Y) → ∃Z p(Y,Z), ν: r(X,Y), s(Y) → ⊥,
        // q() ← r(A,B), p(B,C). With NC pruning the rewriting-step product
        // q() ← r(A,B), t(V1), s(B) is dropped.
        let tgds = vec![tgd(&[("t", &["X"]), ("s", &["Y"])], &[("p", &["Y", "Z"])])];
        let ncs = vec![NegativeConstraint::new(vec![
            Atom::make("r", ["X", "Y"]),
            Atom::make("s", ["Y"]),
        ])];
        let q = cq(&[], &[("r", &["A", "B"]), ("p", &["B", "C"])]);
        let with = tgd_rewrite(
            &q,
            &tgds,
            &ncs,
            &RewriteOptions {
                nc_pruning: true,
                ..Default::default()
            },
        )
        .unwrap();
        let without = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        assert_eq!(without.ucq.size(), 2);
        assert_eq!(with.ucq.size(), 1, "rewriting:\n{}", with.ucq);
        assert_eq!(with.stats.nc_pruned, 1);
    }

    #[test]
    fn nc_matching_input_yields_empty_rewriting() {
        let tgds = vec![tgd(&[("p", &["X"])], &[("q_pred", &["X"])])];
        let ncs = vec![NegativeConstraint::new(vec![Atom::make("r", ["X"])])];
        let q = cq(&[], &[("r", &["A"])]);
        let res = tgd_rewrite(
            &q,
            &tgds,
            &ncs,
            &RewriteOptions {
                nc_pruning: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.ucq.is_empty());
    }

    #[test]
    fn star_variant_shrinks_running_example() {
        // Intro example: with Σ = {σ1..σ9 normalized}, the query
        // q(A,B,C) ← fin_ins(A), stock_portf(B,A,D), company(B,E,F),
        //            list_comp(A,C), fin_idx(C,G,H)
        // reduces to two CQs with one join each (Section 1).
        let raw = vec![
            tgd(
                &[("stock_portf", &["X", "Y", "Z"])],
                &[("company", &["X", "V", "W"])],
            ),
            tgd(
                &[("stock_portf", &["X", "Y", "Z"])],
                &[("stock", &["Y", "V", "W"])],
            ),
            tgd(
                &[("list_comp", &["X", "Y"])],
                &[("fin_idx", &["Y", "Z", "W"])],
            ),
            tgd(
                &[("list_comp", &["X", "Y"])],
                &[("stock", &["X", "Z", "W"])],
            ),
            tgd(
                &[("stock_portf", &["X", "Y", "Z"])],
                &[("has_stock", &["Y", "X"])],
            ),
            tgd(
                &[("has_stock", &["X", "Y"])],
                &[("stock_portf", &["Y", "X", "Z"])],
            ),
            tgd(
                &[("stock", &["X", "Y", "Z"])],
                &[("stock_portf", &["V", "X", "W"])],
            ),
            tgd(&[("stock", &["X", "Y", "Z"])], &[("fin_ins", &["X"])]),
            tgd(
                &[("company", &["X", "Y", "Z"])],
                &[("legal_person", &["X"])],
            ),
        ];
        let norm = nyaya_core::normalize(&raw);
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
        let mut opts = RewriteOptions::nyaya_star();
        opts.hidden_predicates = norm.aux_predicates.iter().copied().collect();
        let res = tgd_rewrite(&q, &norm.tgds, &[], &opts).unwrap();
        assert!(!res.stats.budget_exhausted);
        // Section 1: perfect rewriting with exactly two CQs, two joins total:
        //   q(A,B,C) ← list_comp(A,C), stock_portf(B,A,D)
        //   q(A,B,C) ← list_comp(A,C), has_stock(A,B)
        assert_eq!(res.ucq.size(), 2, "rewriting:\n{}", res.ucq);
        assert_eq!(res.ucq.length(), 4);
        assert_eq!(res.ucq.width(), 2);
        let plain = tgd_rewrite(&q, &norm.tgds, &[], &RewriteOptions::nyaya()).unwrap();
        assert!(
            plain.ucq.size() > res.ucq.size(),
            "NY = {} vs NY⋆ = {}",
            plain.ucq.size(),
            res.ucq.size()
        );
    }

    #[test]
    fn output_is_deterministic() {
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let q = cq(&[], &[("t", &["A", "B"]), ("s", &["B"])]);
        let r1 = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        let r2 = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        assert_eq!(r1.ucq.to_string(), r2.ucq.to_string());
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let tgds = vec![
            tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]),
            tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]),
            tgd(&[("p", &["X"])], &[("t", &["X", "X", "Y"])]),
        ];
        let q = cq(&["A"], &[("t", &["A", "B", "C"]), ("r", &["B", "C"])]);
        let seq = tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        let options = RewriteOptions {
            parallel_workers: 4,
            ..Default::default()
        };
        let par = tgd_rewrite_split(&q, &tgds, &[], &options, None, 2).unwrap();
        assert!(par.stats.workers > 1, "no round split: {:?}", par.stats);
        assert_eq!(seq.ucq.to_string(), par.ucq.to_string());
        let mut seq_stats = seq.stats.clone();
        let mut par_stats = par.stats.clone();
        seq_stats.rewrite_micros = 0;
        par_stats.rewrite_micros = 0;
        seq_stats.workers = 0;
        par_stats.workers = 0;
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn oversized_same_predicate_group_is_an_error_not_an_overflow() {
        // Regression: a query with > MAX_SUBSET_ATOMS same-predicate body
        // atoms used to evaluate `1u32 << group.len()`, which panics in
        // debug for ≥ 32 atoms and silently *skips the whole rewriting
        // step* in release (the shift wraps). It must be a typed error.
        let tgds = vec![tgd(&[("p", &["X"])], &[("e", &["X", "Y"])])];
        // A chain e(X0,X1), e(X1,X2), …: colour refinement separates the
        // atoms, so the canonical key stays cheap even at this size.
        let n = MAX_SUBSET_ATOMS + 2;
        let names: Vec<String> = (0..=n).map(|i| format!("X{i}")).collect();
        let body: Vec<(&str, Vec<&str>)> = (0..n)
            .map(|i| ("e", vec![names[i].as_str(), names[i + 1].as_str()]))
            .collect();
        let atoms: Vec<Atom> = body
            .iter()
            .map(|(p, args)| {
                Atom::new(
                    Predicate::new(p, args.len()),
                    args.iter().map(|a| Term::var(a)).collect(),
                )
            })
            .collect();
        let q = ConjunctiveQuery::new(vec![Term::var("X0")], atoms);
        match tgd_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()) {
            Err(RewriteError::AtomGroupTooLarge {
                atoms,
                limit,
                predicate,
            }) => {
                assert_eq!(atoms, n);
                assert_eq!(limit, MAX_SUBSET_ATOMS);
                assert_eq!(predicate, "e");
            }
            other => panic!(
                "expected AtomGroupTooLarge, got {:?}",
                other.map(|r| r.ucq.size())
            ),
        }
    }

    #[test]
    fn minimize_option_reports_subsumption_counters() {
        // The rewriting {t(A,B,C); s(A)} has no subsumed member, but the
        // minimize pass must still account for every ordered pair — here
        // both are rejected by the signature index (disjoint predicates).
        let tgds = vec![tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])])];
        let q = cq(&[], &[("t", &["A", "B", "C"])]);
        let mut opts = RewriteOptions::nyaya();
        opts.minimize = true;
        let res = tgd_rewrite(&q, &tgds, &[], &opts).unwrap();
        // {t(A,B,C), s(A)}: incomparable — nothing dropped, but the pass ran.
        assert_eq!(res.ucq.size(), 2);
        assert_eq!(
            res.stats.subsumption_checks + res.stats.subsumption_avoided,
            2,
            "both ordered pairs must be accounted for"
        );
    }
}
