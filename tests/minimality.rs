//! The minimization ladder of Sections 2 and 6, end to end:
//!
//! 1. **query elimination** (Section 6) — polynomial, Σ-aware, but only
//!    sees coverage witnessed by equality-type-compatible TGD chains;
//! 2. **Σ-free core minimization + subsumption** (Chandra–Merlin [21]) —
//!    polynomial-ish in practice, no Σ;
//! 3. **chase & back-chase** (C&B [15]) — complete minimization, but pays
//!    a chase per candidate subquery (Example 8: it finds redundancy the
//!    elimination provably cannot).

use cnb::{chase_and_backchase, CnbConfig};
use nyaya::core::{minimize_cq, Term};
use nyaya::parser::{parse_query, parse_tgds};
use nyaya::rewrite::{fully_minimize_union, tgd_rewrite, EliminationContext, RewriteOptions};

fn example6_tgds() -> Vec<nyaya::core::Tgd> {
    parse_tgds(
        "s1: p(X, Y) -> r(X, Y, Z).
         s2: r(X, Y, c) -> s(X, Y, Y).
         s3: s(X, X, Y) -> p(X, Y).",
    )
    .unwrap()
}

#[test]
fn example8_cnb_beats_elimination() {
    // q() :- r(A,A,c), p(A,A): the p-atom IS implied by the r-atom (via σ2
    // then σ3), but eq(body(σ3)) ⊄ eq(head(σ2)) breaks the chain the
    // elimination needs — the paper's Example 8.
    let tgds = example6_tgds();
    let q = parse_query("q() :- r(A, A, c), p(A, A).").unwrap();

    // (1) Elimination keeps both atoms.
    let ctx = EliminationContext::new(&tgds);
    assert_eq!(ctx.eliminate(&q).body.len(), 2);

    // (2) Σ-free minimization cannot help either (the atoms do not fold).
    assert_eq!(minimize_cq(&q).body.len(), 2);

    // (3) C&B finds the single-atom reformulation.
    let reformulations = chase_and_backchase(&q, &tgds, &CnbConfig::default()).unwrap();
    let best = reformulations
        .iter()
        .map(|r| r.body.len())
        .min()
        .expect("C&B returns at least the identity reformulation");
    assert_eq!(best, 1, "C&B must discover q() :- r(A,A,c)");
}

#[test]
fn full_minimization_after_rewriting_preserves_answers() {
    // Post-process a real rewriting with core + subsumption minimization
    // and check answer equivalence on the running example's database.
    use nyaya::ontologies::running_example;
    use nyaya::sql::{execute_ucq, Database};

    let ontology = running_example::ontology();
    let norm = nyaya::core::normalize(&ontology.tgds);
    let query = running_example::query();
    let mut opts = RewriteOptions::nyaya(); // NY, not NY⋆: leave redundancy in
    opts.hidden_predicates = norm.aux_predicates.clone();
    let rewriting = tgd_rewrite(&query, &norm.tgds, &ontology.ncs, &opts).unwrap();

    let minimized = fully_minimize_union(&rewriting.ucq);
    assert!(minimized.size() <= rewriting.ucq.size());
    assert!(minimized.length() < rewriting.ucq.length());

    let db = Database::from_facts(running_example::database_facts());
    let a: Vec<Vec<Term>> = execute_ucq(&db, &rewriting.ucq).into_iter().collect();
    let b: Vec<Vec<Term>> = execute_ucq(&db, &minimized).into_iter().collect();
    assert_eq!(a, b);
}

#[test]
fn minimization_ladder_is_monotone_on_stockexchange() {
    // On S-q3 (NY): plain < subsumption+core ≤ … each rung only shrinks,
    // never changes answers (spot-checked by the other tests/benches).
    use nyaya::ontologies::{load, BenchmarkId};
    let bench = load(BenchmarkId::S);
    let (_, q) = &bench.queries[2];
    let mut opts = RewriteOptions::nyaya();
    opts.hidden_predicates = bench.hidden_predicates.clone();
    let ny = tgd_rewrite(q, &bench.normalized, &[], &opts).unwrap().ucq;

    let minimized = fully_minimize_union(&ny);
    assert!(
        minimized.size() < ny.size(),
        "{} vs {}",
        minimized.size(),
        ny.size()
    );

    // Post-hoc minimization converges to the same canonical minimal union
    // as TGD-rewrite⋆ (both are equivalent UCQs, and minimal equivalents
    // of equivalent unions coincide) — but only after paying the full
    // exponential exploration plus O(n²) containment checks over 1710 CQs.
    // Eliminating *during* rewriting gets there while exploring a few
    // dozen queries: the paper's Section 6 point is about cost, not just
    // output size.
    let mut star = RewriteOptions::nyaya_star();
    star.hidden_predicates = bench.hidden_predicates.clone();
    let star_run = tgd_rewrite(q, &bench.normalized, &[], &star).unwrap();
    assert!(star_run.ucq.size() <= minimized.size());
    let ny_run = tgd_rewrite(q, &bench.normalized, &[], &opts).unwrap();
    assert!(star_run.stats.explored * 10 < ny_run.stats.explored);
}

mod cnb {
    //! The chase & back-chase (C&B) algorithm of Deutsch, Popa, Tannen \[15\]
    //! (paper, Section 2 and Example 8).
    //!
    //! C&B finds *all minimal equivalent reformulations* of a query under a set
    //! of constraints: freeze the body into a canonical database, chase it into
    //! the *universal plan*, then back-chase — test subsets of the universal
    //! plan bottom-up, keeping the minimal equivalent ones and pruning their
    //! supersets. It subsumes the query-elimination optimization in power
    //! (it detects the implication of Example 8 that atom coverage misses) but
    //! is exponential and requires chasing one database per candidate subset —
    //! the trade-off Section 6 discusses. Example 8 above is its one use, so
    //! it lives here, not in the production crates.

    use std::collections::HashMap;

    use nyaya::chase::{chase, ChaseConfig, Instance};
    use nyaya::core::{Atom, ConjunctiveQuery, HomSearch, Substitution, Symbol, Term, Tgd};

    /// Budgets for a C&B run.
    #[derive(Clone, Debug)]
    pub struct CnbConfig {
        pub chase: ChaseConfig,
        /// Maximum number of candidate subsets examined during back-chase.
        pub max_candidates: usize,
        /// Maximum universal-plan size accepted (larger plans abort).
        pub max_plan_atoms: usize,
    }

    impl Default for CnbConfig {
        fn default() -> Self {
            CnbConfig {
                chase: ChaseConfig::default(),
                max_candidates: 100_000,
                max_plan_atoms: 24,
            }
        }
    }

    /// All minimal reformulations of `q` that are equivalent to `q` under
    /// `tgds`, computed by chase & back-chase. Returns `None` when a budget was
    /// exceeded (chase not saturated or plan too large) — results would not be
    /// trustworthy.
    pub fn chase_and_backchase(
        q: &ConjunctiveQuery,
        tgds: &[Tgd],
        config: &CnbConfig,
    ) -> Option<Vec<ConjunctiveQuery>> {
        // 1. Freeze body(q) into the canonical database D_q.
        let (frozen_body, _frozen_head, freeze_subst) = q.freeze();
        let db = Instance::from_atoms(frozen_body);

        // 2. Chase-step: the universal plan's body is chase(D_q, Σ) with frozen
        //    constants re-opened as the original variables and nulls as fresh
        //    variables.
        let outcome = chase(&db, tgds, config.chase);
        if !outcome.saturated {
            return None;
        }
        if outcome.instance.len() > config.max_plan_atoms {
            return None;
        }
        let unfreeze = invert_freeze(&freeze_subst);
        let plan: Vec<Atom> = outcome
            .instance
            .atoms()
            .iter()
            .map(|a| unfreeze_atom(a, &unfreeze))
            .collect();

        // Head variables must be available in a candidate subset.
        let head_vars: Vec<Symbol> = {
            let mut out = Vec::new();
            for t in &q.head {
                t.collect_vars(&mut out);
            }
            out.sort_unstable();
            out.dedup();
            out
        };

        // 3. Back-chase: subsets by increasing size; prune supersets of hits.
        let n = plan.len();
        let mut minimal: Vec<(u64, ConjunctiveQuery)> = Vec::new();
        let mut examined = 0usize;
        for size in 1..=n {
            let mut combo: Vec<usize> = (0..size).collect();
            loop {
                examined += 1;
                if examined > config.max_candidates {
                    return None;
                }
                let mask = combo.iter().fold(0u64, |m, &i| m | (1 << i));
                let is_superset = minimal.iter().any(|(hit, _)| mask & hit == *hit);
                if !is_superset {
                    let body: Vec<Atom> = combo.iter().map(|&i| plan[i].clone()).collect();
                    if covers_head_vars(&body, &head_vars) {
                        let candidate = ConjunctiveQuery {
                            head_pred: q.head_pred,
                            head: q.head.clone(),
                            body,
                        };
                        if equivalent_under(&candidate, q, tgds, config)? {
                            minimal.push((mask, candidate));
                        }
                    }
                }
                if !next_combination(&mut combo, n) {
                    break;
                }
            }
        }
        Some(minimal.into_iter().map(|(_, c)| c).collect())
    }

    /// Does the candidate subquery contain every head variable?
    fn covers_head_vars(body: &[Atom], head_vars: &[Symbol]) -> bool {
        head_vars
            .iter()
            .all(|v| body.iter().any(|a| a.contains_var(*v)))
    }

    /// Is `candidate ≡_Σ q`? `candidate ⊇_Σ q` holds by construction (its body
    /// is a subset of the universal plan); the other direction is checked by
    /// chasing the frozen candidate and finding a containment mapping from `q`
    /// that respects the head.
    fn equivalent_under(
        candidate: &ConjunctiveQuery,
        q: &ConjunctiveQuery,
        tgds: &[Tgd],
        config: &CnbConfig,
    ) -> Option<bool> {
        let (frozen_body, frozen_head, _) = candidate.freeze();
        let db = Instance::from_atoms(frozen_body);
        let outcome = chase(&db, tgds, config.chase);
        if !outcome.saturated {
            return None;
        }
        let search = HomSearch::new(outcome.instance.atoms());
        let mut init = Substitution::new();
        for (t, target) in q.head.iter().zip(frozen_head.iter()) {
            match t {
                Term::Var(v) => match init.get(*v) {
                    Some(bound) => {
                        if bound != target {
                            return Some(false);
                        }
                    }
                    None => init.bind(*v, target.clone()),
                },
                other => {
                    if other != target {
                        return Some(false);
                    }
                }
            }
        }
        Some(search.exists(&q.body, &init))
    }

    /// Invert a freezing substitution (var → frozen constant) into a map
    /// from frozen constants back to variables.
    fn invert_freeze(s: &Substitution) -> HashMap<Term, Term> {
        let mut out = HashMap::new();
        for (v, t) in s.iter() {
            out.insert(t.clone(), Term::Var(v));
        }
        out
    }

    fn unfreeze_atom(atom: &Atom, unfreeze: &HashMap<Term, Term>) -> Atom {
        let args = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Null(n) => Term::var(&format!("BC{n}")),
                other => unfreeze
                    .get(other)
                    .cloned()
                    .unwrap_or_else(|| other.clone()),
            })
            .collect();
        Atom::new(atom.pred, args)
    }

    /// Next lexicographic k-combination of `0..n`; false when exhausted.
    fn next_combination(combo: &mut [usize], n: usize) -> bool {
        let k = combo.len();
        let mut i = k;
        while i > 0 {
            i -= 1;
            if combo[i] < n - (k - i) {
                combo[i] += 1;
                for j in i + 1..k {
                    combo[j] = combo[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }

    use nyaya::parser::{parse_query, parse_tgds};

    #[test]
    fn next_combination_enumerates_choose_2_of_4() {
        let mut c = vec![0, 1];
        let mut seen = vec![c.clone()];
        while next_combination(&mut c, 4) {
            seen.push(c.clone());
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn minimizes_redundant_atom() {
        // p(X) → q(X): query p(A), q(A) minimizes to p(A).
        let tgds = parse_tgds("p(X) -> q(X).").unwrap();
        let q = parse_query("q(A) :- p(A), q(A).").unwrap();
        let res = chase_and_backchase(&q, &tgds, &CnbConfig::default()).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].body.len(), 1);
        assert_eq!(res[0].body[0].pred.sym.name(), "p");
    }

    #[test]
    fn irreducible_query_stays_put() {
        let tgds = parse_tgds("p(X) -> q(X).").unwrap();
        let q = parse_query("q(A) :- r(A, B).").unwrap();
        let res = chase_and_backchase(&q, &tgds, &CnbConfig::default()).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].body.len(), 1);
        assert_eq!(res[0].body[0].pred.sym.name(), "r");
    }

    #[test]
    fn unsaturated_chase_returns_none() {
        // Non-terminating Σ: r(X,Y) → ∃Z r(Y,Z) with a tiny budget.
        let tgds = parse_tgds("r(X, Y) -> r(Y, Z).").unwrap();
        let q = parse_query("q() :- r(A, B).").unwrap();
        let config = CnbConfig {
            chase: ChaseConfig::rounds(3),
            ..Default::default()
        };
        assert!(chase_and_backchase(&q, &tgds, &config).is_none());
    }
}
