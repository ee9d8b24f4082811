//! Rewriting into non-recursive Datalog (Sections 2 and 8).
//!
//! Section 2 observes that Presto \[20\] avoids the exponential disjunctive
//! normal form of a UCQ rewriting by splitting the query and emitting a
//! non-recursive Datalog program whose rules "hide" the blow-up; Section 8
//! lists such rewritings as future work for Datalog±. This module
//! implements that idea for linear TGDs on top of [`tgd_rewrite`](crate::tgd_rewrite):
//!
//! 1. **Interaction analysis.** Two body atoms of the input query must be
//!    rewritten together only if they share a non-answer variable `V` that
//!    some chase derivation could bind to the *same labeled null* — i.e.
//!    the occurrences of `V` in both atoms can reach, walking the
//!    dependency graph of Σ (Definition 3) backwards, a common existential
//!    position `π_σ`. Only then can the factorization step (Definition 2)
//!    ever merge their descendants. This is a conservative, purely
//!    syntactic test (a superset of the "existential join" analysis of
//!    Presto's most-general-subsumees).
//! 2. **Clustering.** The atom-interaction relation partitions the body
//!    into clusters; variables shared across clusters can only ever be
//!    matched by database constants, so each cluster can be rewritten
//!    independently with the shared variables exported as answer
//!    variables.
//! 3. **Assembly.** Each cluster becomes a fresh intensional predicate
//!    defined by one rule per CQ of its perfect rewriting; the goal rule
//!    joins the cluster predicates. The program unfolds (via
//!    [`DatalogProgram::expand`]) to a UCQ equivalent to the monolithic
//!    `TGD-rewrite` output, but its size is the *sum* of the cluster
//!    rewriting sizes instead of their *product*.
//!
//! When the whole body is one interaction cluster the construction
//! degenerates to one rule per CQ of the monolithic rewriting (strategy
//! [`ProgramStrategy::Monolithic`]) — exactly the DNF, just packaged as
//! rules.

use std::collections::{HashMap, HashSet};

use nyaya_core::{
    Atom, ConjunctiveQuery, DatalogProgram, DatalogRule, NegativeConstraint, Position, Predicate,
    Symbol, Term, Tgd,
};

use crate::elimination::{DependencyGraph, EliminationContext};
use crate::engine::{tgd_rewrite_split, RewriteOptions, RewriteStats};
use crate::error::RewriteError;
use crate::program_opt::{optimize_program, ProgramOptStats};
use crate::worklist::SPLIT_FRONTIER;

/// How [`nr_datalog_rewrite`] built the program.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProgramStrategy {
    /// The body split into `clusters` independent interaction clusters,
    /// each rewritten separately (program size = sum, not product).
    Clustered { clusters: usize },
    /// All atoms interact (or the body is a single atom): the program is
    /// the monolithic UCQ, one rule per CQ (the optimizer may then
    /// re-factor nested products into shared predicates).
    Monolithic,
}

/// The result of a non-recursive-Datalog rewriting run.
pub struct ProgramRewriting {
    /// The optimized program, equivalent to the perfect UCQ rewriting.
    pub program: DatalogProgram,
    /// How the query body decomposed.
    pub strategy: ProgramStrategy,
    /// Size of the flat UCQ this program hides: the product of the cluster
    /// rewriting sizes (saturating), or the union size itself when
    /// monolithic. The [`KnowledgeBase`] auto-selection compares this
    /// against its program threshold without ever materializing the DNF.
    ///
    /// [`KnowledgeBase`]: ../nyaya/struct.KnowledgeBase.html
    pub estimated_dnf: usize,
    /// Aggregated engine statistics over all cluster rewritings (with
    /// [`RewriteStats::program_rules`]/[`RewriteStats::program_strata`]
    /// filled in from the optimized program).
    pub stats: RewriteStats,
    /// What the optimizer passes did.
    pub opt: ProgramOptStats,
}

/// Rewrite `q` w.r.t. the *normal, linear* TGDs `tgds` into a non-recursive
/// Datalog program equivalent to the perfect UCQ rewriting.
///
/// `options` is forwarded to the per-cluster [`tgd_rewrite`](crate::tgd_rewrite) runs
/// (elimination, NC pruning, hidden predicates, budget). The program's
/// [`expand`](DatalogProgram::expand)ed UCQ is equivalent to
/// `tgd_rewrite(q, …).ucq` — see the crate tests and property tests.
pub fn nr_datalog_rewrite(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    ncs: &[NegativeConstraint],
    options: &RewriteOptions,
) -> Result<ProgramRewriting, RewriteError> {
    nr_datalog_rewrite_with(q, tgds, ncs, options, None)
}

/// [`nr_datalog_rewrite`] with a caller-supplied [`EliminationContext`]
/// (same contract as [`tgd_rewrite_with`](crate::tgd_rewrite_with): the
/// context must come from the same `tgds`, and is only consulted when
/// `options.elimination` is set).
pub fn nr_datalog_rewrite_with(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    ncs: &[NegativeConstraint],
    options: &RewriteOptions,
    elim_ctx: Option<&EliminationContext>,
) -> Result<ProgramRewriting, RewriteError> {
    nr_datalog_rewrite_split(q, tgds, ncs, options, elim_ctx, SPLIT_FRONTIER)
}

/// [`nr_datalog_rewrite_with`], splitting frontier rounds of at least
/// `split_at` queries (see [`worklist::run`](crate::worklist::run)).
pub(crate) fn nr_datalog_rewrite_split(
    q: &ConjunctiveQuery,
    tgds: &[Tgd],
    ncs: &[NegativeConstraint],
    options: &RewriteOptions,
    elim_ctx: Option<&EliminationContext>,
    split_at: usize,
) -> Result<ProgramRewriting, RewriteError> {
    // Query elimination must see the *whole* body — an atom can only be
    // covered by another atom of the same query (Definition 5), so it is
    // applied before clustering (sound by Lemma 8); the per-cluster
    // rewritings then run with elimination as well.
    let owned_ctx;
    let elim_ctx = if options.elimination {
        Some(match elim_ctx {
            Some(ctx) => ctx,
            None => {
                owned_ctx = EliminationContext::new(tgds);
                &owned_ctx
            }
        })
    } else {
        None
    };
    let eliminated;
    let q = if let Some(ctx) = elim_ctx {
        eliminated = ctx.eliminate(q);
        &eliminated
    } else {
        q
    };
    let clusters = interaction_clusters(q, tgds);
    let goal_pred = goal_predicate(q);
    let goal = Atom::new(goal_pred, q.head.clone());

    if clusters.len() <= 1 {
        // Single interaction cluster: no decomposition opportunity — the
        // program starts as the monolithic UCQ, one rule per CQ, and the
        // optimizer's factoring pass re-hides whatever nested products the
        // DNF unfolded.
        let rewriting = tgd_rewrite_split(q, tgds, ncs, options, elim_ctx, split_at)?;
        let estimated_dnf = rewriting.ucq.size();
        let rules = rewriting
            .ucq
            .iter()
            .map(|cq| DatalogRule::new(Atom::new(goal_pred, cq.head.clone()), cq.body.clone()))
            .collect();
        return Ok(finish(
            DatalogProgram::new(goal, rules),
            ProgramStrategy::Monolithic,
            estimated_dnf,
            rewriting.stats,
        ));
    }

    // Rewrite the clusters in order through the shared worklist core, each
    // run splitting its own large frontier rounds. Stop at the first
    // provably-dead cluster: its empty rewriting already decides the whole
    // program — one dead conjunct kills every disjunct of the product — so
    // a blowup cell later in the body is never explored.
    let n_clusters = clusters.len();
    let mut stats = RewriteStats::default();
    let mut parts = Vec::with_capacity(n_clusters);
    for cluster in &clusters {
        let atoms: Vec<Atom> = cluster.iter().map(|&i| q.body[i].clone()).collect();
        let exported = exported_vars(q, cluster);
        let head_terms: Vec<Term> = exported.iter().map(|&v| Term::Var(v)).collect();
        let def_q = ConjunctiveQuery::new(head_terms.clone(), atoms);
        let rewriting = tgd_rewrite_split(&def_q, tgds, ncs, options, elim_ctx, split_at)?;
        accumulate(&mut stats, &rewriting.stats);
        if rewriting.ucq.is_empty() {
            return Ok(finish(
                DatalogProgram::unsatisfiable(goal),
                ProgramStrategy::Clustered {
                    clusters: n_clusters,
                },
                0,
                stats,
            ));
        }
        parts.push((rewriting.ucq, head_terms));
    }

    // The definition predicates are interned only once every cluster is
    // rewritten, which interns names of its own: symbol indices follow
    // interning order, and the golden files spell them out.
    let mut rules = Vec::new();
    let mut goal_body = Vec::new();
    let mut estimated_dnf = 1usize;
    for (ucq, head_terms) in parts {
        estimated_dnf = estimated_dnf.saturating_mul(ucq.size());
        let def_pred = Predicate {
            sym: nyaya_core::symbols::fresh("def"),
            arity: head_terms.len(),
        };
        for cq in ucq.iter() {
            rules.push(DatalogRule::new(
                Atom::new(def_pred, cq.head.clone()),
                cq.body.clone(),
            ));
        }
        goal_body.push(Atom::new(def_pred, head_terms));
    }
    rules.push(DatalogRule::new(goal.clone(), goal_body));
    Ok(finish(
        DatalogProgram::new(goal, rules),
        ProgramStrategy::Clustered {
            clusters: n_clusters,
        },
        estimated_dnf,
        stats,
    ))
}

/// Optimize the assembled program and fill in the program-shaped stats.
fn finish(
    mut program: DatalogProgram,
    strategy: ProgramStrategy,
    estimated_dnf: usize,
    mut stats: RewriteStats,
) -> ProgramRewriting {
    let opt = optimize_program(&mut program);
    stats.program_rules = program.num_rules();
    stats.program_strata = program.strata().map_or(0, |s| s.len());
    ProgramRewriting {
        program,
        strategy,
        estimated_dnf,
        stats,
        opt,
    }
}

fn accumulate(total: &mut RewriteStats, part: &RewriteStats) {
    total.explored += part.explored;
    total.factorization_products += part.factorization_products;
    total.rewriting_products += part.rewriting_products;
    total.nc_pruned += part.nc_pruned;
    total.atoms_eliminated += part.atoms_eliminated;
    total.budget_exhausted |= part.budget_exhausted;
    total.dedup_hits += part.dedup_hits;
    total.frontier_rounds += part.frontier_rounds;
    total.workers = total.workers.max(part.workers);
    total.rewrite_micros += part.rewrite_micros;
    total.subsumption_checks += part.subsumption_checks;
    total.subsumption_avoided += part.subsumption_avoided;
}

/// A goal predicate for the program: the query's head symbol, or a fresh
/// symbol if that would collide with a body (database) predicate.
fn goal_predicate(q: &ConjunctiveQuery) -> Predicate {
    let candidate = Predicate {
        sym: q.head_pred,
        arity: q.head.len(),
    };
    let collides = q.body.iter().any(|a| a.pred == candidate);
    if collides {
        Predicate {
            sym: nyaya_core::symbols::fresh("goal"),
            arity: q.head.len(),
        }
    } else {
        candidate
    }
}

/// Variables of the cluster that must be visible outside it: answer
/// variables and variables shared with other clusters. First-occurrence
/// order for determinism.
fn exported_vars(q: &ConjunctiveQuery, cluster: &[usize]) -> Vec<Symbol> {
    let in_cluster: HashSet<usize> = cluster.iter().copied().collect();
    let mut head_vars = Vec::new();
    for t in &q.head {
        t.collect_vars(&mut head_vars);
    }
    let mut outside = head_vars;
    for (i, a) in q.body.iter().enumerate() {
        if !in_cluster.contains(&i) {
            a.collect_vars(&mut outside);
        }
    }
    let outside: HashSet<Symbol> = outside.into_iter().collect();
    let mut exported = Vec::new();
    for &i in cluster {
        for v in q.body[i].variables() {
            if outside.contains(&v) && !exported.contains(&v) {
                exported.push(v);
            }
        }
    }
    exported
}

/// Partition the body atoms of `q` into interaction clusters (step 1–2 of
/// the module docs). Returns clusters as sorted index lists, ordered by
/// their smallest member.
pub fn interaction_clusters(q: &ConjunctiveQuery, tgds: &[Tgd]) -> Vec<Vec<usize>> {
    let n = q.body.len();
    let mut uf = UnionFind::new(n);
    let analysis = ReachabilityAnalysis::new(tgds);
    let mut head_vars = Vec::new();
    for t in &q.head {
        t.collect_vars(&mut head_vars);
    }

    // Gather the body occurrences of every non-answer variable.
    let mut occurrences: HashMap<Symbol, Vec<usize>> = HashMap::new();
    for (i, a) in q.body.iter().enumerate() {
        for v in a.variables() {
            if !head_vars.contains(&v) {
                let entry = occurrences.entry(v).or_default();
                if !entry.contains(&i) {
                    entry.push(i);
                }
            }
        }
    }

    for (v, atoms) in occurrences {
        if atoms.len() < 2 {
            continue;
        }
        // Existential positions each atom's occurrence of `v` can reach
        // backwards through the dependency graph.
        let reach: Vec<HashSet<Position>> = atoms
            .iter()
            .map(|&i| analysis.reachable_existentials(&q.body[i], v))
            .collect();
        for x in 0..atoms.len() {
            for y in x + 1..atoms.len() {
                if !reach[x].is_disjoint(&reach[y]) {
                    uf.union(atoms[x], atoms[y]);
                }
            }
        }
    }

    let mut by_root: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        by_root.entry(uf.find(i)).or_default().push(i);
    }
    let mut clusters: Vec<Vec<usize>> = by_root.into_values().collect();
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort_by_key(|c| c[0]);
    clusters
}

/// A cheap static upper bound on the size of the perfect UCQ rewriting of
/// `q` — computable without running any rewriting engine.
///
/// For each predicate `p`, count the rewrite *paths* ending at `p`:
/// `paths(p) = 1 + Σ_{σ: head pred p} Π_{b ∈ body(σ)} paths(pred(b))` —
/// one for the atom itself plus, for every TGD producing `p`, the ways its
/// body can in turn be rewritten. The bound for the query is the product
/// of `paths` over its body atoms. This over-counts (it ignores
/// applicability of unification and factorization) but is exact on
/// chain-shaped ontologies, and it is monotone: a small bound guarantees a
/// small DNF.
///
/// Cycles in the predicate graph (possible even for ontologies whose
/// rewriting terminates) and any overflow saturate to [`usize::MAX`], so a
/// recursive ontology never reports a deceptively small bound.
///
/// [`KnowledgeBase`]'s `Strategy::Auto` uses this to skip the program
/// compile entirely when even the worst-case DNF is below its threshold.
///
/// [`KnowledgeBase`]: ../nyaya/struct.KnowledgeBase.html
pub fn estimate_dnf_bound(q: &ConjunctiveQuery, tgds: &[Tgd]) -> usize {
    let mut by_head: HashMap<Predicate, Vec<&Tgd>> = HashMap::new();
    for tgd in tgds {
        by_head.entry(tgd.head_atom().pred).or_default().push(tgd);
    }

    fn paths(
        pred: Predicate,
        by_head: &HashMap<Predicate, Vec<&Tgd>>,
        memo: &mut HashMap<Predicate, usize>,
        visiting: &mut HashSet<Predicate>,
    ) -> usize {
        if let Some(&n) = memo.get(&pred) {
            return n;
        }
        if !visiting.insert(pred) {
            // Cycle: the rewrite depth is unbounded statically.
            return usize::MAX;
        }
        let mut total = 1usize;
        for tgd in by_head.get(&pred).map(Vec::as_slice).unwrap_or(&[]) {
            let mut product = 1usize;
            for b in &tgd.body {
                product = product.saturating_mul(paths(b.pred, by_head, memo, visiting));
            }
            total = total.saturating_add(product);
        }
        visiting.remove(&pred);
        memo.insert(pred, total);
        total
    }

    let mut memo = HashMap::new();
    let mut visiting = HashSet::new();
    q.body.iter().fold(1usize, |acc, a| {
        acc.saturating_mul(paths(a.pred, &by_head, &mut memo, &mut visiting))
    })
}

/// Backward reachability over the dependency graph, restricted to
/// existential positions — the static core of the interaction test.
struct ReachabilityAnalysis {
    /// Reversed dependency-graph edges: head position → body positions.
    reverse: HashMap<Position, Vec<Position>>,
    /// The positions `π_σ` at which some TGD invents a null.
    existential: HashSet<Position>,
}

impl ReachabilityAnalysis {
    fn new(tgds: &[Tgd]) -> Self {
        let graph = DependencyGraph::new(tgds);
        let mut reverse: HashMap<Position, Vec<Position>> = HashMap::new();
        for edges in &graph.edges {
            for &(from, to) in edges {
                reverse.entry(to).or_default().push(from);
            }
        }
        let mut existential = HashSet::new();
        for tgd in tgds {
            if let Some(idx) = tgd.existential_position() {
                existential.insert(Position {
                    pred: tgd.head_atom().pred,
                    index: idx,
                });
            }
        }
        ReachabilityAnalysis {
            reverse,
            existential,
        }
    }

    /// The existential positions backward-reachable from any occurrence of
    /// `v` in `atom` (including the occurrence positions themselves).
    fn reachable_existentials(&self, atom: &Atom, v: Symbol) -> HashSet<Position> {
        let mut frontier: Vec<Position> = atom
            .positions_of_var(v)
            .into_iter()
            .map(|index| Position {
                pred: atom.pred,
                index,
            })
            .collect();
        let mut seen: HashSet<Position> = frontier.iter().copied().collect();
        let mut hits = HashSet::new();
        while let Some(pos) = frontier.pop() {
            if self.existential.contains(&pos) {
                hits.insert(pos);
            }
            if let Some(preds) = self.reverse.get(&pos) {
                for &p in preds {
                    if seen.insert(p) {
                        frontier.push(p);
                    }
                }
            }
        }
        hits
    }
}

/// Minimal union-find over `0..n`.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tgd_rewrite;
    use nyaya_core::normalize;
    use nyaya_parser::{parse_query, parse_tgds};

    fn setup(tgd_src: &str, q_src: &str) -> (Vec<Tgd>, ConjunctiveQuery) {
        let tgds = normalize(&parse_tgds(tgd_src).unwrap()).tgds;
        let q = parse_query(q_src).unwrap();
        (tgds, q)
    }

    #[test]
    fn independent_atoms_split() {
        // B joins the two atoms but no TGD has an existential at any
        // reachable position → two clusters.
        let (tgds, q) = setup("r1: s(X) -> p(X).", "q(A) :- p(A), t(A, B), u(B).");
        let clusters = interaction_clusters(&q, &tgds);
        assert_eq!(clusters.len(), 3, "no interaction at all: {clusters:?}");
    }

    #[test]
    fn existential_join_forces_one_cluster() {
        // Example 4 of the paper: p(X) → ∃Y t(X,Y); t(X,Y) → s(Y).
        // In q() :- t(A,B), s(B) the variable B can be matched by the null
        // invented at t[2] (directly for the t-atom; backwards through
        // t(X,Y) → s(Y) for the s-atom), so the atoms must stay together.
        let (tgds, q) = setup(
            "r1: p(X) -> t(X, Y). r2: t(X, Y) -> s(Y).",
            "q() :- t(A, B), s(B).",
        );
        let clusters = interaction_clusters(&q, &tgds);
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn head_variables_never_cluster() {
        // Same ontology as above, but B is an answer variable: certain
        // answers are constants, so the atoms are independent.
        let (tgds, q) = setup(
            "r1: p(X) -> t(X, Y). r2: t(X, Y) -> s(Y).",
            "q(B) :- t(A, B), s(B).",
        );
        let clusters = interaction_clusters(&q, &tgds);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn path5_chain_is_one_cluster() {
        // In Path5 the chain variable reaches the r_k[2] existential
        // positions from both sides — the chain query cannot be split.
        let (tgds, q) = setup(
            nyaya_ontologies::path5::PATH5_DATALOG,
            "q(A) :- edge(A, B), edge(B, C).",
        );
        let clusters = interaction_clusters(&q, &tgds);
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn dnf_bound_is_exact_on_chains_and_saturates_on_cycles() {
        // Chain sp → p: paths(p) = 2, paths(t) = 1, paths(u) = 2 → 4,
        // which matches the true DNF size (see the expansion test below).
        let (tgds, q) = setup(
            "r1: sp(X) -> p(X). r2: su(X) -> u(X).",
            "q(A) :- p(A), t(A, B), u(B).",
        );
        assert_eq!(estimate_dnf_bound(&q, &tgds), 4);

        // A longer derivation chain: d → c → b → a gives paths(a) = 4.
        let (tgds, q) = setup(
            "r1: b(X) -> a(X). r2: c(X) -> b(X). r3: d(X) -> c(X).",
            "q(A) :- a(A).",
        );
        assert_eq!(estimate_dnf_bound(&q, &tgds), 4);

        // A predicate cycle saturates rather than under-reporting.
        let (tgds, q) = setup("r1: p(X) -> r(X). r2: r(X) -> p(X).", "q(A) :- p(A).");
        assert_eq!(estimate_dnf_bound(&q, &tgds), usize::MAX);

        // Predicates no TGD produces contribute exactly one path.
        let (tgds, q) = setup("r1: s(X) -> p(X).", "q(A) :- t(A, B).");
        assert_eq!(estimate_dnf_bound(&q, &tgds), 1);
    }

    #[test]
    fn clustered_program_expands_to_the_monolithic_rewriting() {
        // Two independent sub-queries, each with 2 alternatives: the
        // program has 2+2(+goal) rules while the UCQ has 2×2 CQs.
        let (tgds, q) = setup(
            "r1: sp(X) -> p(X). r2: su(X) -> u(X).",
            "q(A) :- p(A), t(A, B), u(B).",
        );
        let options = RewriteOptions::nyaya();
        let pr = nr_datalog_rewrite(&q, &tgds, &[], &options).unwrap();
        assert_eq!(pr.strategy, ProgramStrategy::Clustered { clusters: 3 });
        let expanded = pr.program.expand();
        let mono = tgd_rewrite(&q, &tgds, &[], &options).unwrap().ucq;
        assert_eq!(expanded.size(), mono.size());
        assert_eq!(mono.size(), 4);
        for cq in expanded.iter() {
            assert!(
                mono.iter().any(|m| m.equivalent_to(cq)),
                "extra CQ in expansion: {cq}"
            );
        }
        for cq in mono.iter() {
            assert!(
                expanded.iter().any(|m| m.equivalent_to(cq)),
                "missing CQ in expansion: {cq}"
            );
        }
        // The program is smaller than the DNF.
        assert!(pr.program.total_atoms() < mono.length() + expanded.size());
    }

    #[test]
    fn monolithic_fallback_matches_engine() {
        let (tgds, q) = setup(
            "r1: p(X) -> t(X, Y). r2: t(X, Y) -> s(Y).",
            "q() :- t(A, B), s(B).",
        );
        let options = RewriteOptions::nyaya();
        let pr = nr_datalog_rewrite(&q, &tgds, &[], &options).unwrap();
        assert_eq!(pr.strategy, ProgramStrategy::Monolithic);
        assert_eq!(pr.estimated_dnf, 3);
        // The optimizer may subsume redundant disjuncts, so compare by
        // answer equivalence (mutual containment), not by size.
        let expanded = pr.program.expand();
        let mono = tgd_rewrite(&q, &tgds, &[], &options).unwrap().ucq;
        for cq in mono.iter() {
            assert!(
                expanded.iter().any(|m| m.contains(cq)),
                "missing coverage for {cq} in:\n{expanded}"
            );
        }
        for cq in expanded.iter() {
            assert!(
                mono.iter().any(|m| m.contains(cq)),
                "extra answers from {cq}"
            );
        }
    }

    #[test]
    fn dead_cluster_gives_unsatisfiable_program() {
        // NC kills every rewriting of the u-cluster.
        let (tgds, q) = setup("r1: sp(X) -> p(X).", "q(A) :- p(A), t(A, B), u(B).");
        let ncs = vec![NegativeConstraint::new(vec![Atom::make("u", ["X"])])];
        let mut options = RewriteOptions::nyaya();
        options.nc_pruning = true;
        let pr = nr_datalog_rewrite(&q, &tgds, &ncs, &options).unwrap();
        assert!(pr.program.expand().is_empty());
    }

    #[test]
    fn goal_predicate_avoids_collisions() {
        // A body predicate literally named q/1 must not clash with the goal.
        let (tgds, q) = setup("r1: s(X) -> q(X).", "q(A) :- q(A).");
        let pr = nr_datalog_rewrite(&q, &tgds, &[], &RewriteOptions::nyaya()).unwrap();
        let expanded = pr.program.expand();
        assert_eq!(expanded.size(), 2); // q(A) and s(A)
    }

    /// A program compile that splits every frontier round of two or more
    /// queries across four workers is bit-identical to the sequential
    /// compile on seeded random ontologies: rule content and order (the
    /// fresh predicate names erased), strategy, estimated DNF, optimizer
    /// counters and engine stats (wall-clock and worker count aside).
    #[test]
    fn parallel_program_compiles_are_bit_identical_on_fuzz_ontologies() {
        use nyaya_ontologies::rng::Prng;
        use nyaya_ontologies::{random_cq, random_linear_tgds, FuzzConfig};

        let config = FuzzConfig {
            max_atoms: 4,
            ..Default::default()
        };
        let options = |workers| RewriteOptions {
            max_queries: 30_000,
            parallel_workers: workers,
            ..Default::default()
        };
        let (mut clustered, mut split) = (0usize, 0usize);
        for seed in 0..150u64 {
            let mut rng = Prng::seed_from_u64(0xC1A5 ^ seed);
            let tgds = random_linear_tgds(&mut rng, 1 + (seed as usize % 6));
            let head_arity = rng.gen_range(0..3);
            let q = random_cq(&mut rng, &config, head_arity);
            let compile =
                |workers| nr_datalog_rewrite_split(&q, &tgds, &[], &options(workers), None, 2);
            let seq = match compile(1) {
                Ok(pr) if !pr.stats.budget_exhausted => pr,
                _ => continue,
            };
            let par = compile(4).unwrap();
            assert_eq!(
                seq.program.canonical_text(),
                par.program.canonical_text(),
                "seed {seed}: parallel program differs from sequential"
            );
            assert_eq!(seq.strategy, par.strategy, "seed {seed}");
            assert_eq!(seq.estimated_dnf, par.estimated_dnf, "seed {seed}");
            assert_eq!(seq.opt, par.opt, "seed {seed}: optimizer counters differ");
            let comparable = |stats: &RewriteStats| RewriteStats {
                rewrite_micros: 0,
                workers: 0,
                ..stats.clone()
            };
            assert_eq!(
                comparable(&seq.stats),
                comparable(&par.stats),
                "seed {seed}: engine stats differ"
            );
            clustered += usize::from(matches!(seq.strategy, ProgramStrategy::Clustered { .. }));
            split += usize::from(par.stats.workers > 1);
        }
        // Multi-atom fuzz queries decompose often (100 of the 150), and 18
        // compiles reach a round of two or more queries.
        assert!(clustered >= 30, "too few clustered programs: {clustered}");
        assert!(split >= 10, "only {split} compiles split a round");
    }
}
