//! Template-then-bind equals compiling the instantiated query.
//!
//! A knowledge base compiles a query once per template — the query with
//! every constant Σ never mentions abstracted into a parameter — and binds
//! each query's own constants into that compile. This differential
//! instantiates every suite query (V, S, U, A, P5; Table 2) and the three
//! `lubm_serve` point shapes with constants drawn from the data, seeded:
//! one instantiation puts a constant in the head, one repeats a constant
//! across two variables, one picks variables at random. Each instantiation
//! runs on two knowledge bases over the same data: one that templates it,
//! and a twin whose Σ carries one extra TGD, over predicates no query
//! reads, that mentions the instantiation's constants, so the twin
//! compiles the instantiated query itself. Then:
//!
//! - under NY⋆, NY, QuOnto and Requiem the bound rewriting equals the
//!   twin's, disjunct for disjunct (canonical key and text, in order);
//! - under NY⋆ and NY, the [`Strategy::Auto`] choice and the program —
//!   its estimated DNF, its strategy, the union it unfolds to and its
//!   answers evaluated directly on the data — equal the twin's (its rules
//!   may differ, see [`unfolded`]);
//! - the answers equal the twin's and the chase's (which saturates on
//!   every data set here).
//!
//! Every compile runs under an explored-query budget: an engine whose
//! compile of the uninstantiated cell exceeds it skips that cell (Requiem
//! on S-q5, A-q5 and P5-q5 exceeds even the default budget). Debug builds
//! run one seed over the cells whose rewritings stay small under a small
//! budget; release builds (CI's rewriter-lockdown step) run three seeds
//! over every cell under a larger one.

use std::collections::BTreeSet;

use nyaya::chase::{answers as chase_answers, ChaseOutcome};
use nyaya::core::{
    canonical_key, Atom, ConjunctiveQuery, Ontology, Predicate, Substitution, Symbol, Term, Tgd,
};
use nyaya::ontologies::lubm::{lubm_abox, LubmConfig};
use nyaya::ontologies::rng::Prng;
use nyaya::ontologies::{generate_abox, load, AboxConfig, BenchmarkId};
use nyaya::sql::execute_program;
use nyaya::{Algorithm, CompiledProgram, KnowledgeBase, PreparedQuery};

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::NyayaStar,
    Algorithm::Nyaya,
    Algorithm::QuOnto,
    Algorithm::Requiem,
];

/// The `lubm_serve` point shapes, their constant position a variable.
const POINT_SHAPES: [&str; 3] = [
    "q(C) :- takesCourse(S, C), Course(C).",
    "q(S) :- Student(S), advisor(S, F).",
    "q(P, C) :- worksFor(P, D), teacherOf(P, C), Professor(P).",
];

const RELEASE: bool = !cfg!(debug_assertions);

const SEEDS: u64 = if RELEASE { 3 } else { 1 };

/// Distinct queries a compile may explore (`max_queries`).
const BUDGET: usize = if RELEASE { 40_000 } else { 2_000 };

/// Cells whose compiles cost seconds unoptimized run in release only.
fn light(id: BenchmarkId, qi: usize) -> bool {
    match id {
        BenchmarkId::V => true,
        BenchmarkId::A => qi < 1,
        _ => qi < 2,
    }
}

fn kb(sigma: Ontology, facts: &[Atom]) -> KnowledgeBase {
    KnowledgeBase::builder()
        .ontology(sigma)
        .facts(facts.iter().cloned())
        .max_queries(BUDGET)
        .build()
        .expect("knowledge base builds")
}

/// The engines whose compile of `query` on `sigma` stays within
/// [`BUDGET`].
fn engines(sigma: &Ontology, query: &ConjunctiveQuery) -> Vec<Algorithm> {
    let kb = kb(sigma.clone(), &[]);
    ALGORITHMS
        .into_iter()
        .filter(|&algorithm| {
            kb.rewriting(&kb.prepare_with(query, algorithm).unwrap())
                .is_ok()
        })
        .collect()
}

/// `query` with each variable of `vars` replaced by its constant.
fn instantiate(query: &ConjunctiveQuery, vars: &[(Symbol, Term)]) -> ConjunctiveQuery {
    let mut s = Substitution::new();
    for (v, c) in vars {
        s.bind(*v, c.clone());
    }
    query.apply(&s)
}

/// Three instantiations of `query` with constants from `pool`: a head
/// variable (and maybe one more), two variables sharing one constant, and
/// one to three random variables.
fn instantiations(
    rng: &mut Prng,
    query: &ConjunctiveQuery,
    pool: &[Term],
) -> Vec<ConjunctiveQuery> {
    let vars = query.variables();
    let head: Vec<Symbol> = query.head.iter().filter_map(Term::as_var).collect();
    let pick = |rng: &mut Prng, from: &[Symbol]| from[rng.gen_range(0..from.len())];
    let constant = |rng: &mut Prng| pool[rng.gen_range(0..pool.len())].clone();
    let mut out = Vec::new();
    if !head.is_empty() {
        let mut chosen = vec![(pick(rng, &head), constant(rng))];
        let other = pick(rng, &vars);
        if rng.gen_bool(0.5) && other != chosen[0].0 {
            chosen.push((other, constant(rng)));
        }
        out.push(instantiate(query, &chosen));
    }
    if vars.len() >= 2 {
        let first = pick(rng, &vars);
        let second = loop {
            let v = pick(rng, &vars);
            if v != first {
                break v;
            }
        };
        let c = constant(rng);
        out.push(instantiate(query, &[(first, c.clone()), (second, c)]));
    }
    let mut chosen: Vec<(Symbol, Term)> = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        let v = pick(rng, &vars);
        if chosen.iter().all(|(w, _)| *w != v) {
            chosen.push((v, constant(rng)));
        }
    }
    out.push(instantiate(query, &chosen));
    out
}

/// The twin's extra TGD: `sigma_mentions(X, c1, …, cn) -> sigma_mentioned(X)`
/// over the constants of `query`, a rule no query predicate reaches.
fn mention(query: &ConjunctiveQuery) -> Tgd {
    let mut args = vec![Term::var("X")];
    for atom in &query.body {
        for t in &atom.args {
            if t.is_const() && !args.contains(t) {
                args.push(t.clone());
            }
        }
    }
    for t in &query.head {
        if t.is_const() && !args.contains(t) {
            args.push(t.clone());
        }
    }
    Tgd::labeled(
        "sigma_mentions",
        vec![Atom::new(
            Predicate::new("sigma_mentions", args.len()),
            args,
        )],
        vec![Atom::new(
            Predicate::new("sigma_mentioned", 1),
            vec![Term::var("X")],
        )],
    )
}

/// Every disjunct of `query`'s rewriting, in order, as its canonical key
/// and its text, or the compile's error.
fn disjuncts(kb: &KnowledgeBase, query: &PreparedQuery) -> Result<Vec<String>, String> {
    let compiled = kb.rewriting(query).map_err(|e| e.to_string())?;
    Ok(compiled
        .ucq
        .iter()
        .map(|cq| format!("{} {cq}", canonical_key(cq).as_str()))
        .collect())
}

/// What a program computes: the canonical keys of the union it unfolds
/// to, sorted, or nothing when that union would be large. The programs
/// themselves need not be equal: rule and body order follow symbol
/// indices (a parameter's, not its constant's), and the program
/// optimizer's factoring follows that order, so the bound program of an
/// A-q3 instance inlines a two-rule definition the instantiated compile
/// factors out (29 vs 30 rules, one union).
fn unfolded(program: &CompiledProgram) -> Vec<String> {
    if program.estimated_dnf > 2_000 {
        return Vec::new();
    }
    let mut keys: Vec<String> = (program.program.expand().iter())
        .map(|cq| canonical_key(cq).as_str().to_owned())
        .collect();
    keys.sort();
    keys
}

/// One instantiation on the templating base and on its twin, under
/// `engines`; `chased` is the base's data chased to saturation.
fn check(
    what: &str,
    sigma: &Ontology,
    facts: &[Atom],
    (kb, chased): (&KnowledgeBase, &ChaseOutcome),
    engines: &[Algorithm],
    query: &ConjunctiveQuery,
) {
    let mut twin_sigma = sigma.clone();
    twin_sigma.tgds.push(mention(query));
    let twin = self::kb(twin_sigma, facts);
    let mut answers: Option<BTreeSet<Vec<Term>>> = None;
    for &algorithm in engines {
        let bound = kb.prepare_with(query, algorithm).unwrap();
        let direct = twin.prepare_with(query, algorithm).unwrap();
        let what = format!("{what} under {}", algorithm.label());
        let (got, want) = (disjuncts(kb, &bound), disjuncts(&twin, &direct));
        assert_eq!(got, want, "{what}: disjuncts");
        if got.is_err() {
            continue;
        }
        if matches!(algorithm, Algorithm::NyayaStar | Algorithm::Nyaya) {
            let (got, want) = (kb.program(&bound).unwrap(), twin.program(&direct).unwrap());
            assert_eq!(unfolded(&got), unfolded(&want), "{what}: program");
            let db = kb.snapshot();
            assert_eq!(
                execute_program(db.database(), &got.program).unwrap(),
                execute_program(db.database(), &want.program).unwrap(),
                "{what}: program answers"
            );
            assert_eq!(got.estimated_dnf, want.estimated_dnf, "{what}: program DNF");
            assert_eq!(got.strategy, want.strategy, "{what}: program strategy");
            assert_eq!(
                kb.execution_plan(&bound).unwrap().is_some(),
                twin.execution_plan(&direct).unwrap().is_some(),
                "{what}: Auto choice"
            );
        }
        let got = kb.execute(&bound).unwrap().tuples;
        assert_eq!(
            got,
            twin.execute(&direct).unwrap().tuples,
            "{what}: answers"
        );
        match &answers {
            Some(first) => assert_eq!(&got, first, "{what}: answers across engines"),
            None => answers = Some(got),
        }
    }
    if let Some(answers) = answers {
        assert_eq!(
            chase_answers(&chased.instance, query),
            answers,
            "{what}: chase"
        );
    }
}

/// The constants of `facts`, deduplicated in order, plus one the data
/// does not hold.
fn constant_pool(facts: &[Atom]) -> Vec<Term> {
    let mut pool = vec![Term::constant("absent_individual")];
    for fact in facts {
        for t in &fact.args {
            if !pool.contains(t) {
                pool.push(t.clone());
            }
        }
    }
    pool
}

#[test]
fn binding_a_template_equals_compiling_the_instantiated_query() {
    let mut checked = 0;
    for id in [
        BenchmarkId::V,
        BenchmarkId::S,
        BenchmarkId::U,
        BenchmarkId::A,
        BenchmarkId::P5,
    ] {
        let bench = load(id);
        let cells: Vec<(&String, &ConjunctiveQuery, Vec<Algorithm>)> = (bench.queries.iter())
            .enumerate()
            .filter(|&(qi, _)| RELEASE || light(id, qi))
            .map(|(_, (name, query))| (name, query, engines(&bench.raw, query)))
            .collect();
        for seed in 0..SEEDS {
            let facts = generate_abox(
                &bench,
                &AboxConfig {
                    individuals: 12,
                    facts: 80,
                    seed,
                },
            );
            let pool = constant_pool(&facts);
            let kb = kb(bench.raw.clone(), &facts);
            let chased = kb.materialize();
            assert!(chased.saturated, "{id:?} seed {seed}: the chase saturates");
            let mut rng = Prng::seed_from_u64(0x7E4D ^ seed);
            for (name, query, engines) in &cells {
                for instance in instantiations(&mut rng, query, &pool) {
                    let what = format!("{id:?}-{name} seed {seed}: {instance}");
                    check(
                        &what,
                        &bench.raw,
                        &facts,
                        (&kb, &chased),
                        engines,
                        &instance,
                    );
                    checked += engines.len();
                }
            }
        }
    }
    assert!(
        checked >= 100,
        "only {checked} instantiations × engines checked"
    );
}

#[test]
fn binding_a_point_shape_equals_compiling_the_point_query() {
    let sigma = load(BenchmarkId::U).raw;
    let facts = lubm_abox(&LubmConfig {
        universities: 1,
        departments_per_university: 1,
        seed: 7,
    });
    let pool = constant_pool(&facts);
    let kb = kb(sigma.clone(), &facts);
    let chased = kb.materialize();
    assert!(chased.saturated, "the chase of the LUBM data saturates");
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(0x9017 ^ seed);
        for (shape, (point, pred, col)) in POINT_SHAPES.iter().zip([
            ("S", "takesCourse", 0),
            ("F", "advisor", 1),
            ("D", "worksFor", 1),
        ]) {
            let query = nyaya::parser::parse_query(shape).unwrap();
            let engines = engines(&sigma, &query);
            assert!(engines.contains(&Algorithm::NyayaStar), "{shape}");
            // The serving request itself: the point variable bound to a
            // constant the data holds there.
            let held: Vec<&Term> = facts
                .iter()
                .filter(|f| f.pred.sym.as_str() == pred)
                .map(|f| &f.args[col])
                .collect();
            let served = instantiate(
                &query,
                &[(
                    Term::var(point).as_var().unwrap(),
                    held[rng.gen_range(0..held.len())].clone(),
                )],
            );
            for instance in std::iter::once(served).chain(instantiations(&mut rng, &query, &pool)) {
                let what = format!("point seed {seed}: {instance}");
                check(&what, &sigma, &facts, (&kb, &chased), &engines, &instance);
            }
        }
    }
}
