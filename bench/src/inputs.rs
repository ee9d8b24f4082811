//! Every input of every workload, as a pure function of `--seed`.
//!
//! The system under test only ever receives what is generated here: ABoxes,
//! query texts, the request schedule and the update batches.

use std::collections::HashSet;

use nyaya::core::{Atom, Predicate, Term};
use nyaya::ontologies::lubm::{lubm_abox, LubmConfig};
use nyaya::ontologies::rng::Prng;
use nyaya::ontologies::{generate_abox, load, AboxConfig, Benchmark, BenchmarkId};

/// The seed `expected.json` was written for, and `run.sh`'s default.
pub const DEFAULT_SEED: u64 = 0x10ba1;

/// An independent stream per (seed, purpose): FNV-1a of the tag, mixed
/// with the seed by one SplitMix64 step.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = (seed ^ h).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- suite_cold ---------------------------------------------------------

/// The ontologies of Table 2 without the X-variants: AX-q1..q5 compile to
/// the same union sizes as A-q1..q5 and would only repeat A's seconds.
pub const SUITE_IDS: [BenchmarkId; 5] = [
    BenchmarkId::V,
    BenchmarkId::S,
    BenchmarkId::U,
    BenchmarkId::A,
    BenchmarkId::P5,
];

/// Cells whose cold compile takes 20 ms to seconds at the commit that
/// defined the benchmark; they repeat less often than the rest. A fixed
/// list, so the work of a run does not depend on how fast it goes.
pub const HEAVY_CELLS: [&str; 6] = ["A-q2", "A-q3", "A-q4", "A-q5", "P5-q4", "P5-q5"];

pub struct SuiteCell {
    /// `V-q1` ... `P5-q5`.
    pub name: String,
    /// Index into [`Suite::ontologies`].
    pub ontology: usize,
    pub query: &'static str,
    pub heavy: bool,
}

pub struct Suite {
    /// The loaded ontology and its seeded 2 000-fact ABox.
    pub ontologies: Vec<(Benchmark, Vec<Atom>)>,
    pub cells: Vec<SuiteCell>,
}

pub fn suite(seed: u64, facts: usize, individuals: usize) -> Suite {
    use nyaya::ontologies::{adolena, path5, stockexchange, university, vicodi};
    let mut ontologies = Vec::new();
    let mut cells = Vec::new();
    for (slot, id) in SUITE_IDS.into_iter().enumerate() {
        let bench = load(id);
        let abox = generate_abox(
            &bench,
            &AboxConfig {
                individuals,
                facts,
                seed: sub_seed(seed, &format!("abox-{id}")),
            },
        );
        let queries: &[(&'static str, &'static str)] = match id {
            BenchmarkId::V => &vicodi::VICODI_QUERIES,
            BenchmarkId::S => &stockexchange::STOCKEXCHANGE_QUERIES,
            BenchmarkId::U => &university::UNIVERSITY_QUERIES,
            BenchmarkId::A => &adolena::ADOLENA_QUERIES,
            BenchmarkId::P5 => &path5::PATH5_QUERIES,
            _ => unreachable!("SUITE_IDS has no X-variant"),
        };
        for (q, text) in queries {
            let name = format!("{id}-{q}");
            cells.push(SuiteCell {
                heavy: HEAVY_CELLS.contains(&name.as_str()),
                name,
                ontology: slot,
                query: text,
            });
        }
        ontologies.push((bench, abox));
    }
    Suite { ontologies, cells }
}

// ---- LUBM ---------------------------------------------------------------

/// The prepared queries of the LUBM workloads: Table 2's U-q1..q5 and the
/// three multi-joins of `scale_bench`.
pub fn lubm_queries() -> Vec<(String, String)> {
    let mut queries: Vec<(String, String)> = nyaya::ontologies::university::UNIVERSITY_QUERIES
        .iter()
        .map(|(name, text)| (format!("U-{name}"), (*text).to_owned()))
        .collect();
    for (name, text) in [
        (
            "grad-courses",
            "q(X, Y) :- GraduateStudent(X), takesCourse(X, Y), GraduateCourse(Y).",
        ),
        (
            "taught-grads",
            "q(X, C) :- AssociateProfessor(P), teacherOf(P, C), takesCourse(X, C), \
             GraduateStudent(X).",
        ),
        (
            "grad-pipeline",
            "q(X, P) :- GraduateStudent(X), takesCourse(X, C), GraduateCourse(C), \
             advisor(X, P), FullProfessor(P).",
        ),
    ] {
        queries.push((name.to_owned(), text.to_owned()));
    }
    queries
}

pub const GRAD_COURSES: usize = 5;
pub const U_Q1: usize = 0;

pub struct Lubm {
    pub config: LubmConfig,
    pub facts: Vec<Atom>,
}

/// The LUBM ABox with at least `target` facts (1M for the workloads, one
/// department for `--verify`).
pub fn lubm(seed: u64, target: usize) -> Lubm {
    let mut config = LubmConfig::with_at_least(target, sub_seed(seed, "lubm"));
    if target < 10_000 {
        config.departments_per_university = 1;
    }
    let facts = lubm_abox(&config);
    Lubm { config, facts }
}

// Per-department populations of the generator (its constants are private).
const DEPT_GRADS: usize = 50;
const DEPT_FACULTY: usize = 40;
const DEPT_GRAD_COURSES: usize = 20;

/// A point query with a constant nobody asked about before.
pub struct PointQuery {
    /// 0, 1, 2: which of the three templates.
    pub template: usize,
    pub text: String,
}

/// Draws (university, department, member) triples without replacement, so
/// no two point queries of a template share a canonical key.
struct FreshConstants {
    rng: Prng,
    universities: usize,
    departments: usize,
    used: [HashSet<(usize, usize, usize)>; 3],
}

impl FreshConstants {
    fn draw(&mut self, template: usize) -> PointQuery {
        let members = [DEPT_GRADS, DEPT_FACULTY, 1][template];
        let space = self.universities * self.departments * members;
        let triple = loop {
            let t = (
                self.rng.gen_range(0..self.universities),
                self.rng.gen_range(0..self.departments),
                self.rng.gen_range(0..members),
            );
            // Once a namespace is used up, constants may repeat.
            if self.used[template].len() >= space || self.used[template].insert(t) {
                break t;
            }
        };
        let (u, d, m) = triple;
        let text = match template {
            0 => format!("q(C) :- takesCourse(u{u}d{d}_gr{m}, C), Course(C)."),
            1 => format!("q(S) :- Student(S), advisor(S, u{u}d{d}_fac{m})."),
            _ => format!("q(P, C) :- worksFor(P, u{u}d{d}_dept), teacherOf(P, C), Professor(P)."),
        };
        PointQuery { template, text }
    }
}

pub enum Request {
    /// `ANSWER <handle>` on prepared query number `.0`.
    Answer(usize),
    /// `QUERY <text>`.
    Point(PointQuery),
}

/// One connection's requests: of every four, one `ANSWER` on a prepared
/// handle and one `QUERY` from each point template — the shares are exact,
/// only the constants and the handle order come from the seed.
pub fn schedule(
    seed: u64,
    config: &LubmConfig,
    connection: usize,
    requests: usize,
) -> Vec<Request> {
    let mut order = Prng::seed_from_u64(sub_seed(seed, &format!("order-{connection}")));
    let mut fresh = FreshConstants {
        rng: Prng::seed_from_u64(sub_seed(seed, &format!("constants-{connection}"))),
        universities: config.universities,
        departments: config.departments_per_university,
        used: Default::default(),
    };
    let prepared = lubm_queries().len();
    let mut handles: Vec<usize> = Vec::new();
    (0..requests)
        .map(|i| match i % 4 {
            0 => {
                if handles.is_empty() {
                    // A fresh seeded permutation of the eight handles.
                    handles = (0..prepared).collect();
                    for k in (1..prepared).rev() {
                        handles.swap(k, order.gen_range(0..k + 1));
                    }
                }
                Request::Answer(handles.pop().expect("refilled above"))
            }
            // The two connections draw from one namespace each with their
            // own stream: a constant both happen to pick is a cache hit the
            // server may legitimately serve, and at 1M the namespaces are
            // 38 250, 30 600 and 765 constants wide.
            t => Request::Point(fresh.draw(t - 1)),
        })
        .collect()
}

/// One update batch of `lubm_rw` with what it must do.
pub struct Batch {
    pub inserts: Vec<Atom>,
    pub retracts: Vec<Atom>,
}

/// `count` batches of 4 inserts + 2 retracts over `GraduateStudent`,
/// `takesCourse` and `advisor`: a new graduate student enrols in two
/// graduate courses of a department and gets an advisor there; an existing
/// one (never the same twice) leaves, losing class membership and advisor.
/// Every insert is new and every retract present, so each batch is exactly
/// six effective operations.
pub fn batches(seed: u64, lubm: &Lubm, count: usize) -> Vec<Batch> {
    let mut rng = Prng::seed_from_u64(sub_seed(seed, "batches"));
    let advisor = Predicate::new("advisor", 2);
    let mut advised: Vec<&Atom> = lubm.facts.iter().filter(|f| f.pred == advisor).collect();
    assert!(
        advised.len() >= count,
        "more batches than graduate students"
    );
    let unary = |name: &str, a: &Term| Atom::new(Predicate::new(name, 1), vec![a.clone()]);
    let binary =
        |name: &str, a: &Term, b: Term| Atom::new(Predicate::new(name, 2), vec![a.clone(), b]);
    (0..count)
        .map(|i| {
            let u = rng.gen_range(0..lubm.config.universities);
            let d = rng.gen_range(0..lubm.config.departments_per_university);
            let course = rng.gen_range(0..DEPT_GRAD_COURSES);
            let faculty = rng.gen_range(0..DEPT_FACULTY);
            let constant = |kind: &str, n: usize| Term::constant(&format!("u{u}d{d}_{kind}{n}"));
            let student = Term::constant(&format!("bench_gr{i}"));
            let leaving = advised.swap_remove(rng.gen_range(0..advised.len()));
            Batch {
                inserts: vec![
                    unary("GraduateStudent", &student),
                    binary("takesCourse", &student, constant("gcrs", course)),
                    binary(
                        "takesCourse",
                        &student,
                        constant("gcrs", (course + 1) % DEPT_GRAD_COURSES),
                    ),
                    binary("advisor", &student, constant("fac", faculty)),
                ],
                retracts: vec![unary("GraduateStudent", &leaving.args[0]), leaving.clone()],
            }
        })
        .collect()
}

/// The fact set after `applied` batches, for the reference evaluator.
pub fn facts_after<'a>(lubm: &'a Lubm, applied: &'a [Batch]) -> impl Iterator<Item = &'a Atom> {
    let gone: HashSet<&Atom> = applied.iter().flat_map(|b| &b.retracts).collect();
    lubm.facts
        .iter()
        .filter(move |f| !gone.contains(f))
        .chain(applied.iter().flat_map(|b| &b.inserts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = lubm(1, 1_000);
        let b = lubm(1, 1_000);
        let c = lubm(2, 1_000);
        assert_eq!(a.facts, b.facts);
        assert_ne!(a.facts, c.facts);
        let texts = |seed: u64| -> Vec<String> {
            schedule(seed, &a.config, 0, 40)
                .into_iter()
                .map(|r| match r {
                    Request::Answer(h) => format!("ANSWER {h}"),
                    Request::Point(p) => p.text,
                })
                .collect()
        };
        assert_eq!(texts(1), texts(1));
        assert_ne!(texts(1), texts(2));
        assert_eq!(
            suite(5, 50, 20).ontologies[0].1,
            suite(5, 50, 20).ontologies[0].1
        );
    }

    #[test]
    fn schedule_has_exact_shares_and_fresh_constants() {
        let config = LubmConfig::with_at_least(1_000_000, 3);
        let requests = schedule(9, &config, 1, 400);
        let mut per_template = [0usize; 3];
        let mut answers = [0usize; 8];
        let mut seen = HashSet::new();
        for r in &requests {
            match r {
                Request::Answer(h) => answers[*h] += 1,
                Request::Point(p) => {
                    per_template[p.template] += 1;
                    assert!(seen.insert(p.text.clone()), "{} repeats", p.text);
                }
            }
        }
        assert_eq!(per_template, [100, 100, 100]);
        assert!(answers.iter().all(|&n| n == 12 || n == 13), "{answers:?}");
    }

    #[test]
    fn batches_are_six_effective_operations() {
        let data = lubm(4, 1_000);
        let all: HashSet<&Atom> = data.facts.iter().collect();
        let made = batches(4, &data, 20);
        let mut gone = HashSet::new();
        for batch in &made {
            assert_eq!((batch.inserts.len(), batch.retracts.len()), (4, 2));
            assert!(batch.inserts.iter().all(|f| !all.contains(f)));
            for f in &batch.retracts {
                assert!(
                    all.contains(f) && gone.insert(f.clone()),
                    "{f} retracted twice"
                );
            }
        }
        assert_eq!(facts_after(&data, &made).count(), data.facts.len() + 20 * 2);
    }
}
