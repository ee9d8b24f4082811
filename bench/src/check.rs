//! Correctness references that are not the code under test.
//!
//! - [`Digest`]: an order-independent fingerprint of an answer set, the
//!   same whether computed from in-process `Term` tuples or from the
//!   strings a server sent.
//! - [`RefDb`]: a deliberately plain evaluator (per-atom hash lookups over
//!   `Vec<Vec<Term>>` tables, nothing shared with `nyaya_sql`) for UCQs and
//!   non-recursive Datalog programs. It checks the engine, the caches, IVM
//!   and the wire at any seed; the rewriting it evaluates is checked
//!   against the chase by `e2e --verify` and pinned by `expected.json`.
//! - [`Expected`]: the committed per-cell UCQ sizes (seed-independent) and
//!   answer fingerprints at the default seed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

use nyaya::core::{Atom, ConjunctiveQuery, DatalogProgram, Predicate, Symbol, Term, UnionQuery};
use nyaya::{KnowledgeBase, PreparedQuery};

use crate::json::Json;

pub type Tuples = BTreeSet<Vec<Term>>;

/// Answer count plus an order-independent 64-bit fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Spread one tuple's FNV state over all 64 bits before the commutative sum.
fn finish(hash: u64) -> u64 {
    let mut z = hash.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Digest {
    /// Fingerprint tuples of rendered terms (what the wire carries).
    pub fn of_strings<'a, T, I>(tuples: I) -> Digest
    where
        T: AsRef<str> + 'a,
        I: IntoIterator<Item = &'a Vec<T>>,
    {
        let mut digest = Digest { count: 0, hash: 0 };
        for tuple in tuples {
            let mut h = FNV_OFFSET;
            for term in tuple {
                h = fnv(h, term.as_ref().as_bytes());
                h = fnv(h, &[0x1f]);
            }
            digest.count += 1;
            digest.hash = digest.hash.wrapping_add(finish(h));
        }
        digest
    }

    /// Fingerprint in-process tuples, rendered the way the server renders
    /// them (`Term`'s `Display`).
    pub fn of_terms(tuples: &Tuples) -> Digest {
        let mut digest = Digest { count: 0, hash: 0 };
        let mut text = String::new();
        for tuple in tuples {
            let mut h = FNV_OFFSET;
            for term in tuple {
                text.clear();
                write!(text, "{term}").expect("writing to a String");
                h = fnv(h, text.as_bytes());
                h = fnv(h, &[0x1f]);
            }
            digest.count += 1;
            digest.hash = digest.hash.wrapping_add(finish(h));
        }
        digest
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} tuples #{}", self.count, self.hex())
    }
}

/// `Ok` when `got` equals `want`, else a message naming `what`.
pub fn same(what: &str, got: Digest, want: Digest) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, reference says {want}"))
    }
}

/// Values of the key columns → ids of the rows that have them.
type RowIndex = HashMap<Vec<Term>, Vec<u32>>;

/// The reference evaluator's database: one row vector per predicate, and
/// hash indexes (predicate, bound columns) → rows, built on first use.
pub struct RefDb {
    tables: HashMap<Predicate, Vec<Vec<Term>>>,
    indexes: HashMap<(Predicate, Vec<usize>), RowIndex>,
}

impl RefDb {
    pub fn new<'a>(facts: impl IntoIterator<Item = &'a Atom>) -> RefDb {
        let mut tables: HashMap<Predicate, Vec<Vec<Term>>> = HashMap::new();
        for fact in facts {
            tables.entry(fact.pred).or_default().push(fact.args.clone());
        }
        RefDb {
            tables,
            indexes: HashMap::new(),
        }
    }

    /// What `kb` compiled `query` to — the UCQ rewriting, or the program
    /// `Strategy::Auto` chose — evaluated here: (CQs of the rewriting,
    /// reference answers). Once the query has run, both lookups are cache
    /// hits.
    pub fn answers(
        &mut self,
        kb: &KnowledgeBase,
        query: &PreparedQuery,
    ) -> Result<(u64, Digest), String> {
        match kb.execution_plan(query).map_err(|e| e.to_string())? {
            Some(program) => Ok((
                program.estimated_dnf as u64,
                Digest::of_terms(&self.eval_program(&program.program)),
            )),
            None => {
                let compiled = kb.rewriting(query).map_err(|e| e.to_string())?;
                Ok((
                    compiled.ucq.size() as u64,
                    Digest::of_terms(&self.eval_ucq(&compiled.ucq)),
                ))
            }
        }
    }

    /// Answers of a union of conjunctive queries (set semantics).
    pub fn eval_ucq(&mut self, ucq: &UnionQuery) -> Tuples {
        let mut out = Tuples::new();
        for cq in ucq.iter() {
            self.eval_cq(cq, &mut out);
        }
        out
    }

    /// Answers of a non-recursive Datalog program: defined predicates are
    /// materialized in dependency order, then the goal atom is read off.
    pub fn eval_program(&mut self, program: &DatalogProgram) -> Tuples {
        let order = program
            .stratum_order()
            .expect("the rewriter only emits non-recursive programs");
        for pred in &order {
            let mut rows = Tuples::new();
            for rule in program.rules.iter().filter(|r| r.head.pred == *pred) {
                let cq = ConjunctiveQuery::new(rule.head.args.clone(), rule.body.clone());
                self.eval_cq(&cq, &mut rows);
            }
            self.indexes.retain(|(p, _), _| p != pred);
            self.tables.insert(*pred, rows.into_iter().collect());
        }
        let mut out = Tuples::new();
        if program
            .rules
            .iter()
            .any(|r| r.head.pred == program.goal.pred)
        {
            let goal = ConjunctiveQuery::new(program.goal.args.clone(), vec![program.goal.clone()]);
            self.eval_cq(&goal, &mut out);
        }
        for pred in &order {
            self.tables.remove(pred);
            self.indexes.retain(|(p, _), _| p != pred);
        }
        out
    }

    fn eval_cq(&mut self, cq: &ConjunctiveQuery, out: &mut Tuples) {
        let mut slots: HashMap<Symbol, usize> = HashMap::new();
        for atom in &cq.body {
            for term in &atom.args {
                if let Term::Var(v) = term {
                    let next = slots.len();
                    slots.entry(*v).or_insert(next);
                }
            }
        }
        let mut bound = vec![false; slots.len()];
        let mut partial: Vec<Vec<Option<Term>>> = vec![vec![None; slots.len()]];
        let mut remaining: Vec<&Atom> = cq.body.iter().collect();
        while !remaining.is_empty() && !partial.is_empty() {
            // Next: the atom with the most bound arguments; ties go to the
            // smaller table. Keeps every step a lookup, never a product,
            // for the connected queries the workloads use.
            let is_bound = |t: &Term| match t {
                Term::Var(v) => bound[slots[v]],
                _ => true,
            };
            let pick = (0..remaining.len())
                .max_by_key(|&i| {
                    let atom = remaining[i];
                    let n = atom.args.iter().filter(|t| is_bound(t)).count();
                    let size = self.tables.get(&atom.pred).map_or(0, Vec::len);
                    (n, std::cmp::Reverse(size))
                })
                .expect("remaining is non-empty");
            let atom = remaining.swap_remove(pick);
            let key_cols: Vec<usize> = (0..atom.args.len())
                .filter(|&c| is_bound(&atom.args[c]))
                .collect();
            partial = self.extend(atom, &key_cols, &slots, partial);
            for term in &atom.args {
                if let Term::Var(v) = term {
                    bound[slots[v]] = true;
                }
            }
        }
        for binding in partial {
            out.insert(
                cq.head
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => binding[slots[v]].clone().expect("safe query"),
                        other => other.clone(),
                    })
                    .collect(),
            );
        }
    }

    /// Join `partial` with `atom`, looking rows up by the columns already
    /// bound (`key_cols`), and checking every column of each candidate.
    fn extend(
        &mut self,
        atom: &Atom,
        key_cols: &[usize],
        slots: &HashMap<Symbol, usize>,
        partial: Vec<Vec<Option<Term>>>,
    ) -> Vec<Vec<Option<Term>>> {
        let Some(rows) = self.tables.get(&atom.pred) else {
            return Vec::new();
        };
        let all: Vec<u32>;
        let index = if key_cols.is_empty() {
            all = (0..rows.len() as u32).collect();
            None
        } else {
            all = Vec::new();
            Some(
                self.indexes
                    .entry((atom.pred, key_cols.to_vec()))
                    .or_insert_with(|| {
                        let mut index = RowIndex::new();
                        for (id, row) in rows.iter().enumerate() {
                            let key = key_cols.iter().map(|&c| row[c].clone()).collect();
                            index.entry(key).or_default().push(id as u32);
                        }
                        index
                    }),
            )
        };
        let mut next = Vec::new();
        for binding in partial {
            let candidates: &[u32] = match &index {
                None => &all,
                Some(index) => {
                    let key: Vec<Term> = key_cols
                        .iter()
                        .map(|&c| match &atom.args[c] {
                            Term::Var(v) => binding[slots[v]].clone().expect("bound column"),
                            other => other.clone(),
                        })
                        .collect();
                    index.get(&key).map_or(&[], Vec::as_slice)
                }
            };
            'rows: for &id in candidates {
                let row = &rows[id as usize];
                let mut extended = binding.clone();
                for (term, value) in atom.args.iter().zip(row) {
                    match term {
                        Term::Var(v) => match &extended[slots[v]] {
                            Some(have) if have != value => continue 'rows,
                            Some(_) => {}
                            None => extended[slots[v]] = Some(value.clone()),
                        },
                        other if other != value => continue 'rows,
                        _ => {}
                    }
                }
                next.push(extended);
            }
        }
        next
    }
}

/// One pinned expectation: the size of the compiled rewriting and, at the
/// default seed, the answers.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpectedCell {
    /// CQs in the perfect rewriting (or in the DNF a program stands for).
    pub cqs: u64,
    pub answers: Digest,
}

/// `expected.json`, embedded at build time.
pub struct Expected {
    pub seed: u64,
    sections: BTreeMap<String, BTreeMap<String, ExpectedCell>>,
}

impl Expected {
    pub fn embedded() -> Expected {
        Expected::parse(include_str!("../expected.json"))
            .expect("bench/expected.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text)?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("expected.json: no seed")?;
        let mut sections = BTreeMap::new();
        for name in ["suite_cold", "lubm"] {
            let Some(Json::Obj(cells)) = doc.get(name) else {
                return Err(format!("expected.json: no section {name}"));
            };
            let mut section = BTreeMap::new();
            for (cell, value) in cells {
                let field = |key: &str| {
                    value
                        .get(key)
                        .ok_or_else(|| format!("expected.json: {name}.{cell} has no {key}"))
                };
                section.insert(
                    cell.clone(),
                    ExpectedCell {
                        cqs: field("cqs")?.as_u64().ok_or("cqs is not a count")?,
                        answers: Digest {
                            count: field("answers")?.as_u64().ok_or("answers is not a count")?,
                            hash: u64::from_str_radix(
                                field("digest")?.as_str().ok_or("digest is not a string")?,
                                16,
                            )
                            .map_err(|e| format!("digest of {name}.{cell}: {e}"))?,
                        },
                    },
                );
            }
            sections.insert(name.to_owned(), section);
        }
        Ok(Expected { seed, sections })
    }

    pub fn cell(&self, section: &str, cell: &str) -> Option<&ExpectedCell> {
        self.sections.get(section)?.get(cell)
    }

    /// Check one cell: the rewriting size at any seed, the answers only at
    /// the seed the file was written for.
    pub fn check(
        &self,
        section: &str,
        cell: &str,
        seed: u64,
        cqs: u64,
        answers: Digest,
    ) -> Result<(), String> {
        let want = self
            .cell(section, cell)
            .ok_or_else(|| format!("expected.json has no cell {section}.{cell}"))?;
        if cqs != want.cqs {
            return Err(format!(
                "{cell}: rewriting has {cqs} CQs, expected.json says {}",
                want.cqs
            ));
        }
        if seed == self.seed {
            same(&format!("{cell} vs expected.json"), answers, want.answers)?;
        }
        Ok(())
    }

    /// Render a fresh `expected.json`.
    pub fn render(
        seed: u64,
        sections: &BTreeMap<String, BTreeMap<String, ExpectedCell>>,
    ) -> String {
        let mut doc = BTreeMap::new();
        doc.insert("seed".to_owned(), Json::Num(seed as f64));
        for (name, cells) in sections {
            let cells = cells
                .iter()
                .map(|(cell, want)| {
                    let mut fields = BTreeMap::new();
                    fields.insert("cqs".to_owned(), Json::Num(want.cqs as f64));
                    fields.insert("answers".to_owned(), Json::Num(want.answers.count as f64));
                    fields.insert("digest".to_owned(), Json::Str(want.answers.hex()));
                    (cell.clone(), Json::Obj(fields))
                })
                .collect();
            doc.insert(name.clone(), Json::Obj(cells));
        }
        let mut text = Json::Obj(doc).render(2);
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya::parser::parse_query;

    fn facts() -> Vec<Atom> {
        vec![
            Atom::make("p", ["a", "b"]),
            Atom::make("p", ["b", "c"]),
            Atom::make("p", ["c", "c"]),
            Atom::make("r", ["b"]),
        ]
    }

    #[test]
    fn digest_is_order_independent_and_matches_across_representations() {
        let tuples: Tuples = [
            vec![Term::constant("a"), Term::constant("b")],
            vec![Term::constant("c"), Term::constant("d")],
        ]
        .into_iter()
        .collect();
        let strings = vec![
            vec!["c".to_owned(), "d".to_owned()],
            vec!["a".to_owned(), "b".to_owned()],
        ];
        assert_eq!(Digest::of_terms(&tuples), Digest::of_strings(&strings));
        let other = vec![
            vec!["a".to_owned(), "bc".to_owned()],
            vec!["".to_owned(), "d".to_owned()],
        ];
        assert_ne!(Digest::of_terms(&tuples), Digest::of_strings(&other));
    }

    #[test]
    fn reference_evaluator_joins_filters_and_repeats_variables() {
        let mut db = RefDb::new(&facts());
        let eval = |db: &mut RefDb, text: &str| {
            let q = parse_query(text).unwrap();
            let got = db.eval_ucq(&UnionQuery::new(vec![q]));
            got.iter()
                .map(|t| {
                    t.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            eval(&mut db, "q(X, Z) :- p(X, Y), p(Y, Z)."),
            ["a,c", "b,c", "c,c"]
        );
        assert_eq!(eval(&mut db, "q(X) :- p(X, X)."), ["c"]);
        assert_eq!(eval(&mut db, "q(X) :- p(a, X), r(X)."), ["b"]);
        assert_eq!(
            eval(&mut db, "q(X) :- r(X), missing(X)."),
            Vec::<String>::new()
        );
    }

    #[test]
    fn reference_evaluator_runs_programs_bottom_up() {
        use nyaya::core::DatalogRule;
        let atom = |p: &str, args: &[&str]| {
            Atom::new(
                Predicate::new(p, args.len()),
                args.iter()
                    .map(|a| {
                        if a.chars().next().unwrap().is_uppercase() {
                            Term::var(a)
                        } else {
                            Term::constant(a)
                        }
                    })
                    .collect(),
            )
        };
        let program = DatalogProgram::new(
            atom("goal", &["X"]),
            vec![
                DatalogRule::new(
                    atom("mid", &["X", "Z"]),
                    vec![atom("p", &["X", "Y"]), atom("p", &["Y", "Z"])],
                ),
                DatalogRule::new(
                    atom("goal", &["X"]),
                    vec![atom("mid", &["X", "c"]), atom("r", &["X"])],
                ),
                DatalogRule::new(atom("goal", &["X"]), vec![atom("p", &["X", "b"])]),
            ],
        );
        let mut db = RefDb::new(&facts());
        let got: Vec<String> = db
            .eval_program(&program)
            .iter()
            .map(|t| t[0].to_string())
            .collect();
        assert_eq!(got, ["a", "b"]);
        assert!(!db.tables.contains_key(&Predicate::new("mid", 2)));
    }

    #[test]
    fn committed_expectations_agree_with_the_table_1_cells_the_repository_pins() {
        // The NY / NY* sizes `tests/benchmark_shape.rs` asserts against the
        // paper's Table 1 (V, S, U all five queries; P5 q1-q3).
        let table1 = [
            ("V", &[15u64, 10, 72, 185, 30][..]),
            ("S", &[6, 2, 4, 4, 8][..]),
            ("U", &[2, 1, 4, 2, 10][..]),
            ("P5", &[6, 10, 13][..]),
        ];
        let expected = Expected::embedded();
        assert_eq!(expected.seed, crate::inputs::DEFAULT_SEED);
        for (ontology, sizes) in table1 {
            for (q, size) in sizes.iter().enumerate() {
                let cell = format!("{ontology}-q{}", q + 1);
                assert_eq!(
                    expected.cell("suite_cold", &cell).unwrap().cqs,
                    *size,
                    "{cell}"
                );
            }
        }
    }

    #[test]
    fn expected_roundtrips_and_checks() {
        let mut cells = BTreeMap::new();
        cells.insert(
            "V-q1".to_owned(),
            ExpectedCell {
                cqs: 15,
                answers: Digest {
                    count: 3,
                    hash: u64::MAX - 1,
                },
            },
        );
        let mut sections = BTreeMap::new();
        sections.insert("suite_cold".to_owned(), cells);
        sections.insert("lubm".to_owned(), BTreeMap::new());
        let expected = Expected::parse(&Expected::render(7, &sections)).unwrap();
        let good = Digest {
            count: 3,
            hash: u64::MAX - 1,
        };
        let bad = Digest { count: 3, hash: 1 };
        assert!(expected.check("suite_cold", "V-q1", 7, 15, good).is_ok());
        assert!(expected.check("suite_cold", "V-q1", 7, 16, good).is_err());
        assert!(expected.check("suite_cold", "V-q1", 7, 15, bad).is_err());
        // Another seed: only the seed-independent rewriting size is pinned.
        assert!(expected.check("suite_cold", "V-q1", 8, 15, bad).is_ok());
        assert!(expected.check("suite_cold", "nope", 7, 15, good).is_err());
    }
}
