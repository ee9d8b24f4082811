//! `e2e --verify`: the references themselves, re-derived at a scale where
//! the semantics oracle is affordable.
//!
//! The workloads check every answer against the reference evaluator on the
//! rewriting the system compiled. That leaves two things unchecked: the
//! rewriting, and the evaluator. Here, on small ABoxes, the system's
//! answers, the evaluator's, and `nyaya_sql::reference`'s row-at-a-time
//! oracle are all compared with the certain answers `chase(D, Σ) ⊨ q` from
//! `ExecutorKind::Chase`, and the rewriting sizes with `expected.json`.
//!
//! `e2e --write-expected` regenerates `expected.json` at full scale and
//! refuses to write a cell on which system and evaluator disagree.

use std::collections::BTreeMap;

use nyaya::ontologies::{load, BenchmarkId};
use nyaya::sql::reference::execute_ucq_reference;
use nyaya::{ExecutorKind, KnowledgeBase};

use crate::check::{same, Digest, Expected, ExpectedCell, RefDb};
use crate::inputs::{self, DEFAULT_SEED};
use crate::lubm_join::{self, LUBM_FACTS};
use crate::metrics::Report;
use crate::suite_cold::{ABOX_FACTS, ABOX_INDIVIDUALS};

/// The chase is exponential in places the rewriting is not (S-q3 takes
/// 40 s on the workloads' 2 000-fact ABox); at this size every cell's
/// chase saturates in well under a second.
const VERIFY_FACTS: usize = 120;
const VERIFY_INDIVIDUALS: usize = 30;

/// One query on one knowledge base: system vs chase vs row oracle vs the
/// reference evaluator; returns the rewriting's CQ count and whether the
/// chase saturated (a truncated chase only bounds the answers from below).
fn cross_check(
    kb: &KnowledgeBase,
    refdb: &mut RefDb,
    name: &str,
    text: &str,
) -> Result<(u64, bool), String> {
    let err = |e: nyaya::NyayaError| format!("{name}: {e}");
    let prepared = kb.prepare_text(text).map_err(err)?;
    let system = kb.execute(&prepared).map_err(err)?;
    let got = Digest::of_terms(&system.tuples);
    let chase = kb.execute_on(&prepared, ExecutorKind::Chase).map_err(err)?;
    if chase.complete {
        same(
            &format!("{name}: system vs chase"),
            got,
            Digest::of_terms(&chase.tuples),
        )?;
    } else if !chase.tuples.is_subset(&system.tuples) {
        // A truncated chase is still sound: a lower bound on the answers.
        return Err(format!("{name}: the chase found answers the system lacks"));
    }
    let (cqs, reference) = refdb.answers(kb, &prepared)?;
    same(&format!("{name}: reference evaluator"), reference, got)?;
    if kb.execution_plan(&prepared).map_err(err)?.is_none() {
        let compiled = kb.rewriting(&prepared).map_err(err)?;
        let oracle = execute_ucq_reference(kb.snapshot().database(), &compiled.ucq);
        same(
            &format!("{name}: row oracle"),
            Digest::of_terms(&oracle),
            got,
        )?;
    }
    Ok((cqs, chase.complete))
}

fn log(name: &str, outcome: Result<bool, String>) -> Result<(), String> {
    match &outcome {
        Ok(true) => println!("verify {name} ok (equal to the saturated chase)"),
        Ok(false) => println!("verify {name} ok (contains the truncated chase)"),
        Err(_) => println!("verify {name} FAILED"),
    }
    outcome.map(|_| ())
}

pub fn verify(seed: u64, report: &mut Report) {
    let expected = Expected::embedded();
    let suite = inputs::suite(seed, VERIFY_FACTS, VERIFY_INDIVIDUALS);
    for (bench, abox) in &suite.ontologies {
        let kb = KnowledgeBase::builder()
            .ontology(bench.raw.clone())
            .facts(abox.clone())
            .build()
            .expect("suite knowledge base builds");
        let mut refdb = RefDb::new(abox);
        for cell in suite
            .cells
            .iter()
            .filter(|c| suite.ontologies[c.ontology].0.id == bench.id)
        {
            let outcome = cross_check(&kb, &mut refdb, &cell.name, cell.query).and_then(
                |(cqs, saturated)| {
                    // Rewriting sizes do not depend on the data.
                    match expected.cell("suite_cold", &cell.name) {
                        Some(want) if want.cqs == cqs => Ok(saturated),
                        Some(want) => Err(format!(
                            "{}: rewriting has {cqs} CQs, expected.json says {}",
                            cell.name, want.cqs
                        )),
                        None => Err(format!("expected.json has no cell {}", cell.name)),
                    }
                },
            );
            report.op(log(&cell.name, outcome));
        }
    }

    // LUBM: one department, the eight prepared queries and one point query
    // per template.
    let lubm = inputs::lubm(seed, 1_000);
    let kb = KnowledgeBase::builder()
        .ontology(load(BenchmarkId::U).raw)
        .facts(lubm.facts.clone())
        .build()
        .expect("LUBM knowledge base builds");
    let mut refdb = RefDb::new(&lubm.facts);
    let mut queries = inputs::lubm_queries();
    for request in inputs::schedule(seed, &lubm.config, 0, 4) {
        if let inputs::Request::Point(p) = request {
            queries.push((format!("point-template{}", p.template + 1), p.text));
        }
    }
    for (name, text) in &queries {
        let outcome = cross_check(&kb, &mut refdb, name, text).and_then(|(cqs, saturated)| {
            match expected.cell("lubm", name) {
                Some(want) if want.cqs != cqs => Err(format!(
                    "{name}: rewriting has {cqs} CQs, expected.json says {}",
                    want.cqs
                )),
                _ => Ok(saturated),
            }
        });
        report.op(log(name, outcome));
    }
}

/// Regenerate `expected.json` at the default seed and full scale.
pub fn write_expected(path: &str) -> Result<(), String> {
    let mut sections: BTreeMap<String, BTreeMap<String, ExpectedCell>> = BTreeMap::new();

    let suite = inputs::suite(DEFAULT_SEED, ABOX_FACTS, ABOX_INDIVIDUALS);
    let mut cells = BTreeMap::new();
    for cell in &suite.cells {
        let (bench, abox) = &suite.ontologies[cell.ontology];
        let kb = KnowledgeBase::builder()
            .ontology(bench.raw.clone())
            .facts(abox.clone())
            .build()
            .map_err(|e| e.to_string())?;
        let answers = Digest::of_terms(
            &kb.answer_text(cell.query)
                .map_err(|e| e.to_string())?
                .tuples,
        );
        let prepared = kb.prepare_text(cell.query).map_err(|e| e.to_string())?;
        let (cqs, reference) = RefDb::new(abox).answers(&kb, &prepared)?;
        same(&cell.name, answers, reference)?;
        cells.insert(cell.name.clone(), ExpectedCell { cqs, answers });
    }
    sections.insert("suite_cold".to_owned(), cells);

    let lubm = inputs::lubm(DEFAULT_SEED, LUBM_FACTS);
    let (ready, _) = lubm_join::setup(&lubm, true);
    let (reference, cqs) = lubm_join::references(&ready, &lubm.facts);
    let mut cells = BTreeMap::new();
    for (q, (name, _)) in inputs::lubm_queries().iter().enumerate() {
        let answers = Digest::of_terms(
            &ready
                .kb
                .execute(&ready.prepared[q])
                .map_err(|e| e.to_string())?
                .tuples,
        );
        same(name, answers, reference[q])?;
        cells.insert(
            name.clone(),
            ExpectedCell {
                cqs: cqs[q],
                answers,
            },
        );
    }
    sections.insert("lubm".to_owned(), cells);

    std::fs::write(path, Expected::render(DEFAULT_SEED, &sections))
        .map_err(|e| format!("{path}: {e}"))
}
