//! A version-3 segment decodes straight into columns; the bulk-load path
//! over the same facts is the oracle.
//!
//! `decode_database` builds each table from its dictionaries and index
//! tuples without materializing a fact. Before it did, a segment decoded
//! to one `Atom` per row, in segment order, through
//! `Database::from_facts`. For every case below the two must agree on the
//! rows under each id, every column's values and postings, the distinct
//! counts, and the analytic memory accounting, byte for byte.

use nyaya_core::term::canonical_cmp_rows;
use nyaya_core::{Atom, Predicate, Term};
use nyaya_ontologies::rng::Prng;
use nyaya_ontologies::{lubm_abox, random_database, FuzzConfig, LubmConfig};
use nyaya_sql::{decode_database, encode_database, Database};

/// The old route: the facts of `db` in segment order (tables by name
/// and arity, rows in canonical row order) through the bulk loader.
fn old_route(db: &Database) -> Database {
    let mut facts: Vec<Atom> = db.facts().collect();
    facts.sort_by(|a, b| {
        (a.pred.sym.name(), a.pred.arity)
            .cmp(&(b.pred.sym.name(), b.pred.arity))
            .then_with(|| canonical_cmp_rows(&a.args, &b.args))
    });
    Database::from_facts(facts)
}

fn assert_same(direct: &Database, oracle: &Database, case: &str) {
    let mut preds: Vec<Predicate> = oracle.predicates().collect();
    preds.sort_by_key(|p| (p.sym.name(), p.arity));
    let mut direct_preds: Vec<Predicate> = direct.predicates().collect();
    direct_preds.sort_by_key(|p| (p.sym.name(), p.arity));
    assert_eq!(direct_preds, preds, "{case}: tables");
    assert_eq!(direct.len(), oracle.len(), "{case}: fact count");
    for &pred in &preds {
        assert_eq!(
            direct.rows_vec(pred),
            oracle.rows_vec(pred),
            "{case}: rows of {pred:?} by id"
        );
        for col in 0..pred.arity {
            let values = oracle.sorted_values(pred, col);
            assert_eq!(
                direct.sorted_values(pred, col),
                values,
                "{case}: values of {pred:?} column {col}"
            );
            assert_eq!(
                direct.distinct(pred, col),
                oracle.distinct(pred, col),
                "{case}: distinct count of {pred:?} column {col}"
            );
            for value in &values {
                assert_eq!(
                    direct.posting(pred, col, value),
                    oracle.posting(pred, col, value),
                    "{case}: posting of {value} in {pred:?} column {col}"
                );
            }
        }
    }
    assert_eq!(
        direct.memory_stats(),
        oracle.memory_stats(),
        "{case}: memory accounting"
    );
}

/// Encode `db`, decode it straight into columns, and compare with the
/// old route; the direct decode also re-encodes to the same bytes.
fn check(db: &Database, case: &str) {
    let bytes = encode_database(db);
    let direct = decode_database(&bytes).expect("own segment bytes decode");
    assert_eq!(encode_database(&direct), bytes, "{case}: canonical bytes");
    assert_same(&direct, &old_route(db), case);
}

#[test]
fn direct_decode_matches_the_bulk_loader_on_the_lockdown_cases() {
    // The cases of `columnar_lockdown`'s segment test.
    let config = FuzzConfig::default();
    for seed in 0..40u64 {
        let mut rng = Prng::seed_from_u64(0x5E6_3000 ^ seed);
        let db = Database::from_facts(random_database(&mut rng, &config));
        check(&db, &format!("fuzz seed {seed}"));
    }
    let lubm = lubm_abox(&LubmConfig {
        universities: 1,
        departments_per_university: 15,
        seed: 7,
    });
    check(&Database::from_facts(lubm), "LUBM 1x15");
}

#[test]
fn direct_decode_matches_the_bulk_loader_on_a_small_lubm_abox() {
    // `lubm_determinism`'s configuration.
    let facts = lubm_abox(&LubmConfig {
        universities: 2,
        departments_per_university: 3,
        seed: 0xD15EED,
    });
    check(&Database::from_facts(facts), "LUBM 2x3");
}

/// A database holds constants, so a segment whose dictionary holds a
/// labelled null or a function term decodes to no table: it is a typed
/// `CodecError` at the term's byte.
#[test]
fn a_segment_dictionary_holding_a_null_or_a_function_term_is_a_codec_error() {
    let text = |s: &str| [&(s.len() as u32).to_le_bytes()[..], s.as_bytes()].concat();
    // Version 3, one table `holds/1` of one row: a dictionary of one
    // entry, `term`, then the row's index into it.
    let payload = |term: &[u8]| {
        let mut out = 3u32.to_le_bytes().to_vec();
        out.extend(1u32.to_le_bytes());
        out.extend(text("holds"));
        out.extend(1u32.to_le_bytes());
        out.extend(1u64.to_le_bytes());
        out.extend(1u32.to_le_bytes());
        let at = out.len();
        out.extend(term);
        out.extend(0u32.to_le_bytes());
        (out, at)
    };
    let constant = [vec![0u8], text("c")].concat();
    let (valid, _) = payload(&constant);
    let db = decode_database(&valid).expect("the constant's payload decodes");
    assert!(db.contains(&Atom::make("holds", ["c"])));
    // A labelled null (tag 1) and the function term `sk0(c)` (tag 3).
    let null = [vec![1u8], 4u64.to_le_bytes().to_vec()].concat();
    let skolem = [
        vec![3u8],
        text("sk0"),
        1u32.to_le_bytes().to_vec(),
        constant,
    ]
    .concat();
    for term in [null, skolem] {
        let (bytes, at) = payload(&term);
        let Err(err) = decode_database(&bytes) else {
            panic!("a dictionary holding tag {} decoded", term[0]);
        };
        assert_eq!(err.offset, at, "{err}");
        assert!(err.detail.contains("not a constant"), "{err}");
    }
}

#[test]
fn direct_decode_matches_the_bulk_loader_after_retracts_and_folds() {
    let pred = Predicate::new("edge", 2);
    let edge = |a: u32, b: u32| {
        Atom::new(
            pred,
            vec![
                Term::constant(&format!("n{a}")),
                Term::constant(&format!("n{b}")),
            ],
        )
    };
    let mut db = Database::from_facts((0..400).map(|i| edge(i % 37, i)));
    let mut snapshots = Vec::new();
    for round in 0..30u32 {
        // Keep older snapshots alive so writes copy deltas and fold.
        snapshots.push(db.clone());
        for i in 0..20 {
            db.remove(&edge((round * 20 + i) % 37, round * 20 + i));
            db.insert(edge(i % 5, 1_000 + round * 20 + i));
        }
        db.insert(Atom::new(
            Predicate::new("marked", 1),
            vec![Term::constant(&format!("m{round}"))],
        ));
    }
    assert!(db.table_folds() > 0, "the writes folded a table");
    let stats = db.memory_stats();
    assert!(
        stats
            .tables
            .iter()
            .any(|t| t.dead_rows > 0 || t.delta_rows > 0),
        "the snapshot still carries a delta"
    );
    check(&db, "after retracts and folds");
}
