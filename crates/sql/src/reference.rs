//! The pre-optimization engine: textual atom order, no persistent
//! indexes, and a fresh hash table over the full relation for every atom
//! of every disjunct. Kept verbatim as the known-good oracle for the
//! differential harness and as the baseline the execution benchmark
//! measures against.

use std::collections::{BTreeSet, HashMap};

use nyaya_core::{ConjunctiveQuery, Symbol, Term, UnionQuery};

use crate::table::Database;

/// The oracle's own classification of one atom argument — deliberately
/// not the engine's ([`crate::join`]), so the kernel can change shape
/// without touching the code that checks it.
enum Slot {
    /// Variable already bound: join key (holds the intermediate-tuple
    /// index it probes with).
    Bound(usize),
    /// First occurrence of a variable in this pipeline: extends tuples.
    Fresh,
    /// Non-variable term: equality filter.
    Constant(Term),
    /// Repeat of a fresh variable earlier in this atom (earlier column).
    Repeat(usize),
}

/// Seed-semantics CQ evaluation (left-to-right hash-join pipeline).
pub fn execute_cq_reference(db: &Database, q: &ConjunctiveQuery) -> BTreeSet<Vec<Term>> {
    let mut var_index: HashMap<Symbol, usize> = HashMap::new();
    let mut current: Vec<Vec<Term>> = vec![Vec::new()];

    for atom in &q.body {
        if current.is_empty() {
            return BTreeSet::new();
        }
        // Materialize the table back into owned rows: the oracle keeps
        // the seed's row-at-a-time semantics regardless of how the
        // engine lays storage out.
        let rows = db.rows_vec(atom.pred);

        let mut slots: Vec<Slot> = Vec::with_capacity(atom.args.len());
        let mut fresh_positions: HashMap<Symbol, usize> = HashMap::new();
        for (j, t) in atom.args.iter().enumerate() {
            match t {
                Term::Var(v) => {
                    if let Some(&idx) = var_index.get(v) {
                        slots.push(Slot::Bound(idx));
                    } else if let Some(&k) = fresh_positions.get(v) {
                        slots.push(Slot::Repeat(k));
                    } else {
                        fresh_positions.insert(*v, j);
                        slots.push(Slot::Fresh);
                    }
                }
                other => slots.push(Slot::Constant(other.clone())),
            }
        }

        let key_positions: Vec<(usize, usize)> = slots
            .iter()
            .enumerate()
            .filter_map(|(j, s)| match s {
                Slot::Bound(idx) => Some((j, *idx)),
                _ => None,
            })
            .collect();
        let mut hashed: HashMap<Vec<&Term>, Vec<&Vec<Term>>> = HashMap::new();
        'rows: for row in &rows {
            for (j, s) in slots.iter().enumerate() {
                match s {
                    Slot::Constant(c) if &row[j] != c => continue 'rows,
                    Slot::Repeat(k) if row[j] != row[*k] => continue 'rows,
                    _ => {}
                }
            }
            let key: Vec<&Term> = key_positions.iter().map(|(j, _)| &row[*j]).collect();
            hashed.entry(key).or_default().push(row);
        }

        let mut next: Vec<Vec<Term>> = Vec::new();
        for tuple in &current {
            let key: Vec<&Term> = key_positions.iter().map(|(_, idx)| &tuple[*idx]).collect();
            if let Some(matches) = hashed.get(&key) {
                for row in matches {
                    let mut extended = tuple.clone();
                    for (j, s) in slots.iter().enumerate() {
                        if let Slot::Fresh = s {
                            extended.push(row[j].clone());
                        }
                    }
                    next.push(extended);
                }
            }
        }
        let mut fresh_sorted: Vec<(usize, Symbol)> =
            fresh_positions.iter().map(|(v, j)| (*j, *v)).collect();
        fresh_sorted.sort_unstable();
        for (_, v) in fresh_sorted {
            let idx = var_index.len();
            var_index.insert(v, idx);
        }
        current = next;
    }

    let mut out = BTreeSet::new();
    for tuple in current {
        let projected: Vec<Term> = q
            .head
            .iter()
            .map(|t| match t {
                Term::Var(v) => tuple[var_index[v]].clone(),
                other => other.clone(),
            })
            .collect();
        out.insert(projected);
    }
    out
}

/// Seed-semantics UCQ evaluation: one disjunct at a time, no sharing.
pub fn execute_ucq_reference(db: &Database, u: &UnionQuery) -> BTreeSet<Vec<Term>> {
    let mut out = BTreeSet::new();
    for q in u.iter() {
        out.extend(execute_cq_reference(db, q));
    }
    out
}
