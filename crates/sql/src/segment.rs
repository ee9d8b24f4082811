//! On-disk codec for ledger payloads: a compact binary encoding of a
//! [`Database`] snapshot (segment payloads) and of insert/retract atom
//! lists (WAL record payloads).
//!
//! Interned [`Symbol`] indices are process-run specific, so everything on
//! disk is encoded by *name*: constants and predicates are written as
//! length-prefixed UTF-8 strings and re-interned on decode. All integers
//! are little-endian.
//!
//! ```text
//! database payload := [version u32 = 3][n_tables u32] table*
//! table            := [name str][arity u32][n_rows u64] dict{arity} rowdata
//! dict             := [n_distinct u32] term*          (canonical value order)
//! rowdata          := [dictidx u32]{n_rows × arity}   (row-major, rows in
//!                                                      canonical row order)
//! batch payload    := [version u32 = 3] atoms(retracts) atoms(inserts)
//! atoms            := [n u64] atom*
//! atom             := [name str][arity u32] term{arity}
//! term             := 0x00 [str]                    constant
//! str              := [len u32][utf8 bytes]
//! ```
//!
//! A database holds constants only, so a term is a constant. The tags
//! `0x01`–`0x03` once stood for a labelled null, a variable and a
//! function term; no fact can hold one, so the decoder rejects each as a
//! [`CodecError`] and a replayed batch never carries one.
//!
//! Version 3 (current) dictionary-encodes each table: every column's
//! distinct values are written once, in canonical value order (sorted at
//! encode time, by value, never by interner index), and rows become
//! fixed-width `u32` dictionary-index tuples sorted lexicographically —
//! the same canonical row order version 2 wrote, reachable here by a pure
//! integer sort with no interner locks. The same logical database always
//! encodes to the same bytes, regardless of insertion order or process
//! run. Version 2 wrote rows as full terms in canonical row order;
//! version 1 wrote them in insertion order; the decoder accepts all
//! three, so pre-existing ledgers keep replaying.
//!
//! A version-3 table decodes straight into columns: each dictionary
//! entry becomes a cell once, each dictionary is ranked by cell, rows
//! copy cells by dictionary index, and postings are grouped by rank (a
//! counting pass, not a sort of the rows) — no fact is materialized
//! and nothing is deduplicated per row. What deduplication would have
//! guaranteed is checked instead: index tuples strictly increasing, every
//! dictionary entry a distinct constant that some row uses, every
//! predicate listed once. Every version-3 encoder writes exactly that.
//! Versions 1 and 2 go through [`Database::insert_all`].
//!
//! Decoding is defensive — it is fed bytes that already passed a CRC
//! check, but it must never panic on arbitrary input (corruption tests
//! hand it garbage directly): every read is bounds-checked and structural
//! nonsense surfaces as a typed [`CodecError`].

use std::cmp::Ordering;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use nyaya_core::{Atom, Predicate, Symbol, Term};

use crate::table::Database;

const VERSION: u32 = 3;
/// Oldest payload version both decoders still accept.
const MIN_VERSION: u32 = 1;
/// Caps that keep adversarial length fields from triggering huge
/// allocations before the bounds checks catch them.
const MAX_STR: u32 = 1 << 24;
const MAX_ARITY: u32 = 1 << 12;

/// A structural failure while decoding a ledger payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload decode failed at byte {}: {}",
            self.offset, self.detail
        )
    }
}

impl Error for CodecError {}

/// Encode a full database snapshot into a segment payload.
pub fn encode_database(db: &Database) -> Vec<u8> {
    let mut preds: Vec<Predicate> = db.predicates().collect();
    preds.sort_by_key(|p| (p.sym.name(), p.arity));
    let mut out = Vec::new();
    push_u32(&mut out, VERSION);
    push_u32(&mut out, preds.len() as u32);
    for pred in preds {
        push_str(&mut out, &pred.sym.name());
        push_u32(&mut out, pred.arity as u32);
        let table = db.table(pred).expect("predicates() lists stored tables");
        push_u64(&mut out, table.len() as u64);
        // Per-column dictionaries: the live distinct cells in canonical
        // value order, decoded to terms. A cell's dictionary index is its
        // rank in that order, so the dictionaries are process-stable.
        // Walking each cell's posting list in that order ranks every row
        // of the column: `ranks[j][id]` is row `id`'s index in column `j`.
        let end = table.live_ids().last().map_or(0, |id| id as usize + 1);
        let mut ranks: Vec<Vec<u32>> = Vec::with_capacity(pred.arity);
        for col in 0..pred.arity {
            let sorted = table.canonical_cells(col);
            push_u32(&mut out, sorted.len() as u32);
            let mut rank = vec![0u32; end];
            for (i, &cell) in sorted.iter().enumerate() {
                push_term(&mut out, &Term::Const(Symbol::from_index(cell)));
                for &id in table.posting_cells(col, cell) {
                    rank[id as usize] = i as u32;
                }
            }
            ranks.push(rank);
        }
        // Rows as dictionary-index tuples in one flat buffer, emitted
        // sorted lexicographically — identical to canonical row order
        // (per-column rank order *is* canonical value order), but a pure
        // u32 sort.
        let width = pred.arity;
        let rows: Vec<u32> = table
            .live_ids()
            .flat_map(|id| ranks.iter().map(move |rank| rank[id as usize]))
            .collect();
        let row = |r: u32| &rows[r as usize * width..][..width];
        let mut order: Vec<u32> = (0..table.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        for r in order {
            for &ix in row(r) {
                push_u32(&mut out, ix);
            }
        }
    }
    out
}

/// Decode a segment payload back into a database. A version-3 table is
/// decoded straight into columns (see the module docs); older versions
/// go through the bulk-load path.
pub fn decode_database(bytes: &[u8]) -> Result<Database, CodecError> {
    let mut cur = Cursor::new(bytes);
    let version = cur.u32()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(cur.fail(format!("unsupported segment payload version {version}")));
    }
    let n_tables = cur.u32()?;
    let mut db = Database::new();
    let mut listed: HashSet<Predicate> = HashSet::new();
    let mut atoms: Vec<Atom> = Vec::new();
    for _ in 0..n_tables {
        let name = cur.str()?;
        let arity = cur.u32()?;
        if arity > MAX_ARITY {
            return Err(cur.fail(format!("implausible arity {arity}")));
        }
        let pred = Predicate::new(name, arity as usize);
        let n_rows = cur.u64()?;
        // Every row occupies at least one byte per argument; an arity-0
        // table can hold at most its single empty row.
        if arity == 0 && n_rows > 1 {
            return Err(cur.fail(format!("arity-0 table claims {n_rows} rows")));
        }
        if version >= 3 {
            if !listed.insert(pred) {
                return Err(cur.fail(format!("table {name}/{arity} listed twice")));
            }
            decode_columns(&mut cur, &mut db, pred, n_rows)?;
        } else {
            if arity > 0 && n_rows > cur.remaining() as u64 {
                return Err(cur.fail(format!("implausible row count {n_rows}")));
            }
            for _ in 0..n_rows {
                atoms.push(cur.atom(pred)?);
            }
        }
    }
    cur.finish()?;
    db.insert_all(atoms);
    Ok(db)
}

/// Decode one version-3 table (per-column dictionaries, then fixed-width
/// index tuples) into `db` without materializing a row: each dictionary
/// entry is read as a constant's cell once, and the tuples are checked
/// and handed over as they are. The set semantics the bulk-load path would
/// get from deduplicating are checked instead, each a typed error: tuples
/// strictly increasing, no dictionary entry repeating a term of its
/// column or used by no row. Every encoder of version 3 writes exactly
/// that. A table of zero rows decodes to no table.
fn decode_columns(
    cur: &mut Cursor<'_>,
    db: &mut Database,
    pred: Predicate,
    n_rows: u64,
) -> Result<(), CodecError> {
    let width = pred.arity;
    let mut dicts: Vec<Vec<u32>> = Vec::with_capacity(width);
    let mut dict_at: Vec<usize> = Vec::with_capacity(width);
    for _ in 0..width {
        dict_at.push(cur.pos);
        let n_distinct = cur.u32()?;
        // Every dictionary term occupies at least one byte.
        if n_distinct as usize > cur.remaining() {
            return Err(cur.fail(format!("implausible dictionary size {n_distinct}")));
        }
        let mut cells = Vec::with_capacity(n_distinct as usize);
        for _ in 0..n_distinct {
            cells.push(cur.constant()?.index());
        }
        dicts.push(cells);
    }
    // Row data is exactly n_rows × arity u32s — check before reading so a
    // corrupt count cannot spin through gigabytes.
    let need = n_rows
        .checked_mul(width as u64)
        .and_then(|cells| cells.checked_mul(4))
        .filter(|&bytes| bytes <= cur.remaining() as u64);
    let n = u32::try_from(n_rows).ok().filter(|&n| n != u32::MAX);
    let (Some(need), Some(n)) = (need, n) else {
        return Err(cur.fail(format!("implausible row count {n_rows}")));
    };
    let rows_at = cur.pos;
    let rows: Vec<u32> = cur
        .take(need as usize)?
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect();
    let fail_at = |cell: usize, detail: String| CodecError {
        offset: rows_at + 4 * cell,
        detail,
    };
    // An arity-0 table has no tuple to check: its one row is empty.
    if width > 0 {
        let mut prev: Option<&[u32]> = None;
        for (i, row) in rows.chunks_exact(width).enumerate() {
            if let Some(j) = (0..width).find(|&j| row[j] as usize >= dicts[j].len()) {
                let detail = format!("dictionary index {} out of range", row[j]);
                return Err(fail_at(i * width + j, detail));
            }
            match prev.map(|p| p.cmp(row)) {
                Some(Ordering::Equal) => {
                    return Err(fail_at(
                        i * width,
                        format!("row {i} repeats the row before it"),
                    ))
                }
                Some(Ordering::Greater) => {
                    return Err(fail_at(
                        i * width,
                        format!("row {i} is out of canonical order"),
                    ))
                }
                _ => prev = Some(row),
            }
        }
    }
    if n == 0 {
        return Ok(());
    }
    db.insert_decoded(pred, &dicts, &rows, n)
        .map_err(|(j, k)| CodecError {
            offset: dict_at[j],
            detail: format!(
                "dictionary entry {k} of column {j} duplicates an earlier entry or is used by no row"
            ),
        })
}

/// Encode an update batch (retracts first, then inserts) into a WAL
/// record payload.
pub fn encode_batch(retracts: &[Atom], inserts: &[Atom]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u32(&mut out, VERSION);
    push_atoms(&mut out, retracts);
    push_atoms(&mut out, inserts);
    out
}

/// Decode a WAL record payload back into `(retracts, inserts)`.
pub fn decode_batch(bytes: &[u8]) -> Result<(Vec<Atom>, Vec<Atom>), CodecError> {
    let mut cur = Cursor::new(bytes);
    let version = cur.u32()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(cur.fail(format!("unsupported batch payload version {version}")));
    }
    let retracts = cur.atoms()?;
    let inserts = cur.atoms()?;
    cur.finish()?;
    Ok((retracts, inserts))
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Write a constant: tag `0x00` and its name. The knowledge base refuses
/// every other term before a fact reaches the ledger.
fn push_term(out: &mut Vec<u8>, term: &Term) {
    let Term::Const(sym) = term else {
        panic!("the ledger stores constants only, got {term}");
    };
    out.push(0);
    push_str(out, &sym.name());
}

fn push_atoms(out: &mut Vec<u8>, atoms: &[Atom]) {
    push_u64(out, atoms.len() as u64);
    for atom in atoms {
        push_str(out, &atom.pred.sym.name());
        push_u32(out, atom.pred.arity as u32);
        for term in &atom.args {
            push_term(out, term);
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn fail(&self, detail: String) -> CodecError {
        CodecError {
            offset: self.pos,
            detail,
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.fail(format!(
                "need {n} bytes, only {} remain",
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()?;
        if len > MAX_STR {
            return Err(self.fail(format!("implausible string length {len}")));
        }
        let bytes = self.take(len as usize)?;
        std::str::from_utf8(bytes).map_err(|_| self.fail("invalid UTF-8".to_string()))
    }

    /// A term, which must be a constant (tag `0x00`): any other tag is a
    /// typed error, the database holds constants only.
    fn constant(&mut self) -> Result<Symbol, CodecError> {
        let at = self.pos;
        match self.take(1)?[0] {
            0 => Ok(nyaya_core::symbols::intern(self.str()?)),
            tag => Err(CodecError {
                offset: at,
                detail: format!("term tag {tag} is not a constant"),
            }),
        }
    }

    /// `pred`'s arguments, as constants.
    fn atom(&mut self, pred: Predicate) -> Result<Atom, CodecError> {
        let args = (0..pred.arity)
            .map(|_| self.constant().map(Term::Const))
            .collect::<Result<_, _>>()?;
        Ok(Atom::new(pred, args))
    }

    fn atoms(&mut self) -> Result<Vec<Atom>, CodecError> {
        let n = self.u64()?;
        // Each atom needs at least a name length + arity: 8 bytes.
        if n > (self.bytes.len() - self.pos) as u64 {
            return Err(self.fail(format!("implausible atom count {n}")));
        }
        let mut atoms = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name = self.str()?;
            let arity = self.u32()?;
            if arity > MAX_ARITY {
                return Err(self.fail(format!("implausible arity {arity}")));
            }
            atoms.push(self.atom(Predicate::new(name, arity as usize))?);
        }
        Ok(atoms)
    }

    fn finish(&self) -> Result<(), CodecError> {
        if self.pos != self.bytes.len() {
            return Err(CodecError {
                offset: self.pos,
                detail: format!(
                    "{} trailing bytes after payload",
                    self.bytes.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(pred: &str, args: &[&str]) -> Atom {
        Atom::new(
            Predicate::new(pred, args.len()),
            args.iter().map(|a| Term::constant(a)).collect(),
        )
    }

    #[test]
    fn database_round_trip() {
        let facts = vec![
            fact("person", &["alice"]),
            fact("person", &["bob"]),
            fact("knows", &["alice", "bob"]),
        ];
        let db = Database::from_facts(facts.clone());
        let bytes = encode_database(&db);
        let decoded = decode_database(&bytes).expect("decode");
        assert_eq!(decoded.len(), db.len());
        for f in db.facts() {
            assert!(decoded.contains(&f), "missing {f}");
        }
        // Indexes were rebuilt: posting lookups work on the decoded side.
        let knows = Predicate::new("knows", 2);
        assert_eq!(decoded.posting(knows, 0, &Term::constant("alice")).len(), 1);
    }

    #[test]
    fn batch_round_trip() {
        let retracts = vec![fact("person", &["carol"])];
        let inserts = vec![fact("person", &["dave"]), fact("knows", &["dave", "alice"])];
        let bytes = encode_batch(&retracts, &inserts);
        let (r, i) = decode_batch(&bytes).expect("decode");
        assert_eq!(r, retracts);
        assert_eq!(i, inserts);
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        assert!(decode_database(b"").is_err());
        assert!(decode_database(&[1, 0, 0, 0]).is_err());
        assert!(decode_batch(&[9, 9, 9, 9, 1]).is_err());
        // A huge declared atom count must not allocate.
        let mut bytes = Vec::new();
        push_u32(&mut bytes, VERSION);
        push_u64(&mut bytes, u64::MAX);
        assert!(decode_batch(&bytes).is_err());
        // Truncating a valid payload anywhere must error, never panic.
        let valid = encode_batch(&[fact("p", &["a"])], &[fact("q", &["b", "c"])]);
        for cut in 0..valid.len() {
            assert!(decode_batch(&valid[..cut]).is_err(), "cut at {cut}");
        }
        // So must flipping any single byte... except inside string bodies
        // (a different constant name is still structurally valid — the CRC
        // layer above catches those).
        let db_bytes = encode_database(&Database::from_facts(vec![fact("p", &["a"])]));
        for cut in 0..db_bytes.len() {
            let _ = decode_database(&db_bytes[..cut]);
        }
    }

    #[test]
    fn segment_bytes_are_insertion_order_independent() {
        let facts = vec![
            fact("knows", &["bob", "alice"]),
            fact("person", &["alice"]),
            fact("knows", &["alice", "bob"]),
            fact("person", &["bob"]),
        ];
        let forward = Database::from_facts(facts.clone());
        let mut reversed_facts = facts;
        reversed_facts.reverse();
        let reversed = Database::from_facts(reversed_facts);
        assert_eq!(encode_database(&forward), encode_database(&reversed));
    }

    #[test]
    fn version_1_payloads_still_decode() {
        // Hand-encode a v1 segment: one table p/1 with a single row "a".
        let mut seg = Vec::new();
        push_u32(&mut seg, 1);
        push_u32(&mut seg, 1);
        push_str(&mut seg, "p");
        push_u32(&mut seg, 1);
        push_u64(&mut seg, 1);
        push_term(&mut seg, &Term::constant("a"));
        let db = decode_database(&seg).expect("v1 segment decodes");
        assert!(db.contains(&fact("p", &["a"])));
        // And a v1 batch: no retracts, one insert.
        let mut batch = Vec::new();
        push_u32(&mut batch, 1);
        push_atoms(&mut batch, &[]);
        push_atoms(&mut batch, &[fact("q", &["b", "c"])]);
        let (r, i) = decode_batch(&batch).expect("v1 batch decodes");
        assert!(r.is_empty());
        assert_eq!(i, vec![fact("q", &["b", "c"])]);
        // Version 4 does not exist yet and must be rejected.
        let mut future = Vec::new();
        push_u32(&mut future, 4);
        push_u32(&mut future, 0);
        assert!(decode_database(&future).is_err());
    }

    #[test]
    fn version_2_payloads_still_decode() {
        // Hand-encode a v2 segment: rows as full terms in canonical row
        // order — one table p/2 with two rows.
        let mut seg = Vec::new();
        push_u32(&mut seg, 2);
        push_u32(&mut seg, 1);
        push_str(&mut seg, "p");
        push_u32(&mut seg, 2);
        push_u64(&mut seg, 2);
        push_term(&mut seg, &Term::constant("a"));
        push_term(&mut seg, &Term::constant("b"));
        push_term(&mut seg, &Term::constant("c"));
        push_term(&mut seg, &Term::constant("d"));
        let db = decode_database(&seg).expect("v2 segment decodes");
        assert_eq!(db.len(), 2);
        assert!(db.contains(&fact("p", &["a", "b"])));
        assert!(db.contains(&fact("p", &["c", "d"])));
        // Re-encoding produces a v3 payload with identical contents.
        let rebuilt = decode_database(&encode_database(&db)).expect("v3 re-decode");
        assert_eq!(rebuilt.len(), db.len());
        for f in db.facts() {
            assert!(rebuilt.contains(&f), "missing {f}");
        }
    }

    /// The bytes of a term with one of the tags earlier formats gave a
    /// labelled null (1), a variable (2) and a function term (3).
    fn non_constant_term(tag: u8) -> Vec<u8> {
        let mut out = vec![tag];
        match tag {
            1 => push_u64(&mut out, 3),
            2 => push_str(&mut out, "X"),
            _ => {
                push_str(&mut out, "sk0");
                push_u32(&mut out, 1);
                push_term(&mut out, &Term::constant("x"));
            }
        }
        out
    }

    /// A batch decodes to constants only, so replaying one cannot hand
    /// the database a fact it refuses: every other tag is a typed error
    /// at the tag's byte.
    #[test]
    fn a_batch_holding_a_non_constant_is_a_typed_error() {
        for tag in 1..=3u8 {
            let mut batch = Vec::new();
            push_u32(&mut batch, VERSION);
            push_atoms(&mut batch, &[]);
            push_u64(&mut batch, 1);
            push_str(&mut batch, "holds");
            push_u32(&mut batch, 2);
            push_term(&mut batch, &Term::constant("y"));
            let at = batch.len();
            batch.extend(non_constant_term(tag));
            let err = decode_batch(&batch).expect_err("a non-constant term");
            assert_eq!(err.offset, at, "tag {tag}: {err}");
            assert!(err.detail.contains("not a constant"), "tag {tag}: {err}");
        }
    }

    /// One hand-made v3 table: its name, dictionaries and index tuples.
    type RawTable<'a> = (&'a str, Vec<Vec<Term>>, Vec<Vec<u32>>);

    /// Hand-encode a v3 payload, every table written as given (no
    /// sorting, no checks).
    fn v3_payload(tables: &[RawTable<'_>]) -> Vec<u8> {
        let mut out = Vec::new();
        push_u32(&mut out, VERSION);
        push_u32(&mut out, tables.len() as u32);
        for (name, dicts, rows) in tables {
            push_str(&mut out, name);
            push_u32(&mut out, dicts.len() as u32);
            push_u64(&mut out, rows.len() as u64);
            for dict in dicts {
                push_u32(&mut out, dict.len() as u32);
                for term in dict {
                    push_term(&mut out, term);
                }
            }
            for row in rows {
                for &ix in row {
                    push_u32(&mut out, ix);
                }
            }
        }
        out
    }

    fn consts(names: &[&str]) -> Vec<Term> {
        names.iter().map(|n| Term::constant(n)).collect()
    }

    /// The typed error of a payload that must not decode.
    fn rejection(payload: &[u8]) -> CodecError {
        match decode_database(payload) {
            Ok(db) => panic!("decoded {} facts from a defective payload", db.len()),
            Err(e) => e,
        }
    }

    #[test]
    fn a_well_formed_hand_encoded_v3_payload_decodes() {
        let payload = v3_payload(&[(
            "p",
            vec![consts(&["a", "b"]), consts(&["c", "d"])],
            vec![vec![0, 1], vec![1, 0], vec![1, 1]],
        )]);
        let db = decode_database(&payload).expect("well-formed payload");
        let expected = Database::from_facts(vec![
            fact("p", &["a", "d"]),
            fact("p", &["b", "c"]),
            fact("p", &["b", "d"]),
        ]);
        assert_eq!(encode_database(&db), encode_database(&expected));
        assert_eq!(encode_database(&db), payload);
    }

    #[test]
    fn v3_set_violations_are_typed_errors() {
        let ab = || vec![consts(&["a", "b"])];
        let repeated = rejection(&v3_payload(&[(
            "p",
            vec![consts(&["a"])],
            vec![vec![0], vec![0]],
        )]));
        assert!(
            repeated.detail.contains("repeats the row before"),
            "{repeated}"
        );
        let unordered = rejection(&v3_payload(&[("p", ab(), vec![vec![1], vec![0]])]));
        assert!(
            unordered.detail.contains("out of canonical order"),
            "{unordered}"
        );
        // Ordered on the first column, out of order on the second.
        let wide = rejection(&v3_payload(&[(
            "p",
            vec![consts(&["a"]), consts(&["c", "d"])],
            vec![vec![0, 1], vec![0, 0]],
        )]));
        assert!(wide.detail.contains("out of canonical order"), "{wide}");
        let twice = rejection(&v3_payload(&[(
            "p",
            vec![consts(&["a", "a"])],
            vec![vec![0], vec![1]],
        )]));
        assert!(twice.detail.contains("duplicates"), "{twice}");
        let unused = rejection(&v3_payload(&[("p", ab(), vec![vec![0]])]));
        assert!(unused.detail.contains("used by no row"), "{unused}");
        let listed_twice = rejection(&v3_payload(&[
            ("p", vec![consts(&["a"])], vec![vec![0]]),
            ("p", vec![consts(&["b"])], vec![vec![0]]),
        ]));
        assert!(
            listed_twice.detail.contains("listed twice"),
            "{listed_twice}"
        );
        let out_of_range = rejection(&v3_payload(&[("p", ab(), vec![vec![0], vec![2]])]));
        assert!(
            out_of_range.detail.contains("out of range"),
            "{out_of_range}"
        );
    }

    /// A segment holds constants only: a labelled null, a variable or a
    /// function term in a version-3 dictionary, or in a row of the
    /// row-wise version 2, is a typed error at the term's byte.
    #[test]
    fn a_segment_holding_a_non_constant_is_a_typed_error() {
        for version in [2, VERSION] {
            for tag in 1..=3u8 {
                // One table p/1 of one row; version 3 adds a dictionary
                // of one entry and the row's index.
                let mut seg = Vec::new();
                push_u32(&mut seg, version);
                push_u32(&mut seg, 1);
                push_str(&mut seg, "p");
                push_u32(&mut seg, 1);
                push_u64(&mut seg, 1);
                if version == VERSION {
                    push_u32(&mut seg, 1);
                }
                let at = seg.len();
                seg.extend(non_constant_term(tag));
                if version == VERSION {
                    push_u32(&mut seg, 0);
                }
                let err = rejection(&seg);
                assert_eq!(err.offset, at, "v{version} tag {tag}: {err}");
                assert!(err.detail.contains("not a constant"), "{err}");
            }
        }
    }

    #[test]
    fn a_zero_row_v3_table_decodes_to_no_table() {
        let payload = v3_payload(&[("p", vec![consts(&["a"])], vec![])]);
        let db = decode_database(&payload).expect("zero-row table");
        assert!(db.is_empty());
        assert_eq!(db.predicates().count(), 0);
    }

    #[test]
    fn flipping_any_byte_of_a_v3_payload_never_panics() {
        let db = Database::from_facts(vec![
            fact("knows", &["alice", "bob"]),
            fact("knows", &["bob", "alice"]),
            fact("knows", &["bob", "carol"]),
            fact("person", &["alice"]),
            fact("person", &["bob"]),
            fact("nullary", &[]),
            fact("tagged", &["alice", "sk"]),
        ]);
        let bytes = encode_database(&db);
        for at in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                // `Ok` or `Err`, never a panic; whatever decodes is a
                // database the encoder can write back.
                if let Ok(decoded) = decode_database(&flipped) {
                    let again = decode_database(&encode_database(&decoded)).expect("re-decode");
                    assert_eq!(again.len(), decoded.len(), "byte {at} ^ {mask:#x}");
                }
            }
        }
    }
}
