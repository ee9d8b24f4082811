//! Canonical forms of conjunctive queries modulo bijective variable
//! renaming.
//!
//! Algorithm 1 deduplicates generated queries "modulo bijective variable
//! renaming" (`notExists`). We implement an exact canonical key: colour
//! refinement over variables followed by a minimum-encoding search over the
//! (small) atom orderings that the refinement leaves ambiguous. Two queries
//! have equal keys iff they are identical up to a bijective renaming of
//! variables.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::symbols::{self, Symbol};
use crate::term::Term;

/// An opaque canonical key; equal iff the queries are isomorphic.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CanonicalKey(String);

impl CanonicalKey {
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Upper bound on the number of atom orderings explored; beyond it we panic
/// rather than silently producing unsound keys (never hit in practice —
/// colour refinement separates the atoms of all benchmark queries).
const MAX_ORDERINGS: usize = 1 << 16;

/// One node of a term list, flattened depth-first. Colour refinement and
/// the encoding walk these instead of the `Term` trees, with variables
/// already resolved to dense per-query indices.
#[derive(Clone, Copy)]
enum Tok {
    Const(u32),
    Null(u64),
    /// Dense variable index, and the slot of the variable's first
    /// occurrence in the same atom (the intra-atom equality pattern).
    Var(u32, usize),
    /// Function symbol and argument count; the arguments follow.
    Func(u32, usize),
    /// End of the innermost function term's arguments (encoding only).
    Close,
}

fn flatten(t: &Term, vars: &mut Vec<Symbol>, out: &mut Vec<Tok>, base: usize, slot: &mut usize) {
    match t {
        Term::Const(c) => out.push(Tok::Const(c.index())),
        Term::Null(n) => out.push(Tok::Null(*n)),
        Term::Var(v) => {
            let dense = vars.iter().position(|w| w == v).unwrap_or_else(|| {
                vars.push(*v);
                vars.len() - 1
            }) as u32;
            let first = out[base..]
                .iter()
                .find_map(|tok| match tok {
                    Tok::Var(d, first) if *d == dense => Some(*first),
                    _ => None,
                })
                .unwrap_or(*slot);
            out.push(Tok::Var(dense, first));
        }
        Term::Func(f, args) => {
            out.push(Tok::Func(f.index(), args.len()));
            *slot += 1;
            for a in args.iter() {
                flatten(a, vars, out, base, slot);
            }
            out.push(Tok::Close);
            return;
        }
    }
    *slot += 1;
}

/// The body occurrences of one variable in one atom: `positions[start..end]`
/// are its flattened (depth-first) slots there.
struct Run {
    atom: usize,
    start: usize,
    end: usize,
}

/// A query flattened for canonicalization: dense variable indices, token
/// lists, and every variable's occurrences grouped by atom.
struct Flat {
    vars: Vec<Symbol>,
    head: Vec<Tok>,
    body: Vec<Tok>,
    /// `body[atom_start[i]..atom_start[i + 1]]` are the tokens of atom `i`.
    atom_start: Vec<usize>,
    positions: Vec<usize>,
    runs: Vec<Run>,
    /// `runs[var_runs[v]..var_runs[v + 1]]` belong to variable `v`.
    var_runs: Vec<usize>,
}

impl Flat {
    fn of(q: &ConjunctiveQuery) -> Flat {
        let mut vars = Vec::new();
        let mut head = Vec::new();
        for t in &q.head {
            flatten(t, &mut vars, &mut head, 0, &mut 0);
        }
        let mut body = Vec::new();
        let mut atom_start = Vec::with_capacity(q.body.len() + 1);
        // (variable, atom, slot), generated in (atom, slot) order.
        let mut occurrences: Vec<(u32, usize, usize)> = Vec::new();
        for (ai, a) in q.body.iter().enumerate() {
            let base = body.len();
            atom_start.push(base);
            let mut slot = 0;
            for t in &a.args {
                flatten(t, &mut vars, &mut body, base, &mut slot);
            }
            let mut slot = 0;
            for tok in &body[base..] {
                match tok {
                    Tok::Var(v, _) => occurrences.push((*v, ai, slot)),
                    Tok::Close => continue,
                    _ => {}
                }
                slot += 1;
            }
        }
        atom_start.push(body.len());
        // Stable: within one variable the (atom, slot) order survives.
        occurrences.sort_by_key(|&(v, _, _)| v);
        let positions = occurrences.iter().map(|&(_, _, slot)| slot).collect();
        let mut runs: Vec<Run> = Vec::new();
        let mut var_runs = vec![0usize; vars.len() + 1];
        let mut previous = None;
        for (at, &(v, atom, _)) in occurrences.iter().enumerate() {
            if previous == Some((v, atom)) {
                runs.last_mut().expect("a run is open").end = at + 1;
            } else {
                runs.push(Run {
                    atom,
                    start: at,
                    end: at + 1,
                });
                var_runs[v as usize + 1] += 1;
                previous = Some((v, atom));
            }
        }
        for v in 0..vars.len() {
            var_runs[v + 1] += var_runs[v];
        }
        Flat {
            vars,
            head,
            body,
            atom_start,
            positions,
            runs,
            var_runs,
        }
    }

    fn atom(&self, i: usize) -> &[Tok] {
        &self.body[self.atom_start[i]..self.atom_start[i + 1]]
    }

    /// Renaming-invariant signature of body atom `i` under a variable
    /// colouring. Includes the intra-atom equality pattern (which argument
    /// slots hold the same variable).
    fn atom_signature(&self, q: &ConjunctiveQuery, i: usize, colors: &[u64]) -> u64 {
        let mut h = DefaultHasher::new();
        let pred = q.body[i].pred;
        pred.sym.index().hash(&mut h);
        pred.arity.hash(&mut h);
        for tok in self.atom(i) {
            match *tok {
                Tok::Const(c) => {
                    0u8.hash(&mut h);
                    c.hash(&mut h);
                }
                Tok::Null(n) => {
                    1u8.hash(&mut h);
                    n.hash(&mut h);
                }
                Tok::Var(v, first) => {
                    2u8.hash(&mut h);
                    colors[v as usize].hash(&mut h);
                    first.hash(&mut h);
                }
                Tok::Func(f, arity) => {
                    3u8.hash(&mut h);
                    f.hash(&mut h);
                    arity.hash(&mut h);
                }
                Tok::Close => {}
            }
        }
        h.finish()
    }

    /// Iteratively refine variable colours until the partition stabilises.
    fn refine_colors(&self, q: &ConjunctiveQuery) -> Vec<u64> {
        // Initial colour: the (canonical) head positions at which the
        // variable occurs — head order is fixed, so this is
        // renaming-invariant.
        let mut colors: Vec<u64> = self
            .vars
            .iter()
            .map(|&v| {
                let mut h = DefaultHasher::new();
                for (i, t) in q.head.iter().enumerate() {
                    if t.contains_var(v) {
                        i.hash(&mut h);
                    }
                }
                h.finish()
            })
            .collect();
        let mut refined = vec![0u64; colors.len()];
        let mut sigs = vec![0u64; q.body.len()];
        // Per variable: the multiset of (atom signature, positions) over
        // the body, sorted. Hashed as the slice it is, so the colour is the
        // one a `Vec<(u64, Vec<usize>)>` of the same content would get.
        let mut occurrences: Vec<(u64, &[usize])> = Vec::new();
        for _round in 0..self.vars.len() + 1 {
            for (i, sig) in sigs.iter_mut().enumerate() {
                *sig = self.atom_signature(q, i, &colors);
            }
            for (v, color) in refined.iter_mut().enumerate() {
                occurrences.clear();
                for run in &self.runs[self.var_runs[v]..self.var_runs[v + 1]] {
                    occurrences.push((sigs[run.atom], &self.positions[run.start..run.end]));
                }
                occurrences.sort_unstable();
                let mut h = DefaultHasher::new();
                colors[v].hash(&mut h);
                occurrences.hash(&mut h);
                *color = h.finish();
            }
            let stable = same_partition(&refined, &colors);
            std::mem::swap(&mut colors, &mut refined);
            if stable {
                break;
            }
        }
        colors
    }

    /// Encode the query under a fixed body ordering with first-occurrence
    /// variable renumbering. Distinct encodings ⟺ non-isomorphic labelled
    /// structures for this ordering. `ids` is scratch of one slot per
    /// variable.
    fn encode(&self, q: &ConjunctiveQuery, order: &[usize], ids: &mut [u32], out: &mut String) {
        ids.fill(u32::MAX);
        out.clear();
        let mut next = 0u32;
        out.push('H');
        encode_toks(&self.head, ids, &mut next, out);
        for &i in order {
            let pred = q.body[i].pred;
            out.push('|');
            push_number(out, u64::from(pred.sym.index()));
            out.push('#');
            push_number(out, pred.arity as u64);
            encode_toks(self.atom(i), ids, &mut next, out);
        }
    }
}

fn encode_toks(toks: &[Tok], ids: &mut [u32], next: &mut u32, out: &mut String) {
    for tok in toks {
        match *tok {
            Tok::Const(c) => {
                out.push_str(",c");
                push_number(out, u64::from(c));
            }
            Tok::Null(n) => {
                out.push_str(",n");
                push_number(out, n);
            }
            Tok::Var(v, _) => {
                let id = &mut ids[v as usize];
                if *id == u32::MAX {
                    *id = *next;
                    *next += 1;
                }
                out.push_str(",v");
                push_number(out, u64::from(*id));
            }
            Tok::Func(f, _) => {
                out.push_str(",f");
                push_number(out, u64::from(f));
                out.push('[');
            }
            Tok::Close => out.push(']'),
        }
    }
}

/// Decimal digits of `n`, without going through `fmt`.
fn push_number(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Do two colourings induce the same partition of the variables?
fn same_partition(a: &[u64], b: &[u64]) -> bool {
    (0..a.len()).all(|i| (0..i).all(|j| (a[i] == a[j]) == (b[i] == b[j])))
}

/// The minimum-encoding body order of `q` and its canonical key — the
/// shared core of [`canonical_key`] and [`canonical_form`]. Using the
/// *same* winning order in both guarantees that any two isomorphic queries
/// not only get equal keys but canonicalize to the *identical* query,
/// independent of which representative was at hand (the property the
/// parallel rewriting worklist's bit-identity claim rests on).
///
/// The order feeds [`canonical_form`]: a caller that usually needs only the
/// key (a dedup table) pays for the canonical form only when the key turns
/// out to be new.
pub fn canonical_order(q: &ConjunctiveQuery) -> (Vec<usize>, CanonicalKey) {
    let flat = Flat::of(q);
    let colors = flat.refine_colors(q);

    // Signature of every body atom under the final colouring.
    let mut sigs: Vec<(u64, usize)> = (0..q.body.len())
        .map(|i| (flat.atom_signature(q, i, &colors), i))
        .collect();
    sigs.sort_unstable();

    let mut ids = vec![u32::MAX; flat.vars.len()];
    let mut encoding = String::with_capacity(64);
    if sigs.windows(2).all(|w| w[0].0 != w[1].0) {
        // Refinement separated every atom: one candidate order.
        let order: Vec<usize> = sigs.iter().map(|&(_, i)| i).collect();
        flat.encode(q, &order, &mut ids, &mut encoding);
        return (order, CanonicalKey(encoding));
    }

    // Tie groups: runs of equal signatures.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut i = 0;
    while i < sigs.len() {
        let mut j = i + 1;
        while j < sigs.len() && sigs[j].0 == sigs[i].0 {
            j += 1;
        }
        groups.push(sigs[i..j].iter().map(|(_, idx)| *idx).collect());
        i = j;
    }

    let mut count: usize = 1;
    for g in &groups {
        count = count.saturating_mul(factorial(g.len()));
        assert!(
            count <= MAX_ORDERINGS,
            "canonicalization blow-up: ambiguous atom group too large"
        );
    }

    let mut best: Option<(String, Vec<usize>)> = None;
    enumerate_orders(&groups, 0, &mut Vec::new(), &mut |order: &[usize]| {
        flat.encode(q, order, &mut ids, &mut encoding);
        match &mut best {
            Some((b, _)) if *b <= encoding => {}
            Some((b, o)) => {
                std::mem::swap(b, &mut encoding);
                o.copy_from_slice(order);
            }
            None => best = Some((encoding.clone(), order.to_vec())),
        }
    });
    let (encoding, order) = best.expect("query has at least one atom");
    (order, CanonicalKey(encoding))
}

/// Compute the canonical key of a query.
pub fn canonical_key(q: &ConjunctiveQuery) -> CanonicalKey {
    canonical_order(q).1
}

/// The canonical form of `q` for a body `order` obtained from
/// [`canonical_order`]: body atoms in that order, variables renamed
/// `V0, V1, …` by first occurrence (head first).
///
/// The renaming is simultaneous — one lookup per variable occurrence — so a
/// query that already uses `V`-names (every query the rewriting worklist
/// stores does) is renamed injectively.
pub fn canonical_form(q: &ConjunctiveQuery, order: &[usize]) -> ConjunctiveQuery {
    let mut seen: Vec<Symbol> = Vec::new();
    let mut occ = Vec::new();
    for t in &q.head {
        t.collect_vars(&mut occ);
    }
    for &i in order {
        q.body[i].collect_vars(&mut occ);
    }
    for v in occ {
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    let names = canonical_names(seen.len());
    let mut out = ConjunctiveQuery {
        head_pred: q.head_pred,
        head: q.head.iter().map(|t| rename(t, &seen, &names)).collect(),
        body: order
            .iter()
            .map(|&i| Atom {
                pred: q.body[i].pred,
                args: q.body[i]
                    .args
                    .iter()
                    .map(|t| rename(t, &seen, &names))
                    .collect(),
            })
            .collect(),
    };
    out.dedup_body();
    out
}

fn rename(t: &Term, from: &[Symbol], to: &[Symbol]) -> Term {
    match t {
        Term::Var(v) => {
            let at = from
                .iter()
                .position(|w| w == v)
                .expect("variable was collected");
            Term::Var(to[at])
        }
        Term::Func(f, args) => Term::Func(*f, args.iter().map(|a| rename(a, from, to)).collect()),
        Term::Const(_) | Term::Null(_) => t.clone(),
    }
}

/// The symbols of `V0 … V{n-1}` (at least), interned once per process.
fn canonical_names(n: usize) -> RwLockReadGuard<'static, Vec<Symbol>> {
    // Append-only, every state valid: a poisoned lock is recovered.
    static NAMES: RwLock<Vec<Symbol>> = RwLock::new(Vec::new());
    loop {
        let names = NAMES.read().unwrap_or_else(PoisonError::into_inner);
        if names.len() >= n {
            return names;
        }
        drop(names);
        let mut names = NAMES.write().unwrap_or_else(PoisonError::into_inner);
        while names.len() < n {
            let name = format!("V{}", names.len());
            names.push(symbols::intern(&name));
        }
    }
}

fn factorial(n: usize) -> usize {
    (2..=n).product::<usize>().max(1)
}

fn enumerate_orders(
    groups: &[Vec<usize>],
    g: usize,
    prefix: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if g == groups.len() {
        visit(prefix);
        return;
    }
    permute(&groups[g], &mut Vec::new(), &mut |perm| {
        let mark = prefix.len();
        prefix.extend_from_slice(perm);
        enumerate_orders(groups, g + 1, prefix, visit);
        prefix.truncate(mark);
    });
}

fn permute(items: &[usize], current: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
    if current.len() == items.len() {
        visit(current);
        return;
    }
    for &it in items {
        if !current.contains(&it) {
            current.push(it);
            permute(items, current, visit);
            current.pop();
        }
    }
}

/// The implementation this module shipped before the dense one above: the
/// same function computed with symbol-keyed hash-map colourings and `fmt`.
/// Kept as the reference the new implementation is compared against, string
/// for string.
#[cfg(test)]
mod oracle {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

    use super::{enumerate_orders, factorial, MAX_ORDERINGS};
    use crate::atom::Atom;
    use crate::query::ConjunctiveQuery;
    use crate::symbols::{self, Symbol};
    use crate::term::Term;

    /// The minimum-encoding atom order and its encoding — the shared core of
    /// [`canonical_key`] and [`canonicalize`]. Using the *same* winning order
    /// in both guarantees that any two isomorphic queries not only get equal
    /// keys but canonicalize to the *identical* query, independent of which
    /// representative was at hand (the property the parallel rewriting
    /// worklist's bit-identity claim rests on).
    pub(super) fn best_order(q: &ConjunctiveQuery) -> (Vec<usize>, String) {
        let colors = refine_colors(q);

        // Signature of every body atom under the final colouring.
        let mut sigs: Vec<(u64, usize)> = q
            .body
            .iter()
            .enumerate()
            .map(|(i, a)| (atom_signature(a, &colors), i))
            .collect();
        sigs.sort();

        // Tie groups: runs of equal signatures.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut i = 0;
        while i < sigs.len() {
            let mut j = i + 1;
            while j < sigs.len() && sigs[j].0 == sigs[i].0 {
                j += 1;
            }
            groups.push(sigs[i..j].iter().map(|(_, idx)| *idx).collect());
            i = j;
        }

        let mut count: usize = 1;
        for g in &groups {
            count = count.saturating_mul(factorial(g.len()));
            assert!(
                count <= MAX_ORDERINGS,
                "canonicalization blow-up: ambiguous atom group too large"
            );
        }

        let mut best: Option<(String, Vec<usize>)> = None;
        enumerate_orders(&groups, 0, &mut Vec::new(), &mut |order: &[usize]| {
            let enc = encode(q, order);
            match &best {
                Some((b, _)) if *b <= enc => {}
                _ => best = Some((enc, order.to_vec())),
            }
        });
        let (enc, order) = best.expect("query has at least one atom");
        (order, enc)
    }

    /// Canonical form and key, the renaming applied as one direct map lookup
    /// per variable (the original chased a triangular `Substitution`).
    pub(super) fn canonicalize_keyed(q: &ConjunctiveQuery) -> (ConjunctiveQuery, String) {
        let (order, encoding) = best_order(q);
        let mut rename: HashMap<Symbol, Symbol> = HashMap::new();
        let mut occ = Vec::new();
        for t in &q.head {
            t.collect_vars(&mut occ);
        }
        for &i in &order {
            q.body[i].collect_vars(&mut occ);
        }
        for v in occ {
            let next = rename.len();
            rename
                .entry(v)
                .or_insert_with(|| symbols::intern(&format!("V{next}")));
        }
        fn apply(t: &Term, rename: &HashMap<Symbol, Symbol>) -> Term {
            match t {
                Term::Var(v) => Term::Var(rename[v]),
                Term::Func(f, args) => {
                    Term::Func(*f, args.iter().map(|a| apply(a, rename)).collect())
                }
                other => other.clone(),
            }
        }
        let atom = |a: &Atom| Atom {
            pred: a.pred,
            args: a.args.iter().map(|t| apply(t, &rename)).collect(),
        };
        let mut out = ConjunctiveQuery {
            head_pred: q.head_pred,
            head: q.head.iter().map(|t| apply(t, &rename)).collect(),
            body: order.iter().map(|&i| atom(&q.body[i])).collect(),
        };
        out.dedup_body();
        (out, encoding)
    }

    /// Iteratively refine variable colours until the partition stabilises.
    fn refine_colors(q: &ConjunctiveQuery) -> HashMap<Symbol, u64> {
        let vars = q.variables();
        let mut colors: HashMap<Symbol, u64> = HashMap::with_capacity(vars.len());

        // Initial colour: the (canonical) head positions at which the variable
        // occurs — head order is fixed, so this is renaming-invariant.
        for &v in &vars {
            let mut h = DefaultHasher::new();
            for (i, t) in q.head.iter().enumerate() {
                if t.contains_var(v) {
                    i.hash(&mut h);
                }
            }
            colors.insert(v, h.finish());
        }

        for _round in 0..vars.len() + 1 {
            // Recompute atom signatures under current colours, then per-variable
            // multiset of (signature, positions) over the body.
            let sigs: Vec<u64> = q.body.iter().map(|a| atom_signature(a, &colors)).collect();
            let mut new_colors: HashMap<Symbol, u64> = HashMap::with_capacity(vars.len());
            for &v in &vars {
                let mut occurrences: Vec<(u64, Vec<usize>)> = Vec::new();
                for (ai, a) in q.body.iter().enumerate() {
                    let mut positions = Vec::new();
                    collect_positions_of(&a.args, v, &mut positions, &mut 0);
                    if !positions.is_empty() {
                        occurrences.push((sigs[ai], positions));
                    }
                }
                occurrences.sort();
                let mut h = DefaultHasher::new();
                colors[&v].hash(&mut h);
                occurrences.hash(&mut h);
                new_colors.insert(v, h.finish());
            }
            if partition_of(&new_colors, &vars) == partition_of(&colors, &vars) {
                colors = new_colors;
                break;
            }
            colors = new_colors;
        }
        colors
    }

    /// Flattened (depth-first) positions of variable `v` within a term list.
    fn collect_positions_of(terms: &[Term], v: Symbol, out: &mut Vec<usize>, counter: &mut usize) {
        for t in terms {
            match t {
                Term::Var(w) => {
                    if *w == v {
                        out.push(*counter);
                    }
                    *counter += 1;
                }
                Term::Func(_, args) => {
                    *counter += 1;
                    collect_positions_of(args, v, out, counter);
                }
                _ => {
                    *counter += 1;
                }
            }
        }
    }

    fn partition_of(colors: &HashMap<Symbol, u64>, vars: &[Symbol]) -> Vec<Vec<usize>> {
        // Group variable indices by colour, represented order-independently.
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, v) in vars.iter().enumerate() {
            groups.entry(colors[v]).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort();
        out
    }

    /// Renaming-invariant signature of one atom under a variable colouring.
    /// Includes the intra-atom equality pattern (which argument slots hold the
    /// same variable).
    fn atom_signature(a: &Atom, colors: &HashMap<Symbol, u64>) -> u64 {
        let mut h = DefaultHasher::new();
        a.pred.sym.index().hash(&mut h);
        a.pred.arity.hash(&mut h);
        let mut local: HashMap<Symbol, usize> = HashMap::new();
        let mut slot = 0usize;
        for t in &a.args {
            sig_term(t, colors, &mut local, &mut slot, &mut h);
        }
        h.finish()
    }

    fn sig_term(
        t: &Term,
        colors: &HashMap<Symbol, u64>,
        local: &mut HashMap<Symbol, usize>,
        slot: &mut usize,
        h: &mut DefaultHasher,
    ) {
        match t {
            Term::Const(c) => {
                0u8.hash(h);
                c.index().hash(h);
                *slot += 1;
            }
            Term::Null(n) => {
                1u8.hash(h);
                n.hash(h);
                *slot += 1;
            }
            Term::Var(v) => {
                2u8.hash(h);
                colors.get(v).copied().unwrap_or(0).hash(h);
                let first = *local.entry(*v).or_insert(*slot);
                first.hash(h);
                *slot += 1;
            }
            Term::Func(f, args) => {
                3u8.hash(h);
                f.index().hash(h);
                args.len().hash(h);
                *slot += 1;
                for a in args.iter() {
                    sig_term(a, colors, local, slot, h);
                }
            }
        }
    }

    /// Encode the query under a fixed body ordering with first-occurrence
    /// variable renumbering. Distinct encodings ⟺ non-isomorphic labelled
    /// structures for this ordering.
    fn encode(q: &ConjunctiveQuery, order: &[usize]) -> String {
        use std::fmt::Write as _;
        let mut rename: HashMap<Symbol, usize> = HashMap::new();
        let mut next = 0usize;
        let mut out = String::with_capacity(64);
        out.push('H');
        for t in &q.head {
            encode_term(t, &mut rename, &mut next, &mut out);
        }
        for &i in order {
            let a = &q.body[i];
            let _ = write!(out, "|{}#{}", a.pred.sym.index(), a.pred.arity);
            for t in &a.args {
                encode_term(t, &mut rename, &mut next, &mut out);
            }
        }
        out
    }

    fn encode_term(
        t: &Term,
        rename: &mut HashMap<Symbol, usize>,
        next: &mut usize,
        out: &mut String,
    ) {
        use std::fmt::Write as _;
        match t {
            Term::Const(c) => {
                let _ = write!(out, ",c{}", c.index());
            }
            Term::Null(n) => {
                let _ = write!(out, ",n{n}");
            }
            Term::Var(v) => {
                let id = *rename.entry(*v).or_insert_with(|| {
                    let id = *next;
                    *next += 1;
                    id
                });
                let _ = write!(out, ",v{id}");
            }
            Term::Func(f, args) => {
                let _ = write!(out, ",f{}[", f.index());
                for a in args.iter() {
                    encode_term(a, rename, next, out);
                }
                out.push(']');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Predicate;

    /// Rename the variables of `q` to canonical names `V0, V1, …` following
    /// the canonical (minimum-encoding) ordering: isomorphic queries
    /// canonicalize to the identical query.
    fn canonicalize(q: &ConjunctiveQuery) -> ConjunctiveQuery {
        canonicalize_keyed(q).0
    }

    /// `canonicalize` and [`canonical_key`] in one ordering search — the
    /// key is renaming-invariant, so `q` and its canonical form share it.
    fn canonicalize_keyed(q: &ConjunctiveQuery) -> (ConjunctiveQuery, CanonicalKey) {
        let (order, key) = canonical_order(q);
        (canonical_form(q, &order), key)
    }

    fn q(head: &[&str], body: &[(&str, &[&str])]) -> ConjunctiveQuery {
        let head_terms = head
            .iter()
            .map(|a| {
                if a.chars().next().unwrap().is_uppercase() {
                    Term::var(a)
                } else {
                    Term::constant(a)
                }
            })
            .collect();
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
    fn renaming_invariance() {
        let q1 = q(&["A"], &[("p", &["A", "B"]), ("r", &["B", "C"])]);
        let q2 = q(&["X"], &[("p", &["X", "Q"]), ("r", &["Q", "W"])]);
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn atom_order_invariance() {
        let q1 = q(&[], &[("p", &["A", "B"]), ("r", &["B", "C"])]);
        let q2 = q(&[], &[("r", &["Q", "W"]), ("p", &["X", "Q"])]);
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn distinguishes_intra_atom_equalities() {
        let q1 = q(&[], &[("t", &["A", "B", "C"])]);
        let q2 = q(&[], &[("t", &["A", "B", "B"])]);
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn distinguishes_head_bindings() {
        let q1 = q(&["A"], &[("p", &["A", "B"])]);
        let q2 = q(&["B"], &[("p", &["A", "B"])]);
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn distinguishes_constants_from_variables() {
        let q1 = q(&[], &[("p", &["A"])]);
        let q2 = q(&[], &[("p", &["a"])]);
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn symmetric_queries_canonicalize() {
        // edge(A,B), edge(B,A) under swap A↔B is the same query.
        let q1 = q(&[], &[("edge", &["A", "B"]), ("edge", &["B", "A"])]);
        let q2 = q(&[], &[("edge", &["B", "A"]), ("edge", &["A", "B"])]);
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn chain_queries_differ_by_length() {
        let q2 = q(&["A"], &[("edge", &["A", "B"]), ("edge", &["B", "C"])]);
        let q3 = q(
            &["A"],
            &[
                ("edge", &["A", "B"]),
                ("edge", &["B", "C"]),
                ("edge", &["C", "D"]),
            ],
        );
        assert_ne!(canonical_key(&q2), canonical_key(&q3));
    }

    #[test]
    fn cycle_vs_path_distinguished() {
        let path = q(&[], &[("e", &["A", "B"]), ("e", &["B", "C"])]);
        let cycle = q(&[], &[("e", &["A", "B"]), ("e", &["B", "A"])]);
        assert_ne!(canonical_key(&path), canonical_key(&cycle));
    }

    #[test]
    fn canonicalize_produces_stable_names() {
        let q1 = q(&["Z"], &[("p", &["Z", "Q"])]);
        let c = canonicalize(&q1);
        assert_eq!(c.to_string(), "q(V0) :- p(V0,V1)");
    }

    #[test]
    fn canonicalize_keyed_matches_separate_calls() {
        let q1 = q(&["A"], &[("p", &["A", "B"]), ("r", &["B", "C"])]);
        let (c, k) = canonicalize_keyed(&q1);
        assert_eq!(c.to_string(), canonicalize(&q1).to_string());
        assert_eq!(k, canonical_key(&q1));
        // The key is renaming-invariant: the canonicalized query shares it.
        assert_eq!(k, canonical_key(&c));
    }

    #[test]
    fn isomorphic_representatives_canonicalize_identically() {
        // e(A,B), e(B,C) under the reversal symmetry is an ambiguous atom
        // group: colour refinement cannot separate the two atoms. The
        // canonical form must not depend on which representative (atom
        // order, variable names) happens to be at hand — the parallel
        // rewriting worklist races representatives into its table.
        let q1 = q(&[], &[("e", &["A", "B"]), ("e", &["B", "C"])]);
        let q2 = q(&[], &[("e", &["B", "C"]), ("e", &["A", "B"])]);
        let q3 = q(&[], &[("e", &["Y", "Z"]), ("e", &["X", "Y"])]);
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
        assert_eq!(canonicalize(&q1).to_string(), canonicalize(&q2).to_string());
        assert_eq!(canonicalize(&q1).to_string(), canonicalize(&q3).to_string());
    }

    #[test]
    fn five_edge_chain_is_fast_and_exact() {
        // P5-style query: 5 atoms over the same predicate.
        let chain = q(
            &["A"],
            &[
                ("edge", &["A", "B"]),
                ("edge", &["B", "C"]),
                ("edge", &["C", "D"]),
                ("edge", &["D", "E"]),
                ("edge", &["E", "F"]),
            ],
        );
        let renamed = q(
            &["X1"],
            &[
                ("edge", &["X1", "X2"]),
                ("edge", &["X2", "X3"]),
                ("edge", &["X3", "X4"]),
                ("edge", &["X4", "X5"]),
                ("edge", &["X5", "X6"]),
            ],
        );
        assert_eq!(canonical_key(&chain), canonical_key(&renamed));
        let reversed = q(
            &["F"],
            &[
                ("edge", &["A", "B"]),
                ("edge", &["B", "C"]),
                ("edge", &["C", "D"]),
                ("edge", &["D", "E"]),
                ("edge", &["E", "F"]),
            ],
        );
        assert_ne!(canonical_key(&chain), canonical_key(&reversed));
    }

    // ---- simultaneous renaming (the V-name bug) -------------------------

    #[test]
    fn canonical_looking_names_are_renamed_injectively() {
        // (query written with V-names, the same query with plain names).
        // The keys never were affected; the canonical *form* was: applied
        // through a triangular substitution, the chain V1→V0, V2→V1
        // collapsed every variable onto V0, and the 2-cycle V1→V0, V0→V1
        // tripped "cyclic substitution" in debug builds.
        let cases = [
            (
                q(&["V1"], &[("p", &["V1", "V2"]), ("r", &["V2", "X"])]),
                q(&["A"], &[("p", &["A", "B"]), ("r", &["B", "C"])]),
            ),
            (
                q(&["V1"], &[("p", &["V1", "V0"])]),
                q(&["A"], &[("p", &["A", "B"])]),
            ),
            (
                q(
                    &["V1"],
                    &[("p", &["V1", "V2"]), ("r", &["V2", "V0"]), ("s", &["V0"])],
                ),
                q(
                    &["A"],
                    &[("p", &["A", "B"]), ("r", &["B", "C"]), ("s", &["C"])],
                ),
            ),
        ];
        for (v_named, plain) in &cases {
            let (form, key) = canonicalize_keyed(v_named);
            assert_eq!(key, canonical_key(plain), "{v_named}");
            assert_eq!(canonical_key(&form), key, "{v_named} became {form}");
            assert_eq!(form, canonicalize(plain), "{v_named}");
        }
        assert_eq!(
            canonicalize(&cases[1].0).to_string(),
            "q(V0) :- p(V0,V1)",
            "single atom: no interner-dependent atom order"
        );
    }

    #[test]
    fn canonical_form_is_a_fixed_point() {
        for query in [
            q(&["A"], &[("p", &["A", "B"]), ("r", &["B", "C"])]),
            q(&[], &[("e", &["A", "B"]), ("e", &["B", "C"])]),
            q(&["V3", "V1"], &[("t", &["V1", "V0", "V3"]), ("s", &["V0"])]),
        ] {
            let once = canonicalize(&query);
            let twice = canonicalize(&once);
            assert_eq!(once, twice, "{query}");
            assert_eq!(once.to_string(), twice.to_string());
        }
    }

    // ---- same function, new implementation ------------------------------

    /// SplitMix64 (`nyaya-ontologies` has one, but depends on this crate).
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_term(rng: &mut SplitMix, vars: usize, depth: usize) -> Term {
        match rng.below(20) {
            0 | 1 => Term::constant(["a", "b"][rng.below(2)]),
            2 => Term::Null(rng.below(2) as u64),
            3 if depth == 0 => {
                let args: Vec<Term> = (0..1 + rng.below(2))
                    .map(|_| random_term(rng, vars, 1))
                    .collect();
                Term::Func(symbols::intern(["f", "g"][rng.below(2)]), args.into())
            }
            _ => Term::var(&format!("X{}", rng.below(vars))),
        }
    }

    /// 1–7 atoms over 1–3 predicates with a small variable pool that forces
    /// repeated variables; or, when `symmetric`, a chain or cycle over one
    /// predicate, which refinement cannot separate (tie groups).
    fn random_query(rng: &mut SplitMix, symmetric: bool) -> ConjunctiveQuery {
        let atoms = 1 + rng.below(7);
        if symmetric {
            let n = 2 + rng.below(4);
            let cycle = rng.below(2) == 0;
            let body = (0..n)
                .filter(|i| cycle || i + 1 < n)
                .map(|i| {
                    Atom::new(
                        Predicate::new("e", 2),
                        vec![
                            Term::var(&format!("X{i}")),
                            Term::var(&format!("X{}", (i + 1) % n)),
                        ],
                    )
                })
                .collect();
            return ConjunctiveQuery::boolean(body);
        }
        let preds = 1 + rng.below(3);
        let vars = 1 + rng.below(6);
        let body = (0..atoms)
            .map(|_| {
                let pred = rng.below(preds);
                let arity = 1 + pred;
                let args = (0..arity).map(|_| random_term(rng, vars, 0)).collect();
                Atom::new(Predicate::new(["p", "r", "t"][pred], arity), args)
            })
            .collect();
        let head = (0..rng.below(3))
            .map(|_| random_term(rng, vars, 1))
            .collect();
        ConjunctiveQuery::new(head, body)
    }

    fn assert_matches_oracle(query: &ConjunctiveQuery, context: &str) {
        let (order, key) = canonical_order(query);
        let (oracle_order, oracle_key) = oracle::best_order(query);
        assert_eq!(key.as_str(), oracle_key, "{context}: key of {query}");
        assert_eq!(order, oracle_order, "{context}: order of {query}");
        let (form, keyed) = canonicalize_keyed(query);
        let (oracle_form, _) = oracle::canonicalize_keyed(query);
        assert_eq!(keyed, key, "{context}: {query}");
        assert_eq!(form, oracle_form, "{context}: {query}");
        assert_eq!(
            form.to_string(),
            oracle_form.to_string(),
            "{context}: {query}"
        );
        assert_eq!(canonical_key(query), key, "{context}: {query}");
    }

    #[test]
    fn dense_implementation_equals_the_oracle_on_random_queries() {
        let mut tie_groups = 0usize;
        for seed in 0..3_000u64 {
            let mut rng = SplitMix(seed);
            let symmetric = rng.below(5) == 0;
            let query = random_query(&mut rng, symmetric);
            assert_matches_oracle(&query, &format!("seed {seed}"));
            // Isomorphic copy: atoms reversed, variables renamed.
            let mut copy = query.clone();
            copy.body.reverse();
            let shifted = canonical_form(&copy, &(0..copy.body.len()).collect::<Vec<_>>());
            assert_matches_oracle(&shifted, &format!("seed {seed} (copy)"));
            assert_eq!(
                canonical_key(&shifted),
                canonical_key(&query),
                "seed {seed}"
            );
            assert_eq!(canonicalize(&shifted), canonicalize(&query), "seed {seed}");
            tie_groups += usize::from(symmetric);
        }
        assert!(tie_groups > 300, "too few symmetric queries: {tie_groups}");
    }

    #[test]
    fn dense_implementation_equals_the_oracle_on_rewriter_shaped_queries() {
        // The shapes the rewriter admits while compiling P5-q4: the closure
        // of the 4-edge chain under one-atom resolution with P5's
        // (normalized) TGDs, stored canonically and resolved against TGDs
        // that use reserved names — `V`-names and `_`-names mixed in one
        // query, repeated predicates, dangling variables. (The rewriter
        // itself lives above this crate.)
        let rule = |body: (&str, &[&str]), head: (&str, &[&str])| {
            let atom = |(p, args): (&str, &[&str])| {
                let terms: Vec<Term> = args.iter().map(|a| Term::var(a)).collect();
                Atom::new(Predicate::new(p, terms.len()), terms)
            };
            (atom(body), atom(head))
        };
        let mut rules = vec![rule(("a1", &["_T0"]), ("edge", &["_T0", "_T1"]))];
        for k in 2..=5 {
            let (level, aux, below) = (format!("a{k}"), format!("aux{k}"), format!("a{}", k - 1));
            rules.push(rule((&level, &["_T0"]), (&aux, &["_T0", "_T1"])));
            rules.push(rule((&aux, &["_T0", "_T1"]), ("edge", &["_T0", "_T1"])));
            rules.push(rule((&aux, &["_T0", "_T1"]), (&below, &["_T1"])));
        }
        let seed = q(
            &["A"],
            &[
                ("edge", &["A", "B"]),
                ("edge", &["B", "C"]),
                ("edge", &["C", "D"]),
                ("edge", &["D", "E"]),
            ],
        );
        let mut seen = std::collections::HashSet::new();
        let mut frontier = vec![canonicalize(&seed)];
        seen.insert(canonical_key(&seed));
        let mut compared = 0usize;
        while let Some(query) = frontier.pop() {
            for (body, head) in &rules {
                for i in 0..query.body.len() {
                    let Some(gamma) = crate::unify::mgu_pair(&query.body[i], head) else {
                        continue;
                    };
                    let mut atoms = query.body.clone();
                    atoms[i] = body.clone();
                    let product = ConjunctiveQuery {
                        head_pred: query.head_pred,
                        head: query.head.clone(),
                        body: atoms,
                    }
                    .apply(&gamma);
                    assert_matches_oracle(&product, "P5 closure");
                    compared += 1;
                    let (form, key) = canonicalize_keyed(&product);
                    if seen.insert(key) && seen.len() < 4_000 {
                        assert_matches_oracle(&form, "P5 closure (stored)");
                        frontier.push(form);
                    }
                }
            }
        }
        assert!(compared > 1_000, "closure too small: {compared}");
    }
}
