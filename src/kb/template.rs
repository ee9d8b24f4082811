//! Query templates: a query with the constants Σ never mentions
//! abstracted into parameters.
//!
//! The paper compiles a query against Σ alone. A constant that no TGD or
//! negative constraint mentions unifies with no constant of Σ and is only
//! ever compared for equality, so replacing it by another such constant
//! — consistently, equal constants alike — renames the perfect rewriting,
//! the program and the [`Strategy::Auto`] choice the same way and changes
//! nothing else. [`Shape::of`] therefore replaces each such constant of a
//! query by a reserved parameter; the knowledge base compiles that
//! template once, in the cache entry of the template's canonical key, and
//! [`Shape::bind_rewriting`] / [`Shape::bind_program`] put the query's own
//! constants back. Point queries that differ only in their constant share
//! one compile.
//!
//! [`Strategy::Auto`]: super::Strategy::Auto

use std::collections::HashSet;

use nyaya_core::{
    canonical_form, canonical_key, canonical_order, symbols, Atom, CanonicalKey, ConjunctiveQuery,
    DatalogProgram, DatalogRule, Ontology, Predicate, Symbol, Term, Tgd, UnionQuery,
};

use super::update::Snapshot;
use super::{CompiledProgram, CompiledRewriting};

/// The reserved constant standing for a template's `i`-th abstracted
/// constant, `?i`: the lexer rejects `?` and generated names start with
/// `_`, so no parsed or minted name is a parameter.
fn parameter(i: usize) -> Symbol {
    symbols::intern(&format!("?{i}"))
}

/// Every constant Σ mentions: in the TGDs as written and normalized, and
/// in the negative constraints. A template keeps these as they are.
pub(super) fn sigma_constants(ontology: &Ontology, normalized: &[Tgd]) -> HashSet<Symbol> {
    let mut out = HashSet::new();
    let atoms = ontology
        .tgds
        .iter()
        .chain(normalized)
        .flat_map(|tgd| tgd.body.iter().chain(&tgd.head))
        .chain(ontology.ncs.iter().flat_map(|nc| &nc.body));
    for atom in atoms {
        for term in &atom.args {
            collect_constants(term, &mut out);
        }
    }
    out
}

fn collect_constants(term: &Term, out: &mut HashSet<Symbol>) {
    match term {
        Term::Const(c) => {
            out.insert(*c);
        }
        Term::Func(_, args) => args.iter().for_each(|a| collect_constants(a, out)),
        Term::Var(_) | Term::Null(_) => {}
    }
}

/// A query as one knowledge base compiles it.
#[derive(Clone)]
pub(super) struct Shape {
    /// The query with each constant Σ never mentions replaced by a
    /// parameter, numbered by first occurrence (head first).
    pub(super) template: ConjunctiveQuery,
    /// The template's canonical key: the cache entry's key.
    pub(super) key: CanonicalKey,
    /// The constant parameter `i` stands for, at index `i`. Empty when
    /// the template is the query itself.
    pub(super) bindings: Vec<Symbol>,
}

impl Shape {
    /// Abstract the constants of `query` outside `sigma` (see
    /// [`sigma_constants`]).
    pub(super) fn of(query: &ConjunctiveQuery, sigma: &HashSet<Symbol>) -> Shape {
        let mut bindings = Vec::new();
        let template = map_query(query, &mut |c| {
            if sigma.contains(&c) {
                return c;
            }
            let i = bindings.iter().position(|&b| b == c).unwrap_or_else(|| {
                bindings.push(c);
                bindings.len() - 1
            });
            parameter(i)
        });
        Shape {
            key: canonical_key(&template),
            template,
            bindings,
        }
    }

    /// A constant of a compiled form with every parameter replaced by the
    /// constant it stands for.
    fn binder(&self) -> impl Fn(Symbol) -> Symbol + '_ {
        let params: Vec<Symbol> = (0..self.bindings.len()).map(parameter).collect();
        move |c| {
            params
                .iter()
                .position(|&p| p == c)
                .map_or(c, |i| self.bindings[i])
        }
    }

    /// The template's rewriting with the constants put back, exactly as
    /// compiling the query itself would produce it: each disjunct in
    /// canonical form, the union sorted by canonical key (the rewriters'
    /// own assembly order).
    pub(super) fn bind_rewriting(&self, compiled: &CompiledRewriting) -> CompiledRewriting {
        let mut bind = self.binder();
        let mut keyed: Vec<(CanonicalKey, ConjunctiveQuery)> = compiled
            .ucq
            .iter()
            .map(|cq| {
                let bound = map_query(cq, &mut bind);
                let (order, key) = canonical_order(&bound);
                (key, canonical_form(&bound, &order))
            })
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        CompiledRewriting {
            ucq: UnionQuery::new(keyed.into_iter().map(|(_, cq)| cq).collect()),
            stats: compiled.stats.clone(),
            touched: compiled.touched.clone(),
        }
    }

    /// The template's program with the constants put back.
    pub(super) fn bind_program(&self, compiled: &CompiledProgram) -> CompiledProgram {
        let mut bind = self.binder();
        let rules = compiled
            .program
            .rules
            .iter()
            .map(|rule| DatalogRule {
                head: map_atom(&rule.head, &mut bind),
                body: rule.body.iter().map(|a| map_atom(a, &mut bind)).collect(),
            })
            .collect();
        CompiledProgram {
            program: DatalogProgram::new(map_atom(&compiled.program.goal, &mut bind), rules),
            ..compiled.clone()
        }
    }

    /// The answer ring's key for this shape over `snapshot`: the bound
    /// constants' symbol indices, so two constants of one template never
    /// share a cached answer (and a lookup stops at the first differing
    /// constant), then the write epoch of each predicate the compiled form
    /// reads (`touched`, kept sorted). Equal fingerprints ⇒ equal
    /// constants and equal table contents for every touched predicate ⇒
    /// provably equal answers.
    pub(super) fn fingerprint(&self, snapshot: &Snapshot, touched: &[Predicate]) -> Vec<u64> {
        let mut fingerprint = Vec::with_capacity(self.bindings.len() + touched.len());
        fingerprint.extend(self.bindings.iter().map(|c| u64::from(c.index())));
        fingerprint.extend(touched.iter().map(|&p| snapshot.pred_epoch(p)));
        fingerprint
    }
}

/// `query` with every constant `c` replaced by `f(c)`.
fn map_query(query: &ConjunctiveQuery, f: &mut impl FnMut(Symbol) -> Symbol) -> ConjunctiveQuery {
    ConjunctiveQuery {
        head_pred: query.head_pred,
        head: query.head.iter().map(|t| map_term(t, f)).collect(),
        body: query.body.iter().map(|a| map_atom(a, f)).collect(),
    }
}

fn map_atom(atom: &Atom, f: &mut impl FnMut(Symbol) -> Symbol) -> Atom {
    Atom {
        pred: atom.pred,
        args: atom.args.iter().map(|t| map_term(t, f)).collect(),
    }
}

fn map_term(term: &Term, f: &mut impl FnMut(Symbol) -> Symbol) -> Term {
    match term {
        Term::Const(c) => Term::Const(f(*c)),
        Term::Func(g, args) => Term::Func(*g, args.iter().map(|a| map_term(a, f)).collect()),
        Term::Var(_) | Term::Null(_) => term.clone(),
    }
}
