//! Terms: constants, variables, labeled nulls, and function terms.
//!
//! Constants and variables follow the paper's Section 3.1 (`Δ_c` and query
//! variables); labeled nulls (`Δ_z`) are introduced by the chase; function
//! terms only appear in the Requiem-style baseline (Skolemized existentials).
//! A database holds constants only.

use std::fmt;

use crate::symbols::{self, Symbol};

/// A first-order term.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A constant from `Δ_c`. Constants obey the unique name assumption.
    Const(Symbol),
    /// A variable, identified by its interned name.
    Var(Symbol),
    /// A labeled null from `Δ_z` (chase-invented value). Different nulls may
    /// denote the same value, but within an instance they are distinct terms.
    Null(u64),
    /// A function term `f(t1, …, tn)`; used for Skolemized existentials.
    Func(Symbol, Box<[Term]>),
}

impl Term {
    /// Convenience constructor: a constant named `name`.
    pub fn constant(name: &str) -> Self {
        Term::Const(symbols::intern(name))
    }

    /// Convenience constructor: a variable named `name`.
    pub fn var(name: &str) -> Self {
        Term::Var(symbols::intern(name))
    }

    /// A globally fresh variable (used when renaming TGDs apart).
    pub fn fresh_var() -> Self {
        Term::Var(symbols::fresh("V"))
    }

    #[inline]
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    #[inline]
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }

    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Term::Null(_))
    }

    #[inline]
    pub fn is_func(&self) -> bool {
        matches!(self, Term::Func(..))
    }

    /// The variable symbol if this term is a variable.
    #[inline]
    pub fn as_var(&self) -> Option<Symbol> {
        match self {
            Term::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// True if no variable occurs anywhere in the term.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Const(_) | Term::Null(_) => true,
            Term::Var(_) => false,
            Term::Func(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Append every variable occurring in this term (with repetitions, in
    /// left-to-right order) to `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::Func(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
            Term::Const(_) | Term::Null(_) => {}
        }
    }

    /// Does variable `v` occur anywhere in this term?
    pub fn contains_var(&self, v: Symbol) -> bool {
        match self {
            Term::Var(w) => *w == v,
            Term::Func(_, args) => args.iter().any(|a| a.contains_var(v)),
            Term::Const(_) | Term::Null(_) => false,
        }
    }

    /// Process-independent total order on terms.
    ///
    /// The derived `Ord` compares interner indices and therefore depends on
    /// intern order, which changes between process runs. This order compares
    /// by name instead (numerically for integer-named constants, see
    /// [`symbols::cmp_values`]), so ledger segment dictionaries encode the
    /// same bytes after a restart, and ORDER BY results are stable across
    /// processes. Variant rank matches
    /// the derived order: `Const < Var < Null < Func`. `Equal` implies the
    /// terms are equal.
    pub fn canonical_cmp(&self, other: &Term) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(t: &Term) -> u8 {
            match t {
                Term::Const(_) => 0,
                Term::Var(_) => 1,
                Term::Null(_) => 2,
                Term::Func(..) => 3,
            }
        }
        match (self, other) {
            (Term::Const(a), Term::Const(b)) => symbols::cmp_values(*a, *b),
            (Term::Var(a), Term::Var(b)) => symbols::cmp_names(*a, *b),
            (Term::Null(a), Term::Null(b)) => a.cmp(b),
            (Term::Func(f, fa), Term::Func(g, ga)) => symbols::cmp_names(*f, *g)
                .then_with(|| fa.len().cmp(&ga.len()))
                .then_with(|| {
                    fa.iter()
                        .zip(ga.iter())
                        .map(|(x, y)| x.canonical_cmp(y))
                        .find(|o| o.is_ne())
                        .unwrap_or(Ordering::Equal)
                }),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// Compare two rows position-wise under [`Term::canonical_cmp`], shorter
/// rows first on a shared prefix. The row order used for canonical answer
/// output and sorted segment encoding.
pub fn canonical_cmp_rows(a: &[Term], b: &[Term]) -> std::cmp::Ordering {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| x.canonical_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(c) => write!(f, "{c}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Null(n) => write!(f, "z{n}"),
            Term::Func(g, args) => {
                write!(f, "{g}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groundness() {
        assert!(Term::constant("a").is_ground());
        assert!(Term::Null(3).is_ground());
        assert!(!Term::var("X").is_ground());
        let f = Term::Func(
            symbols::intern("f"),
            vec![Term::constant("a"), Term::var("X")].into_boxed_slice(),
        );
        assert!(!f.is_ground());
        assert!(f.contains_var(symbols::intern("X")));
        assert!(!f.contains_var(symbols::intern("Y")));
    }

    #[test]
    fn collect_vars_preserves_repetitions() {
        let f = Term::Func(
            symbols::intern("f"),
            vec![Term::var("X"), Term::var("Y"), Term::var("X")].into_boxed_slice(),
        );
        let mut vars = Vec::new();
        f.collect_vars(&mut vars);
        assert_eq!(
            vars,
            vec![
                symbols::intern("X"),
                symbols::intern("Y"),
                symbols::intern("X")
            ]
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::constant("nasdaq").to_string(), "nasdaq");
        assert_eq!(Term::var("X").to_string(), "X");
        assert_eq!(Term::Null(7).to_string(), "z7");
    }

    #[test]
    fn fresh_vars_are_distinct() {
        assert_ne!(Term::fresh_var(), Term::fresh_var());
    }

    #[test]
    fn canonical_order_is_name_based_and_numeric_aware() {
        use std::cmp::Ordering;
        // Intern in "wrong" order: derived Ord would put zebra < apple here.
        let z = Term::constant("zebra");
        let a = Term::constant("apple");
        assert_eq!(a.canonical_cmp(&z), Ordering::Less);
        // Numeric constants compare by value, not byte order.
        assert_eq!(
            Term::constant("9").canonical_cmp(&Term::constant("10")),
            Ordering::Less
        );
        assert_eq!(
            Term::constant("-3").canonical_cmp(&Term::constant("2")),
            Ordering::Less
        );
        // Numbers sort before non-numeric names; variant rank Const < Null.
        assert_eq!(
            Term::constant("7").canonical_cmp(&Term::constant("apple")),
            Ordering::Less
        );
        assert_eq!(a.canonical_cmp(&Term::Null(0)), Ordering::Less);
        assert_eq!(a.canonical_cmp(&Term::constant("apple")), Ordering::Equal);
    }

    #[test]
    fn canonical_row_order_breaks_length_ties_last() {
        use std::cmp::Ordering;
        let short = vec![Term::constant("a")];
        let long = vec![Term::constant("a"), Term::constant("b")];
        assert_eq!(canonical_cmp_rows(&short, &long), Ordering::Less);
        assert_eq!(canonical_cmp_rows(&long, &long), Ordering::Equal);
    }
}
