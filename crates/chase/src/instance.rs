//! Relational instances: finite (or chase-grown) sets of atoms over
//! constants and labeled nulls, with a per-predicate index.

use std::collections::{HashMap, HashSet};
use std::fmt;

use nyaya_core::{Atom, Predicate, Term};

/// A relational instance (paper, Section 3.1). A *database* is an instance
/// containing only constants; the chase extends it with labeled nulls.
#[derive(Clone, Default)]
pub struct Instance {
    atoms: Vec<Atom>,
    index: HashMap<Predicate, Vec<usize>>,
    set: HashSet<Atom>,
    next_null: u64,
}

impl Instance {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an instance from ground atoms. Panics if any atom contains a
    /// variable (instances hold only constants and nulls).
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Self {
        let mut inst = Instance::new();
        for a in atoms {
            inst.insert(a);
        }
        inst
    }

    /// Insert an atom; returns `true` if it was new. Tracks the highest null
    /// id seen so that `fresh_null` never collides.
    pub fn insert(&mut self, atom: Atom) -> bool {
        assert!(
            atom.is_ground(),
            "instances contain ground atoms only, got {atom}"
        );
        for t in &atom.args {
            if let Term::Null(n) = t {
                self.next_null = self.next_null.max(n + 1);
            }
        }
        if self.set.contains(&atom) {
            return false;
        }
        let idx = self.atoms.len();
        self.index.entry(atom.pred).or_default().push(idx);
        self.set.insert(atom.clone());
        self.atoms.push(atom);
        true
    }

    /// A fresh labeled null, never used in this instance before.
    pub(crate) fn fresh_null(&mut self) -> Term {
        let n = self.next_null;
        self.next_null += 1;
        Term::Null(n)
    }

    pub fn contains(&self, atom: &Atom) -> bool {
        self.set.contains(atom)
    }

    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All atoms, in insertion order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Atoms of a given predicate.
    pub(crate) fn by_predicate(&self, pred: Predicate) -> impl Iterator<Item = &Atom> {
        self.index
            .get(&pred)
            .into_iter()
            .flatten()
            .map(move |&i| &self.atoms[i])
    }

    /// The predicates present in the instance.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.index.keys().copied()
    }

    /// Every constant occurring in the instance (the active domain ∩ Δ_c).
    pub fn constants(&self) -> HashSet<Term> {
        let mut out = HashSet::new();
        for a in &self.atoms {
            for t in &a.args {
                if t.is_const() {
                    out.insert(t.clone());
                }
            }
        }
        out
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut strs: Vec<String> = self.atoms.iter().map(|a| a.to_string()).collect();
        strs.sort();
        write!(f, "{{{}}}", strs.join(", "))
    }
}

#[cfg(test)]
impl Instance {
    /// Does the instance contain any labeled null?
    pub(crate) fn has_nulls(&self) -> bool {
        self.atoms.iter().any(|a| a.args.iter().any(Term::is_null))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates() {
        let mut i = Instance::new();
        assert!(i.insert(Atom::make("p", ["a"])));
        assert!(!i.insert(Atom::make("p", ["a"])));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn fresh_nulls_avoid_existing_ones() {
        let mut i = Instance::new();
        i.insert(Atom::new(
            nyaya_core::Predicate::new("p", 1),
            vec![Term::Null(5)],
        ));
        assert_eq!(i.fresh_null(), Term::Null(6));
        assert_eq!(i.fresh_null(), Term::Null(7));
    }

    #[test]
    #[should_panic(expected = "ground atoms only")]
    fn variables_are_rejected() {
        let mut i = Instance::new();
        i.insert(Atom::make("p", ["X"]));
    }

    #[test]
    fn by_predicate_filters() {
        let mut i = Instance::new();
        i.insert(Atom::make("p", ["a"]));
        i.insert(Atom::make("r", ["a", "b"]));
        i.insert(Atom::make("p", ["b"]));
        assert_eq!(i.by_predicate(Predicate::new("p", 1)).count(), 2);
        assert_eq!(i.by_predicate(Predicate::new("r", 2)).count(), 1);
        assert_eq!(i.by_predicate(Predicate::new("s", 1)).count(), 0);
    }

    #[test]
    fn constants_and_nulls() {
        let mut i = Instance::new();
        i.insert(Atom::make("p", ["a"]));
        assert!(!i.has_nulls());
        let n = i.fresh_null();
        i.insert(Atom::new(nyaya_core::Predicate::new("p", 1), vec![n]));
        assert!(i.has_nulls());
        assert_eq!(i.constants().len(), 1);
    }
}
