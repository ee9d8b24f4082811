//! Relational catalog: maps predicates to table/column names for SQL
//! generation.

use std::collections::HashMap;

use nyaya_core::Predicate;

/// Table metadata for one predicate.
#[derive(Clone, Debug)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<String>,
}

/// A catalog of table schemas, one per predicate.
#[derive(Clone, Default)]
pub struct Catalog {
    tables: HashMap<Predicate, TableSchema>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table with explicit column names.
    pub(crate) fn register(&mut self, pred: Predicate, name: &str, columns: Vec<String>) {
        assert_eq!(
            columns.len(),
            pred.arity,
            "column count must match arity of {pred:?}"
        );
        self.tables.insert(
            pred,
            TableSchema {
                name: name.to_owned(),
                columns,
            },
        );
    }

    /// Register predicates with default naming: table = predicate name,
    /// columns `c1..cn`.
    pub fn register_defaults(&mut self, preds: impl IntoIterator<Item = Predicate>) {
        for p in preds {
            if self.tables.contains_key(&p) {
                continue;
            }
            let columns = (1..=p.arity).map(|i| format!("c{i}")).collect();
            self.tables.insert(
                p,
                TableSchema {
                    name: p.sym.name(),
                    columns,
                },
            );
        }
    }

    /// Look up a table schema; `None` for unregistered predicates.
    pub fn table(&self, pred: Predicate) -> Option<&TableSchema> {
        self.tables.get(&pred)
    }

    /// Schema of the paper's running example (Section 1), with its
    /// documented column names.
    pub fn stock_exchange() -> Catalog {
        let mut c = Catalog::new();
        let cols = |names: &[&str]| names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        c.register(
            Predicate::new("stock", 3),
            "stock",
            cols(&["id", "name", "unit_price"]),
        );
        c.register(
            Predicate::new("company", 3),
            "company",
            cols(&["name", "country", "segment"]),
        );
        c.register(
            Predicate::new("list_comp", 2),
            "list_comp",
            cols(&["stock", "list"]),
        );
        c.register(
            Predicate::new("fin_idx", 3),
            "fin_idx",
            cols(&["name", "type", "ref_mkt"]),
        );
        c.register(
            Predicate::new("stock_portf", 3),
            "stock_portf",
            cols(&["company", "stock", "qty"]),
        );
        c.register(
            Predicate::new("has_stock", 2),
            "has_stock",
            cols(&["stock", "company"]),
        );
        c.register(Predicate::new("fin_ins", 1), "fin_ins", cols(&["id"]));
        c.register(
            Predicate::new("legal_person", 1),
            "legal_person",
            cols(&["name"]),
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_predicate_names() {
        let mut c = Catalog::new();
        c.register_defaults([Predicate::new("edge", 2)]);
        let t = c.table(Predicate::new("edge", 2)).unwrap();
        assert_eq!(t.name, "edge");
        assert_eq!(t.columns, vec!["c1", "c2"]);
    }

    #[test]
    fn explicit_registration_wins() {
        let mut c = Catalog::new();
        let p = Predicate::new("stock", 3);
        c.register(p, "stocks_tbl", vec!["a".into(), "b".into(), "c".into()]);
        c.register_defaults([p]);
        assert_eq!(c.table(p).unwrap().name, "stocks_tbl");
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn arity_mismatch_panics() {
        let mut c = Catalog::new();
        c.register(Predicate::new("p", 2), "p", vec!["only_one".into()]);
    }

    #[test]
    fn stock_exchange_catalog_is_complete() {
        let c = Catalog::stock_exchange();
        assert!(c.table(Predicate::new("stock_portf", 3)).is_some());
        assert_eq!(
            c.table(Predicate::new("stock", 3)).unwrap().columns,
            vec!["id", "name", "unit_price"]
        );
    }
}
