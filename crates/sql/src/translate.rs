//! UCQ → SQL translation (Section 1: the perfect rewriting "is evaluated
//! and optimized in the usual way" by the DBMS — this module produces that
//! SQL).

use std::collections::HashMap;

use nyaya_core::{ConjunctiveQuery, Symbol, Term, UnionQuery};

use crate::catalog::Catalog;
use crate::program::ProgramError;

/// Render a constant as a SQL string literal, doubling embedded single
/// quotes (`o'brien` → `'o''brien'`). Constants come from user programs
/// and ad-hoc queries, so interpolating them unescaped would let a value
/// terminate the literal and inject trailing SQL.
pub(crate) fn sql_literal(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('\'');
    for c in value.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
    out
}

/// SQL keywords that would be misparsed as syntax if a table or column
/// carried one as its bare name (the common core across DBMS dialects).
const SQL_KEYWORDS: &[&str] = &[
    "all",
    "alter",
    "and",
    "as",
    "asc",
    "between",
    "by",
    "case",
    "create",
    "cross",
    "delete",
    "desc",
    "distinct",
    "drop",
    "else",
    "end",
    "except",
    "exists",
    "from",
    "group",
    "having",
    "in",
    "index",
    "inner",
    "insert",
    "intersect",
    "into",
    "is",
    "join",
    "left",
    "like",
    "limit",
    "not",
    "null",
    "offset",
    "on",
    "or",
    "order",
    "outer",
    "right",
    "select",
    "set",
    "table",
    "then",
    "union",
    "update",
    "values",
    "view",
    "when",
    "where",
    "with",
];

/// Quote an identifier unless it is a bare-safe name (`[A-Za-z_]` then
/// `[A-Za-z0-9_]*`, and not a reserved keyword). Quoted identifiers use
/// double quotes with embedded double quotes doubled, so catalog-supplied
/// table/column names can never escape their position in the statement.
pub(crate) fn sql_ident(name: &str) -> String {
    let mut chars = name.chars();
    let bare_safe = match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !SQL_KEYWORDS.contains(&name.to_ascii_lowercase().as_str())
        }
        _ => false,
    };
    if bare_safe {
        return name.to_owned();
    }
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// Translate one CQ into a `SELECT DISTINCT … FROM … WHERE …` block.
///
/// Each body atom becomes a `FROM` entry aliased `r0, r1, …`; repeated
/// variables become equality predicates; constants become literal filters.
/// Returns `None` if some predicate is not registered in the catalog.
pub(crate) fn cq_to_sql(q: &ConjunctiveQuery, catalog: &Catalog) -> Option<String> {
    let mut first_occurrence: HashMap<Symbol, String> = HashMap::new();
    let mut conditions: Vec<String> = Vec::new();

    for (i, atom) in q.body.iter().enumerate() {
        let table = catalog.table(atom.pred)?;
        for (j, t) in atom.args.iter().enumerate() {
            let column = format!("r{i}.{}", sql_ident(&table.columns[j]));
            match t {
                Term::Var(v) => match first_occurrence.get(v) {
                    Some(prev) => conditions.push(format!("{prev} = {column}")),
                    None => {
                        first_occurrence.insert(*v, column);
                    }
                },
                Term::Const(c) => {
                    conditions.push(format!("{column} = {}", sql_literal(&c.to_string())));
                }
                Term::Null(_) | Term::Func(..) => {
                    // Nulls/function terms never appear in final rewritings.
                    return None;
                }
            }
        }
    }

    let select: Vec<String> = if q.head.is_empty() {
        vec!["1".to_owned()]
    } else {
        q.head
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let expr = match t {
                    Term::Var(v) => first_occurrence
                        .get(v)
                        .cloned()
                        .unwrap_or_else(|| "NULL".to_owned()),
                    Term::Const(c) => sql_literal(&c.to_string()),
                    _ => "NULL".to_owned(),
                };
                format!("{expr} AS a{}", i + 1)
            })
            .collect()
    };

    let from: Vec<String> = q
        .body
        .iter()
        .enumerate()
        .map(|(i, atom)| {
            let table = catalog.table(atom.pred).expect("checked above");
            format!("{} AS r{i}", sql_ident(&table.name))
        })
        .collect();

    // An empty body (a program's ground fact rule) selects its one row
    // from no table.
    let mut sql = format!("SELECT DISTINCT {}", select.join(", "));
    if !from.is_empty() {
        sql.push_str("\nFROM ");
        sql.push_str(&from.join(", "));
    }
    if !conditions.is_empty() {
        sql.push_str("\nWHERE ");
        sql.push_str(&conditions.join("\n  AND "));
    }
    Some(sql)
}

/// Translate a UCQ into a `UNION` of SELECT blocks (set semantics — the
/// answer to a UCQ is a set of tuples, Section 3.1): the one union
/// printer, behind a flat rewriting's text and every `UNION` of
/// [`program_to_sql`](crate::program_to_sql). The empty union selects
/// nothing. A body predicate with no table in `catalog` is named in a
/// [`ProgramError::UnregisteredPredicate`].
pub fn ucq_to_sql(u: &UnionQuery, catalog: &Catalog) -> Result<String, ProgramError> {
    if u.is_empty() {
        return Ok("SELECT NULL WHERE 1 = 0".to_owned());
    }
    let blocks = u.iter().map(|q| {
        if let Some(atom) = q.body.iter().find(|a| catalog.table(a.pred).is_none()) {
            return Err(ProgramError::UnregisteredPredicate {
                predicate: atom.pred.to_string(),
            });
        }
        cq_to_sql(q, catalog).ok_or_else(|| ProgramError::Untranslatable {
            rule: q.to_string(),
        })
    });
    Ok(blocks.collect::<Result<Vec<_>, _>>()?.join("\nUNION\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::{Atom, Predicate};

    fn cq(head: &[&str], body: &[(&str, &[&str])]) -> ConjunctiveQuery {
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
    fn single_atom_select() {
        let catalog = Catalog::stock_exchange();
        let q = cq(&["A"], &[("fin_ins", &["A"])]);
        let sql = cq_to_sql(&q, &catalog).unwrap();
        assert_eq!(sql, "SELECT DISTINCT r0.id AS a1\nFROM fin_ins AS r0");
    }

    #[test]
    fn join_condition_from_shared_variable() {
        let catalog = Catalog::stock_exchange();
        // q(A,B) ← list_comp(A,C), stock_portf(B,A,D): join on A.
        let q = cq(
            &["A", "B"],
            &[
                ("list_comp", &["A", "C"]),
                ("stock_portf", &["B", "A", "D"]),
            ],
        );
        let sql = cq_to_sql(&q, &catalog).unwrap();
        assert!(sql.contains("r0.stock = r1.stock"), "{sql}");
        assert!(
            sql.contains("FROM list_comp AS r0, stock_portf AS r1"),
            "{sql}"
        );
    }

    #[test]
    fn constants_become_literal_filters() {
        let catalog = Catalog::stock_exchange();
        let q = cq(&["A"], &[("list_comp", &["A", "nasdaq"])]);
        let sql = cq_to_sql(&q, &catalog).unwrap();
        assert!(sql.contains("r0.list = 'nasdaq'"), "{sql}");
    }

    #[test]
    fn boolean_query_selects_one() {
        let catalog = Catalog::stock_exchange();
        let q = cq(&[], &[("fin_ins", &["A"])]);
        let sql = cq_to_sql(&q, &catalog).unwrap();
        assert!(sql.starts_with("SELECT DISTINCT 1"), "{sql}");
    }

    #[test]
    fn ucq_becomes_union() {
        let catalog = Catalog::stock_exchange();
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("fin_ins", &["A"])]),
            cq(&["A"], &[("stock", &["A", "B", "C"])]),
        ]);
        let sql = ucq_to_sql(&u, &catalog).unwrap();
        assert_eq!(sql.matches("SELECT DISTINCT").count(), 2);
        assert!(sql.contains("UNION"), "{sql}");
    }

    #[test]
    fn unknown_predicate_is_rejected() {
        let catalog = Catalog::stock_exchange();
        let q = cq(&["A"], &[("unknown_pred", &["A"])]);
        assert!(cq_to_sql(&q, &catalog).is_none());
        let u = UnionQuery::new(vec![cq(&["A"], &[("fin_ins", &["A"])]), q]);
        assert_eq!(
            ucq_to_sql(&u, &catalog),
            Err(ProgramError::UnregisteredPredicate {
                predicate: "unknown_pred".to_owned()
            })
        );
    }

    #[test]
    fn empty_ucq_selects_nothing() {
        let catalog = Catalog::new();
        let sql = ucq_to_sql(&UnionQuery::default(), &catalog).unwrap();
        assert!(sql.contains("1 = 0"));
    }

    #[test]
    fn quoted_constants_cannot_escape_their_literal() {
        // Regression: `Term::Const(c)` used to be interpolated as '{c}'
        // verbatim, so a constant holding a single quote terminated the
        // literal and injected trailing SQL.
        let mut catalog = Catalog::new();
        catalog.register_defaults([Predicate::new("person", 2)]);
        let q = ConjunctiveQuery::new(
            vec![Term::var("A")],
            vec![Atom::new(
                Predicate::new("person", 2),
                vec![
                    Term::var("A"),
                    Term::constant("o'brien'; DROP TABLE person; --"),
                ],
            )],
        );
        let sql = cq_to_sql(&q, &catalog).unwrap();
        assert!(
            sql.contains("r0.c2 = 'o''brien''; DROP TABLE person; --'"),
            "{sql}"
        );
        // Nothing after the (escaped) literal leaks out as a statement.
        assert!(!sql.contains("--'\n"), "{sql}");
        // Constants projected in the head are escaped the same way.
        let q = ConjunctiveQuery::new(
            vec![Term::constant("it's")],
            vec![Atom::new(
                Predicate::new("person", 2),
                vec![Term::var("A"), Term::var("B")],
            )],
        );
        let sql = cq_to_sql(&q, &catalog).unwrap();
        assert!(sql.contains("'it''s' AS a1"), "{sql}");
    }

    #[test]
    fn unsafe_identifiers_are_quoted() {
        assert_eq!(sql_ident("fin_ins"), "fin_ins");
        assert_eq!(sql_ident("_def12"), "_def12");
        assert_eq!(sql_ident("weird name"), "\"weird name\"");
        assert_eq!(sql_ident("a\"b"), "\"a\"\"b\"");
        assert_eq!(sql_ident("1st"), "\"1st\"");
        // Reserved keywords must be quoted even though they look bare-safe.
        assert_eq!(sql_ident("order"), "\"order\"");
        assert_eq!(sql_ident("Select"), "\"Select\"");
        assert_eq!(sql_ident("grouping"), "grouping", "prefixes stay bare");
        let mut catalog = Catalog::new();
        let p = Predicate::new("t", 1);
        catalog.register(p, "drop table; x", vec!["se\"lect".into()]);
        let q = ConjunctiveQuery::new(
            vec![Term::var("A")],
            vec![Atom::new(p, vec![Term::var("A")])],
        );
        let sql = cq_to_sql(&q, &catalog).unwrap();
        assert!(sql.contains("FROM \"drop table; x\" AS r0"), "{sql}");
        assert!(sql.contains("r0.\"se\"\"lect\" AS a1"), "{sql}");
    }

    #[test]
    fn intra_atom_repeats_produce_self_condition() {
        let mut catalog = Catalog::new();
        catalog.register_defaults([Predicate::new("t", 3)]);
        let q = cq(&[], &[("t", &["A", "B", "B"])]);
        let sql = cq_to_sql(&q, &catalog).unwrap();
        assert!(sql.contains("r0.c2 = r0.c3"), "{sql}");
    }
}
