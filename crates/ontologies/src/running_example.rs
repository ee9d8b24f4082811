//! The paper's running example (Section 1): the stock-exchange relational
//! schema with ontological constraints σ1–σ9 and the negative constraint
//! δ1, plus the three-answer-variable example query and a small database.

use nyaya_core::{ConjunctiveQuery, Ontology};
use nyaya_parser::{parse_program, parse_query};

/// Datalog± source: σ1–σ9 and δ1, verbatim from Section 1.
pub(crate) const RUNNING_EXAMPLE: &str = "
% Relational schema:
%   stock(id, name, unit_price)
%   company(name, country, segment)
%   list_comp(stock, list)
%   fin_idx(name, type, ref_mkt)
%   stock_portf(company, stock, qty)

sigma1: stock_portf(X, Y, Z) -> company(X, V, W).
sigma2: stock_portf(X, Y, Z) -> stock(Y, V, W).
sigma3: list_comp(X, Y) -> fin_idx(Y, Z, W).
sigma4: list_comp(X, Y) -> stock(X, Z, W).
sigma5: stock_portf(X, Y, Z) -> has_stock(Y, X).
sigma6: has_stock(X, Y) -> stock_portf(Y, X, Z).
sigma7: stock(X, Y, Z) -> stock_portf(V, X, W).
sigma8: stock(X, Y, Z) -> fin_ins(X).
sigma9: company(X, Y, Z) -> legal_person(X).
delta1: legal_person(X), fin_ins(X) -> false.
";

/// The example query of Section 1: triples ⟨a, b, c⟩ where `a` is a
/// financial instrument owned by company `b` and listed on `c`.
pub(crate) const RUNNING_QUERY: &str = "q(A, B, C) :- fin_ins(A), stock_portf(B, A, D), \
    company(B, E, F), list_comp(A, C), fin_idx(C, G, H).";

/// A small consistent database for the running example (the ABox flavour
/// of Section 1: `company(ibm)`, `list_comp(ibm, nasdaq)` extended to the
/// relational arities).
pub(crate) const RUNNING_DATABASE: &str = "
stock(ibm_s, ibm_stock, p101).
stock(sap_s, sap_stock, p204).
company(ibm, us, tech).
company(sap, de, tech).
list_comp(ibm_s, nasdaq).
list_comp(sap_s, dax).
fin_idx(nasdaq, composite, nyse_mkt).
stock_portf(ibm, sap_s, q100).
";

/// Parse the running-example ontology.
pub fn ontology() -> Ontology {
    parse_program(RUNNING_EXAMPLE)
        .expect("running example must parse")
        .ontology
}

/// Parse the running-example query.
pub fn query() -> ConjunctiveQuery {
    parse_query(RUNNING_QUERY).expect("running query must parse")
}

/// Parse the running-example database facts.
pub fn database_facts() -> Vec<nyaya_core::Atom> {
    parse_program(RUNNING_DATABASE)
        .expect("running database must parse")
        .facts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_parses_with_expected_counts() {
        let o = ontology();
        assert_eq!(o.tgds.len(), 9);
        assert_eq!(o.ncs.len(), 1);
        assert!(nyaya_core::classes::is_linear(&o.tgds));
        assert_eq!(query().body.len(), 5);
        assert_eq!(database_facts().len(), 8);
    }

    #[test]
    fn sigma_labels_survive() {
        let o = ontology();
        assert_eq!(o.tgds[5].label, Some(nyaya_core::symbols::intern("sigma6")));
    }
}
