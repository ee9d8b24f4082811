//! S — a STOCKEXCHANGE-like DL-Lite_R ontology of EU financial
//! institutions.
//!
//! Modelled after the ontology used by the Requiem evaluation: concept
//! hierarchies for market participants and instruments, roles with inverse
//! alternatives, and full domain/range axioms. The domain/range axioms make
//! every concept atom of the Table 2 queries redundant, so TGD-rewrite⋆
//! collapses q2–q5 to pure role joins — the paper's headline result
//! (S-q2: 160 CQs → 2).
//!
//! Each core role (`hasStock`, `belongsToCompany`, `isListedIn`) has exactly
//! one single-atom alternative, giving the Table 1 NY⋆ sizes by
//! construction: q2 = 2, q3 = 2×2 = 4, q4 = 2×2 = 4, q5 = 2×2×2 = 8.

/// DL-Lite_R axioms of the S ontology.
pub(crate) const STOCKEXCHANGE_DL: &str = "
% ---- market participants ----
Investor [= Person
Trader [= Person
Dealer [= Person
Broker [= Person
Analyst [= Person
Person [= LegalAgent
Company [= LegalAgent

% ---- StockExchangeMember subtree (6, q1) ----
Bank [= StockExchangeMember
BrokerageFirm [= StockExchangeMember
MarketMaker [= StockExchangeMember
ClearingHouse [= StockExchangeMember
InvestmentFund [= StockExchangeMember

% ---- financial instruments ----
Stock [= FinantialInstrument
Bond [= FinantialInstrument
CommonStock [= Stock
PreferredStock [= Stock

% ---- companies ----
ListedCompany [= Company

% ---- role alternatives (one each) ----
heldBy [= hasStock-
issuedBy [= belongsToCompany
listedOn [= isListedIn

% ---- domains and ranges ----
exists hasStock [= Person
exists hasStock- [= Stock
exists belongsToCompany [= FinantialInstrument
exists belongsToCompany- [= Company
exists isListedIn [= Stock
exists isListedIn- [= StockExchangeList

% ---- existential axioms ----
Person [= exists hasStock
Company [= exists belongsToCompany-
Stock [= exists isListedIn

% ---- disjointness (negative constraints) ----
Person [= not Company
Stock [= not StockExchangeList
";

/// The five S queries of Table 2 (verbatim).
pub const STOCKEXCHANGE_QUERIES: [(&str, &str); 5] = [
    ("q1", "q(A) :- StockExchangeMember(A)."),
    ("q2", "q(A, B) :- Person(A), hasStock(A, B), Stock(B)."),
    (
        "q3",
        "q(A, B, C) :- FinantialInstrument(A), belongsToCompany(A, B), Company(B), \
         hasStock(B, C), Stock(C).",
    ),
    (
        "q4",
        "q(A, B, C) :- Person(A), hasStock(A, B), Stock(B), isListedIn(B, C), \
         StockExchangeList(C).",
    ),
    (
        "q5",
        "q(A, B, C, D) :- FinantialInstrument(A), belongsToCompany(A, B), Company(B), \
         hasStock(B, C), Stock(C), isListedIn(C, D), StockExchangeList(D).",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_parser::{parse_dl_lite, parse_query};

    #[test]
    fn stockexchange_parses_and_is_linear() {
        let o = parse_dl_lite(STOCKEXCHANGE_DL).unwrap();
        assert!(nyaya_core::classes::is_linear(&o.tgds));
        assert_eq!(o.ncs.len(), 2);
        // Mix of full (hierarchy/domain/range) and existential TGDs.
        assert!(o.tgds.iter().any(|t| !t.is_full()));
    }

    #[test]
    fn queries_parse() {
        for (name, src) in STOCKEXCHANGE_QUERIES {
            parse_query(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let q2 = parse_query(STOCKEXCHANGE_QUERIES[1].1).unwrap();
        assert_eq!(q2.width(), 2); // Table 1: 320 width / 160 CQs
    }
}
