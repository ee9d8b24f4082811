//! # nyaya-parser
//!
//! Concrete syntax for Datalog± programs and a DL-Lite_R front end.
//!
//! The Datalog± syntax mirrors the paper's notation:
//!
//! ```text
//! sigma6: has_stock(X, Y) -> stock_portf(Y, X, Z).   % TGD
//! delta1: legal_person(X), fin_ins(X) -> false.      % negative constraint
//! key(list_comp/2) = {1}.                            % key dependency
//! list_comp(s1, nasdaq).                             % fact
//! q(A, B) :- fin_ins(A), stock_portf(B, A, D).       % conjunctive query
//! ```
//!
//! The DL-Lite front end ([`parse_dl_lite`]) embeds description
//! logic axioms into Datalog± exactly as Section 1 describes (inverse roles
//! as full TGDs, existential restrictions as partial TGDs, disjointness as
//! NCs, functionality as KDs). The OWL 2 QL front end
//! ([`parse_owl_ql`]) accepts the functional-style syntax of the
//! W3C profile that DL-Lite underlies (Section 2) and emits the same
//! Datalog± representation.

mod dl_lite;
mod lexer;
mod owl_ql;
mod parser;

pub use dl_lite::parse_dl_lite;
pub use lexer::ParseError;
pub use owl_ql::{parse_owl_ql, render_owl_ql};
pub use parser::{parse_program, parse_query, parse_tgds, Program};
