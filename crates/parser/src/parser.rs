//! Recursive-descent parser for Datalog± programs.
//!
//! Grammar (comments with `%` or `#`):
//!
//! ```text
//! program  := item*
//! item     := kd | labeled
//! kd       := "key" "(" IDENT "/" INT ")" "=" "{" INT ("," INT)* "}" "."
//! labeled  := (IDENT ":")? clause
//! clause   := atoms "->" "false" "."          (negative constraint)
//!           | atoms "->" atoms "."            (TGD)
//!           | atom ":-" atoms "."             (conjunctive query)
//!           | atoms "."                       (ground facts)
//! atoms    := atom ("," atom)*
//! atom     := IDENT "(" term ("," term)* ")" | IDENT "(" ")"
//! term     := IDENT        (uppercase initial → variable, else constant)
//! ```
//!
//! Key positions are 1-based in the text (as in the paper) and 0-based in
//! the API.

use std::collections::HashMap;

use nyaya_core::{
    Atom, ConjunctiveQuery, KeyDependency, NegativeConstraint, Ontology, Predicate, Term, Tgd,
};

use crate::lexer::{tokenize, ParseError, Token, TokenKind};

/// A parsed Datalog± program: ontology + facts + named queries.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub ontology: Ontology,
    pub facts: Vec<Atom>,
    pub queries: Vec<ConjunctiveQuery>,
}

/// Parse a program from text.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        arities: HashMap::new(),
    };
    parser.program()
}

/// Parse a single conjunctive query, e.g. `q(A,B) :- p(A,C), r(C,B).`
pub fn parse_query(src: &str) -> Result<ConjunctiveQuery, ParseError> {
    let program = parse_program(src)?;
    program.queries.into_iter().next().ok_or(ParseError {
        message: "input contains no query".to_owned(),
        line: 1,
        col: 1,
    })
}

/// Parse a set of TGDs (convenience for tests and ontology builders).
pub fn parse_tgds(src: &str) -> Result<Vec<Tgd>, ParseError> {
    Ok(parse_program(src)?.ontology.tgds)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    arities: HashMap<String, usize>,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let t = self.peek();
        Err(ParseError {
            message: message.into(),
            line: t.line,
            col: t.col,
        })
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if &self.peek().kind == kind {
            Ok(self.advance())
        } else {
            self.error(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let t = self.advance();
                match t.kind {
                    TokenKind::Ident(s) => Ok(s),
                    _ => unreachable!(),
                }
            }
            other => self.error(format!("expected identifier, found {other}")),
        }
    }

    fn integer(&mut self) -> Result<usize, ParseError> {
        let t = self.peek().clone();
        let s = self.ident()?;
        s.parse::<usize>().map_err(|_| ParseError {
            message: format!("expected integer, found `{s}`"),
            line: t.line,
            col: t.col,
        })
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::default();
        while self.peek().kind != TokenKind::Eof {
            self.item(&mut program)?;
        }
        Ok(program)
    }

    fn item(&mut self, program: &mut Program) -> Result<(), ParseError> {
        // Key dependency: `key(pred/arity) = {1,2}.`
        if let TokenKind::Ident(name) = &self.peek().kind {
            if name == "key" && self.peek2().kind == TokenKind::LParen {
                return self.key_dependency(program);
            }
        }

        // Optional label `name:` (but not `name(...)` nor `name :- …`).
        let label = if matches!(self.peek().kind, TokenKind::Ident(_))
            && self.peek2().kind == TokenKind::Colon
        {
            let l = self.ident()?;
            self.expect(&TokenKind::Colon)?;
            Some(l)
        } else {
            None
        };

        let first = self.atom()?;
        match &self.peek().kind {
            TokenKind::Implies => {
                if label.is_some() {
                    return self.error("queries cannot carry a rule label");
                }
                self.advance();
                let body = self.atoms()?;
                self.expect(&TokenKind::Dot)?;
                program.queries.push(self.build_query(first, body)?);
                Ok(())
            }
            TokenKind::Comma | TokenKind::Arrow | TokenKind::Dot => {
                let mut body = vec![first];
                while self.peek().kind == TokenKind::Comma {
                    self.advance();
                    body.push(self.atom()?);
                }
                match &self.peek().kind {
                    TokenKind::Arrow => {
                        self.advance();
                        // `false` head → NC.
                        if matches!(&self.peek().kind, TokenKind::Ident(s) if s == "false") {
                            self.advance();
                            self.expect(&TokenKind::Dot)?;
                            let mut nc = NegativeConstraint::new(body);
                            if let Some(l) = &label {
                                nc.label = Some(nyaya_core::symbols::intern(l));
                            }
                            program.ontology.ncs.push(nc);
                        } else {
                            let head = self.atoms()?;
                            self.expect(&TokenKind::Dot)?;
                            self.check_rule_safety(&body, &head)?;
                            let mut tgd = Tgd::new(body, head);
                            if let Some(l) = &label {
                                tgd.label = Some(nyaya_core::symbols::intern(l));
                            }
                            program.ontology.tgds.push(tgd);
                        }
                        Ok(())
                    }
                    TokenKind::Dot => {
                        self.advance();
                        if label.is_some() {
                            return self.error("facts cannot carry a rule label");
                        }
                        for atom in &body {
                            if !atom.is_ground() {
                                return self.error(format!("fact `{atom}` contains a variable"));
                            }
                        }
                        program.facts.extend(body);
                        Ok(())
                    }
                    other => self.error(format!("expected `->`, `,` or `.`, found {other}")),
                }
            }
            other => self.error(format!("expected `:-`, `->`, `,` or `.`, found {other}")),
        }
    }

    fn key_dependency(&mut self, program: &mut Program) -> Result<(), ParseError> {
        self.ident()?; // "key"
        self.expect(&TokenKind::LParen)?;
        let pred_name = self.ident()?;
        self.expect(&TokenKind::Slash)?;
        let arity = self.integer()?;
        self.expect(&TokenKind::RParen)?;
        self.register_arity(&pred_name, arity)?;
        self.expect(&TokenKind::Equals)?;
        self.expect(&TokenKind::LBrace)?;
        let mut key = Vec::new();
        loop {
            let p = self.integer()?;
            if p == 0 || p > arity {
                return self.error(format!(
                    "key position {p} out of range for {pred_name}/{arity} (positions are 1-based)"
                ));
            }
            key.push(p - 1);
            if self.peek().kind == TokenKind::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Dot)?;
        program
            .ontology
            .kds
            .push(KeyDependency::new(Predicate::new(&pred_name, arity), key));
        Ok(())
    }

    fn atoms(&mut self) -> Result<Vec<Atom>, ParseError> {
        let mut out = vec![self.atom()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            out.push(self.atom()?);
        }
        Ok(out)
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut terms = Vec::new();
        if self.peek().kind != TokenKind::RParen {
            loop {
                terms.push(self.term()?);
                if self.peek().kind == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.register_arity(&name, terms.len())?;
        Ok(Atom::new(Predicate::new(&name, terms.len()), terms))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let name = self.ident()?;
        let first = name.chars().next().expect("idents are non-empty");
        if first.is_uppercase() {
            Ok(Term::var(&name))
        } else {
            Ok(Term::constant(&name))
        }
    }

    fn register_arity(&mut self, name: &str, arity: usize) -> Result<(), ParseError> {
        match self.arities.get(name) {
            Some(&known) if known != arity => self.error(format!(
                "predicate `{name}` used with arity {arity} but earlier with {known}"
            )),
            _ => {
                self.arities.insert(name.to_owned(), arity);
                Ok(())
            }
        }
    }

    fn check_rule_safety(&self, body: &[Atom], head: &[Atom]) -> Result<(), ParseError> {
        // TGDs need no frontier check (head-only variables are existential),
        // but a head atom made only of existential variables sharing none
        // with the body is usually a typo; we only verify bodies non-empty.
        if body.is_empty() || head.is_empty() {
            return Err(ParseError {
                message: "rules need non-empty body and head".to_owned(),
                line: 0,
                col: 0,
            });
        }
        Ok(())
    }

    fn build_query(&self, head: Atom, body: Vec<Atom>) -> Result<ConjunctiveQuery, ParseError> {
        // Safety: every head variable must occur in the body.
        let mut head_vars = Vec::new();
        head.collect_vars(&mut head_vars);
        for v in &head_vars {
            if !body.iter().any(|a| a.contains_var(*v)) {
                return Err(ParseError {
                    message: format!("head variable `{v}` does not occur in the query body"),
                    line: 0,
                    col: 0,
                });
            }
        }
        let mut q = ConjunctiveQuery::new(head.args.clone(), body);
        q.head_pred = head.pred.sym;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_running_example() {
        let src = "
            % Stock exchange ontology (Section 1)
            sigma1: stock_portf(X, Y, Z) -> company(X, V, W).
            sigma5: stock_portf(X, Y, Z) -> has_stock(Y, X).
            sigma6: has_stock(X, Y) -> stock_portf(Y, X, Z).
            delta1: legal_person(X), fin_ins(X) -> false.
            key(list_comp/2) = {1}.
            stock(s1, apple, p10).
            list_comp(s1, nasdaq).
            q(A, B) :- fin_ins(A), stock_portf(B, A, D).
        ";
        let p = parse_program(src).unwrap();
        assert_eq!(p.ontology.tgds.len(), 3);
        assert_eq!(p.ontology.ncs.len(), 1);
        assert_eq!(p.ontology.kds.len(), 1);
        assert_eq!(p.facts.len(), 2);
        assert_eq!(p.queries.len(), 1);
        assert_eq!(p.queries[0].head.len(), 2);
        assert_eq!(p.queries[0].body.len(), 2);
        // Labels survive.
        assert_eq!(
            p.ontology.tgds[0].label,
            Some(nyaya_core::symbols::intern("sigma1"))
        );
        // Key positions are converted to 0-based.
        assert_eq!(p.ontology.kds[0].key, vec![0]);
    }

    #[test]
    fn multi_head_tgds_parse() {
        let p = parse_program("a(X) -> r(X, Y), b(Y).").unwrap();
        assert_eq!(p.ontology.tgds.len(), 1);
        assert_eq!(p.ontology.tgds[0].head.len(), 2);
        assert_eq!(p.ontology.tgds[0].existential_vars().len(), 1);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let err = parse_program("p(a). p(a, b).").unwrap_err();
        assert!(err.message.contains("arity"), "{err}");
    }

    #[test]
    fn non_ground_fact_is_rejected() {
        let err = parse_program("p(X).").unwrap_err();
        assert!(err.message.contains("variable"), "{err}");
    }

    #[test]
    fn unsafe_query_head_is_rejected() {
        let err = parse_program("q(A, B) :- p(A).").unwrap_err();
        assert!(err.message.contains("head variable"), "{err}");
    }

    #[test]
    fn key_position_bounds_are_checked() {
        assert!(parse_program("key(r/2) = {3}.").is_err());
        assert!(parse_program("key(r/2) = {0}.").is_err());
        assert!(parse_program("key(r/2) = {1, 2}.").is_ok());
    }

    #[test]
    fn boolean_query_parses() {
        let q = parse_query("q() :- p(A, B), r(B).").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.body.len(), 2);
    }

    #[test]
    fn constants_in_query_head() {
        let q = parse_query("q(A, nasdaq) :- list_comp(A, nasdaq).").unwrap();
        assert_eq!(q.head[1], Term::constant("nasdaq"));
    }

    #[test]
    fn numbers_are_constants() {
        let p = parse_program("stock(1, apple, 42).").unwrap();
        assert_eq!(p.facts.len(), 1);
        assert!(p.facts[0].is_ground());
    }

    #[test]
    fn displayed_items_reparse() {
        // The CLI prints TGDs, NCs, facts and queries with `Display`; that
        // text parses back to the same program, and printing is a fixpoint.
        let print = |p: &Program| -> String {
            let tgds = p.ontology.tgds.iter().map(ToString::to_string);
            let ncs = p.ontology.ncs.iter().map(ToString::to_string);
            let facts = p.facts.iter().map(ToString::to_string);
            let queries = p.queries.iter().map(ToString::to_string);
            tgds.chain(ncs)
                .chain(facts)
                .chain(queries)
                .map(|item| item + ".\n")
                .collect()
        };
        let p1 = parse_program(
            "sigma6: has_stock(X, Y) -> stock_portf(Y, X, Z).
             delta1: legal_person(X), fin_ins(X) -> false.
             stock(s1, apple, p10).
             q(A) :- fin_ins(A).
             q(A) :- p(A, B), r(B).",
        )
        .unwrap();
        let text = print(&p1);
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p2.ontology.tgds.len(), 1);
        assert_eq!(p2.ontology.ncs.len(), 1);
        assert_eq!(p2.facts, p1.facts);
        assert_eq!(p2.queries.len(), 2);
        assert_eq!(print(&p2), text);
    }

    #[test]
    fn error_positions_are_useful() {
        let err = parse_program("p(X) -> ").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col >= 8);
    }
}
