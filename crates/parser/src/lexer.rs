//! Tokenizer for the Datalog± text syntax.

use std::fmt;

/// A token with its source location (1-based line/column).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub line: usize,
    pub col: usize,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier: `stock_portf`, `X`, `nasdaq42`. Also bare integers
    /// (used as constants).
    Ident(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Dot,
    Colon,
    /// `:-` (query definition)
    Implies,
    /// `->` (rule arrow)
    Arrow,
    Equals,
    Slash,
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Implies => write!(f, "`:-`"),
            TokenKind::Arrow => write!(f, "`->`"),
            TokenKind::Equals => write!(f, "`=`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A lexical or syntactic error with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub line: usize,
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Tokenize a source string. Comments run from `%` or `#` to end of line.
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        let (tline, tcol) = (line, col);
        let bump = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
                    line: &mut usize,
                    col: &mut usize| {
            let c = chars.next();
            if c == Some('\n') {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            c
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump(&mut chars, &mut line, &mut col);
            }
            '%' | '#' => {
                while let Some(&c2) = chars.peek() {
                    if c2 == '\n' {
                        break;
                    }
                    bump(&mut chars, &mut line, &mut col);
                }
            }
            '(' => {
                bump(&mut chars, &mut line, &mut col);
                out.push(Token {
                    kind: TokenKind::LParen,
                    line: tline,
                    col: tcol,
                });
            }
            ')' => {
                bump(&mut chars, &mut line, &mut col);
                out.push(Token {
                    kind: TokenKind::RParen,
                    line: tline,
                    col: tcol,
                });
            }
            '{' => {
                bump(&mut chars, &mut line, &mut col);
                out.push(Token {
                    kind: TokenKind::LBrace,
                    line: tline,
                    col: tcol,
                });
            }
            '}' => {
                bump(&mut chars, &mut line, &mut col);
                out.push(Token {
                    kind: TokenKind::RBrace,
                    line: tline,
                    col: tcol,
                });
            }
            ',' => {
                bump(&mut chars, &mut line, &mut col);
                out.push(Token {
                    kind: TokenKind::Comma,
                    line: tline,
                    col: tcol,
                });
            }
            '.' => {
                bump(&mut chars, &mut line, &mut col);
                out.push(Token {
                    kind: TokenKind::Dot,
                    line: tline,
                    col: tcol,
                });
            }
            '=' => {
                bump(&mut chars, &mut line, &mut col);
                out.push(Token {
                    kind: TokenKind::Equals,
                    line: tline,
                    col: tcol,
                });
            }
            '/' => {
                bump(&mut chars, &mut line, &mut col);
                out.push(Token {
                    kind: TokenKind::Slash,
                    line: tline,
                    col: tcol,
                });
            }
            ':' => {
                bump(&mut chars, &mut line, &mut col);
                if chars.peek() == Some(&'-') {
                    bump(&mut chars, &mut line, &mut col);
                    out.push(Token {
                        kind: TokenKind::Implies,
                        line: tline,
                        col: tcol,
                    });
                } else {
                    out.push(Token {
                        kind: TokenKind::Colon,
                        line: tline,
                        col: tcol,
                    });
                }
            }
            '-' => {
                bump(&mut chars, &mut line, &mut col);
                if chars.peek() == Some(&'>') {
                    bump(&mut chars, &mut line, &mut col);
                    out.push(Token {
                        kind: TokenKind::Arrow,
                        line: tline,
                        col: tcol,
                    });
                } else {
                    return Err(ParseError {
                        message: "expected `->`".to_owned(),
                        line: tline,
                        col: tcol,
                    });
                }
            }
            c if c.is_alphanumeric() => {
                let mut ident = String::new();
                while let Some(&c2) = chars.peek() {
                    if c2.is_alphanumeric() || c2 == '_' {
                        ident.push(c2);
                        bump(&mut chars, &mut line, &mut col);
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Ident(ident),
                    line: tline,
                    col: tcol,
                });
            }
            '_' => {
                return Err(ParseError {
                    message: "identifiers starting with `_` are reserved for generated names"
                        .to_owned(),
                    line: tline,
                    col: tcol,
                });
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character `{other}`"),
                    line: tline,
                    col: tcol,
                });
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_tgd() {
        let toks = tokenize("s1: p(X) -> t(X, Y).").unwrap();
        let kinds: Vec<&TokenKind> = toks.iter().map(|t| &t.kind).collect();
        assert!(matches!(kinds[0], TokenKind::Ident(s) if s == "s1"));
        assert_eq!(kinds[1], &TokenKind::Colon);
        assert!(kinds.contains(&&TokenKind::Arrow));
        assert_eq!(kinds.last().unwrap(), &&TokenKind::Eof);
    }

    #[test]
    fn distinguishes_colon_and_implies() {
        let toks = tokenize("q(A) :- p(A).").unwrap();
        assert!(toks.iter().any(|t| t.kind == TokenKind::Implies));
        assert!(!toks.iter().any(|t| t.kind == TokenKind::Colon));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("% a comment\np(a). # another\n").unwrap();
        let idents: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["p", "a"]);
    }

    #[test]
    fn reports_positions() {
        let err = tokenize("p(X) @").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.col, 6);
    }

    #[test]
    fn rejects_leading_underscore() {
        assert!(tokenize("_x(a).").is_err());
    }

    #[test]
    fn bare_dash_is_an_error() {
        let err = tokenize("p(X) - q(X)").unwrap_err();
        assert!(err.message.contains("->"));
    }
}
