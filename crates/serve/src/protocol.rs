//! Wire protocol: length-prefixed frames carrying a line-oriented text
//! request/response grammar.
//!
//! ## Frame layout
//!
//! ```text
//! +----------------+----------------------+
//! | length: u32 BE | payload (UTF-8 text) |
//! +----------------+----------------------+
//! ```
//!
//! The length counts payload bytes only and is bounded by the receiver
//! (default [`DEFAULT_MAX_FRAME`]); an oversized frame is a protocol
//! error, not an allocation. A clean EOF *between* frames is a normal
//! connection close; EOF inside a frame is an error.
//!
//! ## Request grammar (first line = verb, optional body after `\n`)
//!
//! ```text
//! PING
//! PREPARE\n<query text>
//! ANSWER <handle> [AT <epoch>]
//! QUERY [AT <epoch>]\n<query text>
//! APPLY\n{+<fact>|-<fact>}\n...
//! STATS
//! EXPLAIN <handle>
//! SHUTDOWN
//! ```
//!
//! ## Response grammar
//!
//! ```text
//! PONG
//! HANDLE <handle>
//! ANSWERS <epoch> <backend> <0|1 complete> <n>\n<tuple>\n...   (terms tab-separated)
//! APPLIED <epoch> <inserted> <retracted>
//! TEXT\n<body>
//! ERR <message>
//! ```

use std::io::{self, Read, Write};

use crate::{AnswerSet, ApplySummary};

/// Default upper bound on one frame's payload (16 MiB) — large enough
/// for wide answer sets, small enough that a garbage length prefix
/// cannot drive an allocation.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary; an EOF
/// mid-frame or a length above `max` is an error.
pub fn read_frame(r: &mut impl Read, max: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max}-byte bound"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A decoded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Ping,
    Prepare {
        query: String,
    },
    Answer {
        handle: u64,
        at: Option<u64>,
    },
    Query {
        query: String,
        at: Option<u64>,
    },
    Apply {
        retracts: Vec<String>,
        inserts: Vec<String>,
    },
    Stats,
    Explain {
        handle: u64,
    },
    Shutdown,
}

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let text = match self {
            Request::Ping => "PING".to_owned(),
            Request::Prepare { query } => format!("PREPARE\n{query}"),
            Request::Answer { handle, at: None } => format!("ANSWER {handle}"),
            Request::Answer {
                handle,
                at: Some(e),
            } => format!("ANSWER {handle} AT {e}"),
            Request::Query { query, at: None } => format!("QUERY\n{query}"),
            Request::Query { query, at: Some(e) } => format!("QUERY AT {e}\n{query}"),
            Request::Apply { retracts, inserts } => {
                let mut text = "APPLY".to_owned();
                for fact in retracts {
                    text.push_str("\n-");
                    text.push_str(fact);
                }
                for fact in inserts {
                    text.push_str("\n+");
                    text.push_str(fact);
                }
                text
            }
            Request::Stats => "STATS".to_owned(),
            Request::Explain { handle } => format!("EXPLAIN {handle}"),
            Request::Shutdown => "SHUTDOWN".to_owned(),
        };
        text.into_bytes()
    }

    /// Decode a frame payload.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_owned())?;
        let (head, body) = match text.split_once('\n') {
            Some((head, body)) => (head, body),
            None => (text, ""),
        };
        let mut words = head.split_whitespace();
        let verb = words.next().ok_or("empty request")?;
        let parse_u64 = |w: Option<&str>, what: &str| {
            w.ok_or(format!("missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("malformed {what}"))
        };
        match verb {
            "PING" => Ok(Request::Ping),
            "PREPARE" => Ok(Request::Prepare {
                query: body.to_owned(),
            }),
            "ANSWER" => {
                let handle = parse_u64(words.next(), "handle")?;
                let at = match words.next() {
                    None => None,
                    Some("AT") => Some(parse_u64(words.next(), "epoch")?),
                    Some(other) => return Err(format!("unexpected token {other:?}")),
                };
                Ok(Request::Answer { handle, at })
            }
            "QUERY" => {
                let at = match words.next() {
                    None => None,
                    Some("AT") => Some(parse_u64(words.next(), "epoch")?),
                    Some(other) => return Err(format!("unexpected token {other:?}")),
                };
                Ok(Request::Query {
                    query: body.to_owned(),
                    at,
                })
            }
            "APPLY" => {
                let mut retracts = Vec::new();
                let mut inserts = Vec::new();
                for line in body.lines().filter(|l| !l.is_empty()) {
                    match line.split_at(1) {
                        ("+", fact) => inserts.push(fact.to_owned()),
                        ("-", fact) => retracts.push(fact.to_owned()),
                        _ => return Err(format!("apply line must start with + or -: {line:?}")),
                    }
                }
                Ok(Request::Apply { retracts, inserts })
            }
            "STATS" => Ok(Request::Stats),
            "EXPLAIN" => Ok(Request::Explain {
                handle: parse_u64(words.next(), "handle")?,
            }),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(format!("unknown verb {other:?}")),
        }
    }
}

/// A decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    Pong,
    Handle(u64),
    Answers(AnswerSet),
    Applied(ApplySummary),
    Text(String),
    Error(String),
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let text = match self {
            Response::Pong => "PONG".to_owned(),
            Response::Handle(h) => format!("HANDLE {h}"),
            Response::Answers(a) => {
                let mut text = format!(
                    "ANSWERS {} {} {} {}",
                    a.epoch,
                    a.backend,
                    u8::from(a.complete),
                    a.tuples.len()
                );
                for tuple in &a.tuples {
                    text.push('\n');
                    text.push_str(&tuple.join("\t"));
                }
                text
            }
            Response::Applied(s) => {
                format!("APPLIED {} {} {}", s.epoch, s.inserted, s.retracted)
            }
            Response::Text(body) => format!("TEXT\n{body}"),
            Response::Error(msg) => format!("ERR {}", msg.replace('\n', " ")),
        };
        text.into_bytes()
    }

    /// Decode a frame payload.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_owned())?;
        let (head, body) = match text.split_once('\n') {
            Some((head, body)) => (head, body),
            None => (text, ""),
        };
        let mut words = head.split_whitespace();
        let verb = words.next().ok_or("empty response")?;
        let parse_u64 = |w: Option<&str>, what: &str| {
            w.ok_or(format!("missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("malformed {what}"))
        };
        match verb {
            "PONG" => Ok(Response::Pong),
            "HANDLE" => Ok(Response::Handle(parse_u64(words.next(), "handle")?)),
            "ANSWERS" => {
                let epoch = parse_u64(words.next(), "epoch")?;
                let backend = words.next().ok_or("missing backend")?.to_owned();
                let complete = parse_u64(words.next(), "complete flag")? != 0;
                let count = parse_u64(words.next(), "tuple count")? as usize;
                let tuples: Vec<Vec<String>> = body
                    .lines()
                    .map(|line| {
                        if line.is_empty() {
                            Vec::new()
                        } else {
                            line.split('\t').map(str::to_owned).collect()
                        }
                    })
                    .collect();
                if tuples.len() != count {
                    return Err(format!(
                        "answer count mismatch: header says {count}, body has {}",
                        tuples.len()
                    ));
                }
                Ok(Response::Answers(AnswerSet {
                    epoch,
                    backend,
                    complete,
                    tuples,
                }))
            }
            "APPLIED" => Ok(Response::Applied(ApplySummary {
                epoch: parse_u64(words.next(), "epoch")?,
                inserted: parse_u64(words.next(), "inserted")?,
                retracted: parse_u64(words.next(), "retracted")?,
            })),
            "TEXT" => Ok(Response::Text(body.to_owned())),
            "ERR" => Ok(Response::Error(
                head.strip_prefix("ERR").unwrap_or("").trim().to_owned(),
            )),
            other => Err(format!("unknown response verb {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");

        let mut big = Vec::new();
        write_frame(&mut big, &[0u8; 100]).unwrap();
        let err = read_frame(&mut big.as_slice(), 10).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Ping,
            Request::Prepare {
                query: "q(X) :- p(X, Y).".into(),
            },
            Request::Answer {
                handle: 7,
                at: None,
            },
            Request::Answer {
                handle: 7,
                at: Some(3),
            },
            Request::Query {
                query: "q(X) :- p(X, X).".into(),
                at: Some(2),
            },
            Request::Apply {
                retracts: vec!["p(a, b)".into()],
                inserts: vec!["p(c, d)".into(), "r(e)".into()],
            },
            Request::Stats,
            Request::Explain { handle: 9 },
            Request::Shutdown,
        ];
        for req in cases {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let cases = [
            Response::Pong,
            Response::Handle(42),
            Response::Answers(AnswerSet {
                epoch: 5,
                backend: "in-memory".into(),
                complete: true,
                tuples: vec![vec!["a".into(), "b".into()], vec!["c".into(), "d".into()]],
            }),
            Response::Answers(AnswerSet {
                epoch: 0,
                backend: "program".into(),
                complete: false,
                tuples: Vec::new(),
            }),
            Response::Applied(ApplySummary {
                epoch: 9,
                inserted: 2,
                retracted: 1,
            }),
            Response::Text("strategy: ucq (181 disjuncts)".into()),
            Response::Error("no such handle".into()),
        ];
        for resp in cases {
            assert_eq!(Response::parse(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panicked() {
        for bad in [
            &b"FROB 1"[..],
            b"ANSWER",
            b"ANSWER x",
            b"ANSWER 1 NEAR 2",
            b"APPLY\n*p(a)",
            b"\xff\xfe",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
        assert!(Response::parse(b"ANSWERS 1 x 1 3\na\tb").is_err());
    }
}
