//! Recursive-descent parser for the spec language.

use core::fmt;
use core::str::FromStr;
use std::collections::HashMap;

use crate::alg::{Alg, OpKind};
use crate::arch::Arch;
use crate::error::ModelError;
use crate::exec::{CommTable, ExecTable};
use crate::ids::{DepId, LinkId, OpId, ProcId};
use crate::problem::Problem;
use crate::time::Time;

use super::lexer::{LexError, Lexer, Token, TokenKind};

/// Error produced while parsing a problem spec.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// A token did not match the grammar.
    Unexpected {
        /// What the parser found.
        found: String,
        /// What it expected.
        expected: String,
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
    },
    /// The spec parsed but the model it describes is invalid.
    Model(ModelError),
    /// A required section is missing.
    MissingSection {
        /// Section keyword (`algorithm`, `architecture`, …).
        section: &'static str,
    },
    /// A section appeared twice.
    DuplicateSection {
        /// Section keyword.
        section: &'static str,
        /// 1-based line.
        line: u32,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                found,
                expected,
                line,
                col,
            } => write!(f, "expected {expected}, found {found} at {line}:{col}"),
            ParseError::Model(e) => write!(f, "invalid model: {e}"),
            ParseError::MissingSection { section } => {
                write!(f, "missing `{section}` section")
            }
            ParseError::DuplicateSection { section, line } => {
                write!(f, "duplicate `{section}` section at line {line}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Lex(e) => Some(e),
            ParseError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

impl From<ModelError> for ParseError {
    fn from(e: ModelError) -> Self {
        ParseError::Model(e)
    }
}

/// Parses a complete problem spec.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors (with position), unknown names,
/// or model validation failures.
///
/// # Example
///
/// ```
/// use ftbar_model::spec::parse_problem;
///
/// let p = parse_problem(
///     "algorithm a { op X; op Y; dep X -> Y; }
///      architecture m { proc P1; proc P2; link L: P1 -- P2; }
///      exec { X on P1 = 1; X on P2 = 1; Y on P1 = 2; Y on P2 = 2; }
///      comm { X -> Y on L = 0.5; }
///      npf 1;",
/// )?;
/// assert_eq!(p.npf(), 1);
/// # Ok::<(), ftbar_model::spec::ParseError>(())
/// ```
pub fn parse_problem(input: &str) -> Result<Problem, ParseError> {
    let mut parser = Parser::new(input);
    let parsed = parser.problem();
    match parser.first_lex_error() {
        Some(e) => Err(e.into()),
        None => parsed,
    }
}

/// Ops by name (first declaration wins) and deps by endpoints (first
/// parallel dep wins), as the algorithm section declared them.
struct AlgNames<'a> {
    ops: HashMap<&'a str, OpId>,
    deps: HashMap<(OpId, OpId), DepId>,
}

/// Processors and links by name (first declaration wins).
struct ArchNames<'a> {
    procs: HashMap<&'a str, ProcId>,
    links: HashMap<&'a str, LinkId>,
}

/// Raw exec entry: (op name, proc name, time or None for `inf`).
type RawExec<'a> = (&'a str, &'a str, Option<Time>);
/// Raw comm entry: (src op, dst op, link, time or None for `inf`).
type RawComm<'a> = (&'a str, &'a str, &'a str, Option<Time>);

/// Pulls tokens from the lexer one at a time; `tok` is the lookahead.
struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Token<'a>,
    /// The lexer's error, once it hit one; `tok` is then an `Eof` at the
    /// offending character, which stops the parse.
    lex_error: Option<LexError>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(input),
            tok: Token {
                kind: TokenKind::Eof,
                line: 1,
                col: 1,
            },
            lex_error: None,
        };
        parser.tok = parser.next_token();
        parser
    }

    fn next_token(&mut self) -> Token<'a> {
        self.lexer.next_token().unwrap_or_else(|e| {
            let eof = Token {
                kind: TokenKind::Eof,
                line: e.line,
                col: e.col,
            };
            self.lex_error = Some(e);
            eof
        })
    }

    /// The first lexical error in the input, if any. It outranks every
    /// parse or model error, so after a failed parse this lexes the rest
    /// of the input looking for one.
    fn first_lex_error(&mut self) -> Option<LexError> {
        while self.lex_error.is_none() && self.tok.kind != TokenKind::Eof {
            self.tok = self.next_token();
        }
        self.lex_error.take()
    }

    fn peek(&self) -> TokenKind<'a> {
        self.tok.kind
    }

    fn bump(&mut self) {
        if self.tok.kind != TokenKind::Eof {
            self.tok = self.next_token();
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            found: self.tok.kind.to_string(),
            expected: expected.to_owned(),
            line: self.tok.line,
            col: self.tok.col,
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if self.peek() == TokenKind::Ident(kw) {
            self.bump();
            return true;
        }
        false
    }

    /// A `NUMBER` token parsed as `T`; a literal `T` rejects is reported
    /// at the literal as `what`.
    fn number<T: FromStr>(&mut self, what: &str) -> Result<T, ParseError> {
        match self.peek() {
            TokenKind::Number(s) => {
                let v = s.parse().map_err(|_| self.unexpected(what))?;
                self.bump();
                Ok(v)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// `NUMBER | inf` — `None` encodes `inf`. Times go through `Time`'s
    /// checked parser, so out-of-range literals become parse errors
    /// instead of panics.
    fn time_or_inf(&mut self) -> Result<Option<Time>, ParseError> {
        if self.keyword("inf") {
            return Ok(None);
        }
        match self.peek() {
            TokenKind::Number(_) => self.number("time literal").map(Some),
            _ => Err(self.unexpected("time literal or `inf`")),
        }
    }

    fn problem(&mut self) -> Result<Problem, ParseError> {
        let mut alg: Option<(Alg, AlgNames<'a>)> = None;
        let mut arch: Option<(Arch, ArchNames<'a>)> = None;
        let mut raw_exec: Option<Vec<RawExec<'a>>> = None;
        let mut raw_comm: Option<Vec<RawComm<'a>>> = None;
        let mut rtc: Option<Time> = None;
        let mut npf: Option<u32> = None;

        loop {
            let line = self.tok.line;
            if self.peek() == TokenKind::Eof {
                break;
            }
            if self.keyword("algorithm") {
                if alg.is_some() {
                    return Err(ParseError::DuplicateSection {
                        section: "algorithm",
                        line,
                    });
                }
                alg = Some(self.algorithm()?);
            } else if self.keyword("architecture") {
                if arch.is_some() {
                    return Err(ParseError::DuplicateSection {
                        section: "architecture",
                        line,
                    });
                }
                arch = Some(self.architecture()?);
            } else if self.keyword("exec") {
                if raw_exec.is_some() {
                    return Err(ParseError::DuplicateSection {
                        section: "exec",
                        line,
                    });
                }
                raw_exec = Some(self.exec_section()?);
            } else if self.keyword("comm") {
                if raw_comm.is_some() {
                    return Err(ParseError::DuplicateSection {
                        section: "comm",
                        line,
                    });
                }
                raw_comm = Some(self.comm_section()?);
            } else if self.keyword("rtc") {
                rtc = Some(self.number("deadline")?);
                self.expect(TokenKind::Semi, "`;`")?;
            } else if self.keyword("npf") {
                let v: f64 = self.number("failure count")?;
                if v.fract() != 0.0 || v < 0.0 {
                    return Err(self.unexpected("non-negative integer"));
                }
                npf = Some(v as u32);
                self.expect(TokenKind::Semi, "`;`")?;
            } else {
                return Err(
                    self.unexpected("`algorithm`, `architecture`, `exec`, `comm`, `rtc` or `npf`")
                );
            }
        }

        let (alg, alg_names) = alg.ok_or(ParseError::MissingSection {
            section: "algorithm",
        })?;
        let (arch, arch_names) = arch.ok_or(ParseError::MissingSection {
            section: "architecture",
        })?;
        let raw_exec = raw_exec.ok_or(ParseError::MissingSection { section: "exec" })?;

        let mut exec = ExecTable::new(alg.op_count(), arch.proc_count());
        for (op_name, proc_name, t) in raw_exec {
            let op = resolve(&alg_names.ops, op_name, "operation")?;
            let proc = resolve(&arch_names.procs, proc_name, "processor")?;
            match t {
                Some(t) => exec.set(op, proc, t),
                None => exec.forbid(op, proc),
            }
        }
        let mut comm = CommTable::new(alg.dep_count(), arch.link_count());
        // A dep's entries usually come in a row, one per link: resolve
        // each run of equal `src -> dst` names once.
        let mut last: Option<(&str, &str, DepId)> = None;
        for (src, dst, link_name, t) in raw_comm.unwrap_or_default() {
            let dep = match last {
                Some((s, d, dep)) if (s, d) == (src, dst) => dep,
                _ => {
                    let ops = &alg_names.ops;
                    let dep = ops
                        .get(src)
                        .zip(ops.get(dst))
                        .and_then(|(&s, &d)| alg_names.deps.get(&(s, d)).copied())
                        .ok_or_else(|| {
                            ParseError::Model(ModelError::UnknownName {
                                name: format!("{src} -> {dst}"),
                                kind: "dependency",
                            })
                        })?;
                    last = Some((src, dst, dep));
                    dep
                }
            };
            let link = resolve(&arch_names.links, link_name, "link")?;
            if let Some(t) = t {
                comm.set(dep, link, t);
            }
        }

        let mut b = Problem::builder(alg, arch, exec, comm);
        if let Some(r) = rtc {
            b.rtc(r);
        }
        b.npf(npf.unwrap_or(0));
        Ok(b.build()?)
    }

    fn algorithm(&mut self) -> Result<(Alg, AlgNames<'a>), ParseError> {
        let name = self.ident("algorithm name")?;
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut b = Alg::builder(name);
        let mut names = AlgNames {
            ops: HashMap::new(),
            deps: HashMap::new(),
        };
        loop {
            if self.peek() == TokenKind::RBrace {
                self.bump();
                break;
            }
            if self.keyword("op") {
                let name = self.ident("operation name")?;
                let kind = if self.keyword("kind") {
                    match self.ident("operation kind")? {
                        "comp" => OpKind::Comp,
                        "mem" => OpKind::Mem,
                        "extio" => OpKind::Extio,
                        _ => return Err(self.unexpected("`comp`, `mem` or `extio`")),
                    }
                } else {
                    OpKind::Comp
                };
                let id = b.op(name, kind);
                names.ops.entry(name).or_insert(id);
                self.expect(TokenKind::Semi, "`;`")?;
            } else if self.keyword("dep") {
                let src = self.ident("source operation")?;
                self.expect(TokenKind::Arrow, "`->`")?;
                let dst = self.ident("destination operation")?;
                let size = if self.keyword("size") {
                    let v: f64 = self.number("data size")?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(self.unexpected("positive finite data size"));
                    }
                    v
                } else {
                    1.0
                };
                let s = resolve(&names.ops, src, "operation")?;
                let d = resolve(&names.ops, dst, "operation")?;
                let id = b.dep_sized(s, d, size);
                names.deps.entry((s, d)).or_insert(id);
                self.expect(TokenKind::Semi, "`;`")?;
            } else {
                return Err(self.unexpected("`op`, `dep` or `}`"));
            }
        }
        Ok((b.build()?, names))
    }

    fn architecture(&mut self) -> Result<(Arch, ArchNames<'a>), ParseError> {
        let name = self.ident("architecture name")?;
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut b = Arch::builder(name);
        let mut names = ArchNames {
            procs: HashMap::new(),
            links: HashMap::new(),
        };
        loop {
            if self.peek() == TokenKind::RBrace {
                self.bump();
                break;
            }
            if self.keyword("proc") {
                let name = self.ident("processor name")?;
                let id = b.proc(name);
                names.procs.entry(name).or_insert(id);
                self.expect(TokenKind::Semi, "`;`")?;
            } else if self.keyword("link") {
                let name = self.ident("link name")?;
                self.expect(TokenKind::Colon, "`:`")?;
                let mut endpoints = Vec::new();
                loop {
                    let pn = self.ident("processor name")?;
                    endpoints.push(resolve(&names.procs, pn, "processor")?);
                    if self.peek() == TokenKind::DashDash {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let id = b.link(name, &endpoints);
                names.links.entry(name).or_insert(id);
                self.expect(TokenKind::Semi, "`;`")?;
            } else {
                return Err(self.unexpected("`proc`, `link` or `}`"));
            }
        }
        Ok((b.build()?, names))
    }

    fn exec_section(&mut self) -> Result<Vec<RawExec<'a>>, ParseError> {
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut entries = Vec::new();
        loop {
            if self.peek() == TokenKind::RBrace {
                self.bump();
                break;
            }
            let op = self.ident("operation name")?;
            if !self.keyword("on") {
                return Err(self.unexpected("`on`"));
            }
            let proc = self.ident("processor name")?;
            self.expect(TokenKind::Eq, "`=`")?;
            let t = self.time_or_inf()?;
            self.expect(TokenKind::Semi, "`;`")?;
            entries.push((op, proc, t));
        }
        Ok(entries)
    }

    fn comm_section(&mut self) -> Result<Vec<RawComm<'a>>, ParseError> {
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut entries = Vec::new();
        loop {
            if self.peek() == TokenKind::RBrace {
                self.bump();
                break;
            }
            let src = self.ident("source operation")?;
            self.expect(TokenKind::Arrow, "`->`")?;
            let dst = self.ident("destination operation")?;
            if !self.keyword("on") {
                return Err(self.unexpected("`on`"));
            }
            let link = self.ident("link name")?;
            self.expect(TokenKind::Eq, "`=`")?;
            let t = self.time_or_inf()?;
            self.expect(TokenKind::Semi, "`;`")?;
            entries.push((src, dst, link, t));
        }
        Ok(entries)
    }
}

/// Looks `name` up in a name index, or reports it as an unknown `kind`.
fn resolve<Id: Copy>(
    index: &HashMap<&str, Id>,
    name: &str,
    kind: &'static str,
) -> Result<Id, ParseError> {
    index.get(name).copied().ok_or_else(|| {
        ParseError::Model(ModelError::UnknownName {
            name: name.to_owned(),
            kind,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = "
        algorithm a { op X; op Y kind extio; dep X -> Y size 2; }
        architecture m { proc P1; proc P2; link L: P1 -- P2; }
        exec { X on P1 = 1; X on P2 = 1.5; Y on P1 = 2; Y on P2 = inf; }
        comm { X -> Y on L = 0.5; }
        rtc 10; npf 0;
    ";

    #[test]
    fn parses_minimal_spec() {
        let p = parse_problem(MINI).unwrap();
        assert_eq!(p.alg().op_count(), 2);
        assert_eq!(p.arch().proc_count(), 2);
        assert_eq!(p.rtc(), Some(Time::from_units(10.0)));
        let y = p.alg().op_by_name("Y").unwrap();
        assert_eq!(p.alg().op(y).kind(), OpKind::Extio);
        let p2 = p.arch().proc_by_name("P2").unwrap();
        assert!(p.exec().get(y, p2).is_none(), "inf parses as forbidden");
        let d = p.alg().dep_by_names("X", "Y").unwrap();
        assert_eq!(p.alg().dep(d).size(), 2.0);
    }

    #[test]
    fn syntax_error_has_position() {
        let err = parse_problem("algorithm a { op ; }").unwrap_err();
        match err {
            ParseError::Unexpected { line, col, .. } => {
                assert_eq!(line, 1);
                assert!(col > 1);
            }
            other => panic!("expected Unexpected, got {other:?}"),
        }
    }

    #[test]
    fn unknown_names_are_model_errors() {
        let err = parse_problem(
            "algorithm a { op X; dep X -> Z; }
             architecture m { proc P1; }
             exec { X on P1 = 1; }",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ParseError::Model(ModelError::UnknownName { .. })
        ));
    }

    #[test]
    fn missing_sections_reported() {
        let err = parse_problem("architecture m { proc P1; }").unwrap_err();
        assert!(matches!(
            err,
            ParseError::MissingSection {
                section: "algorithm"
            }
        ));
        let err = parse_problem("algorithm a { op X; }").unwrap_err();
        assert!(matches!(
            err,
            ParseError::MissingSection {
                section: "architecture"
            }
        ));
    }

    #[test]
    fn duplicate_sections_rejected() {
        let err = parse_problem(
            "algorithm a { op X; } algorithm b { op Y; }
             architecture m { proc P1; } exec { }",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ParseError::DuplicateSection {
                section: "algorithm",
                ..
            }
        ));
    }

    #[test]
    fn multipoint_link_parses() {
        let p = parse_problem(
            "algorithm a { op X; }
             architecture m { proc P1; proc P2; proc P3; link BUS: P1 -- P2 -- P3; }
             exec { X on P1 = 1; X on P2 = 1; X on P3 = 1; }",
        )
        .unwrap();
        assert_eq!(p.arch().link_count(), 1);
        assert!(!p.arch().link(LinkId(0)).is_point_to_point());
    }

    #[test]
    fn npf_must_be_integer() {
        let err = parse_problem(&format!("{MINI} npf 1.5;")).unwrap_err();
        assert!(matches!(
            err,
            ParseError::DuplicateSection { .. } | ParseError::Unexpected { .. }
        ));
    }

    #[test]
    fn model_validation_errors_surface() {
        // X forbidden everywhere -> NotEnoughProcessors
        let err = parse_problem(
            "algorithm a { op X; }
             architecture m { proc P1; }
             exec { X on P1 = inf; }",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ParseError::Model(ModelError::NotEnoughProcessors { .. })
        ));
    }
}
