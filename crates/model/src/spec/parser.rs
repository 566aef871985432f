//! Recursive-descent parser for the spec language.

use core::fmt;
use std::collections::HashMap;

use crate::alg::{Alg, OpKind};
use crate::arch::Arch;
use crate::error::ModelError;
use crate::exec::{CommTable, ExecTable};
use crate::ids::{DepId, LinkId, OpId, ProcId};
use crate::problem::Problem;
use crate::time::Time;

use super::lexer::{line_col, LexError, Lexer, Token, TokenKind};

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
    /// Per dep: whether it is the first dep between its endpoints, the
    /// one a comm entry naming them resolves to.
    first_of_pair: Vec<bool>,
}

impl AlgNames<'_> {
    /// The dep a comm entry `src -> dst` names: dep `guess` when it is the
    /// first between ops of those names, else the one the index gives.
    fn dep(&self, alg: &Alg, src: &str, dst: &str, guess: usize) -> Result<DepId, ParseError> {
        if self.first_of_pair.get(guess) == Some(&true) {
            let dep = DepId::from_index(guess);
            let (s, d) = alg.dep_endpoints(dep);
            if alg.op(s).name() == src && alg.op(d).name() == dst {
                return Ok(dep);
            }
        }
        self.ops
            .get(src)
            .zip(self.ops.get(dst))
            .and_then(|(s, d)| self.deps.get(&(*s, *d)).copied())
            .ok_or_else(|| {
                ParseError::Model(ModelError::UnknownName {
                    name: format!("{src} -> {dst}"),
                    kind: "dependency",
                })
            })
    }
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

/// Recursive descent over the lexer: each step asks for the token the
/// grammar expects there, and lexes whatever came instead only to report
/// it. After a lexical error the lexer shows `Eof` at the offending
/// character, which stops the parse.
struct Parser<'a> {
    input: &'a str,
    lexer: Lexer<'a>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            lexer: Lexer::new(input),
        }
    }

    /// The first lexical error in the input, if any. It outranks every
    /// parse or model error, so after a failed parse this lexes the rest
    /// of the input looking for one.
    fn first_lex_error(&mut self) -> Option<LexError> {
        loop {
            let tok = self.lexer.peek();
            if tok.kind == TokenKind::Eof {
                return self.lexer.error();
            }
            self.lexer.bump(tok);
        }
    }

    /// `tok` was found where `expected` belongs.
    fn error_at(&self, tok: Token<'_>, expected: &str) -> ParseError {
        let (line, col) = line_col(self.input, tok.pos);
        ParseError::Unexpected {
            found: tok.kind.to_string(),
            expected: expected.to_owned(),
            line,
            col,
        }
    }

    /// Whatever comes next was found where `expected` belongs.
    fn unexpected(&mut self, expected: &str) -> ParseError {
        let tok = self.lexer.peek();
        self.error_at(tok, expected)
    }

    /// The number `text`, just consumed, was rejected as `expected`.
    fn rejected(&self, text: &str, expected: &str) -> ParseError {
        let tok = Token {
            kind: TokenKind::Number(text),
            pos: self.lexer.pos() - text.len(),
        };
        self.error_at(tok, expected)
    }

    /// Consumes the punctuation `punct`, reported as `what` if missing.
    fn expect(&mut self, punct: &[u8], what: &str) -> Result<(), ParseError> {
        if self.lexer.eat(punct) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.lexer.ident() {
            Some(s) => Ok(s),
            None => Err(self.unexpected(what)),
        }
    }

    /// A `NUMBER` token as an `f64`, reported as `what` if it is missing
    /// or does not parse.
    fn float(&mut self, what: &str) -> Result<f64, ParseError> {
        let text = self.lexer.number().ok_or_else(|| self.unexpected(what))?;
        text.parse().map_err(|_| self.rejected(text, what))
    }

    /// A `NUMBER` token as a [`Time`], converted byte by byte; a literal
    /// out of range or finer than a tick is reported at the literal as
    /// `what`, never a panic.
    fn time(&mut self, what: &str) -> Result<Time, ParseError> {
        let text = self.lexer.number().ok_or_else(|| self.unexpected(what))?;
        Time::parse_decimal(text.as_bytes()).ok_or_else(|| self.rejected(text, what))
    }

    /// `NUMBER | inf` — `None` encodes `inf`.
    fn time_or_inf(&mut self) -> Result<Option<Time>, ParseError> {
        if self.lexer.keyword("inf") {
            return Ok(None);
        }
        match self.lexer.number() {
            Some(text) => Time::parse_decimal(text.as_bytes())
                .map(Some)
                .ok_or_else(|| self.rejected(text, "time literal")),
            None => Err(self.unexpected("time literal or `inf`")),
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
            let tok = self.lexer.peek();
            let (section, seen) = match tok.kind {
                TokenKind::Eof => break,
                TokenKind::Ident("algorithm") => ("algorithm", alg.is_some()),
                TokenKind::Ident("architecture") => ("architecture", arch.is_some()),
                TokenKind::Ident("exec") => ("exec", raw_exec.is_some()),
                TokenKind::Ident("comm") => ("comm", raw_comm.is_some()),
                TokenKind::Ident("rtc") => ("rtc", false),
                TokenKind::Ident("npf") => ("npf", false),
                _ => {
                    return Err(self
                        .unexpected("`algorithm`, `architecture`, `exec`, `comm`, `rtc` or `npf`"))
                }
            };
            if seen {
                let line = line_col(self.input, tok.pos).0;
                return Err(ParseError::DuplicateSection { section, line });
            }
            self.lexer.bump(tok);
            match section {
                "algorithm" => alg = Some(self.algorithm()?),
                "architecture" => arch = Some(self.architecture()?),
                "exec" => raw_exec = Some(self.exec_section()?),
                "comm" => raw_comm = Some(self.comm_section()?),
                "rtc" => {
                    rtc = Some(self.time("deadline")?);
                    self.expect(b";", "`;`")?;
                }
                _ => {
                    let v = self.float("failure count")?;
                    if v.fract() != 0.0 || v < 0.0 {
                        return Err(self.unexpected("non-negative integer"));
                    }
                    npf = Some(v as u32);
                    self.expect(b";", "`;`")?;
                }
            }
        }

        let (alg, alg_names) = alg.ok_or(ParseError::MissingSection {
            section: "algorithm",
        })?;
        let (arch, arch_names) = arch.ok_or(ParseError::MissingSection {
            section: "architecture",
        })?;
        let raw_exec = raw_exec.ok_or(ParseError::MissingSection { section: "exec" })?;

        // Entries usually come in declaration order: each name is first
        // compared with the previous entry's and the one declared after
        // it, and looked up in the index only when both guesses miss.
        let mut exec = ExecTable::new(alg.op_count(), arch.proc_count());
        let mut op = Guess::default();
        let mut proc = Guess::default();
        for (op_name, proc_name, t) in raw_exec {
            let o = op.resolve(
                op_name,
                alg.op_count(),
                |i| alg.op(OpId(i)).name(),
                || resolve(&alg_names.ops, op_name, "operation").map(|id| id.0),
            )?;
            let p = proc.resolve(
                proc_name,
                arch.proc_count(),
                |i| arch.proc(ProcId(i)).name(),
                || resolve(&arch_names.procs, proc_name, "processor").map(|id| id.0),
            )?;
            match t {
                Some(t) => exec.set(OpId(o), ProcId(p), t),
                None => exec.forbid(OpId(o), ProcId(p)),
            }
        }
        let mut comm = CommTable::new(alg.dep_count(), arch.link_count());
        // A dep's entries usually come in a row, one per link: resolve
        // each run of equal `src -> dst` names once, guessing the dep
        // after the previous run's.
        let mut last: Option<(&str, &str, DepId)> = None;
        let mut link = Guess::default();
        for (src, dst, link_name, t) in raw_comm.unwrap_or_default() {
            let dep = match last {
                Some((s, d, dep)) if (s, d) == (src, dst) => dep,
                _ => {
                    let guess = last.map_or(0, |(_, _, dep)| dep.index() + 1);
                    let dep = alg_names.dep(&alg, src, dst, guess)?;
                    last = Some((src, dst, dep));
                    dep
                }
            };
            let l = link.resolve(
                link_name,
                arch.link_count(),
                |i| arch.link(LinkId(i)).name(),
                || resolve(&arch_names.links, link_name, "link").map(|id| id.0),
            )?;
            if let Some(t) = t {
                comm.set(dep, LinkId(l), t);
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
        self.expect(b"{", "`{`")?;
        let mut b = Alg::builder(name);
        let mut names = AlgNames {
            ops: HashMap::new(),
            deps: HashMap::new(),
            first_of_pair: Vec::new(),
        };
        // Deps are usually grouped by source: reuse the previous source.
        let mut last_src: Option<(&str, OpId)> = None;
        loop {
            if self.lexer.eat(b"}") {
                break;
            }
            if self.lexer.keyword("op") {
                let name = self.ident("operation name")?;
                let kind = if self.lexer.keyword("kind") {
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
                self.expect(b";", "`;`")?;
            } else if self.lexer.keyword("dep") {
                let src = self.ident("source operation")?;
                self.expect(b"->", "`->`")?;
                let dst = self.ident("destination operation")?;
                let size = if self.lexer.keyword("size") {
                    let v = self.float("data size")?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(self.unexpected("positive finite data size"));
                    }
                    v
                } else {
                    1.0
                };
                let s = match last_src {
                    Some((name, id)) if name == src => id,
                    _ => resolve(&names.ops, src, "operation")?,
                };
                last_src = Some((src, s));
                let d = resolve(&names.ops, dst, "operation")?;
                let id = b.dep_sized(s, d, size);
                let first = *names.deps.entry((s, d)).or_insert(id) == id;
                names.first_of_pair.push(first);
                self.expect(b";", "`;`")?;
            } else {
                return Err(self.unexpected("`op`, `dep` or `}`"));
            }
        }
        Ok((b.build()?, names))
    }

    fn architecture(&mut self) -> Result<(Arch, ArchNames<'a>), ParseError> {
        let name = self.ident("architecture name")?;
        self.expect(b"{", "`{`")?;
        let mut b = Arch::builder(name);
        let mut names = ArchNames {
            procs: HashMap::new(),
            links: HashMap::new(),
        };
        let mut endpoints = Vec::new();
        loop {
            if self.lexer.eat(b"}") {
                break;
            }
            if self.lexer.keyword("proc") {
                let name = self.ident("processor name")?;
                let id = b.proc(name);
                names.procs.entry(name).or_insert(id);
                self.expect(b";", "`;`")?;
            } else if self.lexer.keyword("link") {
                let name = self.ident("link name")?;
                self.expect(b":", "`:`")?;
                endpoints.clear();
                loop {
                    let pn = self.ident("processor name")?;
                    endpoints.push(resolve(&names.procs, pn, "processor")?);
                    if !self.lexer.eat(b"--") {
                        break;
                    }
                }
                let id = b.link(name, &endpoints);
                names.links.entry(name).or_insert(id);
                self.expect(b";", "`;`")?;
            } else {
                return Err(self.unexpected("`proc`, `link` or `}`"));
            }
        }
        Ok((b.build()?, names))
    }

    /// The `{ … }` body of a table section, one entry per `= time;`.
    fn table<E>(
        &mut self,
        mut entry: impl FnMut(&mut Self) -> Result<E, ParseError>,
    ) -> Result<Vec<E>, ParseError> {
        self.expect(b"{", "`{`")?;
        let mut entries = Vec::new();
        loop {
            if self.lexer.eat(b"}") {
                return Ok(entries);
            }
            entries.push(entry(self)?);
        }
    }

    /// `on NAME = TIME;`, the tail of a table entry.
    fn on_name_time(&mut self, what: &str) -> Result<(&'a str, Option<Time>), ParseError> {
        if !self.lexer.keyword("on") {
            return Err(self.unexpected("`on`"));
        }
        let name = self.ident(what)?;
        self.expect(b"=", "`=`")?;
        let t = self.time_or_inf()?;
        self.expect(b";", "`;`")?;
        Ok((name, t))
    }

    fn exec_section(&mut self) -> Result<Vec<RawExec<'a>>, ParseError> {
        self.table(|p| {
            let op = p.ident("operation name")?;
            let (proc, t) = p.on_name_time("processor name")?;
            Ok((op, proc, t))
        })
    }

    fn comm_section(&mut self) -> Result<Vec<RawComm<'a>>, ParseError> {
        self.table(|p| {
            let src = p.ident("source operation")?;
            p.expect(b"->", "`->`")?;
            let dst = p.ident("destination operation")?;
            let (link, t) = p.on_name_time("link name")?;
            Ok((src, dst, link, t))
        })
    }
}

/// The index of the name a table entry used last, to guess the next
/// entry's: the same name again, or the one declared after it (the first
/// after the last). Starts from the first declared name.
#[derive(Default)]
struct Guess(Option<u32>);

impl Guess {
    /// Resolves `name` among `count` declared names (`name_of(i)` is the
    /// `i`-th), comparing it with the guesses before calling `lookup`.
    fn resolve<'n>(
        &mut self,
        name: &str,
        count: usize,
        name_of: impl Fn(u32) -> &'n str,
        lookup: impl FnOnce() -> Result<u32, ParseError>,
    ) -> Result<u32, ParseError> {
        let guesses = match self.0 {
            Some(last) if last as usize + 1 < count => [last, last + 1],
            Some(last) => [last, 0],
            None => [0, 0],
        };
        let i = match guesses
            .into_iter()
            .find(|&i| (i as usize) < count && name_of(i) == name)
        {
            Some(i) => i,
            None => lookup()?,
        };
        self.0 = Some(i);
        Ok(i)
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
