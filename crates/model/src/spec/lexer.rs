//! Tokenizer for the spec language.
//!
//! The lexer scans bytes and hands out [`Copy`] tokens whose identifiers
//! and numbers borrow from the input, so lexing allocates nothing. A token
//! records only its byte offset: the `line:col` of an error is computed
//! from that offset when the error is reported, so the lexer keeps no
//! line bookkeeping and returns no `Result` per token. Outside comments
//! the grammar is pure ASCII, so a byte offset within a line is also its
//! character column; only a position after a non-ASCII comment needs a
//! character count.

use core::fmt;

/// A token kind; `Ident` and `Number` borrow their text from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind<'a> {
    /// Identifier or keyword (`algorithm`, `P1`, `L1.2`, …). Identifiers may
    /// contain dots after the first character, so the paper's `L1.2` link
    /// names lex as single tokens.
    Ident(&'a str),
    /// Decimal number literal (`16`, `1.75`): digits with at most one dot.
    Number(&'a str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `->`
    Arrow,
    /// `--`
    DashDash,
    /// End of input, or the first character the lexer rejected.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Number(s) => write!(f, "number `{s}`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Arrow => write!(f, "`->`"),
            TokenKind::DashDash => write!(f, "`--`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token and the byte offset where it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// Byte offset of its first character in the input.
    pub pos: usize,
}

/// Error produced on an unexpected character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// The offending character.
    pub ch: char,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character `{}` at {}:{}",
            self.ch, self.line, self.col
        )
    }
}

impl std::error::Error for LexError {}

/// The 1-based line and character column of byte offset `pos`, which must
/// lie on a char boundary of `input`.
pub(crate) fn line_col(input: &str, pos: usize) -> (u32, u32) {
    let before = &input.as_bytes()[..pos];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
    let col = input[line_start..pos].chars().count() + 1;
    (line as u32, col as u32)
}

/// Whether `c` may continue an identifier.
fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'.'
}

/// Length of the identifier at the start of `rest`, or 0.
fn ident_len(rest: &[u8]) -> usize {
    match rest.first() {
        Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => {
            1 + rest[1..]
                .iter()
                .position(|&c| !is_ident_byte(c))
                .unwrap_or(rest.len() - 1)
        }
        _ => 0,
    }
}

/// Length of the number at the start of `rest` (digits, then at most one
/// dot and more digits), or 0.
fn number_len(rest: &[u8]) -> usize {
    let digits = |from: usize| {
        rest[from..]
            .iter()
            .position(|c| !c.is_ascii_digit())
            .unwrap_or(rest.len() - from)
    };
    let whole = digits(0);
    if whole == 0 || rest.get(whole) != Some(&b'.') {
        return whole;
    }
    whole + 1 + digits(whole + 1)
}

/// A tokenizer over `input`; `#` comments run to end of line.
///
/// The parser asks for the token it expects ([`Lexer::eat`],
/// [`Lexer::ident`], [`Lexer::keyword`], [`Lexer::number`]), which scans
/// just its bytes and consumes nothing on a mismatch; [`Lexer::peek`]
/// lexes whatever comes next, to dispatch on it or to report it. At the
/// end of input, and from the first character it rejects on, `peek`
/// returns [`TokenKind::Eof`]; [`Lexer::error`] then names that character.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    /// Byte offset of the first rejected character.
    bad: Option<usize>,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            bad: None,
        }
    }

    /// Skips whitespace and comments; returns the bytes after them.
    #[inline]
    fn rest(&mut self) -> &'a [u8] {
        let bytes = self.input.as_bytes();
        let mut pos = self.pos;
        loop {
            match bytes.get(pos) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => pos += 1,
                Some(b'#') => {
                    pos += bytes[pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .unwrap_or(bytes.len() - pos);
                }
                _ => break,
            }
        }
        self.pos = pos;
        &bytes[pos..]
    }

    /// Consumes the punctuation `punct` (`;`, `->`, …) if it comes next.
    #[inline]
    pub(crate) fn eat(&mut self, punct: &[u8]) -> bool {
        let hit = self.rest().starts_with(punct);
        if hit {
            self.pos += punct.len();
        }
        hit
    }

    /// Consumes the identifier that comes next, if one does.
    #[inline]
    pub(crate) fn ident(&mut self) -> Option<&'a str> {
        let len = ident_len(self.rest());
        (len > 0).then(|| self.take(len))
    }

    /// Consumes the identifier `kw` if it comes next.
    #[inline]
    pub(crate) fn keyword(&mut self, kw: &str) -> bool {
        let rest = self.rest();
        let hit = rest.starts_with(kw.as_bytes()) && ident_len(rest) == kw.len();
        if hit {
            self.pos += kw.len();
        }
        hit
    }

    /// Consumes the number that comes next, if one does.
    #[inline]
    pub(crate) fn number(&mut self) -> Option<&'a str> {
        let len = number_len(self.rest());
        (len > 0).then(|| self.take(len))
    }

    /// Byte offset just after the last token consumed (or the blanks
    /// skipped since).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, len: usize) -> &'a str {
        let text = &self.input[self.pos..self.pos + len];
        self.pos += len;
        text
    }

    /// The token that comes next, without consuming it.
    pub(crate) fn peek(&mut self) -> Token<'a> {
        let rest = self.rest();
        let pos = self.pos;
        let kind = match rest {
            [] => TokenKind::Eof,
            [b'{', ..] => TokenKind::LBrace,
            [b'}', ..] => TokenKind::RBrace,
            [b';', ..] => TokenKind::Semi,
            [b':', ..] => TokenKind::Colon,
            [b'=', ..] => TokenKind::Eq,
            [b'-', b'>', ..] => TokenKind::Arrow,
            [b'-', b'-', ..] => TokenKind::DashDash,
            [b'0'..=b'9', ..] => TokenKind::Number(&self.input[pos..pos + number_len(rest)]),
            [b'a'..=b'z' | b'A'..=b'Z' | b'_', ..] => {
                TokenKind::Ident(&self.input[pos..pos + ident_len(rest)])
            }
            _ => {
                self.bad.get_or_insert(pos);
                TokenKind::Eof
            }
        };
        Token { kind, pos }
    }

    /// Consumes `tok`, which [`Lexer::peek`] just returned.
    pub(crate) fn bump(&mut self, tok: Token<'a>) {
        self.pos = tok.pos + tok.kind.len();
    }

    /// The first character the lexer rejected so far, with its position.
    pub(crate) fn error(&self) -> Option<LexError> {
        let pos = self.bad?;
        // `pos` is a char boundary: only whole ASCII bytes and whole
        // comment lines are ever skipped.
        let ch = self.input[pos..].chars().next().expect("not at end");
        let (line, col) = line_col(self.input, pos);
        Some(LexError { ch, line, col })
    }
}

impl TokenKind<'_> {
    /// Length of the token's text in bytes.
    fn len(self) -> usize {
        match self {
            TokenKind::Ident(s) | TokenKind::Number(s) => s.len(),
            TokenKind::Arrow | TokenKind::DashDash => 2,
            TokenKind::Eof => 0,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token with its `line:col`.
    type Placed<'a> = (TokenKind<'a>, (u32, u32));

    /// Every token up to `Eof` with its `line:col`, or the lex error.
    fn lex(input: &str) -> Result<Vec<Placed<'_>>, LexError> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        loop {
            let t = lexer.peek();
            lexer.bump(t);
            if let Some(e) = lexer.error() {
                return Err(e);
            }
            tokens.push((t.kind, line_col(input, t.pos)));
            if t.kind == TokenKind::Eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.0).collect()
    }

    #[test]
    fn lexes_punctuation_and_words() {
        assert_eq!(
            kinds("op A ; x -> y -- z { } : ="),
            vec![
                TokenKind::Ident("op"),
                TokenKind::Ident("A"),
                TokenKind::Semi,
                TokenKind::Ident("x"),
                TokenKind::Arrow,
                TokenKind::Ident("y"),
                TokenKind::DashDash,
                TokenKind::Ident("z"),
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Colon,
                TokenKind::Eq,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_dotted_idents() {
        assert_eq!(
            kinds("1.75 16 L1.2"),
            vec![
                TokenKind::Number("1.75"),
                TokenKind::Number("16"),
                TokenKind::Ident("L1.2"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn number_takes_one_dot_then_stops() {
        assert_eq!(
            kinds("1.2x 3."),
            vec![
                TokenKind::Number("1.2"),
                TokenKind::Ident("x"),
                TokenKind::Number("3."),
                TokenKind::Eof,
            ]
        );
        let err = lex("1.2.3").unwrap_err();
        assert_eq!((err.ch, err.line, err.col), ('.', 1, 4));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a # comment ; -> \n b"),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof,]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("ab\n  cd").unwrap();
        assert_eq!(toks[0].1, (1, 1));
        assert_eq!(toks[1].1, (2, 3));
    }

    #[test]
    fn columns_count_characters_in_comments() {
        // End of input after a non-ASCII comment: 7 characters, 9 bytes.
        let toks = lex("a # é·\n# ü").unwrap();
        assert_eq!(toks[1], (TokenKind::Eof, (2, 4)));
        let toks = lex("# ünïcode\n  b").unwrap();
        assert_eq!(toks[0].1, (2, 3));
    }

    #[test]
    fn bad_character_is_reported() {
        let err = lex("a @ b").unwrap_err();
        assert_eq!(err.ch, '@');
        assert_eq!((err.line, err.col), (1, 3));
        assert!(err.to_string().contains("1:3"));
        let err = lex("a\n b é").unwrap_err();
        assert_eq!((err.ch, err.line, err.col), ('é', 2, 4));
    }

    #[test]
    fn rejected_character_is_sticky() {
        let mut lexer = Lexer::new("a @ $");
        assert_eq!(lexer.ident(), Some("a"));
        for _ in 0..3 {
            let t = lexer.peek();
            assert_eq!(
                t,
                Token {
                    kind: TokenKind::Eof,
                    pos: 2
                }
            );
            lexer.bump(t);
        }
        assert_eq!(lexer.error().map(|e| e.ch), Some('@'));
    }

    #[test]
    fn expected_tokens_match_whole_tokens_only() {
        let mut lexer = Lexer::new(" onX on 1.5.2 -> x");
        assert!(!lexer.keyword("on"));
        assert_eq!(lexer.number(), None);
        assert_eq!(lexer.ident(), Some("onX"));
        assert!(lexer.keyword("on"));
        assert!(!lexer.eat(b"->"));
        assert_eq!(lexer.number(), Some("1.5"));
        assert_eq!(lexer.peek().kind, TokenKind::Eof);
        assert_eq!(lexer.error().map(|e| (e.ch, e.col)), Some(('.', 12)));
        let mut lexer = Lexer::new("# note\n -> x");
        assert!(lexer.eat(b"->"));
        assert_eq!(
            lexer.peek(),
            Token {
                kind: TokenKind::Ident("x"),
                pos: 11
            }
        );
    }

    #[test]
    fn lone_dash_is_an_error() {
        assert!(lex("a - b").is_err());
        let err = lex("a -").unwrap_err();
        assert_eq!((err.ch, err.col), ('-', 3));
    }
}
