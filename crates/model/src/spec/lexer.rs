//! Tokenizer for the spec language.
//!
//! The lexer scans bytes and hands out [`Copy`] tokens whose identifiers
//! and numbers borrow from the input, so lexing allocates nothing. Outside
//! comments the grammar is pure ASCII, so a byte offset within a line is
//! also its character column; only the end-of-input position after a
//! non-ASCII comment needs a character count.

use core::fmt;

/// A token kind; `Ident` and `Number` borrow their text from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind<'a> {
    /// Identifier or keyword (`algorithm`, `P1`, `L1.2`, …). Identifiers may
    /// contain dots after the first character, so the paper's `L1.2` link
    /// names lex as single tokens.
    Ident(&'a str),
    /// Decimal number literal (`16`, `1.75`).
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
    /// End of input.
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

/// A token with its source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
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

/// A streaming tokenizer over `input`; `#` comments run to end of line.
/// After the end of input it keeps returning [`TokenKind::Eof`].
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    line: u32,
    line_start: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    /// Lexes the next token.
    pub(crate) fn next_token(&mut self) -> Result<Token<'a>, LexError> {
        let bytes = self.input.as_bytes();
        let mut pos = self.pos;
        // Skip whitespace and comments.
        loop {
            match bytes.get(pos) {
                Some(b' ' | b'\t' | b'\r') => pos += 1,
                Some(b'\n') => {
                    pos += 1;
                    self.line += 1;
                    self.line_start = pos;
                }
                Some(b'#') => {
                    pos += bytes[pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .unwrap_or(bytes.len() - pos);
                }
                _ => break,
            }
        }
        let start = pos;
        let line = self.line;
        let Some(&b) = bytes.get(start) else {
            self.pos = pos;
            let col = self.input[self.line_start..].chars().count() as u32 + 1;
            return Ok(Token {
                kind: TokenKind::Eof,
                line,
                col,
            });
        };
        let col = (start - self.line_start) as u32 + 1;
        pos += 1;
        let kind = match b {
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b';' => TokenKind::Semi,
            b':' => TokenKind::Colon,
            b'=' => TokenKind::Eq,
            b'-' if bytes.get(pos) == Some(&b'>') => {
                pos += 1;
                TokenKind::Arrow
            }
            b'-' if bytes.get(pos) == Some(&b'-') => {
                pos += 1;
                TokenKind::DashDash
            }
            b'0'..=b'9' => {
                let mut seen_dot = false;
                while let Some(&c) = bytes.get(pos) {
                    if c == b'.' && !seen_dot {
                        seen_dot = true;
                    } else if !c.is_ascii_digit() {
                        break;
                    }
                    pos += 1;
                }
                TokenKind::Number(&self.input[start..pos])
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while let Some(&c) = bytes.get(pos) {
                    if !(c.is_ascii_alphanumeric() || c == b'_' || c == b'.') {
                        break;
                    }
                    pos += 1;
                }
                TokenKind::Ident(&self.input[start..pos])
            }
            _ => {
                // `start` is a char boundary: only whole ASCII bytes and
                // whole comment lines are ever skipped.
                let ch = self.input[start..].chars().next().expect("not at end");
                return Err(LexError { ch, line, col });
            }
        };
        self.pos = pos;
        Ok(Token { kind, line, col })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(input: &str) -> Result<Vec<Token<'_>>, LexError> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        loop {
            let t = lexer.next_token()?;
            tokens.push(t);
            if t.kind == TokenKind::Eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
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
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn columns_count_characters_in_comments() {
        // End of input after a non-ASCII comment: 7 characters, 9 bytes.
        let toks = lex("a # é·\n# ü").unwrap();
        assert_eq!(toks[1].kind, TokenKind::Eof);
        assert_eq!((toks[1].line, toks[1].col), (2, 4));
        let toks = lex("# ünïcode\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (2, 3));
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
    fn lone_dash_is_an_error() {
        assert!(lex("a - b").is_err());
        let err = lex("a -").unwrap_err();
        assert_eq!((err.ch, err.col), ('-', 3));
    }
}
