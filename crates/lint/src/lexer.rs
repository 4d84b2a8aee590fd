//! A hand-written Rust lexer, sufficient for conformance analysis.
//!
//! The analyzer only needs a faithful *token stream* — identifiers,
//! punctuation and literal boundaries — plus the comment trivia that
//! carries waivers. The lexer therefore handles every construct that could
//! make a naive text scan misfire (line and nested block comments,
//! string/raw-string/byte-string/char literals, the `'a`-lifetime vs
//! `'a'`-char ambiguity, raw identifiers) and leaves the shape of items to
//! [`crate::parse`].

/// The coarse classification of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `unwrap`, `HashMap`, ...).
    Ident,
    /// A lifetime such as `'a` or `'static` (quote excluded from text).
    Lifetime,
    /// Single punctuation character (`.`, `(`, `:`, `{`, ...).
    Punct,
    /// Any string-like literal: `"..."`, `r#"..."#`, `b"..."`, `c"..."`.
    Str,
    /// A character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// A numeric literal.
    Num,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text. For `Str`/`Char`/`Num` this is the raw literal;
    /// rules never inspect literal contents, only their extent.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

/// One comment, kept out of the token stream as trivia.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text including the `//`/`/*` markers.
    pub text: String,
    /// 1-based line where the comment starts.
    pub line: u32,
    /// 1-based line where the comment ends (block comments may span lines).
    pub end_line: u32,
    /// 1-based column of the comment's first character.
    pub col: u32,
}

impl Comment {
    /// Whether this is a doc comment (`///`, `//!`, `/**`, `/*!`).
    pub fn is_doc(&self) -> bool {
        self.text.starts_with("///")
            || self.text.starts_with("//!")
            || self.text.starts_with("/**")
            || self.text.starts_with("/*!")
    }
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comment trivia in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Character cursor with 1-based line/column bookkeeping.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Cursor {
        Cursor { chars: src.chars().collect(), pos: 0, line: 1, col: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// Lexes `src` into tokens and comment trivia.
///
/// The lexer is total: malformed input (say, an unterminated string) never
/// panics — the remainder of the file is consumed as the open literal,
/// which is also what rustc's recovery does for the constructs we care
/// about.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                out.comments.push(Comment { text, line, end_line: line, col });
            }
            '/' if cur.peek(1) == Some('*') => {
                let mut text = String::new();
                let mut depth = 0usize;
                while let Some(c) = cur.peek(0) {
                    if c == '/' && cur.peek(1) == Some('*') {
                        depth += 1;
                        text.push_str("/*");
                        cur.bump();
                        cur.bump();
                    } else if c == '*' && cur.peek(1) == Some('/') {
                        depth -= 1;
                        text.push_str("*/");
                        cur.bump();
                        cur.bump();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        text.push(c);
                        cur.bump();
                    }
                }
                out.comments.push(Comment { text, line, end_line: cur.line, col });
            }
            '"' => {
                let text = lex_plain_string(&mut cur);
                out.tokens.push(Token { kind: TokenKind::Str, text, line, col });
            }
            '\'' => lex_quote(&mut cur, &mut out, line, col),
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    let fraction_dot = c == '.'
                        && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
                        && !text.contains('.');
                    if is_ident_continue(c) || fraction_dot {
                        text.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { kind: TokenKind::Num, text, line, col });
            }
            c if is_ident_start(c) => lex_ident_or_prefixed(&mut cur, &mut out, line, col),
            _ => {
                cur.bump();
                out.tokens.push(Token { kind: TokenKind::Punct, text: c.to_string(), line, col });
            }
        }
    }
    out
}

/// Lexes a `"..."` string (escapes honored); cursor sits on the opening `"`.
fn lex_plain_string(cur: &mut Cursor) -> String {
    let mut text = String::new();
    text.push('"');
    cur.bump();
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(c);
            cur.bump();
            if let Some(e) = cur.bump() {
                text.push(e);
            }
        } else if c == '"' {
            text.push(c);
            cur.bump();
            break;
        } else {
            text.push(c);
            cur.bump();
        }
    }
    text
}

/// Lexes a raw string `r#*"..."#*`; cursor sits on the first `#` or `"`.
/// `text` already holds the consumed prefix (`r`, `br`, `cr`).
fn lex_raw_string(cur: &mut Cursor, mut text: String) -> String {
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        text.push('#');
        cur.bump();
    }
    if cur.peek(0) == Some('"') {
        text.push('"');
        cur.bump();
        'body: while let Some(c) = cur.peek(0) {
            text.push(c);
            cur.bump();
            if c == '"' {
                // A closing quote must be followed by `hashes` hash marks.
                for ahead in 0..hashes {
                    if cur.peek(ahead) != Some('#') {
                        continue 'body;
                    }
                }
                for _ in 0..hashes {
                    text.push('#');
                    cur.bump();
                }
                break;
            }
        }
    }
    text
}

/// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal);
/// cursor sits on the opening `'`.
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // consume '
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: '\n', '\'', '\u{..}'.
            let mut text = String::from("'\\");
            cur.bump();
            while let Some(c) = cur.peek(0) {
                text.push(c);
                cur.bump();
                if c == '\'' {
                    break;
                }
            }
            out.tokens.push(Token { kind: TokenKind::Char, text, line, col });
        }
        Some(c) if is_ident_start(c) => {
            let mut name = String::new();
            while let Some(c) = cur.peek(0) {
                if is_ident_continue(c) {
                    name.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            if cur.peek(0) == Some('\'') && name.chars().count() == 1 {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Char,
                    text: format!("'{name}'"),
                    line,
                    col,
                });
            } else {
                out.tokens.push(Token { kind: TokenKind::Lifetime, text: name, line, col });
            }
        }
        Some(c) => {
            // Non-identifier char literal: '(', '1', ' '.
            let mut text = String::from("'");
            text.push(c);
            cur.bump();
            if cur.peek(0) == Some('\'') {
                text.push('\'');
                cur.bump();
            }
            out.tokens.push(Token { kind: TokenKind::Char, text, line, col });
        }
        None => {
            out.tokens.push(Token { kind: TokenKind::Punct, text: "'".into(), line, col });
        }
    }
}

/// Lexes an identifier, or a literal introduced by an identifier-like
/// prefix: `r"…"`, `r#"…"#`, `r#ident`, `b"…"`, `b'…'`, `br#"…"#`, `c"…"`,
/// `cr#"…"#`.
fn lex_ident_or_prefixed(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let c = match cur.peek(0) {
        Some(c) => c,
        None => return,
    };
    let next = cur.peek(1);
    match (c, next) {
        ('r', Some('"')) | ('r', Some('#')) => {
            // `r#ident` (raw identifier) vs `r#"…"#` / `r"…"` (raw string):
            // decided by what follows the hash run.
            let mut ahead = 1usize;
            while cur.peek(ahead) == Some('#') {
                ahead += 1;
            }
            if cur.peek(ahead) == Some('"') {
                cur.bump();
                let text = lex_raw_string(cur, String::from("r"));
                out.tokens.push(Token { kind: TokenKind::Str, text, line, col });
            } else if ahead == 2 && cur.peek(2).is_some_and(is_ident_start) {
                // Raw identifier `r#name`: keep the `r#` prefix in the
                // token text so `r#unsafe` never matches keyword rules.
                cur.bump();
                cur.bump();
                lex_bare_ident(cur, out, line, col);
                if let Some(tok) = out.tokens.last_mut() {
                    if tok.kind == TokenKind::Ident && tok.line == line && tok.col == col {
                        tok.text.insert_str(0, "r#");
                    }
                }
            } else {
                lex_bare_ident(cur, out, line, col);
            }
        }
        ('b', Some('"')) => {
            cur.bump();
            let text = format!("b{}", lex_plain_string(cur));
            out.tokens.push(Token { kind: TokenKind::Str, text, line, col });
        }
        ('b', Some('\'')) => {
            cur.bump();
            lex_quote(cur, out, line, col);
            if let Some(tok) = out.tokens.last_mut() {
                tok.kind = TokenKind::Char;
                tok.line = line;
                tok.col = col;
            }
        }
        ('b', Some('r')) if matches!(cur.peek(2), Some('"') | Some('#')) => {
            cur.bump();
            cur.bump();
            let text = lex_raw_string(cur, String::from("br"));
            out.tokens.push(Token { kind: TokenKind::Str, text, line, col });
        }
        ('c', Some('"')) => {
            cur.bump();
            let text = format!("c{}", lex_plain_string(cur));
            out.tokens.push(Token { kind: TokenKind::Str, text, line, col });
        }
        ('c', Some('r')) if matches!(cur.peek(2), Some('"') | Some('#')) => {
            cur.bump();
            cur.bump();
            let text = lex_raw_string(cur, String::from("cr"));
            out.tokens.push(Token { kind: TokenKind::Str, text, line, col });
        }
        _ => lex_bare_ident(cur, out, line, col),
    }
}

fn lex_bare_ident(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    if !text.is_empty() {
        out.tokens.push(Token { kind: TokenKind::Ident, text, line, col });
    } else {
        // Defensive: never loop without progress on unexpected input.
        cur.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r###"
            let s = "unsafe unwrap()";
            // unsafe in a comment
            /* unwrap() in /* a nested */ block */
            let r = r#"panic!("x")"#;
            let b = b"unsafe";
        "###;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "unsafe" || i == "unwrap" || i == "panic"));
        assert_eq!(lex(src).comments.len(), 2);
    }

    #[test]
    fn lifetime_vs_char() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'a'; let d = '\\n'; }");
        let lifetimes: Vec<_> =
            lexed.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).collect();
        let chars: Vec<_> = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn raw_identifier_keeps_prefix() {
        let ids = idents("let r#unsafe = 1;");
        assert!(ids.iter().any(|i| i == "r#unsafe"));
        assert!(!ids.iter().any(|i| i == "unsafe"));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("a\n  b");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn block_comment_spans_lines() {
        let lexed = lex("/* a\nb\nc */ x");
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].end_line, 3);
        assert_eq!(lexed.tokens[0].line, 3);
    }

    #[test]
    fn unterminated_string_consumes_rest() {
        let lexed = lex("let s = \"open\nunsafe");
        assert!(lexed.tokens.iter().all(|t| t.text != "unsafe"));
    }
}
