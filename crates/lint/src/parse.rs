//! A lightweight item-level parser over the [`crate::lexer`].
//!
//! This is deliberately **not** a Rust grammar. It recovers just enough
//! shape for the semantic rules: `struct` items with their field types,
//! `fn` items (with the enclosing `impl` type, parameter types and return
//! type) whose bodies become statement trees, and `static` items. Every
//! token kept in the tree carries its original lexer span, and the parser
//! is total: any token stream — including the adversarial ones the
//! property tests feed it — produces *some* tree without panicking.
//!
//! Constructs the analysis does not need (enums, traits, macros, use
//! declarations) are skipped over balanced delimiters. Inside bodies,
//! statements split on `;` at paren depth zero and after the closing brace
//! of keyword-headed blocks (`if`/`for`/`while`/`loop`/`match`/`unsafe`);
//! every nested `{ ... }` becomes a child [`Block`], so struct literals
//! parse as (harmless) blocks rather than derailing the statement walk.

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// The parsed shape of one source file.
#[derive(Debug, Default, Clone)]
pub struct ParsedFile {
    /// Items in source order (items inside `impl` and `mod` are flattened).
    pub items: Vec<Item>,
}

/// One top-level (or `impl`-/`mod`-nested) item the analysis cares about.
#[derive(Debug, Clone)]
pub enum Item {
    /// A `struct` with named fields.
    Struct(StructItem),
    /// A `fn` with a body.
    Fn(FnItem),
    /// A `static` item.
    Static(StaticItem),
    /// A `type NAME = TY;` alias.
    TypeAlias(TypeAliasItem),
}

/// A named field or parameter: `name: Ty`.
#[derive(Debug, Clone)]
pub struct Field {
    /// The field / parameter name.
    pub name: String,
    /// The type, as space-joined token texts (e.g. `& ' a Mutex < T >`).
    pub ty: String,
}

/// A `struct` item with named fields (tuple and unit structs keep an
/// empty field list).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct name.
    pub name: String,
    /// Named fields in declaration order.
    pub fields: Vec<Field>,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
}

/// A `static` item.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// The static's name.
    pub name: String,
    /// Its type, as space-joined token texts.
    pub ty: String,
    /// 1-based line of the `static` keyword.
    pub line: u32,
}

/// A `type NAME = TY;` alias item.
#[derive(Debug, Clone)]
pub struct TypeAliasItem {
    /// The alias name.
    pub name: String,
    /// The aliased type, as space-joined token texts.
    pub ty: String,
}

/// A `fn` item with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare function name.
    pub name: String,
    /// The enclosing `impl` type, if any.
    pub self_ty: Option<String>,
    /// Named parameters (excluding `self`), as `name: Ty`.
    pub params: Vec<Field>,
    /// Return type as space-joined token texts; empty when `()`.
    pub ret: String,
    /// The body as a statement tree.
    pub body: Block,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn sits in a `#[test]` / `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A braced block: statements plus the source span of its braces.
#[derive(Debug, Default, Clone)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// 1-based line of the opening `{`.
    pub line: u32,
    /// 1-based line of the closing `}`.
    pub end_line: u32,
}

/// One statement: an ordered run of tokens and nested blocks.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Tokens and nested blocks in source order.
    pub elems: Vec<Elem>,
    /// 1-based line of the statement's first token.
    pub line: u32,
}

/// One element of a statement.
#[derive(Debug, Clone)]
pub enum Elem {
    /// A token at the statement's own nesting level.
    Tok(Token),
    /// A nested braced block.
    Block(Block),
}

/// Nesting depth past which blocks are kept flat (their brace tokens become
/// plain [`Elem::Tok`]s) so adversarial inputs cannot overflow the stack.
const MAX_BLOCK_DEPTH: usize = 64;

/// Keywords that head a block-terminated statement.
const BLOCK_HEADS: [&str; 6] = ["if", "for", "while", "loop", "match", "unsafe"];

/// Lexes and parses `src`. Total: never panics.
pub fn parse_source(src: &str) -> ParsedFile {
    parse_file(&lex(src))
}

/// Parses an already-lexed token stream. Total: never panics.
pub fn parse_file(lexed: &Lexed) -> ParsedFile {
    let regions = test_token_regions(&lexed.tokens);
    let parser = Parser { toks: &lexed.tokens, regions };
    let mut items = Vec::new();
    parser.parse_items(0, lexed.tokens.len(), None, false, &mut items);
    ParsedFile { items }
}

/// Computes `(start, end)` token-index ranges of `#[cfg(test)]` /
/// `#[test]`-gated items. Any attribute whose token stream contains the
/// bare identifier `test` gates the next braced body (or is discharged by
/// a `;` at the attribute's nesting depth — a gated declaration without a
/// body).
fn test_token_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut nest: i64 = 0;
    let mut pending: Option<i64> = None;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "#" => {
                    // `#[...]` or `#![...]`
                    let mut j = i + 1;
                    if tokens.get(j).is_some_and(|t| t.text == "!") {
                        j += 1;
                    }
                    if tokens.get(j).is_some_and(|t| t.text == "[") {
                        let (end, is_test) = scan_attribute(tokens, j);
                        if is_test {
                            pending = Some(nest);
                        }
                        i = end + 1;
                        continue;
                    }
                }
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                "{" => {
                    if pending.take().is_some() {
                        // Consume the whole braced body (balanced, so
                        // `nest` is unchanged afterwards).
                        let end = matching_brace(tokens, i);
                        regions.push((i, end));
                        i = end + 1;
                        continue;
                    }
                    nest += 1;
                }
                "}" => nest -= 1,
                ";" if pending == Some(nest) => pending = None,
                _ => {}
            }
        }
        i += 1;
    }
    regions
}

/// Scans the attribute starting at the `[` token index; returns the index
/// of the matching `]` and whether the attribute mentions `test` other
/// than as `not(test)` (the crate roots' `cfg_attr(not(test), …)`).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i64;
    let mut is_test = false;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct && t.text == "[" {
            depth += 1;
        } else if t.kind == TokenKind::Punct && t.text == "]" {
            depth -= 1;
            if depth == 0 {
                return (j, is_test);
            }
        } else if t.kind == TokenKind::Ident && t.text == "test" {
            let negated = j >= 2 && tokens[j - 1].text == "(" && tokens[j - 2].text == "not";
            is_test |= !negated;
        }
        j += 1;
    }
    (tokens.len().saturating_sub(1), is_test)
}

/// Index of the `}` matching the `{` at `open` (last token on imbalance).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.text == "{" {
                depth += 1;
            } else if t.text == "}" {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    tokens.len().saturating_sub(1)
}

struct Parser<'a> {
    toks: &'a [Token],
    regions: Vec<(usize, usize)>,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn in_test_region(&self, idx: usize) -> bool {
        self.regions.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    /// Parses the items in `toks[i..end]`, flattening `impl` and `mod`.
    fn parse_items(
        &self,
        mut i: usize,
        end: usize,
        self_ty: Option<&str>,
        forced_test: bool,
        out: &mut Vec<Item>,
    ) {
        let mut pending_test = false;
        while i < end {
            let text = self.text(i);
            match text {
                "#" => {
                    let mut j = i + 1;
                    if self.text(j) == "!" {
                        j += 1;
                    }
                    if self.text(j) == "[" {
                        let (attr_end, is_test) = scan_attribute(self.toks, j);
                        pending_test |= is_test;
                        i = attr_end + 1;
                        continue;
                    }
                    i += 1;
                }
                "impl" if self.is_ident(i) => {
                    i = self.parse_impl(i, end, forced_test || pending_test, out);
                    pending_test = false;
                }
                "struct" if self.is_ident(i) => {
                    i = self.parse_struct(i, end, out);
                    pending_test = false;
                }
                "fn" if self.is_ident(i) => {
                    i = self.parse_fn(i, end, self_ty, forced_test || pending_test, out);
                    pending_test = false;
                }
                "static" if self.is_ident(i) => {
                    i = self.parse_static(i, end, out);
                    pending_test = false;
                }
                "type" if self.is_ident(i) => {
                    i = self.parse_type_alias(i, end, out);
                    pending_test = false;
                }
                "mod" if self.is_ident(i) => {
                    // `mod name { items }` — recurse; `mod name;` — skip.
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let close = matching_brace(self.toks, j);
                        let gated = forced_test || pending_test || self.in_test_region(j);
                        self.parse_items(j + 1, close.min(end), None, gated, out);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                    pending_test = false;
                }
                "trait" | "enum" | "union" | "macro_rules" if self.is_ident(i) => {
                    // Skip the whole item over its balanced body.
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    i = if self.text(j) == "{" { matching_brace(self.toks, j) + 1 } else { j + 1 };
                    pending_test = false;
                }
                "{" => {
                    // Stray braced body (e.g. `extern "C" { ... }`): skip.
                    i = matching_brace(self.toks, i) + 1;
                }
                ";" => {
                    pending_test = false;
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Parses `impl [<…>] [Trait for] Type { items }`; returns the index
    /// after the impl body. The type name is the last path segment of the
    /// header's final type (`impl Trait for a::b::Type` → `Type`).
    fn parse_impl(&self, at: usize, end: usize, forced_test: bool, out: &mut Vec<Item>) -> usize {
        let mut j = at + 1;
        if self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        let mut angle = 0i64;
        let mut name: Option<String> = None;
        // `done` stops collection once the head path's generic args begin,
        // so `impl Foo<T> where T: Debug` keeps `Foo`.
        let mut done = false;
        while j < end {
            let t = self.text(j);
            match t {
                "{" if angle <= 0 => break,
                ";" if angle <= 0 => return j + 1,
                "<" => {
                    done |= name.is_some();
                    angle += 1;
                }
                ">" => angle -= 1,
                "-" if self.text(j + 1) == ">" => j += 1, // skip `->`
                "for" if angle <= 0 && self.is_ident(j) => {
                    name = None;
                    done = false;
                }
                "where" if angle <= 0 && self.is_ident(j) => done = true,
                _ if self.is_ident(j) && angle <= 0 && !done && t != "dyn" => {
                    // Successive path segments overwrite, so the last wins.
                    name = Some(t.to_string());
                }
                _ => {}
            }
            j += 1;
        }
        if self.text(j) != "{" {
            return j + 1;
        }
        let close = matching_brace(self.toks, j);
        let gated = forced_test || self.in_test_region(j);
        self.parse_items(j + 1, close.min(end), name.as_deref(), gated, out);
        close + 1
    }

    /// Parses a `struct` item; returns the index after it.
    fn parse_struct(&self, at: usize, end: usize, out: &mut Vec<Item>) -> usize {
        let line = self.toks.get(at).map_or(0, |t| t.line);
        if !self.is_ident(at + 1) {
            return at + 1;
        }
        let name = self.text(at + 1).to_string();
        let mut j = at + 2;
        let mut angle = 0i64;
        while j < end {
            match self.text(j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "-" if self.text(j + 1) == ">" => j += 1,
                "{" if angle <= 0 => break,
                "(" if angle <= 0 => {
                    // Tuple struct: skip the parens, then fall through to `;`.
                    j = self.matching_paren(j, end);
                }
                ";" if angle <= 0 => {
                    out.push(Item::Struct(StructItem { name, fields: Vec::new(), line }));
                    return j + 1;
                }
                _ => {}
            }
            j += 1;
        }
        if self.text(j) != "{" {
            return j + 1;
        }
        let close = matching_brace(self.toks, j);
        let fields = self.parse_fields(j + 1, close);
        out.push(Item::Struct(StructItem { name, fields, line }));
        close + 1
    }

    /// Parses `name: Ty` pairs between `[start, end)`, split on top-level
    /// commas.
    fn parse_fields(&self, start: usize, end: usize) -> Vec<Field> {
        let mut fields = Vec::new();
        for chunk in self.split_top_level(start, end, ",") {
            let (s, e) = chunk;
            let mut k = s;
            // Skip attributes and visibility.
            loop {
                if self.text(k) == "#" && self.text(k + 1) == "[" {
                    k = scan_attribute(self.toks, k + 1).0 + 1;
                } else if self.text(k) == "pub" {
                    k += 1;
                    if self.text(k) == "(" {
                        k = self.matching_paren(k, e) + 1;
                    }
                } else {
                    break;
                }
            }
            if k < e && self.is_ident(k) && self.text(k + 1) == ":" && self.text(k + 2) != ":" {
                let ty = self.join(k + 2, e);
                if !ty.is_empty() {
                    fields.push(Field { name: self.text(k).to_string(), ty });
                }
            }
        }
        fields
    }

    /// Parses a `fn` item; returns the index after it.
    fn parse_fn(
        &self,
        at: usize,
        end: usize,
        self_ty: Option<&str>,
        forced_test: bool,
        out: &mut Vec<Item>,
    ) -> usize {
        let line = self.toks.get(at).map_or(0, |t| t.line);
        if !self.is_ident(at + 1) {
            return at + 1;
        }
        let name = self.text(at + 1).to_string();
        let mut j = at + 2;
        if self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        if self.text(j) != "(" {
            return j;
        }
        let pclose = self.matching_paren(j, end);
        let params = self.parse_params(j + 1, pclose);
        let mut j = pclose + 1;
        // Return type: tokens between `->` and the body / where-clause.
        let mut ret = String::new();
        if self.text(j) == "-" && self.text(j + 1) == ">" {
            let rstart = j + 2;
            let mut angle = 0i64;
            let mut k = rstart;
            while k < end {
                match self.text(k) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "-" if self.text(k + 1) == ">" => k += 1,
                    "{" | ";" if angle <= 0 => break,
                    "where" if angle <= 0 && self.is_ident(k) => break,
                    _ => {}
                }
                k += 1;
            }
            ret = self.join(rstart, k);
            j = k;
        }
        // Skip a where-clause.
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            j += 1;
        }
        if self.text(j) != "{" {
            return j + 1; // declaration without a body
        }
        let (body, close) = self.parse_block(j, 0);
        let in_test = forced_test || self.in_test_region(j);
        out.push(Item::Fn(FnItem {
            name,
            self_ty: self_ty.map(str::to_string),
            params,
            ret,
            body,
            line,
            in_test,
        }));
        close + 1
    }

    /// Parses fn parameters between `[start, end)` (inside the parens).
    fn parse_params(&self, start: usize, end: usize) -> Vec<Field> {
        let mut params = Vec::new();
        for (s, e) in self.split_top_level(start, end, ",") {
            // Find the top-level `:` separating pattern from type; `::` is
            // not a separator.
            let mut depth = 0i64;
            let mut colon = None;
            let mut k = s;
            while k < e {
                match self.text(k) {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "-" if self.text(k + 1) == ">" => k += 1,
                    ":" if depth == 0 && self.text(k + 1) != ":" && self.text(k - 1) != ":" => {
                        colon = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some(c) = colon else { continue }; // `self` / `&mut self`
                                                   // Pattern side must be a simple (possibly `mut`) identifier.
            let mut p = s;
            if self.text(p) == "mut" {
                p += 1;
            }
            if p + 1 == c && self.is_ident(p) && self.text(p) != "self" {
                let ty = self.join(c + 1, e);
                if !ty.is_empty() {
                    params.push(Field { name: self.text(p).to_string(), ty });
                }
            }
        }
        params
    }

    /// Parses a `static` item; returns the index after it.
    fn parse_static(&self, at: usize, end: usize, out: &mut Vec<Item>) -> usize {
        let line = self.toks.get(at).map_or(0, |t| t.line);
        let mut j = at + 1;
        if self.text(j) == "mut" {
            j += 1;
        }
        if !self.is_ident(j) || self.text(j + 1) != ":" {
            return j + 1;
        }
        let name = self.text(j).to_string();
        let tstart = j + 2;
        let mut k = tstart;
        let mut depth = 0i64;
        while k < end {
            match self.text(k) {
                "(" | "[" | "<" | "{" => depth += 1,
                ")" | "]" | ">" | "}" => depth -= 1,
                "-" if self.text(k + 1) == ">" => k += 1,
                "=" | ";" if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        let ty = self.join(tstart, k);
        out.push(Item::Static(StaticItem { name, ty, line }));
        // Skip to the terminating `;` at brace depth zero.
        let mut brace = 0i64;
        while k < end {
            match self.text(k) {
                "{" => brace += 1,
                "}" => brace -= 1,
                ";" if brace <= 0 => return k + 1,
                _ => {}
            }
            k += 1;
        }
        k
    }

    /// Parses `type NAME = TY;`; returns the index after it.
    fn parse_type_alias(&self, at: usize, end: usize, out: &mut Vec<Item>) -> usize {
        let mut j = at + 1;
        if !self.is_ident(j) {
            return j;
        }
        let name = self.text(j).to_string();
        j += 1;
        if self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        if self.text(j) != "=" {
            // Associated type bound or declaration: skip to `;`.
            while j < end && self.text(j) != ";" {
                j += 1;
            }
            return j + 1;
        }
        let tstart = j + 1;
        let mut k = tstart;
        while k < end && self.text(k) != ";" {
            k += 1;
        }
        out.push(Item::TypeAlias(TypeAliasItem { name, ty: self.join(tstart, k) }));
        k + 1
    }

    /// Parses the block opening at `open` (a `{`); returns the block and
    /// the index of its closing `}`.
    fn parse_block(&self, open: usize, depth: usize) -> (Block, usize) {
        let close = matching_brace(self.toks, open);
        let line = self.toks.get(open).map_or(0, |t| t.line);
        let end_line = self.toks.get(close).map_or(line, |t| t.line);
        let mut stmts = Vec::new();
        let mut cur: Vec<Elem> = Vec::new();
        let mut pdepth = 0i64;
        let mut i = open + 1;
        while i < close {
            let t = &self.toks[i];
            let text = t.text.as_str();
            if t.kind == TokenKind::Punct && text == "{" && depth < MAX_BLOCK_DEPTH {
                let (blk, bclose) = self.parse_block(i, depth + 1);
                cur.push(Elem::Block(blk));
                i = bclose + 1;
                // Keyword-headed statements end after their block (unless
                // an `else` / method chain continues them).
                if pdepth == 0 && Self::block_ends_stmt(&cur) {
                    let next = self.text(i);
                    if next != "else" && next != "." && next != "?" {
                        flush(&mut cur, &mut stmts);
                    }
                }
                continue;
            }
            if t.kind == TokenKind::Punct {
                match text {
                    ";" if pdepth == 0 => {
                        flush(&mut cur, &mut stmts);
                        i += 1;
                        continue;
                    }
                    "(" | "[" => pdepth += 1,
                    ")" | "]" => pdepth -= 1,
                    _ => {}
                }
            }
            cur.push(Elem::Tok(t.clone()));
            i += 1;
        }
        flush(&mut cur, &mut stmts);
        (Block { stmts, line, end_line }, close)
    }

    /// Whether the statement built so far is headed by a block keyword (or
    /// is a bare block), so the block it just absorbed terminates it.
    fn block_ends_stmt(cur: &[Elem]) -> bool {
        match cur.first() {
            Some(Elem::Tok(t)) if t.kind == TokenKind::Ident => {
                BLOCK_HEADS.contains(&t.text.as_str())
            }
            Some(Elem::Tok(_)) => false,
            Some(Elem::Block(_)) => true, // bare block opened the stmt
            None => true,                 // block was the first element
        }
    }

    /// Index of the `)` matching the `(` at `open` (clamped to `end`).
    fn matching_paren(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open;
        while j < end {
            match self.text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end.saturating_sub(1)
    }

    /// Skips a balanced `<...>` starting at `open`; returns the index
    /// after the closing `>`.
    fn skip_angles(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open;
        while j < end {
            match self.text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                "-" if self.text(j + 1) == ">" => j += 1,
                ";" | "{" => return j, // malformed: bail out
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Joins token texts in `[start, end)` with single spaces.
    fn join(&self, start: usize, end: usize) -> String {
        let mut out = String::new();
        for k in start..end.min(self.toks.len()) {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&self.toks[k].text);
        }
        out
    }

    /// Splits `[start, end)` on `sep` tokens at delimiter depth zero.
    fn split_top_level(&self, start: usize, end: usize, sep: &str) -> Vec<(usize, usize)> {
        let mut chunks = Vec::new();
        let mut depth = 0i64;
        let mut s = start;
        let mut k = start;
        while k < end {
            match self.text(k) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "-" if self.text(k + 1) == ">" => k += 1,
                t if t == sep && depth == 0 => {
                    if k > s {
                        chunks.push((s, k));
                    }
                    s = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        if k > s {
            chunks.push((s, k));
        }
        chunks
    }
}

fn flush(cur: &mut Vec<Elem>, stmts: &mut Vec<Stmt>) {
    if cur.is_empty() {
        return;
    }
    let line = cur
        .first()
        .map(|e| match e {
            Elem::Tok(t) => t.line,
            Elem::Block(b) => b.line,
        })
        .unwrap_or(0);
    stmts.push(Stmt { elems: std::mem::take(cur), line });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(p: &ParsedFile) -> Vec<&FnItem> {
        p.items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn parses_struct_fields_and_impl_methods() {
        let p = parse_source(
            "pub struct Ledger { pub accounts: std::sync::Mutex<u32>, name: String }\n\
             impl Ledger {\n\
                 pub fn total(&self, scale: f64) -> u32 { let g = self.accounts.lock(); 0 }\n\
             }\n",
        );
        let s = p
            .items
            .iter()
            .find_map(|i| match i {
                Item::Struct(s) => Some(s),
                _ => None,
            })
            .expect("struct parsed");
        assert_eq!(s.name, "Ledger");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "accounts");
        assert!(s.fields[0].ty.contains("Mutex"));
        let f = fns(&p)[0];
        assert_eq!(f.name, "total");
        assert_eq!(f.self_ty.as_deref(), Some("Ledger"));
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].name, "scale");
        assert_eq!(f.ret, "u32");
        assert_eq!(f.body.stmts.len(), 2);
    }

    #[test]
    fn impl_trait_for_type_binds_methods_to_the_type() {
        let p = parse_source(
            "impl std::fmt::Display for Finding {\n\
                 fn fmt(&self) -> usize { 1 }\n\
             }\n",
        );
        assert_eq!(fns(&p)[0].self_ty.as_deref(), Some("Finding"));
    }

    #[test]
    fn keyword_headed_blocks_split_statements() {
        let p = parse_source(
            "fn f() {\n\
                 while x < 3 { step(); }\n\
                 let y = if c { 1 } else { 2 };\n\
                 done();\n\
             }\n",
        );
        let f = fns(&p)[0];
        assert_eq!(f.body.stmts.len(), 3);
        // The `while` statement contains its body as a nested block.
        assert!(f.body.stmts[0]
            .elems
            .iter()
            .any(|e| matches!(e, Elem::Block(b) if b.stmts.len() == 1)));
    }

    #[test]
    fn test_gated_fns_are_marked() {
        let p = parse_source(
            "fn lib_code() { work(); }\n\
             #[cfg(not(test))]\n\
             fn prod_only() { work(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() { aid(); }\n\
                 #[test]\n\
                 fn case() { check(); }\n\
             }\n",
        );
        let all = fns(&p);
        assert_eq!(all.len(), 4);
        assert!(!all[0].in_test);
        assert!(!all[1].in_test);
        assert!(all[2].in_test);
        assert!(all[3].in_test);
    }

    #[test]
    fn statics_and_type_aliases_are_captured() {
        let p = parse_source(
            "static POOL: Mutex<Option<u32>> = Mutex::new(None);\n\
             pub type BackCache = FieldCache<BackwardField>;\n",
        );
        assert!(p
            .items
            .iter()
            .any(|i| matches!(i, Item::Static(s) if s.name == "POOL" && s.ty.contains("Mutex"))));
        assert!(p.items.iter().any(
            |i| matches!(i, Item::TypeAlias(t) if t.name == "BackCache" && t.ty.contains("FieldCache"))
        ));
    }

    #[test]
    fn pathological_nesting_does_not_panic() {
        let deep = "{".repeat(3000) + &"}".repeat(3000);
        let src = format!("fn f() {deep}");
        let _ = parse_source(&src);
        let _ = parse_source("fn ( } ) { ; ;");
        let _ = parse_source("impl < for { struct ; fn");
    }
}
