//! The shared analysis IR: a delimiter-balanced token-tree parser and a
//! lightweight function-body AST on top of the blanked source model in
//! [`crate::source`].
//!
//! Two layers:
//!
//! 1. **Token trees** — the blanked text of a file is tokenised into
//!    identifiers and punctuation, and `()`/`[]`/`{}` runs are folded
//!    into [`Group`]s. The parser is total: it never panics and always
//!    terminates on arbitrary bytes (stray closers become plain
//!    punctuation, unclosed groups close at end of file, and nesting is
//!    capped so downstream recursion is bounded). This is proven by the
//!    fuzz suite in `tests/ir_props.rs`.
//! 2. **Function items** — `fn` items are extracted (with their impl
//!    type and whether the signature returns `Result`), and each body
//!    becomes a [`Block`] of [`Stmt`]s: multi-line statements are
//!    joined, `let` bindings and call sites are resolved structurally
//!    (no more trailing-identifier heuristics), and nested braces become
//!    child blocks.
//!
//! Passes consume the AST through [`Ir`], which parses every workspace
//! file exactly once; the call graph in [`crate::callgraph`] and all
//! dataflow passes are built on it.

use crate::source::SourceFile;

/// Maximum group nesting depth. Deeper openers are treated as plain
/// punctuation so every recursive consumer of the tree has a hard
/// bound on stack depth, even on adversarial input.
pub const MAX_NESTING: usize = 64;

/// A delimiter kind for a balanced group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `(...)`
    Paren,
    /// `[...]`
    Bracket,
    /// `{...}`
    Brace,
}

impl Delim {
    fn open(self) -> char {
        match self {
            Delim::Paren => '(',
            Delim::Bracket => '[',
            Delim::Brace => '{',
        }
    }

    fn close(self) -> char {
        match self {
            Delim::Paren => ')',
            Delim::Bracket => ']',
            Delim::Brace => '}',
        }
    }
}

/// One token of the tree: an identifier/number run, a single
/// punctuation character, or a balanced group.
#[derive(Debug, Clone)]
pub enum Tok {
    /// An identifier or number (`[A-Za-z0-9_]+` run).
    Ident {
        /// The identifier text.
        text: String,
        /// 1-indexed source line.
        line: usize,
    },
    /// A single non-identifier, non-delimiter character.
    Punct {
        /// The character.
        ch: char,
        /// 1-indexed source line.
        line: usize,
    },
    /// A balanced `()`/`[]`/`{}` group.
    Group(Group),
}

impl Tok {
    /// The source line the token starts on.
    pub fn line(&self) -> usize {
        match self {
            Tok::Ident { line, .. } | Tok::Punct { line, .. } => *line,
            Tok::Group(g) => g.open_line,
        }
    }

    fn is_ident(&self, want: &str) -> bool {
        matches!(self, Tok::Ident { text, .. } if text == want)
    }

    fn is_punct(&self, want: char) -> bool {
        matches!(self, Tok::Punct { ch, .. } if *ch == want)
    }
}

/// A balanced delimiter group and its contents.
#[derive(Debug, Clone)]
pub struct Group {
    /// The delimiter kind.
    pub delim: Delim,
    /// Line of the opening delimiter.
    pub open_line: usize,
    /// Line of the closing delimiter (end of file if unclosed).
    pub close_line: usize,
    /// The tokens inside the group.
    pub toks: Vec<Tok>,
}

/// Tokenises the blanked text of `file` into a token tree.
///
/// Total on arbitrary input: a closer with no matching opener is kept
/// as punctuation, unclosed groups are closed at end of input, and
/// openers beyond [`MAX_NESTING`] are kept as punctuation.
pub fn tokenize(file: &SourceFile) -> Vec<Tok> {
    // Frames of open groups; frame 0 is the top level.
    let mut stack: Vec<(Delim, usize, Vec<Tok>)> = Vec::new();
    let mut top: Vec<Tok> = Vec::new();
    let mut line = 0usize;
    let mut last_line = 1usize;
    for info in &file.lines {
        line += 1;
        last_line = line;
        let code = info.code.as_str();
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii_alphanumeric() || b == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let tok = Tok::Ident {
                    text: code[start..i].to_string(),
                    line,
                };
                current(&mut stack, &mut top).push(tok);
                continue;
            }
            let ch = char::from(b);
            if b.is_ascii() {
                match ch {
                    ' ' | '\t' | '\r' => {}
                    '(' | '[' | '{' => {
                        let delim = match ch {
                            '(' => Delim::Paren,
                            '[' => Delim::Bracket,
                            _ => Delim::Brace,
                        };
                        if stack.len() < MAX_NESTING {
                            stack.push((delim, line, Vec::new()));
                        } else {
                            current(&mut stack, &mut top).push(Tok::Punct { ch, line });
                        }
                    }
                    ')' | ']' | '}' => close_group(&mut stack, &mut top, ch, line),
                    _ => current(&mut stack, &mut top).push(Tok::Punct { ch, line }),
                }
                i += 1;
            } else {
                // Multi-byte UTF-8: skip the whole scalar as punctuation
                // (box-drawing in doc comments is blanked anyway).
                let c = code[i..].chars().next().unwrap_or(' ');
                i += c.len_utf8();
            }
        }
    }
    // Unclosed groups: close them all at the last line.
    while let Some((delim, open_line, toks)) = stack.pop() {
        let group = Tok::Group(Group {
            delim,
            open_line,
            close_line: last_line,
            toks,
        });
        current(&mut stack, &mut top).push(group);
    }
    top
}

fn current<'a>(
    stack: &'a mut [(Delim, usize, Vec<Tok>)],
    top: &'a mut Vec<Tok>,
) -> &'a mut Vec<Tok> {
    match stack.last_mut() {
        Some((_, _, toks)) => toks,
        None => top,
    }
}

/// Closes the innermost group matching `ch`. A mismatched closer first
/// closes intervening groups (recovery on malformed input); a closer
/// with no matching opener anywhere is downgraded to punctuation.
fn close_group(
    stack: &mut Vec<(Delim, usize, Vec<Tok>)>,
    top: &mut Vec<Tok>,
    ch: char,
    line: usize,
) {
    if !stack.iter().any(|(d, _, _)| d.close() == ch) {
        current(stack, top).push(Tok::Punct { ch, line });
        return;
    }
    loop {
        let Some((delim, open_line, toks)) = stack.pop() else {
            return;
        };
        let group = Tok::Group(Group {
            delim,
            open_line,
            close_line: line,
            toks,
        });
        current(stack, top).push(group);
        if delim.close() == ch {
            return;
        }
    }
}

// ── function-body AST ───────────────────────────────────────────────

/// How a call expression reaches its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `name(...)` — a free function.
    Bare,
    /// `self.name(...)` — a method on the enclosing impl type.
    SelfDot,
    /// `Seg::name(...)` — the last path segment before `::`.
    Path(String),
    /// `recv.name(...)` — the identifier immediately owning the call
    /// (for `self.field.name(...)` this is `field`).
    Dot(String),
}

/// One call expression.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name.
    pub name: String,
    /// 1-indexed source line of the callee identifier.
    pub line: usize,
    /// How the callee is reached.
    pub recv: Receiver,
    /// First bare identifier among the arguments (`drop(g)` → `g`).
    pub first_arg_ident: Option<String>,
}

/// One statement: its flattened text, bindings, calls, and child
/// blocks, in source order.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// First source line.
    pub line: usize,
    /// Last source line (multi-line statements are joined).
    pub end_line: usize,
    /// Flattened normalized code text (idents separated by one space
    /// only where needed; groups inlined with their delimiters).
    pub text: String,
    /// Whether the statement is a `let` binding.
    pub has_let: bool,
    /// Identifiers bound by the `let` pattern (`_` included).
    pub lets: Vec<String>,
    /// Call sites in token order (paren/bracket args included; brace
    /// bodies belong to `children`).
    pub calls: Vec<CallSite>,
    /// Nested brace blocks in source order (loop/if/match bodies,
    /// closures, plain blocks).
    pub children: Vec<Block>,
    /// Whether this statement defines a nested item (`fn`, `impl`,
    /// `mod`, …) — passes must not attribute its children's events to
    /// the enclosing function (the nested fn is extracted separately).
    pub defines_item: bool,
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Line of the opening brace.
    pub open_line: usize,
    /// Line of the closing brace.
    pub close_line: usize,
    /// The statements, in source order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Depth-first walk over every statement, skipping the children of
    /// statements that define nested items.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Stmt)) {
        for stmt in &self.stmts {
            visit(stmt);
            if stmt.defines_item {
                continue;
            }
            for child in &stmt.children {
                child.walk(visit);
            }
        }
    }
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// The surrounding `impl` type, if any.
    pub impl_type: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Whether the signature's return type mentions `Result`.
    pub returns_result: bool,
    /// The parsed body.
    pub body: Block,
}

impl FnItem {
    /// Every statement of the body, in source order.
    pub fn stmts(&self) -> Vec<&Stmt> {
        let mut out = Vec::new();
        self.body.walk(&mut |s| out.push(s));
        out
    }
}

/// The parsed form of one source file.
#[derive(Debug, Clone)]
pub struct IrFile {
    /// Workspace-relative path (same as the source file).
    pub path: String,
    /// Every function item in the file, in source order.
    pub fns: Vec<FnItem>,
}

/// The parsed workspace: one [`IrFile`] per source file, index-aligned
/// with the `&[SourceFile]` it was built from.
#[derive(Debug, Clone)]
pub struct Ir {
    /// Parsed files, index-aligned with the input slice.
    pub files: Vec<IrFile>,
}

impl Ir {
    /// Parses every file once. Total: never panics on any input.
    pub fn parse(files: &[SourceFile]) -> Ir {
        let files = files
            .iter()
            .map(|f| {
                let toks = tokenize(f);
                let mut fns = Vec::new();
                collect_fns(&toks, None, &mut fns);
                IrFile {
                    path: f.path.clone(),
                    fns,
                }
            })
            .collect();
        Ir { files }
    }
}

/// Recursively extracts `fn` items from a token slice. `impl_type`
/// carries the enclosing impl's self type.
fn collect_fns(toks: &[Tok], impl_type: Option<&str>, out: &mut Vec<FnItem>) {
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            Tok::Ident { text, line } if text == "impl" => {
                if let Some((ty, body_idx)) = parse_impl_header(toks, i) {
                    if let Tok::Group(g) = &toks[body_idx] {
                        collect_fns(&g.toks, Some(&ty), out);
                    }
                    i = body_idx + 1;
                    continue;
                }
                let _ = line;
                i += 1;
            }
            Tok::Ident { text, line } if text == "fn" => {
                if let Some((item, next)) = parse_fn(toks, i, *line, impl_type) {
                    out.push(item);
                    // Nested fn items inside this body are extracted
                    // too (they are plain functions, not methods).
                    if let Some(Tok::Group(body)) = toks.get(next - 1) {
                        collect_fns(&body.toks, None, out);
                    }
                    i = next;
                    continue;
                }
                i += 1;
            }
            Tok::Group(g) => {
                // mod bodies, trait bodies, expression blocks…
                collect_fns(&g.toks, impl_type, out);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Parses `impl … { … }` starting at the `impl` keyword; returns the
/// self type and the index of the body group.
fn parse_impl_header(toks: &[Tok], impl_idx: usize) -> Option<(String, usize)> {
    let mut ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut angle: i32 = 0;
    let mut saw_for = false;
    let mut j = impl_idx + 1;
    while j < toks.len() {
        match &toks[j] {
            Tok::Group(g) if g.delim == Delim::Brace => {
                let name = after_for.or(ty)?;
                return Some((name, j));
            }
            Tok::Punct { ch: '<', .. } => angle += 1,
            Tok::Punct { ch: '>', .. } => angle -= 1,
            Tok::Punct { ch: ';', .. } => return None,
            Tok::Ident { text, .. } if angle <= 0 => {
                if text == "for" {
                    saw_for = true;
                } else if text == "where" {
                    // Type name is settled before the where clause.
                } else if saw_for {
                    if after_for.is_none() {
                        after_for = Some(text.clone());
                    }
                } else if ty.is_none() {
                    ty = Some(text.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `fn` item starting at the `fn` keyword. Returns the item
/// and the index just past its body. Trait declarations without a body
/// (`fn f(…);`) return `None`.
fn parse_fn(
    toks: &[Tok],
    fn_idx: usize,
    fn_line: usize,
    impl_type: Option<&str>,
) -> Option<(FnItem, usize)> {
    let name = match toks.get(fn_idx + 1) {
        Some(Tok::Ident { text, .. }) => text.clone(),
        _ => return None, // `fn(...)` pointer type — not an item.
    };
    let mut returns_result = false;
    let mut saw_arrow = false;
    let mut j = fn_idx + 2;
    while j < toks.len() {
        match &toks[j] {
            Tok::Group(g) if g.delim == Delim::Brace => {
                let body = build_block(g);
                let item = FnItem {
                    name,
                    impl_type: impl_type.map(str::to_string),
                    line: fn_line,
                    returns_result,
                    body,
                };
                return Some((item, j + 1));
            }
            Tok::Punct { ch: ';', .. } => return None,
            Tok::Punct { ch: '>', .. } if j > 0 && toks[j - 1].is_punct('-') => {
                saw_arrow = true;
            }
            Tok::Ident { text, .. } if saw_arrow && text == "Result" => {
                returns_result = true;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Builds a [`Block`] from a brace group by splitting its tokens into
/// statements.
fn build_block(group: &Group) -> Block {
    let mut stmts = Vec::new();
    let mut start = 0;
    let toks = &group.toks;
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct { ch: ';', .. } => {
                stmts.push(build_stmt(&toks[start..=i]));
                start = i + 1;
            }
            Tok::Group(g) if g.delim == Delim::Brace => {
                // A brace ends the statement unless an `else`, a method
                // chain or an operator continues it.
                let continues = matches!(
                    toks.get(i + 1),
                    Some(Tok::Ident { text, .. }) if text == "else"
                ) || matches!(
                    toks.get(i + 1),
                    Some(Tok::Punct { ch, .. }) if matches!(ch, '.' | '?' | ',')
                );
                if !continues {
                    stmts.push(build_stmt(&toks[start..=i]));
                    start = i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    if start < toks.len() {
        stmts.push(build_stmt(&toks[start..]));
    }
    stmts.retain(|s| !s.text.is_empty());
    Block {
        open_line: group.open_line,
        close_line: group.close_line,
        stmts,
    }
}

/// Builds one statement from its token slice.
fn build_stmt(toks: &[Tok]) -> Stmt {
    let line = toks.first().map_or(0, Tok::line);
    let end_line = stmt_end_line(toks);
    let mut text = String::new();
    flatten(toks, true, &mut text);
    let (has_let, lets) = let_bindings(toks);
    let mut calls = Vec::new();
    collect_calls(toks, &mut calls);
    let mut children = Vec::new();
    collect_children(toks, &mut children);
    let defines_item = defines_item(toks);
    Stmt {
        line,
        end_line,
        text,
        has_let,
        lets,
        calls,
        children,
        defines_item,
    }
}

fn stmt_end_line(toks: &[Tok]) -> usize {
    let mut end = 0;
    for t in toks {
        end = end.max(match t {
            Tok::Group(g) => g.close_line,
            other => other.line(),
        });
    }
    end
}

/// Flattens tokens to one normalized line: identifiers are separated by
/// a single space only from adjacent identifiers, punctuation is glued,
/// groups keep their delimiters. With `elide_braces`, brace-group
/// interiors render as `{…}` — their statements are separate [`Stmt`]s
/// and must not double-match text patterns on the parent.
fn flatten(toks: &[Tok], elide_braces: bool, out: &mut String) {
    for t in toks {
        match t {
            Tok::Ident { text, .. } => {
                if out
                    .as_bytes()
                    .last()
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    out.push(' ');
                }
                out.push_str(text);
            }
            Tok::Punct { ch, .. } => out.push(*ch),
            Tok::Group(g) if elide_braces && g.delim == Delim::Brace => {
                out.push_str("{…}");
            }
            Tok::Group(g) => {
                out.push(g.delim.open());
                flatten(&g.toks, elide_braces, out);
                out.push(g.delim.close());
            }
        }
    }
}

/// Extracts `let` pattern bindings: identifiers between `let` and `=`
/// (or the end), excluding keywords and path/type names directly
/// followed by `::` or `<`.
fn let_bindings(toks: &[Tok]) -> (bool, Vec<String>) {
    let mut idx = 0;
    // Skip leading attributes `#[...]`.
    while idx + 1 < toks.len() && toks[idx].is_punct('#') {
        if matches!(&toks[idx + 1], Tok::Group(g) if g.delim == Delim::Bracket) {
            idx += 2;
        } else {
            break;
        }
    }
    // `if let` / `while let` are matches, not bindings for liveness.
    if !toks.get(idx).is_some_and(|t| t.is_ident("let")) {
        return (false, Vec::new());
    }
    let mut names = Vec::new();
    let mut j = idx + 1;
    while j < toks.len() {
        match &toks[j] {
            Tok::Punct { ch: '=', .. } | Tok::Punct { ch: ';', .. } => break,
            Tok::Punct { ch: ':', .. } => {
                // Type annotation: bindings are settled.
                break;
            }
            Tok::Ident { text, .. } if !matches!(text.as_str(), "mut" | "ref" | "box") => {
                names.push(text.clone());
            }
            Tok::Group(g) => {
                // Tuple/struct patterns: every ident inside binds.
                collect_pattern_idents(&g.toks, &mut names);
            }
            _ => {}
        }
        j += 1;
    }
    (true, names)
}

fn collect_pattern_idents(toks: &[Tok], out: &mut Vec<String>) {
    for t in toks {
        match t {
            Tok::Ident { text, .. } if !matches!(text.as_str(), "mut" | "ref") => {
                out.push(text.clone());
            }
            Tok::Group(g) => collect_pattern_idents(&g.toks, out),
            _ => {}
        }
    }
}

/// Finds call sites in token order, descending into paren/bracket
/// groups (arguments) but not brace groups (child blocks own those).
/// Attribute groups (`#[…]`) are skipped — `cfg(…)`/`not(…)` inside
/// them are not calls.
fn collect_calls(toks: &[Tok], out: &mut Vec<CallSite>) {
    let mut skip_attr = false;
    for (i, t) in toks.iter().enumerate() {
        if skip_attr {
            if t.is_punct('!') {
                continue;
            }
            skip_attr = false;
            if matches!(t, Tok::Group(g) if g.delim == Delim::Bracket) {
                continue;
            }
        }
        if t.is_punct('#') {
            skip_attr = true;
            continue;
        }
        match t {
            Tok::Ident { text, line } => {
                let Some(Tok::Group(g)) = toks.get(i + 1) else {
                    continue;
                };
                if g.delim != Delim::Paren {
                    continue;
                }
                // `name!(…)` is a macro, not a call — but `!` sits
                // *between* ident and group, so adjacency already
                // excludes it. Keywords with parens are not calls, and
                // `fn name(…)` is a signature, not a call to `name`.
                if matches!(
                    text.as_str(),
                    "if" | "while" | "for" | "match" | "return" | "fn" | "impl"
                ) {
                    continue;
                }
                if i >= 1 && toks[i - 1].is_ident("fn") {
                    continue;
                }
                out.push(CallSite {
                    name: text.clone(),
                    line: *line,
                    recv: classify_receiver(toks, i),
                    first_arg_ident: first_ident(&g.toks),
                });
            }
            Tok::Group(g) if g.delim != Delim::Brace => collect_calls(&g.toks, out),
            _ => {}
        }
    }
}

fn first_ident(toks: &[Tok]) -> Option<String> {
    match toks.first() {
        Some(Tok::Ident { text, .. }) => Some(text.clone()),
        _ => None,
    }
}

/// Classifies how the call at token index `i` reaches its callee.
fn classify_receiver(toks: &[Tok], i: usize) -> Receiver {
    if i >= 1 && toks[i - 1].is_punct('.') {
        // Method call: find the identifier owning the dot. Skip back
        // over one balanced paren group (`make().lock()`).
        let mut j = i - 1;
        if j >= 1 {
            j -= 1;
            if let Tok::Group(_) = &toks[j] {
                if j >= 1 {
                    j -= 1;
                } else {
                    return Receiver::Dot(String::new());
                }
            }
        }
        if let Tok::Ident { text, .. } = &toks[j] {
            if text == "self" && (j == 0 || !toks[j - 1].is_punct('.')) {
                return Receiver::SelfDot;
            }
            return Receiver::Dot(text.clone());
        }
        return Receiver::Dot(String::new());
    }
    if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        // Path call: the segment before `::`.
        if i >= 3 {
            if let Tok::Ident { text, .. } = &toks[i - 3] {
                return Receiver::Path(text.clone());
            }
            // `Foo::<T>::new` — give up on the segment but keep Path.
            return Receiver::Path(String::new());
        }
        return Receiver::Path(String::new());
    }
    Receiver::Bare
}

/// Collects child brace blocks reachable without crossing another brace
/// group.
fn collect_children(toks: &[Tok], blocks: &mut Vec<Block>) {
    for t in toks {
        match t {
            Tok::Group(g) if g.delim == Delim::Brace => blocks.push(build_block(g)),
            Tok::Group(g) => collect_children(&g.toks, blocks),
            _ => {}
        }
    }
}

/// Whether the statement begins a nested item definition.
fn defines_item(toks: &[Tok]) -> bool {
    for t in toks.iter().take(6) {
        match t {
            Tok::Ident { text, .. } => match text.as_str() {
                "fn" | "impl" | "mod" | "struct" | "enum" | "trait" => return true,
                "pub" | "const" | "unsafe" | "async" | "extern" | "crate" => continue,
                _ => return false,
            },
            Tok::Group(_) => return false,
            Tok::Punct { ch: '#' | '(', .. } => continue,
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parse(src: &str) -> IrFile {
        let f = SourceFile::from_source("crates/x/src/a.rs", src);
        Ir::parse(std::slice::from_ref(&f)).files.remove(0)
    }

    #[test]
    fn fn_items_and_impl_types_are_extracted() {
        let file = parse(
            "impl<T> Server<T> {\n    fn start(&self) -> Result<()> { go() }\n}\nfn free(x: u32) -> u64 { 0 }\nimpl Drop for Guard {\n    fn drop(&mut self) {}\n}\n",
        );
        let names: Vec<_> = file.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["start", "free", "drop"]);
        assert_eq!(file.fns[0].impl_type.as_deref(), Some("Server"));
        assert!(file.fns[0].returns_result);
        assert!(!file.fns[1].returns_result);
        assert_eq!(file.fns[2].impl_type.as_deref(), Some("Guard"));
    }

    #[test]
    fn multiline_statements_are_joined_with_calls_resolved() {
        let file = parse(
            "fn a(&self) {\n    let g = self\n        .m1\n        .lock();\n    let h = self.m2.lock();\n}\n",
        );
        let body = &file.fns[0].body;
        assert_eq!(body.stmts.len(), 2);
        let s0 = &body.stmts[0];
        assert_eq!(s0.line, 2);
        assert_eq!(s0.end_line, 4);
        assert!(s0.has_let);
        assert_eq!(s0.lets, vec!["g"]);
        assert_eq!(s0.calls.len(), 1);
        assert_eq!(s0.calls[0].name, "lock");
        assert_eq!(s0.calls[0].recv, Receiver::Dot("m1".into()));
    }

    #[test]
    fn receiver_classification_covers_all_shapes() {
        let file = parse(
            "fn f(&self) {\n    free();\n    self.method();\n    Type::assoc();\n    var.call();\n    self.field.deep();\n}\n",
        );
        let stmts = file.fns[0].stmts();
        let recvs: Vec<_> = stmts.iter().flat_map(|s| &s.calls).collect();
        assert_eq!(recvs[0].recv, Receiver::Bare);
        assert_eq!(recvs[1].recv, Receiver::SelfDot);
        assert_eq!(recvs[2].recv, Receiver::Path("Type".into()));
        assert_eq!(recvs[3].recv, Receiver::Dot("var".into()));
        assert_eq!(recvs[4].recv, Receiver::Dot("field".into()));
    }

    #[test]
    fn attribute_tokens_are_not_calls() {
        let file = parse(
            "fn f() {\n    #[cfg(not(feature = \"faults\"))]\n    let _ = faults;\n    #[allow(dead_code)]\n    real();\n}\n",
        );
        let stmts = file.fns[0].stmts();
        let names: Vec<_> = stmts
            .iter()
            .flat_map(|s| &s.calls)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn macros_are_not_calls_but_args_are_scanned() {
        let file = parse("fn f() {\n    vec![go(), 2];\n    println!(\"{}\", run());\n}\n");
        let stmts = file.fns[0].stmts();
        let names: Vec<_> = stmts
            .iter()
            .flat_map(|s| &s.calls)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["go", "run"]);
    }

    #[test]
    fn child_blocks_and_unsafe_blocks_are_tracked() {
        let file = parse(
            "fn f() {\n    for x in 0..3 {\n        inner();\n    }\n    unsafe {\n        wild();\n    }\n}\n",
        );
        let body = &file.fns[0].body;
        assert_eq!(body.stmts.len(), 2);
        assert_eq!(body.stmts[0].children.len(), 1);
        let all = file.fns[0].stmts();
        assert!(all.iter().any(|s| s.text.contains("inner()")));
        assert!(all.iter().any(|s| s.text.contains("wild()")));
    }

    #[test]
    fn nested_fn_children_are_not_walked_twice() {
        let file = parse("fn outer() {\n    fn inner() {\n        leaf();\n    }\n    top();\n}\n");
        assert_eq!(file.fns.len(), 2);
        let outer = file.fns.iter().find(|f| f.name == "outer").unwrap();
        let outer_calls: Vec<_> = outer
            .stmts()
            .iter()
            .flat_map(|s| s.calls.clone())
            .map(|c| c.name)
            .collect();
        assert_eq!(outer_calls, vec!["top"]);
        let inner = file.fns.iter().find(|f| f.name == "inner").unwrap();
        let inner_calls: Vec<_> = inner
            .stmts()
            .iter()
            .flat_map(|s| s.calls.clone())
            .map(|c| c.name)
            .collect();
        assert_eq!(inner_calls, vec!["leaf"]);
    }

    #[test]
    fn unsafe_fn_and_trait_decls() {
        let file = parse("trait T {\n    fn abstract_one(&self);\n}\nunsafe fn wild() { x(); }\n");
        assert_eq!(file.fns.len(), 1);
        assert_eq!(file.fns[0].name, "wild");
    }

    #[test]
    fn stray_delimiters_never_panic() {
        for src in [
            ")))((( }{ ]][[",
            "fn f( {",
            "fn f() } } }",
            "(((((((((((((((((((((((((((",
            "fn f() { let x = (1; }",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn deep_nesting_is_capped_not_fatal() {
        let mut src = String::from("fn f() { ");
        for _ in 0..100_000 {
            src.push('(');
        }
        let file = parse(&src);
        // Parsing completed; the fn was found.
        assert_eq!(file.fns.len(), 1);
    }

    #[test]
    fn flattened_text_is_matchable() {
        let file = parse("fn f(v: Option<u32>) {\n    let x = v\n        .unwrap();\n}\n");
        let body = &file.fns[0].body;
        assert!(body.stmts[0].text.contains(".unwrap()"));
        assert!(body.stmts[0].text.contains("let x=v"));
    }

    #[test]
    fn if_else_chains_are_one_statement() {
        let file = parse("fn f(c: bool) {\n    if c {\n        a();\n    } else {\n        b();\n    }\n    after();\n}\n");
        let body = &file.fns[0].body;
        assert_eq!(body.stmts.len(), 2);
        assert_eq!(body.stmts[0].children.len(), 2);
    }
}
