//! Line-level source model shared by every pass.
//!
//! The model deliberately stops short of a real parser: each file is
//! scanned once by a character-level state machine that blanks comment
//! and literal *interiors* (delimiters stay, so brace/paren structure
//! survives), then split into lines annotated with whether they sit
//! inside `#[cfg(test)]` / `#[test]` code. Passes pattern-match against
//! the blanked `code` text, so `".unwrap()"` inside a string or a doc
//! comment never counts as a finding. Macro bodies are *not* expanded —
//! a known limitation documented in DESIGN.md §11.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One analysed line of a source file.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// Original text (for excerpts in reports).
    pub raw: String,
    /// Text with comment and string/char-literal interiors blanked.
    pub code: String,
    /// Whether the line is inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
}

/// A loaded, pre-scanned source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The annotated lines, index 0 = line 1.
    pub lines: Vec<LineInfo>,
}

impl SourceFile {
    /// Builds the model from in-memory source (used by tests with
    /// inline fixtures — `path` is only a label).
    pub fn from_source(path: impl Into<String>, text: &str) -> Self {
        let blanked = blank_noncode(text);
        let raw_lines: Vec<&str> = text.split('\n').collect();
        let code_lines: Vec<&str> = blanked.split('\n').collect();
        let test_flags = mark_test_regions(&code_lines);
        let lines = raw_lines
            .iter()
            .zip(code_lines.iter())
            .zip(test_flags)
            .map(|((raw, code), in_test)| LineInfo {
                raw: (*raw).to_string(),
                code: (*code).to_string(),
                in_test,
            })
            .collect();
        SourceFile {
            path: path.into(),
            lines,
        }
    }

    /// Loads and scans one file from disk.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error.
    pub fn load(root: &Path, rel: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(root.join(rel))?;
        let path = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        Ok(SourceFile::from_source(path, &text))
    }

    /// 1-indexed (line, code) pairs for non-test lines.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &LineInfo)> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.in_test)
            .map(|(i, l)| (i + 1, l))
    }
}

/// Recursively collects every `.rs` file under `crates/*/src`, sorted
/// for deterministic reports.
///
/// # Errors
///
/// Propagates directory-walk and file-read errors.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut rels: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut rels)?;
        }
    }
    let mut out = Vec::with_capacity(rels.len());
    for abs in &mut rels {
        let rel = abs
            .strip_prefix(root)
            .map_err(|e| io::Error::other(format!("path outside root: {e}")))?
            .to_path_buf();
        out.push(SourceFile::load(root, &rel)?);
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ScanState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    Char,
}

/// Replaces comment and literal interiors with spaces, preserving the
/// line structure and the delimiters themselves.
fn blank_noncode(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut state = ScanState::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            ScanState::Code => match c {
                '/' if next == Some('/') => {
                    state = ScanState::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = ScanState::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    state = ScanState::Str;
                    out.push('"');
                }
                'r' | 'b' if starts_raw_string(&chars, i) => {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    state = ScanState::RawStr(hashes);
                    for _ in 0..consumed {
                        out.push(' ');
                    }
                    out.push('"');
                    i += consumed + 1;
                    continue;
                }
                'b' if next == Some('"') => {
                    state = ScanState::Str;
                    out.push(' ');
                    out.push('"');
                    i += 2;
                    continue;
                }
                '\'' if is_char_literal(&chars, i) => {
                    state = ScanState::Char;
                    out.push('\'');
                }
                _ => out.push(c),
            },
            ScanState::LineComment => {
                if c == '\n' {
                    state = ScanState::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            ScanState::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        ScanState::Code
                    } else {
                        ScanState::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    state = ScanState::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            ScanState::Str => {
                if c == '\\' {
                    out.push(' ');
                    if let Some(escaped) = next {
                        out.push(if escaped == '\n' { '\n' } else { ' ' });
                        i += 2;
                        continue;
                    }
                } else if c == '"' {
                    state = ScanState::Code;
                    out.push('"');
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            ScanState::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    state = ScanState::Code;
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    i += hashes + 1;
                    continue;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            ScanState::Char => {
                if c == '\\' {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                } else if c == '\'' {
                    state = ScanState::Code;
                    out.push('\'');
                } else {
                    out.push(' ');
                }
            }
        }
        i += 1;
    }
    out
}

/// `r"..."`, `r#"..."#`, `br"..."` openers.
fn starts_raw_string(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Number of `#`s and chars consumed up to (excluding) the opening `"`.
fn raw_string_open(chars: &[char], i: usize) -> (usize, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j - i)
}

fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes `'a'` / `'\n'` (char literal) from `'a` (lifetime).
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(c) if *c != '\'' => chars.get(i + 2) == Some(&'\''),
        _ => false,
    }
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` items by tracking
/// brace depth: an attribute arms a pending flag that attaches to the
/// next `{` (or is cancelled by a `;`, covering attribute-on-`use`).
fn mark_test_regions(code_lines: &[&str]) -> Vec<bool> {
    let mut flags = Vec::with_capacity(code_lines.len());
    let mut depth: usize = 0;
    let mut pending = false;
    let mut regions: Vec<usize> = Vec::new();
    for line in code_lines {
        let has_attr = line.contains("#[cfg(test") || line.contains("#[test]");
        let mut in_test = !regions.is_empty() || has_attr;
        if has_attr {
            pending = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        regions.push(depth);
                        pending = false;
                        in_test = true;
                    }
                }
                '}' => {
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' if pending && regions.is_empty() => {
                    // `#[cfg(test)] use …;` — the attribute applied to a
                    // brace-less item; this line was already marked.
                    pending = false;
                    in_test = true;
                }
                _ => {}
            }
        }
        flags.push(in_test);
    }
    flags
}

/// True when `code[idx]` begins the given needle.
pub fn word_at(code: &str, idx: usize, needle: &str) -> bool {
    code[idx..].starts_with(needle)
}

/// True when `code[idx..idx+len]` is a whole identifier word — not
/// embedded in a longer identifier on either side.
pub fn word_bounded(code: &str, idx: usize, len: usize) -> bool {
    let b = code.as_bytes();
    (idx == 0 || !is_ident_byte(b[idx - 1]))
        && (idx + len >= b.len() || !is_ident_byte(b[idx + len]))
}

/// True when the byte at `idx` is part of an identifier.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = SourceFile::from_source(
            "x.rs",
            "let a = \"call .unwrap() here\"; // .unwrap()\nlet b = 1;\n",
        );
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let a = "));
        assert_eq!(f.lines[1].code, "let b = 1;");
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let f = SourceFile::from_source(
            "x.rs",
            "let a = r#\"panic!(\"no\")\"#;\nlet c = '\\'';\nlet lt: &'static str = \"x\";\n",
        );
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[1].code.contains("let c ="));
        // The lifetime must not swallow the rest of the line as a char.
        assert!(f.lines[2].code.contains("str"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = SourceFile::from_source("x.rs", "a();\n/* x.unwrap()\n still comment */\nb();\n");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert_eq!(f.lines[3].code, "b();");
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn live() { hot(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn also_live() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_single_item_is_bounded() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn test_fn_attribute_marks_only_the_fn() {
        let src = "#[test]\nfn check() {\n    boom();\n}\nfn live() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }
}
