//! No dead error surface: every variant of a `pub enum` in
//! `src/error.rs` is constructed by the crate's production code, so a
//! caller never matches on an error the engine cannot return.
//!
//! "Constructed" is a textual rule over the other `src/*.rs` files: the
//! `Enum::Variant` path appears on a line that is not a pattern (no
//! `=>`, `..`, `matches!`, `if let` or `while let`). Line and doc
//! comments and `#[cfg(test)]` items do not count.

use std::fs;
use std::path::Path;

/// `source` with line and doc comments cut and every `#[cfg(test)]`
/// (or `#[cfg(all(test, …))]`) item left out.
fn production_code(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    // Inside a test-only item: its brace depth, and whether its body
    // has opened yet.
    let mut skipping: Option<(usize, bool)> = None;
    for line in source.lines() {
        let mut code = line.find("//").map_or(line, |at| &line[..at]);
        if skipping.is_none() {
            let trimmed = code.trim_start();
            if let Some(rest) = ["#[cfg(test)]", "#[cfg(all(test,"]
                .iter()
                .find_map(|attr| trimmed.strip_prefix(attr))
            {
                skipping = Some((0, false));
                code = rest;
            } else {
                out.push(code.to_string());
                continue;
            }
        }
        let Some((depth, opened)) = skipping.as_mut() else {
            continue;
        };
        for c in code.chars() {
            match c {
                '{' => {
                    *depth += 1;
                    *opened = true;
                }
                '}' => *depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        let ended = if *opened {
            *depth == 0
        } else {
            code.trim_end().ends_with(';')
        };
        if ended {
            skipping = None;
        }
    }
    out
}

/// `Enum::Variant` for every variant of every `pub enum` in `lines`:
/// the identifiers that start a line at the enum body's brace depth.
fn variants(lines: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut current: Option<(String, usize)> = None;
    for code in lines {
        let trimmed = code.trim_start();
        if let Some(rest) = trimmed.strip_prefix("pub enum ") {
            current = Some((identifier(rest), depth + 1));
        }
        if let Some((name, body)) = &current {
            let variant = identifier(trimmed);
            if depth == *body && variant.starts_with(|c: char| c.is_ascii_uppercase()) {
                out.push(format!("{name}::{variant}"));
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if current.as_ref().is_some_and(|(_, body)| depth < *body) {
                        current = None;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

fn identifier(text: &str) -> String {
    text.chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect()
}

/// Whether `code` names `path` as a whole path, outside a pattern.
fn is_construction(code: &str, path: &str) -> bool {
    let whole = code.match_indices(path).any(|(at, _)| {
        !code[at + path.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
    });
    whole
        && !["=>", "..", "matches!", "if let ", "while let "]
            .iter()
            .any(|pattern| code.contains(pattern))
}

#[test]
fn every_error_variant_is_constructed_outside_tests() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let read = |path: &Path| production_code(&fs::read_to_string(path).unwrap());
    let declared = variants(&read(&src.join("error.rs")));
    assert!(
        declared.contains(&"ServeError::Overloaded".to_string())
            && declared.contains(&"DeadlineStage::Batch".to_string()),
        "the variant parser missed known variants: {declared:?}"
    );
    let mut code = Vec::new();
    for entry in fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("error.rs") {
            code.extend(read(&path));
        }
    }
    let dead: Vec<&String> = declared
        .iter()
        .filter(|variant| !code.iter().any(|line| is_construction(line, variant)))
        .collect();
    assert!(
        dead.is_empty(),
        "never constructed in fademl-serve's production code — dead error surface \
         callers still must match on; construct it or remove it: {dead:?}"
    );
}

#[test]
fn the_rule_tells_construction_from_patterns_comments_and_tests() {
    let path = "ServeError::Internal";
    assert!(is_construction("return Err(ServeError::Internal {", path));
    assert!(!is_construction("ServeError::Internal { .. } => 1,", path));
    assert!(!is_construction(
        "if let ServeError::Internal { reason } = e {",
        path
    ));
    assert!(!is_construction(
        "matches!(e, ServeError::Internal { .. })",
        path
    ));
    assert!(!is_construction("ServeError::InternalError", path));
    let source = "\
        fn a() -> E { E::Kept } // E::Comment\n\
        /// E::Doc\n\
        #[cfg(test)]\n\
        mod tests {\n\
            fn b() -> E { E::Test }\n\
        }\n\
        #[cfg(all(test, debug_assertions))]\n\
        use crate::E::TestImport;\n\
        fn c() -> E { E::AlsoKept }\n";
    let code = production_code(source).join("\n");
    assert!(
        code.contains("E::Kept") && code.contains("E::AlsoKept"),
        "{code}"
    );
    for gone in ["E::Comment", "E::Doc", "E::Test", "E::TestImport"] {
        assert!(!code.contains(gone), "{gone} survived: {code}");
    }
    let enums = "pub enum E {\n    /// Doc.\n    A,\n    B {\n        field: u8,\n    },\n}\n\
                 pub enum F {\n    C(u8),\n}\n";
    assert_eq!(variants(&production_code(enums)), ["E::A", "E::B", "F::C"]);
}
