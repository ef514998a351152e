//! Pass — `dead-variant`: every public error variant of the serving
//! crate is constructed somewhere in non-test code; an unconstructible
//! variant is dead API surface that callers still have to match on.
//!
//! The other project invariants live where something enforces them:
//! raw threads and sockets are clippy's `disallowed-methods`
//! (`clippy.toml`), the batcher's injected clock is its own tests
//! (they run an hour ahead of the wall clock), and the metrics
//! reservoirs are `u64`, so a NaN-unsafe float sort does not compile.

use crate::report::Finding;
use crate::source::SourceFile;

const SERVE_PREFIX: &str = "crates/serve/src/";
const ERRORS: &str = "crates/serve/src/error.rs";

/// A declared `pub enum` variant in the serve error module.
#[derive(Debug)]
struct Variant {
    enum_name: String,
    name: String,
    line: usize,
}

/// Every never-constructed variant of the serve error module.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(error_file) = files.iter().find(|f| f.path == ERRORS) else {
        return out;
    };
    for v in parse_variants(error_file) {
        let needle = format!("{}::{}", v.enum_name, v.name);
        let constructed = files
            .iter()
            .filter(|f| f.path.starts_with(SERVE_PREFIX) && f.path != ERRORS)
            .any(|f| {
                f.code_lines()
                    .any(|(_, line)| is_construction(&line.code, &needle))
            });
        if !constructed {
            out.push(Finding::new(
                "dead-variant",
                ERRORS,
                v.line,
                format!(
                    "`{}::{}` is never constructed in non-test serving code — dead error \
                     surface callers still must match on; construct it or remove it",
                    v.enum_name, v.name
                ),
                "",
            ));
        }
    }
    out
}

/// `Enum::Variant` occurrences that look like construction rather than
/// pattern-matching: lines with `=>` (match arms), `..` (rest
/// patterns), `matches!` or `if/while let` destructuring don't count.
fn is_construction(code: &str, needle: &str) -> bool {
    if !code.contains(needle) {
        return false;
    }
    // A construction site must not also be a pattern position.
    let boundary_ok = {
        let idx = code.find(needle).unwrap_or(0);
        let after = code[idx + needle.len()..].chars().next();
        !matches!(after, Some(c) if c.is_ascii_alphanumeric() || c == '_')
    };
    boundary_ok
        && !code.contains("=>")
        && !code.contains("matches!")
        && !code.contains("..")
        && !code.contains("if let ")
        && !code.contains("while let ")
}

/// Extracts `pub enum` variants (lines at enum depth + 1 starting with
/// an uppercase identifier) from the error module.
fn parse_variants(file: &SourceFile) -> Vec<Variant> {
    let mut out = Vec::new();
    let mut depth: usize = 0;
    // (enum name, depth of its body)
    let mut current: Option<(String, usize)> = None;
    for (line_no, line) in file.code_lines() {
        let code = line.code.as_str();
        let trimmed = code.trim_start();
        if let Some(rest) = trimmed.strip_prefix("pub enum ") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                current = Some((name, depth + 1));
            }
        }
        if let Some((enum_name, body_depth)) = &current {
            // A variant starts a line at exactly the enum-body depth;
            // struct-variant fields sit one level deeper and closing
            // braces don't begin with an identifier.
            if depth == *body_depth {
                let name: String = trimmed
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    out.push(Variant {
                        enum_name: enum_name.clone(),
                        name,
                        line: line_no,
                    });
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    if let Some((_, body_depth)) = &current {
                        if depth == *body_depth {
                            current = None;
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn dead_variant_is_flagged_and_constructed_one_is_not() {
        let errors = SourceFile::from_source(
            "crates/serve/src/error.rs",
            "pub enum ServeError {\n    Used {\n        capacity: usize,\n    },\n    NeverMade,\n}\n",
        );
        let user = SourceFile::from_source(
            "crates/serve/src/queue.rs",
            "fn f() -> ServeError {\n    ServeError::Used { capacity: 1 }\n}\nfn g(e: &ServeError) -> bool {\n    matches!(e, ServeError::NeverMade)\n}\n",
        );
        let found = check(&[errors, user]);
        assert_eq!(rules(&found), vec!["dead-variant"]);
        assert!(found[0].message.contains("NeverMade"));
        assert_eq!(found[0].line, 5);
    }

    #[test]
    fn match_arms_do_not_count_as_construction() {
        let errors = SourceFile::from_source(
            "crates/serve/src/error.rs",
            "pub enum DeadlineStage {\n    Queue,\n}\n",
        );
        let user = SourceFile::from_source(
            "crates/serve/src/metrics.rs",
            "fn f(s: DeadlineStage) {\n    match s {\n        DeadlineStage::Queue => {}\n    }\n}\n",
        );
        let found = check(&[errors, user]);
        assert_eq!(rules(&found), vec!["dead-variant"]);
    }
}
