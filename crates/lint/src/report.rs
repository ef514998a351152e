//! Findings and their human rendering.

use std::fmt;

/// One finding produced by a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `lock-cycle`, `dead-variant`).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Trimmed source excerpt of the offending line.
    pub excerpt: String,
}

impl Finding {
    /// Convenience constructor trimming the excerpt.
    pub fn new(
        rule: &str,
        path: &str,
        line: usize,
        message: impl Into<String>,
        excerpt: &str,
    ) -> Self {
        Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            message: message.into(),
            excerpt: excerpt.trim().chars().take(120).collect(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.excerpt
        )
    }
}
