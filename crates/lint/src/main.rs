//! CLI for fademl-lint.
//!
//! ```text
//! cargo run -p fademl-lint --release [-- --root DIR]
//! ```
//!
//! Exit codes: `0` clean, `1` any finding, `2` usage or IO error.

#![forbid(unsafe_code)]
#![warn(clippy::let_underscore_must_use, clippy::unused_result_ok)]

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fademl_lint::{collect_findings, source};

fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut root = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err("usage: fademl-lint [--root DIR]".to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(root)
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`, so the tool runs correctly from any subdirectory.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn real_main() -> Result<bool, String> {
    let root = match parse_args()? {
        Some(r) => r,
        None => {
            let cwd = env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory (try --root)")?
        }
    };
    let files = source::load_workspace(&root).map_err(|e| format!("workspace walk: {e}"))?;
    let findings = collect_findings(&files);
    println!(
        "fademl-lint: {} files, {} finding(s)",
        files.len(),
        findings.len()
    );
    for f in &findings {
        println!("  {f}");
    }
    Ok(findings.is_empty())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("fademl-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
