//! Workspace discovery: which `.rs` files the analyzer inspects.
//!
//! Scanned: the facade crate's `src/` and every `crates/*/src/` tree,
//! including `ust-lint` itself (the analyzer is self-hosting).
//!
//! Excluded by design:
//! * `crates/compat/` — vendored API stand-ins for third-party crates
//!   (`rand`, `proptest`); project conventions do not govern
//!   foreign API surfaces, and the stand-ins are swapped for the real
//!   crates once the build environment has network access;
//! * `tests/`, `benches/`, `examples/` trees — integration tests and
//!   examples are test code for every rule, and fixture files under
//!   `crates/lint/tests/fixtures/` contain deliberate violations;
//! * `target/` and anything outside the workspace.

use std::path::{Path, PathBuf};

/// Collects the workspace-relative paths of every source file to analyze,
/// sorted for deterministic reports. I/O errors name the path they hit.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in read_dir_sorted(&crates)? {
            if entry.file_name().and_then(|n| n.to_str()) == Some("compat") {
                continue;
            }
            let src = entry.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|f| f.strip_prefix(root).ok())
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    rel.sort();
    Ok(rel)
}

/// Recursively collects `.rs` files under `dir`. Build output (`target/`)
/// and symlinked directories are skipped: `target/` holds generated and
/// vendored sources that are not workspace code, and following directory
/// symlinks risks duplicate reports or cycles (`a/link -> a`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            if entry.file_name().and_then(|n| n.to_str()) == Some("target") {
                continue;
            }
            let is_symlink = std::fs::symlink_metadata(&entry)
                .map(|m| m.file_type().is_symlink())
                .unwrap_or(false);
            if is_symlink {
                continue;
            }
            collect_rs(&entry, out)?;
        } else if entry.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let iter = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for entry in iter {
        let entry = entry.map_err(|e| format!("cannot read entry in {}: {e}", dir.display()))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — the analyzer's default root.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a scratch workspace with a nested `target/` directory and (on
    /// unix) a directory symlink, and pins that `collect_rs` skips both.
    #[test]
    fn collect_skips_target_and_symlinked_dirs() {
        let scratch = std::env::temp_dir().join(format!("ust-lint-walk-{}", std::process::id()));
        let src = scratch.join("src");
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(src.join("inner")).unwrap();
        std::fs::create_dir_all(src.join("target").join("debug")).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn a() {}\n").unwrap();
        std::fs::write(src.join("inner").join("mod.rs"), "pub fn b() {}\n").unwrap();
        std::fs::write(
            src.join("target").join("debug").join("generated.rs"),
            "pub fn generated() {}\n",
        )
        .unwrap();
        #[cfg(unix)]
        std::os::unix::fs::symlink(&src, src.join("inner").join("loop")).unwrap();

        let mut files = Vec::new();
        collect_rs(&src, &mut files).unwrap();
        let names: Vec<String> = files
            .iter()
            .map(|p| p.strip_prefix(&src).unwrap().to_string_lossy().replace('\\', "/"))
            .collect();
        assert_eq!(names, ["inner/mod.rs", "lib.rs"]);

        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
