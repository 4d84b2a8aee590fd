//! The reference algorithms share no code with the engines, as a fact of
//! the manifests: `ust-oracle` depends on neither `ust-core` nor
//! `ust-data`, and no crate takes `ust-oracle` as a normal (non-dev)
//! dependency.

use std::path::{Path, PathBuf};

/// Every crate manifest of the workspace: the root and each directory
/// under `crates/` (one level of nesting, for `crates/compat/*`).
fn manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = vec![root.join("Cargo.toml")];
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.join("Cargo.toml").is_file() {
                found.push(path.join("Cargo.toml"));
            } else if path.is_dir() && dir.ends_with("crates") {
                dirs.push(path);
            }
        }
    }
    found
}

/// `(package name, crates named under a non-dev dependency table)`: the
/// keys of `[dependencies]`, `[build-dependencies]` and their
/// `[target.*]` forms.
fn normal_dependencies(manifest: &Path) -> (String, Vec<String>) {
    let text = std::fs::read_to_string(manifest).unwrap();
    let (mut package, mut deps) = (String::new(), Vec::new());
    let mut section = String::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let key = line.split(['=', '.', ' ']).next().unwrap().trim_matches('"').to_string();
        if section == "package" && key == "name" {
            package = line.split('"').nth(1).unwrap().to_string();
        }
        let normal = section.ends_with("dependencies") && !section.ends_with("dev-dependencies");
        if normal && !section.starts_with("workspace") {
            deps.push(key);
        }
    }
    (package, deps)
}

#[test]
fn the_oracle_is_a_dev_dependency_only_and_depends_on_no_engine() {
    let crates: Vec<_> = manifests().iter().map(|m| normal_dependencies(m)).collect();
    let (_, oracle) = crates.iter().find(|(name, _)| name == "ust-oracle").expect("ust-oracle");
    assert!(oracle.contains(&"ust-markov".to_string()), "the manifest parses: {oracle:?}");
    for engine in ["ust-core", "ust-data"] {
        assert!(!oracle.contains(&engine.to_string()), "ust-oracle depends on {engine}");
    }
    assert!(crates.len() >= 10, "every crate is scanned: {crates:?}");
    for (name, deps) in &crates {
        assert!(!deps.contains(&"ust-oracle".to_string()), "{name} depends on ust-oracle");
    }
}
