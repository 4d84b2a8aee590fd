//! Facts of the manifests and the sources. The reference algorithms share
//! no code with the engines: `ust-oracle` depends on neither `ust-core` nor
//! `ust-data`, and no crate takes `ust-oracle` as a normal (non-dev)
//! dependency. And every lock in product code is a ranked one.

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
    assert!(crates.len() >= 9, "every crate is scanned: {crates:?}");
    for (name, deps) in &crates {
        assert!(!deps.contains(&"ust-oracle".to_string()), "{name} depends on ust-oracle");
    }
}

/// Every `.rs` file under the `src/` of each crate.
fn product_sources() -> Vec<PathBuf> {
    let mut dirs: Vec<_> = manifests().iter().map(|m| m.parent().unwrap().join("src")).collect();
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(&dir).unwrap().map(|entry| entry.unwrap().path()) {
            match path.is_dir() {
                true => dirs.push(path),
                false => found.extend(path.extension().is_some_and(|e| e == "rs").then_some(path)),
            }
        }
    }
    found
}

/// The `std::sync` lock types `source` names outside comments and its
/// closing unit-test module (`#[cfg(test)] mod tests {`).
fn std_locks_named(source: &str) -> Vec<String> {
    let product = source.split("#[cfg(test)]\nmod tests {").next().unwrap();
    let code: String =
        product.lines().map(|line| line.split("//").next().unwrap().replace(' ', "")).collect();
    let in_path = |c: char| c.is_alphanumeric() || "_:{},".contains(c);
    let paths = code.split("std::sync::").skip(1);
    let names = paths
        .flat_map(|rest| rest.split(|c| !in_path(c)).next().unwrap().split([':', '{', '}', ',']));
    names
        .filter(|name| ["Mutex", "RwLock", "Condvar"].iter().any(|lock| name.starts_with(lock)))
        .map(str::to_string)
        .collect()
}

/// A lock in product code is a ranked one from `ust-core`'s `sync.rs`, so
/// no lock can skip the rank table the lock order is checked against.
#[test]
fn product_code_takes_its_locks_from_the_rank_table() {
    let sync = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/sync.rs");
    let wrapped = std_locks_named(&std::fs::read_to_string(&sync).unwrap());
    assert!(wrapped.contains(&"Mutex".to_string()), "the check sees sync.rs's own: {wrapped:?}");
    let sources = product_sources();
    assert!(sources.len() > 50, "every crate's sources are scanned: {}", sources.len());
    for path in sources.iter().filter(|path| **path != sync) {
        let named = std_locks_named(&std::fs::read_to_string(path).unwrap());
        assert!(named.is_empty(), "{} names std::sync::{named:?}", path.display());
    }
}
