//! The acceptance gates: the workspace itself is clean under `--deny`, and
//! every waiver in the tree is load-bearing — deleting any single one of
//! them makes the analyzer report at least one finding. The second
//! property is what keeps the audit trail honest: a waiver that can be
//! deleted without consequence is a waiver nobody needed. (The `#[expect]`s
//! that waive clippy lints get the same guarantee from rustc: an
//! expectation that suppresses nothing is an error of its own.)

use std::path::PathBuf;
use std::process::Command;

use ust_lint::analyze_workspace;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    ust_lint::walk::find_workspace_root(&manifest).expect("tests run inside the workspace")
}

/// Every in-scope `(path, source)` pair, loaded once — the mutation sweeps
/// re-analyze the whole set so cross-file semantic findings (whose witness
/// and root cause may live in different files) stay reproducible.
fn workspace_sources() -> Vec<(String, String)> {
    let root = workspace_root();
    ust_lint::walk::workspace_files(&root)
        .expect("workspace scan succeeds")
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("tracked file reads");
            (rel, src)
        })
        .collect()
}

#[test]
fn workspace_is_clean() {
    let report = analyze_workspace(&workspace_root()).expect("workspace scan succeeds");
    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean; found:\n{}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 50, "suspiciously few files: {}", report.files_scanned);
    assert!(report.waivers_used > 0, "the tree is known to carry waivers");
}

/// Re-analyzes the whole workspace with line `line` (1-based) of `rel`
/// deleted and returns the finding count.
fn findings_without_line(sources: &[(String, String)], rel: &str, line: u32) -> usize {
    let mutated: Vec<(String, String)> = sources
        .iter()
        .map(|(p, s)| {
            if p == rel {
                let m: String = s
                    .lines()
                    .enumerate()
                    .filter(|(i, _)| *i as u32 + 1 != line)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect();
                (p.clone(), m)
            } else {
                (p.clone(), s.clone())
            }
        })
        .collect();
    ust_lint::analyze_files(&mutated).findings.len()
}

#[test]
fn every_waiver_is_load_bearing() {
    let sources = workspace_sources();
    let report = ust_lint::analyze_files(&sources);
    assert!(!report.waivers.is_empty(), "the tree is known to carry waivers");
    for (rel, line) in &report.waivers {
        assert!(
            findings_without_line(&sources, rel, *line) > 0,
            "deleting the waiver at {rel}:{line} went unnoticed"
        );
    }
}

#[test]
fn lock_graph_is_acyclic_and_matches_the_documented_hierarchy() {
    let root = workspace_root();
    let report = analyze_workspace(&root).expect("workspace scan succeeds");
    assert!(!report.lock_edges.is_empty(), "the tree is known to nest lock acquisitions");
    assert!(
        ust_lint::dataflow::cycle_findings(&report.lock_edges).is_empty(),
        "the workspace lock-order graph has a cycle"
    );
    let doc = std::fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md reads");
    let documented = ust_lint::dataflow::documented_edges(&doc)
        .expect("ARCHITECTURE.md carries the lock-hierarchy block");
    for e in &report.lock_edges {
        assert!(
            documented.contains(&(e.from.clone(), e.to.clone())),
            "lock-order edge `{}` -> `{}` (witnessed at {}:{} in `{}`) is not in \
             ARCHITECTURE.md's documented hierarchy",
            e.from,
            e.to,
            e.file,
            e.line,
            e.func
        );
    }
}

#[test]
fn cli_exits_zero_on_the_clean_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_ust-lint"))
        .args(["--root".as_ref(), workspace_root().as_os_str(), "--deny".as_ref()])
        .output()
        .expect("ust-lint binary runs");
    assert!(out.status.success(), "stdout: {}", String::from_utf8_lossy(&out.stdout));

    let json = Command::new(env!("CARGO_BIN_EXE_ust-lint"))
        .args(["--root".as_ref(), workspace_root().as_os_str()])
        .args(["--format", "json"])
        .output()
        .expect("ust-lint binary runs");
    let body = String::from_utf8_lossy(&json.stdout);
    assert!(body.contains("\"finding_count\": 0"), "{body}");
}

/// The exact invocation CI runs: deny findings, emit the lock graph,
/// check it against the documented hierarchy — all through the binary.
#[test]
fn cli_emits_the_lock_graph_and_checks_the_hierarchy() {
    let root = workspace_root();
    let dot_path = std::env::temp_dir().join(format!("ust-lint-graph-{}.dot", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_ust-lint"))
        .args(["--root".as_ref(), root.as_os_str(), "--deny".as_ref()])
        .args(["--emit".as_ref(), dot_path.as_os_str()])
        .args(["--check-hierarchy".as_ref(), root.join("ARCHITECTURE.md").as_os_str()])
        .output()
        .expect("ust-lint binary runs");
    let dot = std::fs::read_to_string(&dot_path).unwrap_or_default();
    std::fs::remove_file(&dot_path).ok();
    assert!(out.status.success(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(dot.starts_with("digraph lock_order {"), "{dot}");
    assert!(dot.contains("\"QueryProcessor.notify_lock\""), "{dot}");

    // Against a doc without the hierarchy markers the same invocation is
    // a hard configuration error, not a silent pass.
    let broken = Command::new(env!("CARGO_BIN_EXE_ust-lint"))
        .args(["--root".as_ref(), root.as_os_str()])
        .args(["--check-hierarchy".as_ref(), root.join("README.md").as_os_str()])
        .output()
        .expect("ust-lint binary runs");
    assert_eq!(broken.status.code(), Some(2), "{}", String::from_utf8_lossy(&broken.stderr));
}

#[test]
fn cli_deny_fails_on_a_dirty_tree() {
    // A throwaway workspace with a single deliberate violation: an
    // allocation inside a loop of the kernels file.
    let dir = std::env::temp_dir().join(format!("ust-lint-deny-{}", std::process::id()));
    let src = dir.join("crates/markov/src");
    std::fs::create_dir_all(&src).expect("temp workspace dirs");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("temp manifest");
    std::fs::write(
        src.join("kernels.rs"),
        "pub fn f(v: &mut Vec<u64>) { for i in 0..3 { v.push(i); } }\n",
    )
    .expect("temp source");

    let out = Command::new(env!("CARGO_BIN_EXE_ust-lint"))
        .args(["--root".as_ref(), dir.as_os_str(), "--deny".as_ref()])
        .output()
        .expect("ust-lint binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("alloc-in-kernel-hot-loop"),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
