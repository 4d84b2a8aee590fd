//! # ust-lint — semantic conformance analyzer for the ust workspace
//!
//! The engines' exactness guarantees (bit-for-bit identity across batch
//! sizes, thread counts, kernels, prefilter modes and streaming prefixes)
//! rest on project conventions. Clippy enforces the token-level ones (see
//! the workspace `clippy.toml` and ARCHITECTURE.md's "Enforced invariants").
//! This crate enforces what needs a whole-workspace view: lock-order
//! inversions, guards held across blocking calls and allocation in kernel
//! hot loops. It is a zero-dependency binary (`cargo run -p ust-lint --
//! --deny`) built from a hand-written Rust [`lexer`], an item-level
//! [`parse`], a workspace symbol table ([`symbols`]), a call graph
//! ([`callgraph`]) and a guard-liveness [`dataflow`], with an inline waiver
//! syntax ([`waiver`]) that [`analyze`] resolves.
//!
//! The rules and their rationale live in [`rules`]. The analyzer is
//! self-hosting — `crates/lint/src` is scanned like every other crate.

// Library code does not panic; a panic that an invariant rules out carries
// an `#[expect]` naming the invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod analyze;
pub mod callgraph;
pub mod dataflow;
pub mod json;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod symbols;
pub mod waiver;
pub mod walk;

use std::path::Path;

use analyze::{file_pass, finish, FileReport, Finding};
use dataflow::LockEdge;

/// The aggregated result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings across all files, in (file, line, col) order.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Number of waivers that suppressed at least one finding.
    pub waivers_used: usize,
    /// `(file, line)` of every parsed waiver directive.
    pub waivers: Vec<(String, u32)>,
    /// The discovered lock-order graph: one witness edge per ordered pair
    /// of locks ever held nested.
    pub lock_edges: Vec<LockEdge>,
}

impl Report {
    /// Folds one file's report into the aggregate.
    fn absorb(&mut self, path: &str, file: FileReport) {
        self.files_scanned += 1;
        self.waivers_used += file.waivers_used;
        self.findings.extend(file.findings);
        self.waivers.extend(file.waiver_lines.iter().map(|&l| (path.to_string(), l)));
    }

    /// Serializes the report as a stable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i + 1 == self.findings.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{{}, \"line\": {}, \"col\": {}, {}, {}}}{}\n",
                json::str_field("file", &f.file),
                f.line,
                f.col,
                json::str_field("rule", f.rule.name()),
                json::str_field("message", &f.message),
                sep,
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"waivers_used\": {},\n", self.waivers_used));
        out.push_str("  \"lock_edges\": [\n");
        for (i, e) in self.lock_edges.iter().enumerate() {
            let sep = if i + 1 == self.lock_edges.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{{}, {}, {}, \"line\": {}}}{}\n",
                json::str_field("from", &e.from),
                json::str_field("to", &e.to),
                json::str_field("file", &e.file),
                e.line,
                sep,
            ));
        }
        out.push_str("  ]\n}");
        out
    }

    /// Renders the lock-order graph as deterministic Graphviz DOT.
    pub fn to_dot(&self) -> String {
        dataflow::to_dot(&self.lock_edges)
    }
}

/// Analyzes a set of in-memory `(path, source)` files as one workspace.
///
/// This is the entry point for workspace-aware tests: cross-file findings
/// (a lock-order edge witnessed in one file, rooted in another's symbol
/// table) only reproduce when every involved file is in the set.
pub fn analyze_files(files: &[(String, String)]) -> Report {
    let passes = files.iter().map(|(p, s)| file_pass(p, s)).collect();
    let (reports, edges) = finish(passes);
    let mut report = Report::default();
    for (path, file) in reports {
        report.absorb(&path, file);
    }
    report.lock_edges = edges;
    sort_findings(&mut report);
    report
}

/// Analyzes one source string as the file at workspace-relative `path`.
///
/// This is the in-memory entry point the tests (and the mutation harness
/// pinning "deleting any waiver fails the build") drive. The semantic pass
/// sees a one-file workspace.
pub fn analyze_str(path: &str, src: &str) -> Report {
    analyze_files(&[(path.to_string(), src.to_string())])
}

/// Analyzes every in-scope file under the workspace `root`.
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let files = walk::workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let full = root.join(&rel);
        let src = std::fs::read_to_string(&full)
            .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        sources.push((rel, src));
    }
    Ok(analyze_files(&sources))
}

fn sort_findings(report: &mut Report) {
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
}
