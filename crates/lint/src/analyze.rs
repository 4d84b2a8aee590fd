//! The driver: waiver placement, the semantic pass, then waiver
//! suppression and hygiene.
//!
//! Analysis is two-phase. [`file_pass`] lexes and parses one file and
//! places its waivers. [`finish`] then builds the workspace symbol table
//! over every parsed file, runs the interprocedural guard-liveness pass
//! ([`crate::dataflow`]), and only then applies waiver suppression and
//! hygiene — so a waiver can suppress a semantic finding whose root cause
//! lives in another file.

use crate::callgraph::summarize;
use crate::dataflow::{analyze_semantic, LockEdge};
use crate::lexer::{lex, Comment, Token};
use crate::parse::{parse_file, ParsedFile};
use crate::rules::RuleId;
use crate::symbols::Workspace;
use crate::waiver::{directive_body, parse_directive, Waiver};

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// The analysis result for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived waiver suppression, in source order.
    pub findings: Vec<Finding>,
    /// Lines (1-based) carrying a parsed waiver directive.
    pub waiver_lines: Vec<u32>,
    /// How many waivers suppressed at least one finding.
    pub waivers_used: usize,
}

/// One file's state between the per-file pass and the workspace finish.
pub struct FilePass {
    /// Workspace-relative path.
    pub path: String,
    /// The report under construction (malformed-waiver findings land here
    /// directly; they are unwaivable).
    report: FileReport,
    /// Waivers placed in this file, with their target lines.
    waivers: Vec<PlacedWaiver>,
    /// The item-level parse, input to the workspace symbol table.
    pub parsed: ParsedFile,
}

/// Phase 1: lexes and parses `src` as the file at workspace-relative
/// `path`, and places its waivers.
pub fn file_pass(path: &str, src: &str) -> FilePass {
    let lexed = lex(src);
    let mut report = FileReport::default();
    let mut waivers: Vec<PlacedWaiver> = Vec::new();
    for comment in &lexed.comments {
        if let Some(body) = directive_body(&comment.text, comment.is_doc()) {
            match parse_directive(body) {
                Ok(waiver) => {
                    let target = waiver_target_line(comment, &lexed.tokens);
                    report.waiver_lines.push(comment.line);
                    waivers.push(PlacedWaiver { waiver, line: comment.line, target, used: false });
                }
                Err(err) => report.findings.push(Finding {
                    rule: RuleId::MalformedWaiver,
                    file: path.to_string(),
                    line: comment.line,
                    col: comment.col,
                    message: err.to_string(),
                }),
            }
        }
    }

    let parsed = parse_file(&lexed);
    FilePass { path: path.to_string(), report, waivers, parsed }
}

/// Phase 2: runs the semantic pass over all files, then waiver
/// suppression and hygiene per file. Returns the per-file reports and the
/// deduplicated lock-order edge list.
pub fn finish(passes: Vec<FilePass>) -> (Vec<(String, FileReport)>, Vec<LockEdge>) {
    let semantic = {
        let files: Vec<(String, &ParsedFile)> =
            passes.iter().map(|p| (p.path.clone(), &p.parsed)).collect();
        let ws = Workspace::build(&files);
        let summaries = summarize(&ws);
        analyze_semantic(&ws, &summaries)
    };

    let mut out = Vec::with_capacity(passes.len());
    for mut pass in passes {
        let path = pass.path;
        let mut report = pass.report;
        // Waiver suppression: a waiver covers findings of its rules on its
        // target line.
        for finding in semantic.findings.iter().filter(|f| f.file == path) {
            let waiver = pass
                .waivers
                .iter_mut()
                .find(|w| w.waiver.rules.contains(&finding.rule) && w.target == Some(finding.line));
            match waiver {
                Some(w) => w.used = true,
                None => report.findings.push(finding.clone()),
            }
        }

        // Waiver hygiene.
        report.waivers_used = pass.waivers.iter().filter(|w| w.used).count();
        for w in &pass.waivers {
            if !w.used {
                let rules: Vec<&str> = w.waiver.rules.iter().map(|r| r.name()).collect();
                report.findings.push(Finding {
                    rule: RuleId::UnusedWaiver,
                    file: path.clone(),
                    line: w.line,
                    col: 1,
                    message: format!(
                        "waiver for `{}` suppresses nothing — delete it or move it next to \
                         the code it justifies",
                        rules.join(", ")
                    ),
                });
            }
        }

        report.findings.sort_by_key(|a| (a.line, a.col, a.rule));
        out.push((path, report));
    }
    (out, semantic.edges)
}

struct PlacedWaiver {
    waiver: Waiver,
    line: u32,
    /// The line this waiver covers (`None` for a waiver with no code
    /// anywhere after it).
    target: Option<u32>,
    used: bool,
}

/// A waiver covers its own line when code precedes it there (trailing
/// comment), otherwise the next line holding any token.
fn waiver_target_line(comment: &Comment, tokens: &[Token]) -> Option<u32> {
    if tokens.iter().any(|t| t.line == comment.line) {
        return Some(comment.line);
    }
    tokens.iter().map(|t| t.line).filter(|&l| l > comment.end_line).min()
}
