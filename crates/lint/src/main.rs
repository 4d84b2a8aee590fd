//! `ust-lint` — the CLI over [`ust_lint`].
//!
//! ```text
//! ust-lint [--root DIR] [--format text|json] [--deny] [--list-rules]
//!          [--emit DOT_PATH] [--check-hierarchy DOC_PATH]
//! ```
//!
//! Exit codes: `0` clean (or findings in warn mode), `1` findings under
//! `--deny` or an undocumented lock-order edge under `--check-hierarchy`,
//! `2` usage or I/O error.

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

use std::path::PathBuf;
use std::process::ExitCode;

use ust_lint::rules::ALL_RULES;

struct Options {
    root: Option<PathBuf>,
    json: bool,
    deny: bool,
    list_rules: bool,
    emit: Option<PathBuf>,
    check_hierarchy: Option<PathBuf>,
}

const USAGE: &str = "usage: ust-lint [--root DIR] [--format text|json] [--deny] [--list-rules]
                [--emit DOT_PATH] [--check-hierarchy DOC_PATH]

Statically checks the workspace's lock order, guards held across
blocking calls and allocation in kernel hot loops (clippy checks the
token-level conventions). `--deny` exits nonzero on any finding (the CI
mode); `--format json` emits a machine-readable report on stdout;
`--emit` writes the discovered lock-order graph as Graphviz DOT;
`--check-hierarchy` fails if that graph has an edge absent from the
documented hierarchy (the `lock-hierarchy` block of the given file).";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        deny: false,
        list_rules: false,
        emit: None,
        check_hierarchy: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let dir = args.next().ok_or("--root needs a directory argument")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--emit" => {
                let path = args.next().ok_or("--emit needs a file argument")?;
                opts.emit = Some(PathBuf::from(path));
            }
            "--check-hierarchy" => {
                let path = args.next().ok_or("--check-hierarchy needs a file argument")?;
                opts.check_hierarchy = Some(PathBuf::from(path));
            }
            "--format" => match args.next().as_deref() {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                other => {
                    return Err(format!(
                        "--format expects `text` or `json`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--deny" => opts.deny = true,
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("ust-lint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in ALL_RULES {
            println!("{:<36} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root {
        Some(root) => root,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(cwd) => cwd,
                Err(e) => {
                    eprintln!("ust-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match ust_lint::walk::find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!(
                        "ust-lint: no workspace root (Cargo.toml with [workspace]) found \
                         above {} — pass --root",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match ust_lint::analyze_workspace(&root) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("ust-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.emit {
        if let Err(e) = std::fs::write(path, report.to_dot()) {
            eprintln!("ust-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let mut undocumented = Vec::new();
    if let Some(doc_path) = &opts.check_hierarchy {
        let doc = match std::fs::read_to_string(doc_path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("ust-lint: cannot read {}: {e}", doc_path.display());
                return ExitCode::from(2);
            }
        };
        let Some(documented) = ust_lint::dataflow::documented_edges(&doc) else {
            eprintln!(
                "ust-lint: {} has no `<!-- lock-hierarchy:begin/end -->` block",
                doc_path.display()
            );
            return ExitCode::from(2);
        };
        for e in &report.lock_edges {
            if !documented.contains(&(e.from.clone(), e.to.clone())) {
                undocumented.push(e);
            }
        }
    }

    if opts.json {
        println!("{}", report.to_json());
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        for e in &undocumented {
            println!(
                "{}:{}:{}: lock-order edge `{}` -> `{}` (in `{}`) is not in the \
                 documented hierarchy",
                e.file, e.line, e.col, e.from, e.to, e.func
            );
        }
        println!(
            "ust-lint: {} finding(s) across {} file(s); {} waiver(s) in effect; \
             {} lock-order edge(s)",
            report.findings.len(),
            report.files_scanned,
            report.waivers_used,
            report.lock_edges.len(),
        );
    }

    let hierarchy_broken = !undocumented.is_empty();
    if (opts.deny && !report.findings.is_empty()) || hierarchy_broken {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
