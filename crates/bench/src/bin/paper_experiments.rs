//! Regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! paper_experiments [--scale ci|paper] [--only fig8a,fig9d,...] [--out DIR]
//!                   [--json FILE]
//! ```
//!
//! Prints each experiment as a Markdown table; `--out` writes one CSV per
//! experiment, `--json` writes every experiment's wall time and table into
//! one machine-readable JSON file. (Performance over time is the job of
//! the repository's benchmark — `BENCHMARK.json`, `benchmark/README.md` —
//! not of this binary.)
//!
//! The run exits 1 when an experiment's `max |OB-QB|` column (Fig. 8(a),
//! Figs. 9(a)–(c), Fig. 10(a) — all three predicates —, Fig. 11) exceeds
//! 1e-12: the forward and the backward engine are both exact, so a larger
//! gap means one of them lost or double-counted worlds.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use ust_bench::{experiments, ExperimentOutput, Scale};

struct Args {
    scale: Scale,
    only: Option<Vec<String>>,
    out_dir: Option<PathBuf>,
    json_path: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { scale: Scale::Ci, only: None, out_dir: None, json_path: None };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale requires a value")?;
                args.scale = Scale::parse(&value)
                    .ok_or_else(|| format!("unknown scale '{value}' (use ci|paper)"))?;
            }
            "--only" => {
                let value = iter.next().ok_or("--only requires a value")?;
                let ids: Vec<String> = value.split(',').map(|s| s.trim().to_string()).collect();
                for id in &ids {
                    if !experiments::known_ids().contains(&id.as_str()) {
                        return Err(format!(
                            "unknown experiment '{id}'; known: {}",
                            experiments::known_ids().join(", ")
                        ));
                    }
                }
                args.only = Some(ids);
            }
            "--out" => {
                let value = iter.next().ok_or("--out requires a directory")?;
                args.out_dir = Some(PathBuf::from(value));
            }
            "--json" => {
                let value = iter.next().ok_or("--json requires a file path")?;
                args.json_path = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!(
                    "usage: paper_experiments [--scale ci|paper] [--only id,id,...] [--out DIR] \
                     [--json FILE]\n\
                     experiments: {}",
                    experiments::known_ids().join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The column in which an experiment reports the largest gap between the
/// object-based and the query-based answer to the same query.
const AGREEMENT_COLUMN: &str = "max |OB-QB|";
/// What two exact engines may differ by: accumulated rounding, nothing more.
const AGREEMENT_BOUND: f64 = 1e-12;

/// The rows of `output` whose [`AGREEMENT_COLUMN`] cell is above
/// [`AGREEMENT_BOUND`] (or unreadable), rendered for the error message.
fn agreement_violations(output: &ExperimentOutput) -> Vec<String> {
    let Some(col) = output.table.headers().iter().position(|h| h == AGREEMENT_COLUMN) else {
        return Vec::new();
    };
    output
        .table
        .rows()
        .iter()
        .filter(|row| !row[col].parse::<f64>().is_ok_and(|gap| gap <= AGREEMENT_BOUND))
        .map(|row| format!("{}: {} = {} at {}", output.id, AGREEMENT_COLUMN, row[col], row[0]))
        .collect()
}

/// Minimal JSON string escaping (the vendored toolchain has no serde).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders the run as one JSON document: per experiment its id, title,
/// wall time and the full result table.
fn render_json(scale_name: &str, results: &[(f64, ExperimentOutput)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", json_escape(scale_name)));
    out.push_str("  \"experiments\": [\n");
    for (i, (wall, exp)) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": \"{}\",\n", json_escape(&exp.id)));
        out.push_str(&format!("      \"title\": \"{}\",\n", json_escape(&exp.title)));
        out.push_str(&format!("      \"wall_secs\": {},\n", json_number(*wall)));
        out.push_str("      \"table\": {\n");
        out.push_str("        \"columns\": [");
        for (j, h) in exp.table.headers().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(h)));
        }
        out.push_str("],\n        \"rows\": [");
        for (j, row) in exp.table.rows().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", json_escape(cell)));
            }
            out.push(']');
        }
        out.push_str("]\n      }\n");
        out.push_str(if i + 1 < results.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let scale_name = match args.scale {
        Scale::Ci => "ci",
        Scale::Paper => "paper",
    };
    println!("# Paper experiment reproduction (scale: {scale_name})\n");
    println!(
        "Reproducing the evaluation of Emrich et al., *Querying Uncertain \
         Spatio-Temporal Data*, ICDE 2012.\n"
    );

    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create output directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // Run experiments lazily, streaming each result as it completes.
    let ids: Vec<String> = match &args.only {
        Some(ids) => ids.clone(),
        None => experiments::known_ids().iter().map(|s| s.to_string()).collect(),
    };

    let mut results: Vec<(f64, ExperimentOutput)> = Vec::with_capacity(ids.len());
    let mut violations: Vec<String> = Vec::new();
    for id in &ids {
        let started = std::time::Instant::now();
        let output = experiments::by_id(id, args.scale).expect("ids validated during parsing");
        let wall = started.elapsed().as_secs_f64();
        println!("## {} (`{}`)\n", output.title, output.id);
        println!("{}", output.table.to_markdown());
        println!("*Expected shape:* {}\n", output.expectation);
        println!("*(experiment wall time: {wall:.1}s)*\n");
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!("{}.csv", output.id));
            if let Err(e) = output.table.write_csv(&path) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        violations.extend(agreement_violations(&output));
        results.push((wall, output));
        // Flush so long runs stream progress.
        let _ = std::io::stdout().flush();
    }

    if let Some(dir) = &args.out_dir {
        println!("CSV series written to {}", dir.display());
    }
    if let Some(path) = &args.json_path {
        if let Err(e) = std::fs::write(path, render_json(scale_name, &results)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("JSON written to {}", path.display());
    }
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("error: {violation} (bound {AGREEMENT_BOUND:e})");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_data::ResultTable;

    fn output(cells: &[&str]) -> ExperimentOutput {
        let mut table = ResultTable::new(["|S|", AGREEMENT_COLUMN]);
        for (i, cell) in cells.iter().enumerate() {
            table.push_row([format!("{}", 1_000 * (i + 1)), cell.to_string()]);
        }
        ExperimentOutput {
            id: "fig".into(),
            title: String::new(),
            table,
            expectation: String::new(),
        }
    }

    #[test]
    fn agreement_check_flags_gaps_beyond_rounding() {
        assert!(agreement_violations(&output(&["0.00e0", "4.44e-16", "1.00e-12"])).is_empty());
        let bad = agreement_violations(&output(&["2.22e-16", "3.10e-9", "NaN"]));
        assert_eq!(bad.len(), 2);
        assert!(bad[0].contains("3.10e-9") && bad[0].contains("2000"), "{bad:?}");
        // Experiments without the column are not judged.
        let mut other = output(&[]);
        other.table = ResultTable::new(["|S|", "OB (s)"]);
        other.table.push_row(["10".to_string(), "7.5".to_string()]);
        assert!(agreement_violations(&other).is_empty());
    }
}
