//! `ust-benchmark compare A.jsonl B.jsonl [more…]`: is B worse than A?
//!
//! Each file holds the records `--out` appended, one run per line. Per
//! workload × end-to-end metric the medians of each side's runs are
//! compared against the metric's bound; per-layer counts are compared
//! exactly, run by run of the same seed.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::run::{Gate, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::NAMES;

/// Units of per-layer metrics that must repeat exactly for a given seed:
/// counts, ratios of counts, digests. (`ratio` is a ratio of times.)
const EXACT_UNITS: [&str; 3] = ["count", "share", "hash48"];

/// One run: its seed and `metric → (value, unit)`.
type Run = (u64, BTreeMap<String, (f64, String)>);
/// The runs of one file, by `(workload, traced)`.
type Runs = BTreeMap<(String, bool), Vec<Run>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |key: &str| record.get(key).ok_or(format!("{path}:{}: no `{key}`", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")?.as_f64() == Some(1.0);
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let result = field("result")?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{path}:{}: a run of {workload} failed its checks", n + 1));
        }
        let metrics = result
            .get("metrics")
            .map(Value::members)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| {
                let value = m.get("value")?.as_f64()?;
                Some((name.clone(), (value, m.get("unit")?.as_str()?.to_string())))
            })
            .collect();
        runs.entry((workload, traced)).or_default().push((seed, metrics));
    }
    Ok(runs)
}

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's spread is wider than the bound, and B does not beat A in
    /// every run: the runs cannot tell.
    Unresolved,
}

/// Compares the runs of one metric. `worse_by` is how far B's median is on
/// the wrong side of A's, as a share of A's (negative when B is better).
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> (Status, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if gate.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    let spread = [a, b].iter().filter_map(|side| iqr_share(side)).fold(0.0, f64::max);
    let b_always_better =
        a.iter().all(|&x| b.iter().all(|&y| if gate.higher_is_better { y > x } else { y < x }));
    let status = if spread > gate.bound && !b_always_better {
        Status::Unresolved
    } else if worse_by > gate.bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (status, worse_by)
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("[{q1:.5}, {q3:.5}]"),
        None => "[one run]".into(),
    }
}

/// Prints the comparison of `base` with every other file; `Ok(true)` when
/// nothing regressed, nothing is unresolved and every count agrees.
pub fn compare(paths: &[String]) -> Result<bool, String> {
    let [base_path, others @ ..] = paths else {
        return Err("compare needs a base file and at least one other".into());
    };
    if others.is_empty() {
        return Err("compare needs a base file and at least one other".into());
    }
    let base = load(base_path)?;
    let mut clean = true;
    for other_path in others {
        let other = load(other_path)?;
        println!("A = {base_path} (base), B = {other_path}");
        println!(
            "{:<14} {:<18} {:>12} {:<24} {:>12} {:<24} {:>9} {:>6}  status",
            "workload",
            "metric",
            "median A",
            "quartiles A",
            "median B",
            "quartiles B",
            "B/A",
            "bound"
        );
        for workload in NAMES {
            let key = (workload.to_string(), false);
            let (Some(a), Some(b)) = (base.get(&key), other.get(&key)) else { continue };
            for gate in &END_TO_END {
                let column = |runs: &[Run]| -> Vec<f64> {
                    runs.iter().filter_map(|(_, m)| m.get(gate.name).map(|v| v.0)).collect()
                };
                let (va, vb) = (column(a), column(b));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (status, _) = judge(gate, &va, &vb);
                clean &= status == Status::Ok;
                println!(
                    "{:<14} {:<18} {:>12.5} {:<24} {:>12.5} {:<24} {:>9.4} {:>6.2}  {}",
                    workload,
                    gate.name,
                    median(&va),
                    quartile_text(&va),
                    median(&vb),
                    quartile_text(&vb),
                    median(&vb) / median(&va),
                    gate.bound,
                    match status {
                        Status::Ok => "ok",
                        Status::Regressed => "regressed",
                        Status::Unresolved => "unresolved",
                    }
                );
            }
        }
        // Counts: every traced run of B against A's traced run of the same
        // workload and seed.
        let mut counts = (0usize, Vec::new());
        for ((workload, traced), runs_b) in &other {
            let Some(runs_a) = base.get(&(workload.clone(), *traced)).filter(|_| *traced) else {
                continue;
            };
            for (seed, metrics_b) in runs_b {
                for (_, metrics_a) in runs_a.iter().filter(|(s, _)| s == seed) {
                    for (name, (value_b, unit)) in metrics_b {
                        if !EXACT_UNITS.contains(&unit.as_str()) {
                            continue;
                        }
                        counts.0 += 1;
                        let value_a = metrics_a.get(name).map(|v| v.0);
                        if value_a != Some(*value_b) {
                            counts.1.push(format!(
                                "{workload} seed {seed} {name}: A = {value_a:?}, B = {value_b}"
                            ));
                        }
                    }
                }
            }
        }
        println!("counts: {} compared, {} differ", counts.0, counts.1.len());
        for line in &counts.1 {
            println!("  differs: {line}");
        }
        clean &= counts.1.is_empty();
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher_is_better: bool) -> Gate {
        Gate { name: "m", unit: "ms", higher_is_better, bound: 0.10 }
    }

    #[test]
    fn medians_inside_the_bound_are_ok_in_either_direction() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        let slower = [10.5, 10.6, 10.4, 10.55, 10.45];
        assert_eq!(judge(&gate(false), &a, &slower).0, Status::Ok);
        assert_eq!(judge(&gate(true), &a, &slower).0, Status::Ok);
        let (_, worse_by) = judge(&gate(false), &a, &slower);
        assert!((worse_by - 0.05).abs() < 1e-9);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_regresses() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        let b = [11.5, 11.6, 11.4, 11.55, 11.45];
        assert_eq!(judge(&gate(false), &a, &b).0, Status::Regressed);
        // The same numbers are a gain for a higher-is-better metric …
        assert_eq!(judge(&gate(true), &a, &b).0, Status::Ok);
        // … and a regression the other way round.
        assert_eq!(judge(&gate(true), &b, &a).0, Status::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let a = [10.0, 12.0, 8.0, 11.5, 8.5];
        let b = [10.2, 12.1, 8.1, 11.0, 9.0];
        assert_eq!(judge(&gate(false), &a, &b).0, Status::Unresolved);
        let b_wins = [7.0, 7.5, 6.0, 7.9, 6.5];
        assert_eq!(judge(&gate(false), &a, &b_wins).0, Status::Ok);
    }

    #[test]
    fn files_round_trip_through_compare() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, p50: f64, hits: f64| {
            let mut text = String::new();
            for seed in 1..=3 {
                text += &format!(
                    "{{\"workload\": \"lookup_hot\", \"seed\": {seed}, \"trace\": 0, \"result\": \
                     {{\"correct\": true, \"metrics\": {{\"latency_p50_ms\": {{\"value\": {}, \
                     \"unit\": \"ms\"}}}}}}}}\n",
                    p50 + seed as f64 * 0.001
                );
            }
            text += &format!(
                "{{\"workload\": \"lookup_hot\", \"seed\": 1, \"trace\": 1, \"result\": \
                 {{\"correct\": true, \"metrics\": {{\"streaming.sheds\": {{\"value\": {hits}, \
                 \"unit\": \"count\"}}}}}}}}\n"
            );
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let base = write("a.jsonl", 0.50, 0.0);
        assert!(compare(&[base.clone(), write("same.jsonl", 0.51, 0.0)]).unwrap());
        assert!(!compare(&[base.clone(), write("slow.jsonl", 0.70, 0.0)]).unwrap());
        assert!(!compare(&[base.clone(), write("count.jsonl", 0.50, 2.0)]).unwrap());
        assert!(compare(&[base]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
