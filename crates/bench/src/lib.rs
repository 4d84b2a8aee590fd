//! # ust-bench — the evaluation harness
//!
//! Regenerates every figure of the paper's Section VIII (Figures 8–11;
//! Table I is the generator configuration, encoded as
//! [`ust_data::SyntheticConfig::default`]). Each experiment module produces
//! [`ust_data::ResultTable`]s with the same axes as the corresponding
//! figure; the `paper_experiments` binary renders them as Markdown/CSV.
//! Performance over time is not tracked here but by the repository's
//! benchmark (`BENCHMARK.json`, `benchmark/README.md`). The two baselines
//! the figures compare against — Monte-Carlo sampling and the
//! temporal-independence model — live here too, in [`baselines`].
//!
//! Two scales are supported: [`Scale::Ci`] shrinks `|D|`/`|S|` so the whole
//! suite runs in a couple of minutes on a laptop, [`Scale::Paper`] uses the
//! paper's exact parameters. The *shape* of the results (who wins, how the
//! curves scale) is the reproduction target; absolute numbers differ from
//! the 2012 MATLAB/Xeon-5160 testbed by construction.

#![deny(missing_docs)]

pub mod baselines;
pub mod experiments;

use std::time::Instant;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced datasets: the full suite finishes in minutes.
    Ci,
    /// The paper's exact parameters (Table I defaults).
    Paper,
}

impl Scale {
    /// Parses `"ci"` / `"paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "ci" => Some(Scale::Ci),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Wall-clock time of one invocation of `f`, in seconds, together with its
/// result.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// A labelled experiment output: figure id, table and free-form notes on
/// the expected shape.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Figure identifier, e.g. `"fig8a"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The regenerated data series.
    pub table: ust_data::ResultTable,
    /// What the paper's figure shows, and what to check here.
    pub expectation: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("ci"), Some(Scale::Ci));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn timing_returns_result() {
        let (secs, value) = time(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }
}
