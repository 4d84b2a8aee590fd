//! Figure 8 — query processing runtime w.r.t. the number of states.
//!
//! 8(a): small setting including the Monte-Carlo competitor. The paper's
//! point: MC is orders of magnitude slower than both exact approaches even
//! at 100 samples (which carries ≥ 5% standard deviation), and QB beats OB.
//! 8(b): large setting (MC excluded, as in the paper).

use ust_core::{EngineConfig, Query, Strategy};
use ust_data::csv::fmt_secs;
use ust_data::workload::paper_default_window;
use ust_data::{synthetic, ResultTable, SyntheticConfig};

use super::{agreement_cell, paired, timed};
use crate::baselines::monte_carlo::MonteCarlo;
use crate::{time, ExperimentOutput, Scale};

/// Figure 8(a): PST∃Q runtime vs `|S|`, small database, MC vs OB vs QB.
pub fn fig8a(scale: Scale) -> ExperimentOutput {
    let (num_objects, states_list): (usize, Vec<usize>) = match scale {
        Scale::Ci => (200, vec![2_000, 6_000, 10_000, 14_000, 18_000]),
        Scale::Paper => (1_000, vec![2_000, 6_000, 10_000, 14_000, 18_000]),
    };
    // The paper runs MC at 100 samples (σ ≥ 5%). Native-code sampling is
    // far cheaper than the paper's MATLAB loop, so we additionally report
    // an accuracy-matched MC at 10,000 samples (σ ≈ 0.5%) — the cost of
    // getting *usable* answers out of sampling.
    let mc = MonteCarlo::new(100, 0xF18A);
    let mc_acc = MonteCarlo::new(10_000, 0xF18B);
    let config = EngineConfig::default();
    let mut table =
        ResultTable::new(["|S|", "MC@100 (s)", "MC@10k (s)", "OB (s)", "QB (s)", "max |OB-QB|"]);
    for states in states_list {
        let data = synthetic::generate(&SyntheticConfig {
            num_objects,
            num_states: states,
            ..SyntheticConfig::default()
        });
        let window = paper_default_window(states).expect("window fits the space");
        let (mc_t, _) = time(|| mc.evaluate_exists(&data.db, &window).unwrap());
        let (mc_acc_t, _) = time(|| mc_acc.evaluate_exists(&data.db, &window).unwrap());
        let (ob_t, ob) = timed(&data.db, config, Query::exists(), &window, Strategy::ObjectBased);
        let (qb_t, qb) = timed(&data.db, config, Query::exists(), &window, Strategy::QueryBased);
        table.push_row([
            states.to_string(),
            fmt_secs(mc_t),
            fmt_secs(mc_acc_t),
            fmt_secs(ob_t),
            fmt_secs(qb_t),
            agreement_cell(paired(&ob, &qb)),
        ]);
    }
    ExperimentOutput {
        id: "fig8a".into(),
        title: "Fig. 8(a) — runtime vs |S| (small state space, with MC)".into(),
        table,
        expectation: "Accuracy-matched MC ≫ OB > QB at every |S|; OB and QB agree to \
                      numerical precision. (At the paper's 100 samples native MC is cheap \
                      but carries ≥5% standard error — the paper's MATLAB MC was slow even \
                      at that accuracy; it is dropped from later experiments either way.)"
            .into(),
    }
}

/// Figure 8(b): PST∃Q runtime vs `|S|`, large database, OB vs QB.
pub fn fig8b(scale: Scale) -> ExperimentOutput {
    let (num_objects, states_list): (usize, Vec<usize>) = match scale {
        Scale::Ci => (5_000, vec![10_000, 30_000, 50_000, 70_000, 90_000]),
        Scale::Paper => (100_000, vec![10_000, 30_000, 50_000, 70_000, 90_000]),
    };
    let config = EngineConfig::default();
    let mut table = ResultTable::new(["|S|", "OB (s)", "QB (s)", "OB/QB"]);
    for states in states_list {
        let data = synthetic::generate(&SyntheticConfig {
            num_objects,
            num_states: states,
            ..SyntheticConfig::default()
        });
        let window = paper_default_window(states).expect("window fits the space");
        let (ob_t, _) = timed(&data.db, config, Query::exists(), &window, Strategy::ObjectBased);
        let (qb_t, _) = timed(&data.db, config, Query::exists(), &window, Strategy::QueryBased);
        table.push_row([
            states.to_string(),
            fmt_secs(ob_t),
            fmt_secs(qb_t),
            format!("{:.0}×", ob_t / qb_t.max(1e-9)),
        ]);
    }
    ExperimentOutput {
        id: "fig8b".into(),
        title: "Fig. 8(b) — runtime vs |S| (large database, OB vs QB)".into(),
        table,
        expectation: "QB remains orders of magnitude faster than OB as |S| grows; \
                      its cost is dominated by the one backward pass, amortized over all objects."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::probabilities;

    #[test]
    fn fig8a_tiny_run_produces_all_rows() {
        // Directly exercise the row logic at a micro scale by calling the
        // public function at Ci scale but trusting only structure here
        // would be slow; instead replicate one row cheaply.
        let data = synthetic::generate(&SyntheticConfig {
            num_objects: 20,
            num_states: 2_000,
            ..SyntheticConfig::default()
        });
        let window = paper_default_window(2_000).unwrap();
        let config = EngineConfig::default();
        let (_, ob) = timed(&data.db, config, Query::exists(), &window, Strategy::ObjectBased);
        let (_, qb) = timed(&data.db, config, Query::exists(), &window, Strategy::QueryBased);
        let (ob, qb) = (probabilities(&ob), probabilities(&qb));
        let mc = MonteCarlo::new(50, 1).evaluate_exists(&data.db, &window).unwrap();
        assert_eq!(ob.len(), 20);
        assert_eq!(qb.len(), 20);
        assert_eq!(mc.len(), 20);
        for ((a, b), m) in ob.iter().zip(qb).zip(&mc) {
            assert!((a.probability - b.probability).abs() < 1e-9);
            // MC within 4σ of the exact value at n = 50.
            let sigma = MonteCarlo::standard_error(a.probability.clamp(0.01, 0.99), 50);
            assert!(
                (m.probability - a.probability).abs() <= 4.0 * sigma + 1e-9,
                "MC {} vs exact {}",
                m.probability,
                a.probability
            );
        }
    }
}
