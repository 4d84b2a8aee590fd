//! Ablations of the reproduction's own design choices.
//!
//! These go beyond the paper's figures: they quantify the impact of the
//! implementation decisions this reproduction makes on top of the paper's
//! algorithms (virtual operators, ε-pruning, bound-based early
//! termination).

use ust_core::{EngineConfig, EvalStats, Query, QueryProcessor, Strategy};
use ust_data::csv::fmt_secs;
use ust_data::workload;
use ust_data::{synthetic, ResultTable, SyntheticConfig};
use ust_markov::{CooBuilder, CsrMatrix, DenseVector, StateMask};

use super::{probabilities, timed, timed_with_stats};
use crate::{time, ExperimentOutput, Scale};

/// All ablation experiments.
pub fn all(scale: Scale) -> Vec<ExperimentOutput> {
    vec![ablation_augmented(scale), ablation_epsilon(scale), ablation_threshold(scale)]
}

/// The paper's explicit PST∃Q matrices (Example 1): `M−` is `M` plus an
/// absorbing ⊤ state at index `|S|`, and `M+` is `M−` with every
/// transition into `window` redirected to ⊤.
fn materialized(m: &CsrMatrix, window: &StateMask) -> (CsrMatrix, CsrMatrix) {
    let n = m.nrows();
    let mut minus = CooBuilder::with_capacity(n + 1, n + 1, m.nnz() + 1);
    let mut plus = CooBuilder::with_capacity(n + 1, n + 1, m.nnz() + 1);
    for i in 0..n {
        let (cols, vals) = m.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            let c = c as usize;
            minus.push(i, c, v).expect("a row of M is in bounds");
            plus.push(i, if window.contains(c) { n } else { c }, v).expect("⊤ is in bounds");
        }
    }
    minus.push(n, n, 1.0).expect("⊤ is in bounds");
    plus.push(n, n, 1.0).expect("⊤ is in bounds");
    (minus.build(), plus.build())
}

/// Virtual `M−`/`M+` operators vs materialized augmented matrices.
pub fn ablation_augmented(scale: Scale) -> ExperimentOutput {
    let (num_objects, states_list): (usize, Vec<usize>) = match scale {
        Scale::Ci => (100, vec![1_000, 4_000]),
        Scale::Paper => (1_000, vec![1_000, 4_000, 16_000, 64_000]),
    };
    let config = EngineConfig::default();
    let mut table = ResultTable::new([
        "|S|",
        "virtual operator (s)",
        "materialized M±: build (s)",
        "materialized M±: total (s)",
    ]);
    for states in states_list {
        let data = synthetic::generate(&SyntheticConfig {
            num_objects,
            num_states: states,
            ..SyntheticConfig::default()
        });
        let window = workload::paper_default_window(states).expect("window fits");
        let (virt_t, virt) =
            timed(&data.db, config, Query::exists(), &window, Strategy::ObjectBased);

        // Materialized variant: build M−/M+ once, then propagate dense
        // (|S|+1)-vectors through them for every object.
        let chain = &data.db.models()[0];
        let (build_t, (minus, plus)) = time(|| materialized(chain.matrix(), window.states()));
        let top = states; // ⊤ follows the |S| states.
        let (run_t, results) = time(|| {
            let mut out = Vec::with_capacity(data.db.len());
            for object in data.db.objects() {
                let mut v = DenseVector::zeros(states + 1);
                for (s, p) in object.anchor().distribution().iter() {
                    v.set(s, p).unwrap();
                }
                for t in 0..window.t_end() {
                    let m = if window.time_in_window(t + 1) { &plus } else { &minus };
                    v = m.vecmat_dense(&v).unwrap();
                }
                out.push(v.get(top));
            }
            out
        });
        // Sanity: both must agree.
        for (a, b) in probabilities(&virt).iter().zip(&results) {
            assert!((a.probability - b).abs() < 1e-9, "virtual vs materialized mismatch");
        }
        table.push_row([
            states.to_string(),
            fmt_secs(virt_t),
            fmt_secs(build_t),
            fmt_secs(build_t + run_t),
        ]);
    }
    ExperimentOutput {
        id: "ablation_augmented".into(),
        title: "Ablation — virtual M−/M+ operators vs materialized matrices".into(),
        table,
        expectation: "The virtual operator wins increasingly with |S|: materialization pays \
                      an O(nnz(M)) copy per query plus dense |S|+1 vectors per object, while \
                      the virtual path stays sparse."
            .into(),
    }
}

/// ε-pruning: speed vs bounded error.
pub fn ablation_epsilon(scale: Scale) -> ExperimentOutput {
    let cfg = match scale {
        Scale::Ci => {
            SyntheticConfig { num_objects: 500, num_states: 10_000, ..SyntheticConfig::default() }
        }
        Scale::Paper => SyntheticConfig::default(),
    };
    let data = synthetic::generate(&cfg);
    let window = workload::paper_default_window(cfg.num_states).expect("window fits");
    let config = EngineConfig::default();
    let (_, exact) = timed(&data.db, config, Query::exists(), &window, Strategy::ObjectBased);
    let mut table = ResultTable::new(["ε", "OB (s)", "max |error|", "dropped mass (total)"]);
    for eps in [0.0, 1e-9, 1e-6, 1e-4] {
        let mut stats = EvalStats::new();
        let (t, results) = timed_with_stats(
            &data.db,
            config.with_epsilon(eps),
            Query::exists(),
            &window,
            Strategy::ObjectBased,
            &mut stats,
        );
        let max_err = probabilities(&results)
            .iter()
            .zip(probabilities(&exact))
            .map(|(a, b)| (a.probability - b.probability).abs())
            .fold(0.0f64, f64::max);
        table.push_row([
            format!("{eps:.0e}"),
            fmt_secs(t),
            format!("{max_err:.2e}"),
            format!("{:.2e}", stats.pruned_mass),
        ]);
    }
    ExperimentOutput {
        id: "ablation_epsilon".into(),
        title: "Ablation — ε-pruning of propagation vectors".into(),
        table,
        expectation: "Pruning trades bounded error (≤ dropped mass per object) for speed; \
                      ε = 1e-9 should be free, ε = 1e-4 visibly faster with error ≤ ~1e-3."
            .into(),
    }
}

/// Early termination of thresholded queries via ⊤ bounds.
pub fn ablation_threshold(scale: Scale) -> ExperimentOutput {
    let cfg = match scale {
        Scale::Ci => {
            SyntheticConfig { num_objects: 500, num_states: 10_000, ..SyntheticConfig::default() }
        }
        Scale::Paper => SyntheticConfig::default(),
    };
    let data = synthetic::generate(&cfg);
    let window = workload::paper_default_window(cfg.num_states).expect("window fits");
    let config = EngineConfig::default();
    let (exact_t, _) = timed(&data.db, config, Query::exists(), &window, Strategy::ObjectBased);
    let processor = QueryProcessor::new(&data.db);
    let mut table = ResultTable::new([
        "τ",
        "threshold query (s)",
        "exact OB (s)",
        "early terminations",
        "accepted",
    ]);
    for tau in [0.1, 0.5, 0.9] {
        let spec = Query::exists()
            .window(window.clone())
            .threshold(tau)
            .strategy(Strategy::ObjectBased)
            .build()
            .expect("τ is a probability");
        let mut stats = EvalStats::new();
        let (t, accepted) = time(|| processor.execute_with_stats(&spec, &mut stats).unwrap());
        table.push_row([
            format!("{tau}"),
            fmt_secs(t),
            fmt_secs(exact_t),
            stats.early_terminations.to_string(),
            accepted.len().to_string(),
        ]);
    }
    ExperimentOutput {
        id: "ablation_threshold".into(),
        title: "Ablation — bound-based early termination for threshold queries".into(),
        table,
        expectation: "Most objects never reach the window (upper bound crosses τ early) or \
                      are decided as soon as enough ⊤ mass accumulates, so the thresholded \
                      run undercuts the exact OB time."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialized_matrices_are_the_oracles() {
        let m = ust_oracle::testutil::random_chain(7, 30, 4).matrix().clone();
        let window = StateMask::from_indices(30, [3usize, 4, 17]).unwrap();
        let (minus, plus) = materialized(&m, &window);
        assert!(minus.approx_eq(&ust_oracle::augmented::exists_minus(&m), 0.0));
        assert!(plus.approx_eq(&ust_oracle::augmented::exists_plus(&m, &window), 0.0));
    }

    #[test]
    fn augmented_ablation_runs_and_validates_at_micro_scale() {
        // The function itself cross-asserts virtual vs materialized.
        let out = ablation_augmented(Scale::Ci);
        assert_eq!(out.table.len(), 2);
    }
}
