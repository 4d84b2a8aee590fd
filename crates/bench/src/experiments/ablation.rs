//! Ablations of the reproduction's own design choices.
//!
//! These go beyond the paper's figures: they quantify the impact of the
//! implementation decisions this reproduction makes on top of the paper's
//! algorithms (virtual operators, ε-pruning, bound-based early
//! termination).

use ust_core::engine::{object_based, EngineConfig};
use ust_core::{EvalStats, Query, QueryProcessor, Strategy};
use ust_data::csv::fmt_secs;
use ust_data::workload;
use ust_data::{synthetic, ResultTable, SyntheticConfig};
use ust_markov::{augmented, DenseVector};

use crate::{time, ExperimentOutput, Scale};

/// All ablation experiments.
pub fn all(scale: Scale) -> Vec<ExperimentOutput> {
    vec![ablation_augmented(scale), ablation_epsilon(scale), ablation_threshold(scale)]
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
        let (virt_t, virt) = time(|| {
            object_based::evaluate(&data.db, &window, &config, &mut EvalStats::new()).unwrap()
        });

        // Materialized variant: build M−/M+ once, then propagate dense
        // (|S|+1)-vectors through them for every object.
        let chain = &data.db.models()[0];
        let (build_t, (minus, plus)) = time(|| {
            (
                augmented::exists_minus(chain.matrix()),
                augmented::exists_plus(chain.matrix(), window.states()),
            )
        });
        let top = augmented::top_index(states);
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
        for (a, b) in virt.iter().zip(&results) {
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
    let exact =
        object_based::evaluate(&data.db, &window, &EngineConfig::default(), &mut EvalStats::new())
            .unwrap();
    let mut table = ResultTable::new(["ε", "OB (s)", "max |error|", "dropped mass (total)"]);
    for eps in [0.0, 1e-9, 1e-6, 1e-4] {
        let config = EngineConfig::default().with_epsilon(eps);
        let mut stats = EvalStats::new();
        let (t, results) =
            time(|| object_based::evaluate(&data.db, &window, &config, &mut stats).unwrap());
        let max_err = results
            .iter()
            .zip(&exact)
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
    let (exact_t, _) =
        time(|| object_based::evaluate(&data.db, &window, &config, &mut EvalStats::new()).unwrap());
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
    fn augmented_ablation_runs_and_validates_at_micro_scale() {
        // The function itself cross-asserts virtual vs materialized.
        let out = ablation_augmented(Scale::Ci);
        assert_eq!(out.table.len(), 2);
    }
}
