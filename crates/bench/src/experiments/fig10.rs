//! Figure 10 — runtime of the three query predicates (∃, ∀, k-times) as a
//! function of the query window length, for both evaluation strategies.

use ust_core::{EngineConfig, Query, Strategy};
use ust_data::csv::fmt_secs;
use ust_data::workload;
use ust_data::{synthetic, ResultTable, SyntheticConfig, SyntheticDataset};

use super::{agreement_cell, distributions, paired, timed};
use crate::{ExperimentOutput, Scale};

fn dataset(scale: Scale) -> SyntheticDataset {
    let cfg = match scale {
        Scale::Ci => {
            SyntheticConfig { num_objects: 500, num_states: 10_000, ..SyntheticConfig::default() }
        }
        Scale::Paper => SyntheticConfig::default(),
    };
    synthetic::generate(&cfg)
}

fn window_lengths(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Ci => vec![1, 3, 5, 7, 10],
        Scale::Paper => (1..=10).collect(),
    }
}

/// Figure 10(a): OB runtime of PST∃Q / PST∀Q / PSTkQ vs window length,
/// with the largest gap to the (untimed) query-based answers over all three
/// predicates — ∃, ∀ and every k-times level.
pub fn fig10a(scale: Scale) -> ExperimentOutput {
    let data = dataset(scale);
    let config = EngineConfig::default();
    let base = workload::paper_default_window(data.config.num_states).expect("window fits");
    let mut table =
        ResultTable::new(["window timeslots", "∃OB (s)", "∀OB (s)", "kOB (s)", "max |OB-QB|"]);
    for len in window_lengths(scale) {
        let window = workload::with_duration(&base, len).expect("valid");
        let run = |query, strategy| timed(&data.db, config, query, &window, strategy);
        let (e_t, e) = run(Query::exists(), Strategy::ObjectBased);
        let (a_t, a) = run(Query::forall(), Strategy::ObjectBased);
        let (k_t, k) = run(Query::ktimes(1), Strategy::ObjectBased);
        let (_, e_qb) = run(Query::exists(), Strategy::QueryBased);
        let (_, a_qb) = run(Query::forall(), Strategy::QueryBased);
        let (_, k_qb) = run(Query::ktimes(1), Strategy::QueryBased);
        let levels = distributions(&k).iter().zip(distributions(&k_qb)).flat_map(|(ob, qb)| {
            ob.probabilities.iter().copied().zip(qb.probabilities.iter().copied())
        });
        let gap = agreement_cell(paired(&e, &e_qb).chain(paired(&a, &a_qb)).chain(levels));
        table.push_row([len.to_string(), fmt_secs(e_t), fmt_secs(a_t), fmt_secs(k_t), gap]);
    }
    ExperimentOutput {
        id: "fig10a".into(),
        title: "Fig. 10(a) — OB runtime of the three predicates vs window length".into(),
        table,
        expectation: "PSTkQ is the most expensive (it maintains |T▫|+1 vectors per object); \
                      PST∃Q and PST∀Q stay close to each other (the paper found them equal \
                      in all settings). Every predicate's forward rule agrees with its \
                      backward field to rounding."
            .into(),
    }
}

/// Figure 10(b): QB runtime of the three predicates vs window length.
pub fn fig10b(scale: Scale) -> ExperimentOutput {
    let data = dataset(scale);
    let config = EngineConfig::default();
    let base = workload::paper_default_window(data.config.num_states).expect("window fits");
    let mut table = ResultTable::new(["window timeslots", "∃QB (s)", "∀QB (s)", "kQB (s)"]);
    for len in window_lengths(scale) {
        let window = workload::with_duration(&base, len).expect("valid");
        let run = |query| timed(&data.db, config, query, &window, Strategy::QueryBased).0;
        let (e_t, a_t, k_t) = (run(Query::exists()), run(Query::forall()), run(Query::ktimes(1)));
        table.push_row([len.to_string(), fmt_secs(e_t), fmt_secs(a_t), fmt_secs(k_t)]);
    }
    ExperimentOutput {
        id: "fig10b".into(),
        title: "Fig. 10(b) — QB runtime of the three predicates vs window length".into(),
        table,
        expectation: "All predicates run in fractions of a second under QB; the k-times \
                      variant scales roughly linearly with the window length (one backward \
                      level vector per possible count)."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::probabilities;
    use ust_core::QueryWindow;
    use ust_space::TimeSet;

    #[test]
    fn predicates_are_mutually_consistent_on_micro_data() {
        // The identity P∃ = 1 − P(k=0) and P∀ = P(k=|T▫|) must hold on the
        // generated synthetic data for both strategies.
        let data = synthetic::generate(&SyntheticConfig {
            num_objects: 15,
            num_states: 1_500,
            ..SyntheticConfig::default()
        });
        let config = EngineConfig::default();
        let window =
            QueryWindow::from_states(1_500, 100usize..=120, TimeSet::interval(8, 11)).unwrap();
        let (_, exists) = timed(&data.db, config, Query::exists(), &window, Strategy::ObjectBased);
        let (_, forall_r) = timed(&data.db, config, Query::forall(), &window, Strategy::QueryBased);
        let (_, kdist) = timed(&data.db, config, Query::ktimes(1), &window, Strategy::ObjectBased);
        let (exists, forall_r) = (probabilities(&exists), probabilities(&forall_r));
        for ((e, a), k) in exists.iter().zip(forall_r).zip(distributions(&kdist)) {
            assert!((e.probability - k.prob_at_least_once()).abs() < 1e-9);
            assert!((a.probability - k.prob_always()).abs() < 1e-9);
        }
    }
}
