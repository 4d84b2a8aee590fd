//! Figure 11 — sensitivity to the locality parameters of the synthetic
//! generator: `max_step` (how far one transition can jump) and
//! `state_spread` (how many successors each state has).

use ust_core::{EngineConfig, Query, Strategy};
use ust_data::csv::fmt_secs;
use ust_data::workload;
use ust_data::{synthetic, ResultTable, SyntheticConfig};

use super::{agreement_cell, paired, timed};
use crate::{ExperimentOutput, Scale};

/// The fig11 locality dataset shape.
fn base_config(scale: Scale) -> SyntheticConfig {
    match scale {
        Scale::Ci => {
            SyntheticConfig { num_objects: 1_000, num_states: 10_000, ..SyntheticConfig::default() }
        }
        Scale::Paper => SyntheticConfig::default(),
    }
}

fn sweep(configs: impl Iterator<Item = (String, SyntheticConfig)>) -> ResultTable {
    let engine = EngineConfig::default();
    let mut table = ResultTable::new(["parameter", "OB (s)", "QB (s)", "max |OB-QB|"]);
    for (label, cfg) in configs {
        let data = synthetic::generate(&cfg);
        let window = workload::paper_default_window(cfg.num_states).expect("window fits");
        let (ob_t, ob) = timed(&data.db, engine, Query::exists(), &window, Strategy::ObjectBased);
        let (qb_t, qb) = timed(&data.db, engine, Query::exists(), &window, Strategy::QueryBased);
        table.push_row([label, fmt_secs(ob_t), fmt_secs(qb_t), agreement_cell(paired(&ob, &qb))]);
    }
    table
}

/// Figure 11(a): impact of `max_step` (10..100).
pub fn fig11a(scale: Scale) -> ExperimentOutput {
    let base = base_config(scale);
    let steps: Vec<usize> = match scale {
        Scale::Ci => vec![10, 40, 70, 100],
        Scale::Paper => (1..=10).map(|i| i * 10).collect(),
    };
    let table = sweep(
        steps
            .into_iter()
            .map(|max_step| (max_step.to_string(), SyntheticConfig { max_step, ..base })),
    );
    ExperimentOutput {
        id: "fig11a".into(),
        title: "Fig. 11(a) — impact of max_step on OB and QB".into(),
        table,
        expectation: "Both algorithms scale at most linearly with max_step (wider bands \
                      densify the propagation vectors faster)."
            .into(),
    }
}

/// Figure 11(b): impact of `state_spread` (2..20).
pub fn fig11b(scale: Scale) -> ExperimentOutput {
    let base = base_config(scale);
    let spreads: Vec<usize> = match scale {
        Scale::Ci => vec![2, 8, 14, 20],
        Scale::Paper => (1..=10).map(|i| i * 2).collect(),
    };
    let table =
        sweep(spreads.into_iter().map(|state_spread| {
            (state_spread.to_string(), SyntheticConfig { state_spread, ..base })
        }));
    ExperimentOutput {
        id: "fig11b".into(),
        title: "Fig. 11(b) — impact of state_spread on OB and QB".into(),
        table,
        expectation: "At most linear growth for both algorithms: state_spread multiplies \
                      the non-zeros per matrix row (and QB's per-step cost directly)."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_label_per_config() {
        let base =
            SyntheticConfig { num_objects: 10, num_states: 1_000, ..SyntheticConfig::default() };
        let table = sweep(
            [10usize, 20]
                .into_iter()
                .map(|m| (m.to_string(), SyntheticConfig { max_step: m, ..base })),
        );
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows()[0][0], "10");
        assert_eq!(table.headers()[3], "max |OB-QB|");
        assert!(table.rows().iter().all(|row| row[3].parse::<f64>().unwrap() <= 1e-12));
    }
}
