//! Experiment implementations, one module per figure of the paper.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;

use ust_core::{
    EngineConfig, EvalStats, ObjectKDistribution, ObjectProbability, PrefilterMode, QueryAnswer,
    QueryBuilder, QueryProcessor, QueryWindow, Strategy, TrajectoryDatabase,
};

use crate::{time, ExperimentOutput, Scale};

/// Executes `query` over `window` under `strategy` once, timed, through a
/// fresh processor with the prefilter off: every object is evaluated, and a
/// query-based time always includes its backward sweep (the field cache
/// starts cold).
fn timed(
    db: &TrajectoryDatabase,
    config: EngineConfig,
    query: QueryBuilder,
    window: &QueryWindow,
    strategy: Strategy,
) -> (f64, QueryAnswer) {
    timed_with_stats(db, config, query, window, strategy, &mut EvalStats::new())
}

/// As [`timed`], accumulating the evaluation counters into `stats`.
fn timed_with_stats(
    db: &TrajectoryDatabase,
    config: EngineConfig,
    query: QueryBuilder,
    window: &QueryWindow,
    strategy: Strategy,
    stats: &mut EvalStats,
) -> (f64, QueryAnswer) {
    let processor = QueryProcessor::with_config(db, config.with_prefilter(PrefilterMode::Off));
    let spec = query.window(window.clone()).strategy(strategy).build().expect("a valid query");
    time(|| processor.execute_with_stats(&spec, stats).expect("the experiment's query runs"))
}

/// The per-object probabilities of an ∃ or ∀ answer.
fn probabilities(answer: &QueryAnswer) -> &[ObjectProbability] {
    answer.probabilities().expect("an ∃ or ∀ query answers probabilities")
}

/// The per-object visit-count distributions of a k-times answer.
fn distributions(answer: &QueryAnswer) -> &[ObjectKDistribution] {
    answer.distributions().expect("a k-times query answers distributions")
}

/// The cell of a `max |OB-QB|` column: the largest gap over the paired
/// object-based and query-based values of one row's queries, which the
/// `paper_experiments` binary holds to 1e-12.
fn agreement_cell(pairs: impl IntoIterator<Item = (f64, f64)>) -> String {
    format!("{:.2e}", pairs.into_iter().map(|(ob, qb)| (ob - qb).abs()).fold(0.0f64, f64::max))
}

/// The paired probabilities of the two strategies' answers to one ∃ or ∀
/// query.
fn paired<'a>(ob: &'a QueryAnswer, qb: &'a QueryAnswer) -> impl Iterator<Item = (f64, f64)> + 'a {
    probabilities(ob).iter().zip(probabilities(qb)).map(|(a, b)| (a.probability, b.probability))
}

/// Runs every experiment of the evaluation section (Figures 8–11) plus the
/// design-choice ablations, in figure order.
pub fn all(scale: Scale) -> Vec<ExperimentOutput> {
    let mut out = vec![
        fig8::fig8a(scale),
        fig8::fig8b(scale),
        fig9::fig9a(scale),
        fig9::fig9b(scale),
        fig9::fig9c(scale),
        fig9::fig9d(scale),
        fig10::fig10a(scale),
        fig10::fig10b(scale),
        fig11::fig11a(scale),
        fig11::fig11b(scale),
    ];
    out.extend(ablation::all(scale));
    out
}

/// Returns the experiment with the given id, if implemented.
pub fn by_id(id: &str, scale: Scale) -> Option<ExperimentOutput> {
    match id {
        "fig8a" => Some(fig8::fig8a(scale)),
        "fig8b" => Some(fig8::fig8b(scale)),
        "fig9a" => Some(fig9::fig9a(scale)),
        "fig9b" => Some(fig9::fig9b(scale)),
        "fig9c" => Some(fig9::fig9c(scale)),
        "fig9d" => Some(fig9::fig9d(scale)),
        "fig10a" => Some(fig10::fig10a(scale)),
        "fig10b" => Some(fig10::fig10b(scale)),
        "fig11a" => Some(fig11::fig11a(scale)),
        "fig11b" => Some(fig11::fig11b(scale)),
        "ablation_augmented" => Some(ablation::ablation_augmented(scale)),
        "ablation_epsilon" => Some(ablation::ablation_epsilon(scale)),
        "ablation_threshold" => Some(ablation::ablation_threshold(scale)),
        _ => None,
    }
}

/// All known experiment ids (harness `--only` argument values).
pub fn known_ids() -> &'static [&'static str] {
    &[
        "fig8a",
        "fig8b",
        "fig9a",
        "fig9b",
        "fig9c",
        "fig9d",
        "fig10a",
        "fig10b",
        "fig11a",
        "fig11b",
        "ablation_augmented",
        "ablation_epsilon",
        "ablation_threshold",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_table_covers_known_ids() {
        // `by_id` at Ci scale actually *runs* an experiment, so running all
        // of them here would be too slow; instead verify one cheap
        // experiment end-to-end and reject unknown ids. Totality of the
        // dispatch table over `known_ids` is guaranteed by the match in
        // `by_id` (checked exhaustively by the harness's argument parser,
        // which validates `--only` values against `known_ids`).
        let out = by_id("ablation_augmented", Scale::Ci).unwrap();
        assert!(!out.table.is_empty());
        assert_eq!(out.id, "ablation_augmented");
        assert!(by_id("nope", Scale::Ci).is_none());
        assert_eq!(known_ids().len(), 13);
    }
}
