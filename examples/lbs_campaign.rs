//! Location-based advertising — the paper's LBS use case for PST∀Q/PSTkQ:
//! *"a service provider could be interested in customers that remain at a
//! certain region for a while, such that they can receive advertisements
//! relevant to the location."*
//!
//! Uses the Table I synthetic generator at a reduced scale, then segments
//! customers by how long they are expected to dwell inside a mall area:
//!
//! * PST∀Q        → customers who basically never leave (prime targets);
//! * PSTkQ        → the dwell-time distribution for tiered campaigns;
//! * threshold ∃Q → a cheap prefilter for anyone who might show up at all.
//!
//! Run with: `cargo run --release --example lbs_campaign`

use ust::prelude::*;
use ust_data::{synthetic, SyntheticConfig};

fn main() -> Result<()> {
    let config =
        SyntheticConfig { num_objects: 2_000, num_states: 20_000, ..SyntheticConfig::default() };
    let data = synthetic::generate(&config);
    println!(
        "Synthetic city: {} location states, {} tracked customers.",
        config.num_states, config.num_objects
    );

    // The mall covers states [100, 130]; the campaign runs at t ∈ [10, 15].
    let mall =
        QueryWindow::from_states(config.num_states, 100usize..=130, TimeSet::interval(10, 15))?;
    let processor = QueryProcessor::new(&data.db);

    // --- Stage 1: cheap threshold prefilter -------------------------------
    let mut stats = EvalStats::new();
    let candidates = processor.execute_with_stats(
        &Query::exists()
            .window(mall.clone())
            .threshold(0.01)
            .strategy(Strategy::ObjectBased)
            .build()?,
        &mut stats,
    )?;
    let reachable = candidates.ids().unwrap_or_default();
    println!(
        "\nStage 1 — threshold PST∃Q (τ = 1%): {} candidate customers \
         ({} early terminations across {} objects).",
        reachable.len(),
        stats.early_terminations,
        data.db.len()
    );

    // --- Stage 2: dwell-time distribution for the candidates --------------
    let dwell = processor.execute(
        &Query::ktimes(1)
            .window(mall.clone())
            .objects(reachable.iter().copied())
            .strategy(Strategy::ObjectBased)
            .build()?,
    )?;
    let mut tiers = [0usize; 3]; // bronze (1), silver (2-3), gold (4+)
    let mut total_expected_dwell = 0.0;
    for candidate in dwell.distributions().expect("probabilities decorator") {
        let dist = &candidate.probabilities;
        let expected: f64 = dist.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        total_expected_dwell += expected;
        let p_ge = |k0: usize| -> f64 { dist.iter().skip(k0).sum() };
        if p_ge(4) > 0.2 {
            tiers[2] += 1;
        } else if p_ge(2) > 0.3 {
            tiers[1] += 1;
        } else {
            tiers[0] += 1;
        }
    }
    println!("\nStage 2 — PSTkQ dwell tiers among candidates:");
    println!("  gold   (likely ≥4 of 6 timestamps): {}", tiers[2]);
    println!("  silver (likely ≥2 of 6 timestamps): {}", tiers[1]);
    println!("  bronze (passers-by)               : {}", tiers[0]);
    if !reachable.is_empty() {
        println!(
            "  average expected dwell among candidates: {:.2} timestamps",
            total_expected_dwell / reachable.len() as f64
        );
    }

    // --- Stage 3: who never leaves? ----------------------------------------
    let stayers = processor.execute(&Query::forall().window(mall).build()?)?;
    let committed: Vec<_> = stayers
        .probabilities()
        .expect("probabilities decorator")
        .iter()
        .filter(|r| r.probability > 0.5)
        .collect();
    println!(
        "\nStage 3 — PST∀Q: {} customers stay inside the mall for the whole \
         campaign with P > 50%.",
        committed.len()
    );
    Ok(())
}
