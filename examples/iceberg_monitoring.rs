//! Iceberg monitoring — the motivating application of the paper's
//! introduction.
//!
//! The International Ice Patrol sights icebergs sporadically; between
//! sightings, a drift model (ocean current + turbulence) governs their
//! possible positions. This example:
//!
//! 1. generates a 40×40 ocean raster with a current-biased Markov chain and
//!    200 icebergs (30% of which have a later re-sighting);
//! 2. runs the paper's flagship query — *"find all icebergs that have
//!    non-zero probability to be inside the movement range of a particular
//!    ship"* — as a thresholded PST∃Q over a shipping-lane region;
//! 3. uses PST∀Q to find icebergs likely to *stay* in a survey area long
//!    enough for measurements;
//! 4. reconstructs the most likely track of a re-sighted iceberg via
//!    forward–backward smoothing (Section VI machinery).
//!
//! Run with: `cargo run --release --example iceberg_monitoring`

use ust::prelude::*;
use ust_core::smoothing;
use ust_data::iceberg::{self, IcebergConfig};

fn main() -> Result<()> {
    let scenario = iceberg::generate(&IcebergConfig::default());
    let db = &scenario.db;
    let grid = &scenario.grid;
    println!(
        "Generated {} icebergs on a {}×{} ocean raster ({} drift states).",
        db.len(),
        grid.rows(),
        grid.cols(),
        db.num_states()
    );

    // --- 1. Shipping-lane risk -------------------------------------------
    // A great-circle segment approximated by a rectangle across the grid,
    // relevant during the next 12 time steps.
    let lane = Region::rect(10.0, 18.0, 30.0, 22.0);
    let lane_window = QueryWindow::from_region(grid, &lane, TimeSet::interval(1, 12))?;
    let processor = QueryProcessor::new(db);

    // The threshold query picks the icebergs; a probabilities query scoped
    // to them reads their exact risk.
    let lane_risk = Query::exists().window(lane_window);
    let accepted = processor.execute(&lane_risk.clone().threshold(0.05).build()?)?;
    let accepted = accepted.ids().expect("threshold decorator");
    let risky = processor.execute(&lane_risk.objects(accepted.iter().copied()).build()?)?;
    let mut risky = risky.probabilities().expect("probabilities decorator").to_vec();
    risky.sort_by(|a, b| b.probability.total_cmp(&a.probability));
    println!(
        "\nIcebergs with ≥5% probability of entering the shipping lane in t ∈ [1, 12]: {}",
        risky.len()
    );
    for r in risky.iter().take(5) {
        println!("  iceberg #{}: P = {:.3}", r.object_id, r.probability);
    }

    // --- 2. Survey-area loitering ----------------------------------------
    // "Retrieve all icebergs that have non-zero probability [of] remaining
    // in this region for a specified period of time."
    let survey = Region::circle(Point2::new(20.0, 20.0), 6.0);
    let survey_window = QueryWindow::from_region(grid, &survey, TimeSet::interval(2, 5))?;
    let stay = processor
        .execute(&Query::forall().window(survey_window).strategy(Strategy::QueryBased).build()?)?;
    let stay = stay.probabilities().expect("probabilities decorator");
    let loiterers: Vec<_> = stay.iter().filter(|r| r.probability > 0.01).collect();
    println!(
        "\nIcebergs with >1% probability of staying inside the survey circle for t ∈ [2, 5]: {}",
        loiterers.len()
    );
    for r in loiterers.iter().take(5) {
        println!("  iceberg #{}: P = {:.3}", r.object_id, r.probability);
    }

    // --- 3. Track reconstruction for a re-sighted iceberg -----------------
    if let Some(resighted) = db.objects().iter().find(|o| o.has_multiple_observations()) {
        let chain = db.model_of(resighted);
        let last = resighted.last_observation().time();
        println!(
            "\nReconstructed track of iceberg #{} (sighted at t=0 and t={last}):",
            resighted.id()
        );
        for (t, dist) in smoothing::smoothed_trajectory(chain, resighted, 0..=last)? {
            let (state, p) = dist.argmax().expect("non-empty distribution");
            let cell = grid.id_to_cell(state).expect("state within raster");
            println!("  t={t:>2}: most likely cell {cell:?} (P = {p:.3})");
        }
    }
    Ok(())
}
