//! Road-network traffic prediction — the paper's second motivating query:
//! *"predict the number of cars that will be in a congested road segment
//! after 10-15 minutes"*.
//!
//! Builds a synthetic city road network (the documented stand-in for the
//! paper's Munich dataset), derives the transition matrix from the road
//! adjacency with random normalized weights — exactly the paper's
//! construction — places 500 probe vehicles, and:
//!
//! 1. predicts expected occupancy of a road segment in 10–15 steps;
//! 2. ranks candidate areas by expected congestion (the paper's closing
//!    future-work idea);
//! 3. demonstrates the per-class query-based evaluation of Section V-C with
//!    separate chains for cars and delivery trucks.
//!
//! Run with: `cargo run --release --example road_network_traffic`

use ust::prelude::*;
use ust_data::network_data::{self, NetworkObjectConfig};
use ust_data::traffic::{self, TrafficConfig};

fn main() -> Result<()> {
    let dataset = traffic::generate(&TrafficConfig::default());
    println!(
        "City network: {} intersections, {} road segments (mean degree {:.2}); {} vehicles.",
        dataset.network.num_nodes(),
        dataset.network.num_edges(),
        dataset.network.mean_degree(),
        dataset.db.len()
    );

    // --- 1. Expected cars in a segment after 10–15 steps ------------------
    let downtown = Point2::new(50.0, 50.0);
    let window = traffic::segment_window(&dataset.network, downtown, 8.0, 10, 15)?;
    let expected = traffic::expected_objects_in_window(&dataset.db, &window)?;
    println!("\nExpected vehicles within 8 units of downtown during t ∈ [10, 15]: {expected:.2}");

    // --- 2. Congestion hotspot ranking ------------------------------------
    let candidates: Vec<Point2> = (1..=4)
        .flat_map(|i| (1..=4).map(move |j| Point2::new(i as f64 * 20.0, j as f64 * 20.0)))
        .collect();
    let ranking = traffic::hotspot_ranking(&dataset, &candidates, 10.0, 10, 15)?;
    println!("\nTop 5 congestion hotspots (expected vehicles, t ∈ [10, 15]):");
    for (rank, (idx, expected)) in ranking.iter().take(5).enumerate() {
        let c = candidates[*idx];
        println!("  {}. area around ({:>4.0},{:>4.0}): {expected:.2}", rank + 1, c.x, c.y);
    }

    // --- 3. Per-class models (Section V-C) ---------------------------------
    // Cars and trucks follow different transition behaviour; the QB engine
    // runs one backward pass per class and answers all objects of a class
    // with dot products.
    let network = dataset.network.clone();
    let car_chain = network_data::chain_from_network(&network, 11);
    let truck_chain = network_data::chain_from_network(&network, 22);
    let mut classed = TrajectoryDatabase::with_models(vec![car_chain, truck_chain])?;
    let n = network.num_nodes();
    let seed_db = network_data::generate_on_network(
        network,
        &NetworkObjectConfig { num_objects: 200, object_spread: 3, seed: 77 },
    );
    for (i, object) in seed_db.db.objects().iter().enumerate() {
        let class = i % 2; // alternate cars (0) and trucks (1)
        classed.insert(object.clone().with_model(class))?;
    }
    let class_window = QueryWindow::from_states(n, 100usize..=140, TimeSet::interval(10, 15))?;
    let spec = Query::exists().window(class_window).strategy(Strategy::QueryBased).build()?;
    let results = QueryProcessor::new(&classed).execute(&spec)?;
    let (mut car_sum, mut truck_sum) = (0.0, 0.0);
    for (i, r) in results.probabilities().expect("probabilities decorator").iter().enumerate() {
        if i % 2 == 0 {
            car_sum += r.probability;
        } else {
            truck_sum += r.probability;
        }
    }
    println!("\nPer-class expected occupancy of nodes [100, 140] during t ∈ [10, 15]:");
    println!("  cars  : {car_sum:.2}");
    println!("  trucks: {truck_sum:.2}");
    Ok(())
}
