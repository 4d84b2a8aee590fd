//! Traffic prediction scenario (the paper's road-network motivation).
//!
//! "Another query could be to predict the number of cars that will be in a
//! congested road segment after 10-15 minutes." This module builds a small
//! urban network with cars anchored at random nodes and provides the
//! aggregate the paper's example asks for: the expected number of objects
//! intersecting a window, which by linearity of expectation is the sum of
//! the per-object PST∃Q probabilities (or, for occupancy at a single time,
//! the sum of marginals).

use ust_core::{
    Query, QueryError, QueryProcessor, QueryWindow, Result, Strategy, TrajectoryDatabase,
};
use ust_space::{network_gen, NetworkConfig, Region, RoadNetwork, TimeSet};

use crate::network_data::{generate_on_network, NetworkDataset, NetworkObjectConfig};

/// Configuration of the traffic scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Road-network shape.
    pub network: NetworkConfig,
    /// Vehicle placement.
    pub objects: NetworkObjectConfig,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            network: network_gen::small_city(0x7A),
            objects: NetworkObjectConfig { num_objects: 500, object_spread: 3, seed: 0x7A },
        }
    }
}

/// Generates the traffic dataset.
pub fn generate(config: &TrafficConfig) -> NetworkDataset {
    generate_on_network(network_gen::generate(&config.network), &config.objects)
}

/// Expected number of objects intersecting `window` (Σ_o P∃(o)) — the
/// paper's "how many cars will be in this segment in 10–15 minutes" — from
/// one query-based ∃ query.
pub fn expected_objects_in_window(db: &TrajectoryDatabase, window: &QueryWindow) -> Result<f64> {
    let spec = Query::exists().window(window.clone()).strategy(Strategy::QueryBased).build()?;
    let answer = QueryProcessor::new(db).execute(&spec)?;
    let results = answer
        .probabilities()
        .ok_or(QueryError::Internal { invariant: "a probabilities query answers probabilities" })?;
    Ok(results.iter().map(|r| r.probability).sum())
}

/// Builds the query window for a congested road segment: all nodes within
/// the given circular region, over the time interval `[t_from, t_to]`.
pub fn segment_window(
    network: &RoadNetwork,
    center: ust_space::Point2,
    radius: f64,
    t_from: u32,
    t_to: u32,
) -> Result<QueryWindow> {
    QueryWindow::from_region(
        network,
        &Region::circle(center, radius),
        TimeSet::interval(t_from, t_to),
    )
}

/// Ranks circular regions by expected occupancy — a straightforward
/// implementation of the paper's closing future-work idea ("find areas that
/// are expected to become congested together with the time periods").
pub fn hotspot_ranking(
    dataset: &NetworkDataset,
    candidate_centers: &[ust_space::Point2],
    radius: f64,
    t_from: u32,
    t_to: u32,
) -> Result<Vec<(usize, f64)>> {
    let mut ranked = Vec::with_capacity(candidate_centers.len());
    for (i, &center) in candidate_centers.iter().enumerate() {
        let expected = match segment_window(&dataset.network, center, radius, t_from, t_to) {
            Ok(window) => expected_objects_in_window(&dataset.db, &window)?,
            // Regions with no road nodes simply have zero expected traffic.
            Err(ust_core::QueryError::EmptySpatialWindow) => 0.0,
            Err(e) => return Err(e),
        };
        ranked.push((i, expected));
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_space::{Point2, StateSpace};

    fn small_config() -> TrafficConfig {
        TrafficConfig {
            network: NetworkConfig { num_nodes: 300, num_edges: 400, extent: 50.0, seed: 5 },
            objects: NetworkObjectConfig { num_objects: 80, object_spread: 3, seed: 5 },
        }
    }

    #[test]
    fn expected_occupancy_is_bounded_by_fleet_size() {
        let dataset = generate(&small_config());
        let center = dataset.network.location(0);
        let window = segment_window(&dataset.network, center, 10.0, 3, 6).unwrap();
        let expected = expected_objects_in_window(&dataset.db, &window).unwrap();
        assert!(expected >= 0.0);
        assert!(expected <= dataset.db.len() as f64);
    }

    #[test]
    fn wider_regions_attract_more_traffic() {
        let dataset = generate(&small_config());
        let center = Point2::new(25.0, 25.0);
        let narrow = segment_window(&dataset.network, center, 5.0, 2, 5).unwrap();
        let wide = segment_window(&dataset.network, center, 20.0, 2, 5).unwrap();
        let e_narrow = expected_objects_in_window(&dataset.db, &narrow).unwrap();
        let e_wide = expected_objects_in_window(&dataset.db, &wide).unwrap();
        assert!(e_wide >= e_narrow);
        assert!(e_wide > 0.0);
    }

    #[test]
    fn hotspot_ranking_is_sorted_and_total() {
        let dataset = generate(&small_config());
        let centers = vec![
            Point2::new(10.0, 10.0),
            Point2::new(25.0, 25.0),
            Point2::new(45.0, 45.0),
            Point2::new(-100.0, -100.0), // off-map: zero expected traffic
        ];
        let ranked = hotspot_ranking(&dataset, &centers, 8.0, 2, 4).unwrap();
        assert_eq!(ranked.len(), 4);
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        let off_map = ranked.iter().find(|(i, _)| *i == 3).unwrap();
        assert_eq!(off_map.1, 0.0);
    }
}
