//! Property-based tests of the spatial substrate: R-tree vs linear scan,
//! grid geometry, region resolution and road-network generation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_space::network_gen::{self, NetworkConfig};
use ust_space::{GridSpace, LineSpace, Point2, RTree, RTreeEntry, Rect, Region, StateSpace};

fn random_points(seed: u64, n: usize, extent: f64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point2::new(rng.random::<f64>() * extent, rng.random::<f64>() * extent))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_rect_query_equals_linear_scan(
        seed in 0u64..5_000,
        n in 0usize..400,
        (x0, y0) in (0.0f64..90.0, 0.0f64..90.0),
        (w, h) in (0.0f64..50.0, 0.0f64..50.0),
    ) {
        let points = random_points(seed, n, 100.0);
        let tree = RTree::bulk_load(
            points.iter().enumerate().map(|(id, &point)| RTreeEntry { point, id }).collect(),
        );
        let rect = Rect::from_bounds(x0, y0, x0 + w, y0 + h);
        let mut got = tree.query_rect(&rect);
        got.sort_unstable();
        let expected: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains(p))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn rtree_nearest_equals_linear_scan(
        seed in 0u64..5_000,
        n in 1usize..300,
        qx in -20.0f64..120.0,
        qy in -20.0f64..120.0,
    ) {
        let points = random_points(seed, n, 100.0);
        let tree = RTree::bulk_load(
            points.iter().enumerate().map(|(id, &point)| RTreeEntry { point, id }).collect(),
        );
        let q = Point2::new(qx, qy);
        let got = tree.nearest(&q).unwrap();
        let best = points
            .iter()
            .map(|p| p.distance(&q))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((got.point.distance(&q) - best).abs() < 1e-9);
    }

    #[test]
    fn rtree_bulk_build_visits_every_entry_exactly_once(
        seed in 0u64..5_000,
        n in 0usize..500,
    ) {
        let points = random_points(seed, n, 100.0);
        let tree = RTree::bulk_load(
            points.iter().enumerate().map(|(id, &point)| RTreeEntry { point, id }).collect(),
        );
        prop_assert_eq!(tree.len(), n);
        prop_assert_eq!(tree.is_empty(), n == 0);
        // A universe rectangle visits each bulk-loaded entry exactly once.
        let mut ids = Vec::new();
        tree.visit_rect(&Rect::from_bounds(-1e9, -1e9, 1e9, 1e9), &mut |e| ids.push(e.id));
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rtree_duplicates_and_zero_area_rects_match_scan(
        seed in 0u64..5_000,
        n in 1usize..300,
        (qx, qy) in (0u8..5, 0u8..5),
    ) {
        // A 5×5 lattice forces heavy point duplication; the query is a
        // zero-area rectangle pinned to one lattice site.
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<Point2> = (0..n)
            .map(|_| {
                Point2::new(rng.random_range(0..5) as f64, rng.random_range(0..5) as f64)
            })
            .collect();
        let tree = RTree::bulk_load(
            points.iter().enumerate().map(|(id, &point)| RTreeEntry { point, id }).collect(),
        );
        let q = Point2::new(qx as f64, qy as f64);
        let mut got = tree.query_rect(&Rect::point(q));
        got.sort_unstable();
        let expected: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.x == q.x && p.y == q.y)
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn rtree_visit_leaves_covers_visit_rect(
        seed in 0u64..5_000,
        n in 0usize..400,
        (x0, y0) in (0.0f64..90.0, 0.0f64..90.0),
        (w, h) in (0.0f64..50.0, 0.0f64..50.0),
    ) {
        let points = random_points(seed, n, 100.0);
        let tree = RTree::bulk_load(
            points.iter().enumerate().map(|(id, &point)| RTreeEntry { point, id }).collect(),
        );
        let rect = Rect::from_bounds(x0, y0, x0 + w, y0 + h);
        // Leaf-granular visiting hands over boxes that intersect the rect
        // and entries that (after filtering) reproduce visit_rect exactly.
        let mut leaves: Vec<(Rect, Vec<RTreeEntry>)> = Vec::new();
        tree.visit_leaves(&rect, &mut |bbox, entries| leaves.push((*bbox, entries.to_vec())));
        let mut filtered = Vec::new();
        for (bbox, entries) in &leaves {
            prop_assert!(rect.intersects(bbox));
            for e in entries {
                // Every leaf entry lies in its own box, and the box bounds
                // the distance of all its entries to any rectangle.
                prop_assert!(bbox.contains(&e.point));
                prop_assert!(
                    rect.distance_to_point(&e.point) <= rect.max_distance_to_rect(bbox) + 1e-9
                );
                if rect.contains(&e.point) {
                    filtered.push(e.id);
                }
            }
        }
        filtered.sort_unstable();
        let mut direct = tree.query_rect(&rect);
        direct.sort_unstable();
        prop_assert_eq!(filtered, direct);
    }

    #[test]
    fn grid_cell_id_roundtrip(rows in 1usize..40, cols in 1usize..40) {
        let g = GridSpace::new(rows, cols);
        for id in 0..g.num_states() {
            let (r, c) = g.id_to_cell(id).unwrap();
            prop_assert_eq!(g.cell_to_id(r, c), Some(id));
            // The nearest state to a cell's center is the cell itself.
            prop_assert_eq!(g.nearest_state(&g.location(id)), Some(id));
        }
    }

    #[test]
    fn grid_rect_resolution_equals_scan(
        rows in 1usize..20,
        cols in 1usize..20,
        (x0, y0) in (-2.0f64..22.0, -2.0f64..22.0),
        (w, h) in (0.0f64..15.0, 0.0f64..15.0),
    ) {
        let g = GridSpace::new(rows, cols);
        let rect = Rect::from_bounds(x0, y0, x0 + w, y0 + h);
        let fast = g.states_in_rect(&rect);
        let slow: Vec<usize> = (0..g.num_states())
            .filter(|&id| rect.contains(&g.location(id)))
            .collect();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn region_union_is_set_union(
        n in 1usize..100,
        a_lo in 0usize..50, a_len in 0usize..30,
        b_lo in 0usize..70, b_len in 0usize..40,
    ) {
        let space = LineSpace::new(n);
        let a: Vec<usize> = (a_lo..(a_lo + a_len).min(n)).collect();
        let b: Vec<usize> = (b_lo..(b_lo + b_len).min(n)).collect();
        let union = Region::Union(vec![
            Region::StateIds(a.clone()),
            Region::StateIds(b.clone()),
        ]);
        let mut expected: Vec<usize> = a.iter().chain(b.iter())
            .copied().filter(|&s| s < n).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(union.resolve(&space), expected);
    }

    #[test]
    fn circle_region_is_subset_of_bounding_rect_region(
        rows in 2usize..15, cols in 2usize..15,
        cx in 0.0f64..15.0, cy in 0.0f64..15.0, r in 0.0f64..8.0,
    ) {
        let g = GridSpace::new(rows, cols);
        let circle = Region::circle(Point2::new(cx, cy), r);
        let bbox = Region::Rect(circle.bounding_rect().unwrap());
        let circle_states = circle.resolve(&g);
        let bbox_states = bbox.resolve(&g);
        for s in &circle_states {
            prop_assert!(bbox_states.contains(s));
            prop_assert!(g.location(*s).distance(&Point2::new(cx, cy)) <= r + 1e-9);
        }
    }

    #[test]
    fn rect_geometry_laws(
        (ax, ay, aw, ah) in (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
        (bx, by, bw, bh) in (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
    ) {
        let a = Rect::from_bounds(ax, ay, ax + aw, ay + ah);
        let b = Rect::from_bounds(bx, by, bx + bw, by + bh);
        // Symmetry.
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        // Union contains both.
        let u = a.union(&b);
        for r in [&a, &b] {
            prop_assert!(u.contains(&r.min) && u.contains(&r.max));
            prop_assert!(u.intersects(r));
        }
        // Distance zero iff the center is inside (for the center point).
        prop_assert_eq!(a.distance_to_point(&a.center()) == 0.0, a.contains(&a.center()));
    }

    #[test]
    fn generated_networks_are_connected_with_exact_counts(
        seed in 0u64..200,
        nodes in 2usize..400,
        extra in 0usize..200,
    ) {
        let edges = (nodes - 1) + extra;
        let g = network_gen::generate(&NetworkConfig {
            num_nodes: nodes,
            num_edges: edges,
            extent: 100.0,
            seed,
        });
        prop_assert_eq!(g.num_nodes(), nodes);
        prop_assert!(g.is_connected());
        // Edge target met unless the neighborhood saturated (dense graphs).
        prop_assert!(g.num_edges() >= nodes - 1);
        prop_assert!(g.num_edges() <= edges);
        // No self-loops, no duplicate arcs.
        for u in 0..nodes {
            let nb = g.neighbors(u);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1], "adjacency must be sorted and unique");
            }
            prop_assert!(!nb.contains(&(u as u32)));
        }
    }
}

#[test]
fn network_state_space_queries_match_scan() {
    let g = network_gen::generate(&NetworkConfig {
        num_nodes: 500,
        num_edges: 640,
        extent: 100.0,
        seed: 77,
    });
    let rect = Rect::from_bounds(20.0, 20.0, 60.0, 55.0);
    let fast = g.states_in_rect(&rect);
    let slow: Vec<usize> =
        (0..g.num_states()).filter(|&id| rect.contains(&g.location(id))).collect();
    assert_eq!(fast, slow);
    let q = Point2::new(33.3, 44.4);
    let nearest = g.nearest_state(&q).unwrap();
    let best = (0..g.num_states())
        .min_by(|&a, &b| g.location(a).distance_sq(&q).total_cmp(&g.location(b).distance_sq(&q)))
        .unwrap();
    assert!((g.location(nearest).distance(&q) - g.location(best).distance(&q)).abs() < 1e-9);
}

#[test]
fn rtree_degenerate_inputs() {
    // Empty tree: every query answers empty, nothing panics.
    let empty = RTree::bulk_load(Vec::new());
    assert!(empty.is_empty());
    assert_eq!(empty.height(), 0);
    assert!(empty.query_rect(&Rect::from_bounds(0.0, 0.0, 10.0, 10.0)).is_empty());
    assert!(empty.nearest(&Point2::new(0.0, 0.0)).is_none());

    // 100 identical points: all land in one leaf pile, all are found by a
    // zero-area rectangle on the point, none by one a hair away.
    let p = Point2::new(5.0, 5.0);
    let dupes = RTree::bulk_load((0..100).map(|id| RTreeEntry { point: p, id }).collect());
    assert_eq!(dupes.len(), 100);
    let mut got = dupes.query_rect(&Rect::point(p));
    got.sort_unstable();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
    assert!(dupes.query_rect(&Rect::point(Point2::new(5.0 + 1e-9, 5.0))).is_empty());
    assert_eq!(dupes.nearest(&Point2::new(7.0, 5.0)).unwrap().point, p);
}
