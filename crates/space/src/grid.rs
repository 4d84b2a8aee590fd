//! Regular 2-D raster state spaces (the grid of Fig. 2 in the paper).
//!
//! Cells are unit squares identified row-major; the state location is the
//! cell center. The iceberg scenario of the paper's introduction is built on
//! this space (see `ust-data::iceberg`).

use crate::point::Point2;
use crate::rect::Rect;
use crate::state_space::StateSpace;

/// A `rows × cols` raster of unit cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpace {
    rows: usize,
    cols: usize,
}

impl GridSpace {
    /// Creates a raster with `rows` rows and `cols` columns.
    pub fn new(rows: usize, cols: usize) -> Self {
        GridSpace { rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Converts `(row, col)` to a state id.
    pub fn cell_to_id(&self, row: usize, col: usize) -> Option<usize> {
        if row < self.rows && col < self.cols {
            Some(row * self.cols + col)
        } else {
            None
        }
    }

    /// Converts a state id back to `(row, col)`.
    pub fn id_to_cell(&self, id: usize) -> Option<(usize, usize)> {
        if id < self.num_states() {
            Some((id / self.cols, id % self.cols))
        } else {
            None
        }
    }

    /// The 4-neighborhood (von Neumann) of a cell, clipped at borders.
    pub fn neighbors4(&self, id: usize) -> Vec<usize> {
        let Some((r, c)) = self.id_to_cell(id) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(id - self.cols);
        }
        if c > 0 {
            out.push(id - 1);
        }
        if c + 1 < self.cols {
            out.push(id + 1);
        }
        if r + 1 < self.rows {
            out.push(id + self.cols);
        }
        out
    }

    /// The 8-neighborhood (Moore) of a cell, clipped at borders.
    pub fn neighbors8(&self, id: usize) -> Vec<usize> {
        let Some((r, c)) = self.id_to_cell(id) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(8);
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let nr = r as i64 + dr;
                let nc = c as i64 + dc;
                if nr >= 0 && nc >= 0 {
                    if let Some(nid) = self.cell_to_id(nr as usize, nc as usize) {
                        out.push(nid);
                    }
                }
            }
        }
        out
    }
}

impl StateSpace for GridSpace {
    fn num_states(&self) -> usize {
        self.rows * self.cols
    }

    fn location(&self, id: usize) -> Point2 {
        #[expect(
            clippy::panic,
            reason = "the `Space` trait's `location` contract takes a state id of this space; \
                      an out-of-range id is a construction bug in the caller, with no \
                      recoverable answer."
        )]
        let (r, c) = self.id_to_cell(id).unwrap_or_else(|| {
            panic!("state id {id} out of range for {}×{} grid", self.rows, self.cols)
        });
        Point2::new(c as f64 + 0.5, r as f64 + 0.5)
    }

    fn nearest_state(&self, p: &Point2) -> Option<usize> {
        if self.num_states() == 0 {
            return None;
        }
        let c = (p.x - 0.5).round().clamp(0.0, (self.cols - 1) as f64) as usize;
        let r = (p.y - 0.5).round().clamp(0.0, (self.rows - 1) as f64) as usize;
        self.cell_to_id(r, c)
    }

    fn states_in_rect(&self, rect: &Rect) -> Vec<usize> {
        if rect.is_empty() || self.num_states() == 0 {
            return Vec::new();
        }
        // Cell centers are at (c + 0.5, r + 0.5): solve for the covered range.
        let c_lo = (rect.min.x - 0.5).ceil().max(0.0) as usize;
        let c_hi = (rect.max.x - 0.5).floor().min((self.cols - 1) as f64);
        let r_lo = (rect.min.y - 0.5).ceil().max(0.0) as usize;
        let r_hi = (rect.max.y - 0.5).floor().min((self.rows - 1) as f64);
        if c_hi < 0.0 || r_hi < 0.0 {
            return Vec::new();
        }
        let (c_hi, r_hi) = (c_hi as usize, r_hi as usize);
        let mut out = Vec::new();
        for r in r_lo..=r_hi {
            for c in c_lo..=c_hi {
                if let Some(id) = self.cell_to_id(r, c) {
                    out.push(id);
                }
            }
        }
        out
    }

    fn bounding_box(&self) -> Rect {
        if self.num_states() == 0 {
            Rect::empty()
        } else {
            Rect::from_bounds(0.5, 0.5, self.cols as f64 - 0.5, self.rows as f64 - 0.5)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_cell_roundtrip() {
        let g = GridSpace::new(3, 4);
        assert_eq!(g.num_states(), 12);
        assert_eq!(g.cell_to_id(2, 3), Some(11));
        assert_eq!(g.id_to_cell(11), Some((2, 3)));
        assert_eq!(g.cell_to_id(3, 0), None);
        assert_eq!(g.id_to_cell(12), None);
        for id in 0..g.num_states() {
            let (r, c) = g.id_to_cell(id).unwrap();
            assert_eq!(g.cell_to_id(r, c), Some(id));
        }
    }

    #[test]
    fn locations_are_cell_centers() {
        let g = GridSpace::new(2, 2);
        assert_eq!(g.location(0), Point2::new(0.5, 0.5));
        assert_eq!(g.location(3), Point2::new(1.5, 1.5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn location_panics_out_of_range() {
        GridSpace::new(2, 2).location(4);
    }

    #[test]
    fn neighbors_clip_at_borders() {
        let g = GridSpace::new(3, 3);
        assert_eq!(g.neighbors4(4), vec![1, 3, 5, 7]); // center
        assert_eq!(g.neighbors4(0), vec![1, 3]); // corner
        assert_eq!(g.neighbors8(0), vec![1, 3, 4]);
        assert_eq!(g.neighbors8(4).len(), 8);
        assert!(g.neighbors4(99).is_empty());
    }

    #[test]
    fn nearest_state_clamps() {
        let g = GridSpace::new(2, 3);
        assert_eq!(g.nearest_state(&Point2::new(-10.0, -10.0)), Some(0));
        assert_eq!(g.nearest_state(&Point2::new(100.0, 100.0)), Some(5));
        assert_eq!(g.nearest_state(&Point2::new(1.4, 0.6)), Some(1));
        assert_eq!(GridSpace::new(0, 0).nearest_state(&Point2::origin()), None);
    }

    #[test]
    fn states_in_rect_matches_linear_scan() {
        let g = GridSpace::new(5, 7);
        let rects = [
            Rect::from_bounds(0.0, 0.0, 3.0, 2.0),
            Rect::from_bounds(2.5, 1.5, 2.5, 1.5),
            Rect::from_bounds(-5.0, -5.0, 100.0, 100.0),
            Rect::from_bounds(6.9, 4.9, 7.2, 5.2),
            Rect::from_bounds(10.0, 10.0, 11.0, 11.0),
        ];
        for rect in rects {
            let fast = g.states_in_rect(&rect);
            let slow: Vec<usize> =
                (0..g.num_states()).filter(|&i| rect.contains(&g.location(i))).collect();
            assert_eq!(fast, slow, "rect {rect:?}");
        }
        assert!(g.states_in_rect(&Rect::empty()).is_empty());
    }

    #[test]
    fn bounding_box_covers_centers() {
        let g = GridSpace::new(2, 3);
        let bb = g.bounding_box();
        for id in 0..g.num_states() {
            assert!(bb.contains(&g.location(id)));
        }
        assert!(GridSpace::new(0, 5).bounding_box().is_empty());
    }
}
