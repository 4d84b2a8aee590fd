//! The 1-D state space used by the paper's synthetic data generator.
//!
//! The evaluation's synthetic datasets index states linearly and constrain
//! transitions to the band `[s_i − max_step/2, s_i + max_step/2]`. States
//! are embedded on the x-axis at unit spacing.

use crate::point::Point2;
use crate::rect::Rect;
use crate::state_space::StateSpace;

/// `n` states on a line, state `i` located at `(i, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSpace {
    n: usize,
}

impl LineSpace {
    /// Creates a line of `n` states.
    pub fn new(n: usize) -> Self {
        LineSpace { n }
    }
}

impl StateSpace for LineSpace {
    fn num_states(&self) -> usize {
        self.n
    }

    fn location(&self, id: usize) -> Point2 {
        assert!(id < self.n, "state id {id} out of range for LineSpace({})", self.n);
        Point2::new(id as f64, 0.0)
    }

    fn nearest_state(&self, p: &Point2) -> Option<usize> {
        if self.n == 0 {
            None
        } else {
            Some(p.x.round().clamp(0.0, (self.n - 1) as f64) as usize)
        }
    }

    fn states_in_rect(&self, rect: &Rect) -> Vec<usize> {
        if self.n == 0 || rect.is_empty() || rect.min.y > 0.0 || rect.max.y < 0.0 {
            return Vec::new();
        }
        let lo = rect.min.x.ceil().max(0.0);
        let hi = rect.max.x.floor().min((self.n - 1) as f64);
        if lo > hi {
            return Vec::new();
        }
        (lo as usize..=hi as usize).collect()
    }

    fn bounding_box(&self) -> Rect {
        if self.n == 0 {
            Rect::empty()
        } else {
            Rect::from_bounds(0.0, 0.0, (self.n - 1) as f64, 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let l = LineSpace::new(5);
        assert_eq!(l.num_states(), 5);
        assert_eq!(l.location(3), Point2::new(3.0, 0.0));
        assert_eq!(l.nearest_state(&Point2::new(2.4, 9.0)), Some(2));
        assert_eq!(l.nearest_state(&Point2::new(-3.0, 0.0)), Some(0));
        assert_eq!(LineSpace::new(0).nearest_state(&Point2::origin()), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn location_bounds_checked() {
        LineSpace::new(2).location(2);
    }

    #[test]
    fn ranges_clip() {
        let l = LineSpace::new(10);
        let range = |lo, hi| l.states_in_rect(&Rect::from_bounds(lo, 0.0, hi, 0.0));
        assert_eq!(range(3.0, 5.0), vec![3, 4, 5]);
        assert_eq!(range(8.0, 20.0), vec![8, 9]);
        assert!(range(12.0, 20.0).is_empty());
        assert!(LineSpace::new(0)
            .states_in_rect(&Rect::from_bounds(0.0, 0.0, 3.0, 0.0))
            .is_empty());
    }

    #[test]
    fn states_in_rect_respects_y() {
        let l = LineSpace::new(10);
        assert_eq!(l.states_in_rect(&Rect::from_bounds(1.2, -1.0, 3.8, 1.0)), vec![2, 3]);
        assert!(l.states_in_rect(&Rect::from_bounds(0.0, 1.0, 9.0, 2.0)).is_empty());
        assert!(l.states_in_rect(&Rect::from_bounds(20.0, 0.0, 30.0, 0.0)).is_empty());
    }

    #[test]
    fn bounding_box() {
        assert_eq!(LineSpace::new(4).bounding_box(), Rect::from_bounds(0.0, 0.0, 3.0, 0.0));
        assert!(LineSpace::new(0).bounding_box().is_empty());
    }
}
