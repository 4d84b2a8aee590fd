//! 2-D points in the continuous embedding space.
//!
//! The paper's state space `S ⊆ R^d` is a finite set of locations; we embed
//! states in the plane (`d = 2` covers both the raster of Fig. 2 and road
//! networks; the 1-D synthetic generator uses `y = 0`).

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin `(0, 0)`.
    pub const fn origin() -> Self {
        Point2 { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point2) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root in comparisons).
    pub fn distance_sq(&self, other: &Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise midpoint.
    pub fn midpoint(&self, other: &Point2) -> Point2 {
        Point2::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Translates by `(dx, dy)`.
    pub fn translate(&self, dx: f64, dy: f64) -> Point2 {
        Point2::new(self.x + dx, self.y + dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn midpoint_and_translate() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(3.0, 5.0);
        assert_eq!(a.midpoint(&b), Point2::new(2.0, 3.0));
        assert_eq!(a.translate(1.0, -1.0), Point2::new(2.0, 0.0));
        assert_eq!(Point2::origin(), Point2::new(0.0, 0.0));
    }
}
