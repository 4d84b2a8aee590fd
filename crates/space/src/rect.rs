//! Axis-aligned rectangles (bounding boxes and rectangular query regions).

use crate::point::Point2;

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]` (closed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point2,
    /// Upper-right corner.
    pub max: Point2,
}

impl Rect {
    /// Creates a rectangle from two corners, normalizing their order.
    pub fn new(a: Point2, b: Point2) -> Self {
        Rect {
            min: Point2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from coordinate bounds.
    pub fn from_bounds(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect::new(Point2::new(min_x, min_y), Point2::new(max_x, max_y))
    }

    /// The degenerate rectangle containing only `p`.
    pub fn point(p: Point2) -> Self {
        Rect { min: p, max: p }
    }

    /// An "empty" rectangle that unions as the identity element.
    pub fn empty() -> Self {
        Rect {
            min: Point2::new(f64::INFINITY, f64::INFINITY),
            max: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// True when no point satisfies the bounds.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width along x.
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height along y.
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area (zero for empty or degenerate rectangles).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point2 {
        self.min.midpoint(&self.max)
    }

    /// Closed containment test.
    pub fn contains(&self, p: &Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True when the rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Smallest rectangle covering both operands.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min: Point2::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point2::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The rectangle both operands cover ([`Rect::empty`] when they are
    /// disjoint).
    pub fn intersection(&self, other: &Rect) -> Rect {
        let min = Point2::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y));
        let max = Point2::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y));
        let rect = Rect { min, max };
        if rect.is_empty() {
            Rect::empty()
        } else {
            rect
        }
    }

    /// Grows the rectangle by `margin` on every side.
    pub fn expand(&self, margin: f64) -> Rect {
        Rect { min: self.min.translate(-margin, -margin), max: self.max.translate(margin, margin) }
    }

    /// Minimum distance from `p` to the rectangle (0 when inside).
    pub fn distance_to_point(&self, p: &Point2) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Upper bound on [`Rect::distance_to_point`] over every point of
    /// `other`: no point inside `other` is farther than this from the
    /// rectangle. (The per-axis gaps maximize at `other`'s corners; taking
    /// both maxima jointly may name a corner `other` doesn't have, so the
    /// bound is conservative, not tight.)
    pub fn max_distance_to_rect(&self, other: &Rect) -> f64 {
        let dx = (self.min.x - other.min.x).max(0.0).max(other.max.x - self.max.x);
        let dy = (self.min.y - other.min.y).max(0.0).max(other.max.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes_corners() {
        let r = Rect::new(Point2::new(5.0, 1.0), Point2::new(2.0, 4.0));
        assert_eq!(r.min, Point2::new(2.0, 1.0));
        assert_eq!(r.max, Point2::new(5.0, 4.0));
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 3.0);
        assert_eq!(r.area(), 9.0);
        assert_eq!(r.center(), Point2::new(3.5, 2.5));
    }

    #[test]
    fn containment_is_closed() {
        let r = Rect::from_bounds(0.0, 0.0, 2.0, 2.0);
        assert!(r.contains(&Point2::new(0.0, 0.0)));
        assert!(r.contains(&Point2::new(2.0, 2.0)));
        assert!(r.contains(&Point2::new(1.0, 1.0)));
        assert!(!r.contains(&Point2::new(2.1, 1.0)));
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::from_bounds(0.0, 0.0, 2.0, 2.0);
        let b = Rect::from_bounds(2.0, 2.0, 3.0, 3.0); // touching corner
        let c = Rect::from_bounds(2.5, 0.0, 3.0, 1.0); // disjoint
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&Rect::empty()));
        assert_eq!(a.intersection(&b), Rect::point(Point2::new(2.0, 2.0)));
        assert!(a.intersection(&c).is_empty());
        assert!(a.intersection(&Rect::empty()).is_empty());
    }

    #[test]
    fn union_and_empty_identity() {
        let a = Rect::from_bounds(0.0, 0.0, 1.0, 1.0);
        let b = Rect::from_bounds(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert_eq!(u, Rect::from_bounds(0.0, -1.0, 3.0, 1.0));
        assert_eq!(Rect::empty().union(&a), a);
        assert_eq!(a.union(&Rect::empty()), a);
        assert!(Rect::empty().is_empty());
        assert_eq!(Rect::empty().area(), 0.0);
    }

    #[test]
    fn expand_grows_every_side() {
        let b = Rect::from_bounds(1.0, 1.0, 2.0, 2.0);
        assert_eq!(b.expand(1.5), Rect::from_bounds(-0.5, -0.5, 3.5, 3.5));
        assert_eq!(b.expand(0.0), b);
    }

    #[test]
    fn point_distance() {
        let r = Rect::from_bounds(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.distance_to_point(&Point2::new(0.5, 0.5)), 0.0);
        assert_eq!(r.distance_to_point(&Point2::new(4.0, 1.0)), 3.0);
        assert!((r.distance_to_point(&Point2::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }
}
