//! Discrete time sets — the `T▫` component of a query window.
//!
//! The paper notes that query times need not be contiguous ("a set of not
//! necessarily subsequent points in time"); [`TimeSet`] therefore stores an
//! arbitrary sorted set of timestamps while providing the common
//! interval constructor.

use std::fmt;

/// A finite, sorted, duplicate-free set of discrete timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSet {
    times: Vec<u32>,
}

impl TimeSet {
    /// Builds from arbitrary timestamps (sorted and deduplicated).
    pub fn new<I: IntoIterator<Item = u32>>(times: I) -> Self {
        let mut times: Vec<u32> = times.into_iter().collect();
        times.sort_unstable();
        times.dedup();
        TimeSet { times }
    }

    /// The contiguous interval `[start, end]` (inclusive on both ends).
    pub fn interval(start: u32, end: u32) -> Self {
        if start > end {
            return TimeSet { times: Vec::new() };
        }
        TimeSet { times: (start..=end).collect() }
    }

    /// The singleton `{t}`.
    pub fn at(t: u32) -> Self {
        TimeSet { times: vec![t] }
    }

    /// The empty set.
    pub fn empty() -> Self {
        TimeSet { times: Vec::new() }
    }

    /// Number of timestamps `|T▫|`.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no timestamp is contained.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, t: u32) -> bool {
        self.times.binary_search(&t).is_ok()
    }

    /// Earliest timestamp, if any.
    pub fn min(&self) -> Option<u32> {
        self.times.first().copied()
    }

    /// Latest timestamp `t_end = max(T▫)`, the anchor of the query-based
    /// backward pass.
    pub fn max(&self) -> Option<u32> {
        self.times.last().copied()
    }

    /// Iterates timestamps in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.times.iter().copied()
    }

    /// The underlying sorted slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.times
    }

    /// Shifts every timestamp by `delta` (used to re-anchor workloads).
    pub fn shift(&self, delta: u32) -> TimeSet {
        TimeSet { times: self.times.iter().map(|t| t + delta).collect() }
    }

    /// Set union.
    pub fn union(&self, other: &TimeSet) -> TimeSet {
        TimeSet::new(self.iter().chain(other.iter()))
    }
}

impl fmt::Display for TimeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Contiguous sets print as intervals, others as explicit sets.
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) if (hi - lo) as usize + 1 == self.len() => {
                write!(f, "[{lo}, {hi}]")
            }
            _ => {
                write!(f, "{{")?;
                for (i, t) in self.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_construction() {
        let t = TimeSet::interval(20, 25);
        assert_eq!(t.len(), 6);
        assert_eq!(t.min(), Some(20));
        assert_eq!(t.max(), Some(25));
        assert!(t.contains(22));
        assert!(!t.contains(26));
        assert!(TimeSet::interval(5, 4).is_empty());
    }

    #[test]
    fn new_sorts_and_dedups() {
        let t = TimeSet::new([7, 3, 7, 5]);
        assert_eq!(t.as_slice(), &[3, 5, 7]);
        assert!(!t.contains(4));
    }

    #[test]
    fn singleton_and_empty() {
        assert_eq!(TimeSet::at(9).as_slice(), &[9]);
        assert!(TimeSet::empty().is_empty());
        assert_eq!(TimeSet::empty().max(), None);
        assert_eq!(TimeSet::empty().min(), None);
    }

    #[test]
    fn shift_translates_all() {
        let t = TimeSet::new([1, 4]).shift(10);
        assert_eq!(t.as_slice(), &[11, 14]);
    }

    #[test]
    fn union_merges() {
        let a = TimeSet::new([1, 3]);
        let b = TimeSet::new([2, 3, 4]);
        assert_eq!(a.union(&b).as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TimeSet::interval(2, 4).to_string(), "[2, 4]");
        assert_eq!(TimeSet::new([2, 5]).to_string(), "{2, 5}");
        assert_eq!(TimeSet::at(3).to_string(), "[3, 3]");
    }
}
