//! Bitset over state ids.
//!
//! Query windows select a subset `S▫ ⊆ S` of the state space; the engines
//! test membership for every entry produced by a transition. A packed bitset
//! gives O(1) membership with 1 bit per state — at the paper's default
//! `|S| = 100,000` that is 12.5 KB, which stays resident in L1/L2 cache.

use crate::error::{MarkovError, Result};

const BITS: usize = 64;

/// A fixed-dimension set of state ids backed by 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateMask {
    dim: usize,
    words: Vec<u64>,
    count: usize,
}

impl StateMask {
    /// Creates an empty mask over `dim` states.
    pub fn new(dim: usize) -> Self {
        StateMask { dim, words: vec![0; dim.div_ceil(BITS)], count: 0 }
    }

    /// Builds a mask from an iterator of state ids.
    pub fn from_indices<I, T>(dim: usize, indices: I) -> Result<Self>
    where
        I: IntoIterator<Item = T>,
        T: Into<usize>,
    {
        let mut mask = StateMask::new(dim);
        for idx in indices {
            mask.insert(idx.into())?;
        }
        Ok(mask)
    }

    /// Builds a full mask (all states set).
    pub fn full(dim: usize) -> Self {
        let mut mask = StateMask::new(dim);
        for w in &mut mask.words {
            *w = u64::MAX;
        }
        // Clear the bits beyond `dim` in the last word.
        let extra = mask.words.len() * BITS - dim;
        if extra > 0 {
            if let Some(last) = mask.words.last_mut() {
                *last >>= extra;
            }
        }
        mask.count = dim;
        mask
    }

    /// Dimension of the underlying state space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of states currently in the set.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no state is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds a state id; idempotent.
    pub fn insert(&mut self, index: usize) -> Result<()> {
        if index >= self.dim {
            return Err(MarkovError::IndexOutOfBounds { index, dim: self.dim });
        }
        let (word, bit) = (index / BITS, index % BITS);
        if self.words[word] & (1 << bit) == 0 {
            self.words[word] |= 1 << bit;
            self.count += 1;
        }
        Ok(())
    }

    /// Removes a state id; idempotent.
    pub fn remove(&mut self, index: usize) -> Result<()> {
        if index >= self.dim {
            return Err(MarkovError::IndexOutOfBounds { index, dim: self.dim });
        }
        let (word, bit) = (index / BITS, index % BITS);
        if self.words[word] & (1 << bit) != 0 {
            self.words[word] &= !(1 << bit);
            self.count -= 1;
        }
        Ok(())
    }

    /// Membership test. Out-of-range ids are never members.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.dim {
            return false;
        }
        self.words[index / BITS] & (1 << (index % BITS)) != 0
    }

    /// The complement set `S ∖ self`, used to answer PST∀Q via
    /// `P∀(S▫) = 1 − P∃(S ∖ S▫)` (Section VII of the paper).
    pub fn complement(&self) -> StateMask {
        let mut out =
            StateMask { dim: self.dim, words: Vec::with_capacity(self.words.len()), count: 0 };
        for w in &self.words {
            out.words.push(!w);
        }
        let extra = out.words.len() * BITS - self.dim;
        if extra > 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
        out.count = self.dim - self.count;
        out
    }

    /// Set union.
    pub fn union(&self, other: &StateMask) -> Result<StateMask> {
        if self.dim != other.dim {
            return Err(MarkovError::DimensionMismatch {
                op: "mask union",
                expected: self.dim,
                found: other.dim,
            });
        }
        let words: Vec<u64> = self.words.iter().zip(&other.words).map(|(a, b)| a | b).collect();
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(StateMask { dim: self.dim, words, count })
    }

    /// Set intersection.
    pub fn intersection(&self, other: &StateMask) -> Result<StateMask> {
        if self.dim != other.dim {
            return Err(MarkovError::DimensionMismatch {
                op: "mask intersection",
                expected: self.dim,
                found: other.dim,
            });
        }
        let words: Vec<u64> = self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect();
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(StateMask { dim: self.dim, words, count })
    }

    /// True when the two masks share at least one state.
    pub fn intersects(&self, other: &StateMask) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates the set state ids in ascending order.
    pub fn iter(&self) -> MaskIter<'_> {
        MaskIter { mask: self, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Collects the set state ids into a vector.
    pub fn to_indices(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// Iterator over set bits of a [`StateMask`].
pub struct MaskIter<'a> {
    mask: &'a StateMask,
    word_idx: usize,
    current: u64,
}

impl Iterator for MaskIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.mask.words.len() {
                return None;
            }
            self.current = self.mask.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut m = StateMask::new(130);
        assert!(!m.contains(0));
        m.insert(0).unwrap();
        m.insert(64).unwrap();
        m.insert(129).unwrap();
        m.insert(129).unwrap(); // idempotent
        assert_eq!(m.count(), 3);
        assert!(m.contains(0) && m.contains(64) && m.contains(129));
        assert!(!m.contains(1));
        assert!(!m.contains(1000));
        m.remove(64).unwrap();
        m.remove(64).unwrap(); // idempotent
        assert_eq!(m.count(), 2);
        assert!(!m.contains(64));
        assert!(m.insert(130).is_err());
        assert!(m.remove(130).is_err());
    }

    #[test]
    fn from_indices_and_iter_roundtrip() {
        let m = StateMask::from_indices(100, [5usize, 63, 64, 99]).unwrap();
        assert_eq!(m.to_indices(), vec![5, 63, 64, 99]);
        assert!(StateMask::from_indices(10, [10usize]).is_err());
    }

    #[test]
    fn full_and_complement() {
        let full = StateMask::full(70);
        assert_eq!(full.count(), 70);
        assert!(full.contains(69));
        let m = StateMask::from_indices(70, [0usize, 69]).unwrap();
        let c = m.complement();
        assert_eq!(c.count(), 68);
        assert!(!c.contains(0));
        assert!(!c.contains(69));
        assert!(c.contains(1));
        // Complement of the complement is the original.
        assert_eq!(c.complement(), m);
        // No bits beyond `dim` leak into iteration.
        assert!(c.iter().all(|i| i < 70));
    }

    #[test]
    fn union_intersection_intersects() {
        let a = StateMask::from_indices(32, [1usize, 2, 3]).unwrap();
        let b = StateMask::from_indices(32, [3usize, 4]).unwrap();
        assert_eq!(a.union(&b).unwrap().to_indices(), vec![1, 2, 3, 4]);
        assert_eq!(a.intersection(&b).unwrap().to_indices(), vec![3]);
        assert!(a.intersects(&b));
        let c = StateMask::from_indices(32, [10usize]).unwrap();
        assert!(!a.intersects(&c));
        let d = StateMask::new(16);
        assert!(a.union(&d).is_err());
        assert!(a.intersection(&d).is_err());
    }

    #[test]
    fn empty_mask_iterates_nothing() {
        let m = StateMask::new(0);
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        let m = StateMask::new(200);
        assert_eq!(m.iter().count(), 0);
    }
}
