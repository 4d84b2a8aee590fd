//! Bitset over state ids.
//!
//! Query windows select a subset `S▫ ⊆ S` of the state space; the engines
//! test membership for every entry produced by a transition. A packed bitset
//! gives O(1) membership with 1 bit per state — at the paper's default
//! `|S| = 100,000` that is 12.5 KB, which stays resident in L1/L2 cache.

use std::ops::Range;

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

    /// The packed 64-state words: state `s` is bit `s % 64` of word
    /// `s / 64`, and the bits at or beyond `dim` are zero — for passes that
    /// combine whole masks a word at a time.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The mask over `dim` states packed in `words` (the layout of
    /// [`StateMask::words`]). Fails unless there are `⌈dim / 64⌉` words
    /// with no bit set at or beyond `dim`.
    pub fn from_words(dim: usize, words: Vec<u64>) -> Result<Self> {
        let expected = dim.div_ceil(BITS);
        if words.len() != expected {
            return Err(MarkovError::DimensionMismatch {
                op: "mask from words",
                expected,
                found: words.len(),
            });
        }
        let spill = match dim % BITS {
            0 => 0,
            tail => words.last().map_or(0, |w| w >> tail),
        };
        if spill != 0 {
            let index = dim + spill.trailing_zeros() as usize;
            return Err(MarkovError::IndexOutOfBounds { index, dim });
        }
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(StateMask { dim, words, count })
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

    /// Visits, in ascending order, every state of `range` that is not in
    /// the mask (states at or beyond `dim` never are), reading the mask a
    /// word at a time: the cost follows the states outside, not the range.
    /// Inlined into the reach trim, which calls it once per live row per
    /// timestamp; as a function of its own it slowed the unrelated
    /// query-based sweeps by 3–8 % (`backward_cold`), by code layout alone.
    #[inline]
    pub(crate) fn for_each_outside(&self, range: Range<usize>, mut visit: impl FnMut(usize)) {
        let Range { start, end } = range;
        let words = self.words.iter().copied().chain(std::iter::repeat(0));
        for (w, word) in words.enumerate().take(end.div_ceil(BITS)).skip(start / BITS) {
            let base = w * BITS;
            let mut outside = !word;
            if base < start {
                outside &= u64::MAX << (start - base);
            }
            if end - base < BITS {
                outside &= (1 << (end - base)) - 1;
            }
            while outside != 0 {
                visit(base + outside.trailing_zeros() as usize);
                outside &= outside - 1;
            }
        }
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
    fn words_pack_the_set_and_nothing_beyond_dim() {
        let m = StateMask::from_indices(70, [0usize, 3, 64, 69]).unwrap();
        assert_eq!(m.words(), &[0b1001, (1 << 5) | 1]);
        assert_eq!(StateMask::full(70).words(), &[u64::MAX, (1 << 6) - 1]);
        assert_eq!(m.complement().words()[1], (1 << 6) - 1 - ((1 << 5) | 1));
        assert_eq!(StateMask::from_words(70, m.words().to_vec()).unwrap(), m);
        assert_eq!(StateMask::from_words(128, vec![u64::MAX; 2]).unwrap(), StateMask::full(128));
        assert!(StateMask::from_words(70, vec![0]).is_err(), "one word short");
        assert!(matches!(
            StateMask::from_words(70, vec![0, 1 << 6]),
            Err(MarkovError::IndexOutOfBounds { index: 70, dim: 70 })
        ));
    }

    #[test]
    fn for_each_outside_visits_the_complement_within_a_range() {
        let m = StateMask::from_indices(70, (0..70usize).filter(|s| s % 3 == 0)).unwrap();
        for range in [0..70, 2..5, 60..70, 63..65, 64..64, 65..90] {
            let mut seen = Vec::new();
            m.for_each_outside(range.clone(), |s| seen.push(s));
            let expected: Vec<usize> = range.clone().filter(|&s| !m.contains(s)).collect();
            assert_eq!(seen, expected, "{range:?}");
        }
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
