//! Bitset over state ids.
//!
//! Query windows select a subset `S▫ ⊆ S` of the state space; the engines
//! test membership for every entry produced by a transition. A packed bitset
//! gives O(1) membership with 1 bit per state — at the paper's default
//! `|S| = 100,000` that is 12.5 KB, which stays resident in L1/L2 cache.
//!
//! A mask also keeps its *extent*: the range of words that can hold its set
//! bits. The sets the engines build — a window, a reach mask — cover a
//! narrow band of the space, so iterating a mask (and the reach build's word
//! passes) costs the band's words, not `|S| / 64`.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::error::{MarkovError, Result};

const BITS: usize = 64;

/// A fixed-dimension set of state ids backed by 64-bit words.
///
/// Equality and hashing read the dimension and the words only: two masks
/// holding the same states are equal however their extents were reached.
#[derive(Debug, Clone)]
pub struct StateMask {
    dim: usize,
    words: Vec<u64>,
    count: usize,
    /// The words that can hold set bits: every word outside is zero
    /// (`0..0` for an empty mask).
    extent: Range<usize>,
}

impl PartialEq for StateMask {
    fn eq(&self, other: &StateMask) -> bool {
        self.dim == other.dim && self.words == other.words
    }
}

impl Eq for StateMask {}

impl Hash for StateMask {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The count is a function of the words; it is hashed as it always
        // was, so window fingerprints keep their values.
        self.dim.hash(state);
        self.words.hash(state);
        self.count.hash(state);
    }
}

/// The smallest range holding both `a` and `b` (either may be empty).
fn hull(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b,
        (_, true) => a,
        _ => a.start.min(b.start)..a.end.max(b.end),
    }
}

impl StateMask {
    /// Creates an empty mask over `dim` states.
    pub fn new(dim: usize) -> Self {
        StateMask { dim, words: vec![0; dim.div_ceil(BITS)], count: 0, extent: 0..0 }
    }

    /// The mask over `dim` states packed in `words`, its count and its
    /// extent read from the words of `within` (every other word is zero).
    fn packed(dim: usize, words: Vec<u64>, within: Range<usize>) -> Self {
        let live = |w: &usize| words[*w] != 0;
        let extent = match (within.clone().find(live), within.clone().rev().find(live)) {
            (Some(first), Some(last)) => first..last + 1,
            _ => 0..0,
        };
        let count = words[extent.clone()].iter().map(|w| w.count_ones() as usize).sum();
        StateMask { dim, words, count, extent }
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
        mask.extent = 0..mask.words.len();
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

    /// The range of [`StateMask::words`] that can hold set bits: every word
    /// outside it is zero (`0..0` when the mask is empty). It may be wider
    /// than the set's words after [`StateMask::remove`]; passes that
    /// combine masks a word at a time need read only their extents.
    pub fn extent(&self) -> Range<usize> {
        self.extent.clone()
    }

    /// The mask over `dim` states packed in `words` (the layout of
    /// [`StateMask::words`]). Fails unless there are `⌈dim / 64⌉` words
    /// with no bit set at or beyond `dim`.
    pub fn from_words(dim: usize, words: Vec<u64>) -> Result<Self> {
        let all = 0..words.len();
        Self::from_words_within(dim, words, all)
    }

    /// [`StateMask::from_words`] for words that are zero outside `within`
    /// (a word range, clamped to the words): only those words are read.
    /// A word outside `within` that is not zero is a caller error, caught
    /// by debug builds.
    pub fn from_words_within(dim: usize, words: Vec<u64>, within: Range<usize>) -> Result<Self> {
        let expected = dim.div_ceil(BITS);
        if words.len() != expected {
            return Err(MarkovError::DimensionMismatch {
                op: "mask from words",
                expected,
                found: words.len(),
            });
        }
        let within = within.start.min(expected)..within.end.min(expected);
        debug_assert!(
            words.iter().enumerate().all(|(w, &word)| word == 0 || within.contains(&w)),
            "every word outside {within:?} is zero"
        );
        let spill = match dim % BITS {
            0 => 0,
            tail => words.last().map_or(0, |w| w >> tail),
        };
        if spill != 0 {
            let index = dim + spill.trailing_zeros() as usize;
            return Err(MarkovError::IndexOutOfBounds { index, dim });
        }
        Ok(Self::packed(dim, words, within))
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
            self.extent = hull(self.extent.clone(), word..word + 1);
        }
        Ok(())
    }

    /// Removes a state id; idempotent. The extent is kept.
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
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        let extra = words.len() * BITS - self.dim;
        if extra > 0 {
            if let Some(last) = words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
        let all = 0..words.len();
        StateMask::packed(self.dim, words, all)
    }

    /// Set union.
    pub fn union(&self, other: &StateMask) -> Result<StateMask> {
        self.same_dim(other, "mask union")?;
        let words: Vec<u64> = self.words.iter().zip(&other.words).map(|(a, b)| a | b).collect();
        Ok(StateMask::packed(self.dim, words, hull(self.extent(), other.extent())))
    }

    /// Set intersection.
    pub fn intersection(&self, other: &StateMask) -> Result<StateMask> {
        self.same_dim(other, "mask intersection")?;
        let words: Vec<u64> = self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect();
        Ok(StateMask::packed(self.dim, words, self.overlap(other)))
    }

    /// Fails unless `other` has this mask's dimension.
    fn same_dim(&self, other: &StateMask, op: &'static str) -> Result<()> {
        if self.dim != other.dim {
            return Err(MarkovError::DimensionMismatch {
                op,
                expected: self.dim,
                found: other.dim,
            });
        }
        Ok(())
    }

    /// The words both extents cover.
    fn overlap(&self, other: &StateMask) -> Range<usize> {
        let start = self.extent.start.max(other.extent.start);
        start..self.extent.end.min(other.extent.end).max(start)
    }

    /// True when the two masks share at least one state.
    pub fn intersects(&self, other: &StateMask) -> bool {
        let both = self.overlap(other);
        let (a, b) = (self.words.get(both.clone()), other.words.get(both));
        a.zip(b).is_some_and(|(a, b)| a.iter().zip(b).any(|(a, b)| a & b != 0))
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

    /// Iterates the set state ids in ascending order, reading only the
    /// words of the mask's extent.
    pub fn iter(&self) -> MaskIter<'_> {
        let Range { start, end } = self.extent();
        let current = self.words.get(start).copied().unwrap_or(0);
        MaskIter { words: &self.words[..end], word_idx: start, current }
    }

    /// Collects the set state ids into a vector.
    pub fn to_indices(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// Iterator over set bits of a [`StateMask`].
pub struct MaskIter<'a> {
    /// The mask's words up to the end of its extent.
    words: &'a [u64],
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
            self.current = *self.words.get(self.word_idx)?;
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

    /// `iter()` yields exactly the members, `count()` counts them, and no
    /// word outside the extent holds one.
    fn assert_members(mask: &StateMask, what: &str) {
        let members: Vec<usize> = (0..mask.dim()).filter(|&s| mask.contains(s)).collect();
        assert_eq!(mask.to_indices(), members, "{what}");
        assert_eq!(mask.count(), members.len(), "{what}");
        let extent = mask.extent();
        let outside = mask.words().iter().enumerate().filter(|(w, _)| !extent.contains(w));
        assert!(outside.clone().all(|(_, &word)| word == 0), "{what}: {extent:?}");
    }

    fn hash_of(mask: &StateMask) -> u64 {
        let mut hasher = std::hash::DefaultHasher::new();
        mask.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn every_constructor_and_mutation_keeps_the_extent_over_the_members() {
        for dim in [0usize, 1, 63, 64, 65, 130, 200, 256] {
            let at = |s: usize| s.min(dim.saturating_sub(1));
            let picks = [at(0), at(70), at(129), at(dim.saturating_sub(1))];
            let picks = &picks[..picks.len().min(dim)];
            let mut m = StateMask::from_indices(dim, picks.iter().copied()).unwrap();
            assert_members(&m, &format!("from_indices over {dim}"));
            assert_members(&StateMask::new(dim), "new");
            assert_members(&StateMask::full(dim), "full");
            assert_members(&m.complement(), "complement");
            assert_members(&StateMask::full(dim).complement(), "complement of full");
            assert_members(&StateMask::new(dim).complement(), "complement of empty");
            let words = StateMask::from_words(dim, m.words().to_vec()).unwrap();
            assert_members(&words, "from_words");
            assert_eq!(words, m);
            // Removing every member one by one leaves an empty set whose
            // extent may stay wide; inserting them again in reverse order
            // rebuilds the set.
            for &s in picks {
                m.remove(s).unwrap();
                assert_members(&m, &format!("remove {s} over {dim}"));
            }
            assert_eq!(m, StateMask::new(dim));
            assert_eq!(hash_of(&m), hash_of(&StateMask::new(dim)));
            for &s in picks.iter().rev() {
                m.insert(s).unwrap();
                assert_members(&m, &format!("insert {s} over {dim}"));
            }
            let odd = StateMask::from_indices(dim, (0..dim).filter(|s| s % 3 == 1)).unwrap();
            for (what, set) in [
                ("union", m.union(&odd).unwrap()),
                ("intersection", m.intersection(&odd).unwrap()),
                ("intersection with full", odd.intersection(&StateMask::full(dim)).unwrap()),
                ("union with empty", m.union(&StateMask::new(dim)).unwrap()),
                ("disjoint", m.intersection(&m.complement()).unwrap()),
            ] {
                assert_members(&set, &format!("{what} over {dim}"));
            }
        }
    }

    #[test]
    fn equal_sets_compare_and_hash_equal_whatever_their_extent() {
        let dim = 300;
        let members = [3usize, 130, 131, 250];
        let inserted = StateMask::from_indices(dim, members).unwrap();
        // The same set after a far member came and went (a wider extent),
        // as the complement of its complement, as a union and an
        // intersection, and packed from words with a loose word range.
        let mut widened =
            StateMask::from_indices(dim, members.into_iter().chain([299, 0])).unwrap();
        widened.remove(299).unwrap();
        widened.remove(0).unwrap();
        assert_ne!(widened.extent(), inserted.extent());
        let low = StateMask::from_indices(dim, [3usize, 130]).unwrap();
        let high = StateMask::from_indices(dim, [131usize, 250, 299]).unwrap();
        let union = low.union(&StateMask::from_indices(dim, [131usize, 250]).unwrap()).unwrap();
        let intersection = high.union(&low).unwrap().intersection(&inserted).unwrap();
        let packed = StateMask::from_words_within(dim, inserted.words().to_vec(), 0..5).unwrap();
        for (what, other) in [
            ("widened", widened),
            ("complement of complement", inserted.complement().complement()),
            ("union", union),
            ("intersection", intersection),
            ("from_words_within", packed),
        ] {
            assert_members(&other, what);
            assert_eq!(other, inserted, "{what}");
            assert_eq!(hash_of(&other), hash_of(&inserted), "{what}");
        }
        assert!(inserted.intersects(&high) && !inserted.intersects(&StateMask::new(dim)));
        assert!(StateMask::from_words_within(70, vec![0, 1 << 6], 1..2).is_err(), "past dim");
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
