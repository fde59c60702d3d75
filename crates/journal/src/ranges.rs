//! The byte ranges of one block that a writer declared written.
//!
//! Ranges are *declared*, never diffed: a transaction journals the
//! ranges its operations said they would write, whether or not the bytes
//! there changed, so what a transaction carries depends only on what its
//! own operations did — not on which other transaction happened to
//! snapshot the block first.

use std::ops::Range;

/// A set of byte offsets inside one block, kept as sorted, disjoint,
/// non-adjacent ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteRanges(Vec<Range<usize>>);

impl ByteRanges {
    /// Adds `r`, merging it with every range it overlaps or touches.
    pub fn insert(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        // The ranges that neither end before `r` starts nor start after
        // it ends all fuse with it.
        let first = self.0.partition_point(|x| x.end < r.start);
        let last = self.0.partition_point(|x| x.start <= r.end);
        let fused = self.0[first..last]
            .iter()
            .fold(r, |a, x| a.start.min(x.start)..a.end.max(x.end));
        self.0.splice(first..last, [fused]);
    }

    /// Adds every range of `other`.
    pub fn extend(&mut self, other: &ByteRanges) {
        for r in &other.0 {
            self.insert(r.clone());
        }
    }

    /// The ranges, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.0.iter().cloned()
    }
}

impl FromIterator<Range<usize>> for ByteRanges {
    fn from_iter<I: IntoIterator<Item = Range<usize>>>(iter: I) -> Self {
        let mut out = ByteRanges::default();
        for r in iter {
            out.insert(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ranges(rs: &[Range<usize>]) -> ByteRanges {
        rs.iter().cloned().collect()
    }

    #[test]
    fn overlapping_and_touching_ranges_fuse() {
        let r = ranges(&[10..20, 40..50, 20..30, 45..60, 0..0]);
        assert_eq!(r.iter().collect::<Vec<_>>(), [10..30, 40..60]);
        let r = ranges(&[10..20, 30..40, 0..100]);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0..100]);
    }

    #[test]
    fn disjoint_ranges_stay_sorted_and_apart() {
        let r = ranges(&[30..31, 10..11, 20..21]);
        assert_eq!(r.iter().collect::<Vec<_>>(), [10..11, 20..21, 30..31]);
    }

    proptest! {
        /// Against a per-byte model: same bytes covered, and the
        /// representation is sorted, disjoint and non-adjacent.
        #[test]
        fn matches_a_per_byte_model(
            raw in proptest::collection::vec((0usize..200, 0usize..40), 0..20),
        ) {
            let mut model = [false; 256];
            let mut set = ByteRanges::default();
            for (start, len) in raw {
                model[start..start + len].fill(true);
                set.insert(start..start + len);
            }
            let mut covered = [false; 256];
            let got: Vec<_> = set.iter().collect();
            for r in &got {
                prop_assert!(!r.is_empty());
                covered[r.clone()].fill(true);
            }
            prop_assert_eq!(covered, model);
            prop_assert!(got.windows(2).all(|w| w[0].end < w[1].start));
        }
    }
}
