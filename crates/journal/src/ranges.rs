//! The byte ranges of one block that a writer declared written.
//!
//! Ranges are *declared*, never diffed: a transaction journals the
//! ranges its operations said they would write, whether or not the bytes
//! there changed, so what a transaction carries depends only on what its
//! own operations did — not on which other transaction happened to
//! snapshot the block first.

use std::{fmt, ops::Range};

/// Ranges a [`ByteRanges`] holds without a heap allocation: a block's
/// writers almost always declare one or two.
const INLINE: usize = 2;

/// A set of byte offsets inside one block, kept as sorted, disjoint,
/// non-adjacent ranges.
#[derive(Clone)]
pub struct ByteRanges(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` ranges of the array.
    Inline {
        len: usize,
        ranges: [Range<usize>; INLINE],
    },
    Heap(Vec<Range<usize>>),
}

impl ByteRanges {
    /// The ranges, ascending, as a slice.
    fn as_slice(&self) -> &[Range<usize>] {
        match &self.0 {
            Repr::Inline { len, ranges } => &ranges[..*len],
            Repr::Heap(v) => v,
        }
    }

    /// Adds `r`, merging it with every range it overlaps or touches.
    pub fn insert(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        // The ranges that neither end before `r` starts nor start after
        // it ends all fuse with it.
        let have = self.as_slice();
        let first = have.partition_point(|x| x.end < r.start);
        let last = have.partition_point(|x| x.start <= r.end);
        let fused = have[first..last]
            .iter()
            .fold(r, |a, x| a.start.min(x.start)..a.end.max(x.end));
        match &mut self.0 {
            Repr::Heap(v) => {
                v.splice(first..last, [fused]);
            }
            Repr::Inline { len, ranges } if *len - (last - first) < INLINE => {
                let mut out = [0..0, 0..0];
                let kept = ranges[..first]
                    .iter()
                    .chain([&fused])
                    .chain(&ranges[last..*len]);
                let mut n = 0;
                for (slot, x) in out.iter_mut().zip(kept) {
                    (*slot, n) = (x.clone(), n + 1);
                }
                (*ranges, *len) = (out, n);
            }
            Repr::Inline { len, ranges } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(&ranges[..*len]);
                v.splice(first..last, [fused]);
                self.0 = Repr::Heap(v);
            }
        }
    }

    /// Adds every range of `other`.
    pub fn extend(&mut self, other: &ByteRanges) {
        for r in other.as_slice() {
            self.insert(r.clone());
        }
    }

    /// The ranges, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.as_slice().iter().cloned()
    }
}

impl Default for ByteRanges {
    fn default() -> Self {
        ByteRanges(Repr::Inline {
            len: 0,
            ranges: [0..0, 0..0],
        })
    }
}

impl PartialEq for ByteRanges {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ByteRanges {}

impl fmt::Debug for ByteRanges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ByteRanges").field(&self.as_slice()).finish()
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
