//! Journal area management: a ring of blocks inside the device.
//!
//! MQFS partitions the journal space into one area per hardware queue;
//! the classic engines use a single area. Allocation is a simple ring:
//! `tail` advances as transactions append, `head` advances as
//! checkpointing reclaims space.

use std::ops::Range;

use parking_lot::Mutex;

/// Location and size of one journal area on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaSpec {
    /// First block of the area.
    pub start: u64,
    /// Length in blocks.
    pub len: u64,
}

impl AreaSpec {
    /// Splits a journal region into `n` equal areas (MQFS's per-queue
    /// partitioning, §5.1).
    pub fn split(start: u64, len: u64, n: usize) -> Vec<AreaSpec> {
        assert!(n > 0 && len >= n as u64, "region too small to split");
        let each = len / n as u64;
        (0..n as u64)
            .map(|i| AreaSpec {
                start: start + i * each,
                len: each,
            })
            .collect()
    }
}

struct RingSt {
    head: u64,
    tail: u64,
    used: u64,
}

/// Ring allocator over one [`AreaSpec`].
pub struct AreaRing {
    spec: AreaSpec,
    st: Mutex<RingSt>,
}

impl AreaRing {
    /// Creates an empty ring over `spec`.
    pub fn new(spec: AreaSpec) -> Self {
        AreaRing {
            spec,
            st: Mutex::new(RingSt {
                head: 0,
                tail: 0,
                used: 0,
            }),
        }
    }

    /// The underlying area.
    pub fn spec(&self) -> AreaSpec {
        self.spec
    }

    /// Blocks currently holding live journal data.
    pub fn used(&self) -> u64 {
        self.st.lock().used
    }

    /// Free blocks available for appending.
    pub fn free(&self) -> u64 {
        self.spec.len - self.used()
    }

    /// Allocates `n` consecutive-in-ring blocks and returns their ring
    /// positions; position `p` lives at device LBA
    /// [`AreaRing::lba`]`(p)` (a run may wrap around the area boundary).
    ///
    /// Returns `None` when fewer than `n` blocks are free; the caller
    /// must checkpoint first.
    pub fn alloc(&self, n: u64) -> Option<Range<u64>> {
        let mut st = self.st.lock();
        if self.spec.len - st.used < n {
            return None;
        }
        let run = st.tail..st.tail + n;
        st.tail = (st.tail + n) % self.spec.len;
        st.used += n;
        Some(run)
    }

    /// The device LBA of ring position `pos`, one of a run
    /// [`AreaRing::alloc`] returned.
    pub fn lba(&self, pos: u64) -> u64 {
        self.spec.start + pos % self.spec.len
    }

    /// Releases the `n` oldest blocks (checkpoint completed them).
    pub fn release(&self, n: u64) {
        let mut st = self.st.lock();
        assert!(n <= st.used, "releasing more than used");
        st.head = (st.head + n) % self.spec.len;
        st.used -= n;
    }

    /// Releases everything (full checkpoint).
    pub fn release_all(&self) {
        let mut st = self.st.lock();
        st.head = st.tail;
        st.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_region_evenly() {
        let areas = AreaSpec::split(1000, 300, 3);
        assert_eq!(areas.len(), 3);
        assert_eq!(
            areas[0],
            AreaSpec {
                start: 1000,
                len: 100
            }
        );
        assert_eq!(
            areas[2],
            AreaSpec {
                start: 1200,
                len: 100
            }
        );
    }

    #[test]
    fn alloc_until_full_then_none() {
        let r = AreaRing::new(AreaSpec { start: 10, len: 4 });
        let lbas =
            |run: Option<Range<u64>>| run.map(|run| run.map(|p| r.lba(p)).collect::<Vec<_>>());
        assert_eq!(lbas(r.alloc(3)), Some(vec![10, 11, 12]));
        assert_eq!(lbas(r.alloc(2)), None);
        assert_eq!(lbas(r.alloc(1)), Some(vec![13]));
        assert_eq!(r.free(), 0);
    }

    #[test]
    fn release_reclaims_oldest() {
        let r = AreaRing::new(AreaSpec { start: 0, len: 4 });
        r.alloc(4).expect("fits");
        r.release(2);
        let run = r.alloc(2).expect("fits");
        assert_eq!(run.map(|p| r.lba(p)).collect::<Vec<_>>(), vec![0, 1]); // Wrapped.
    }

    #[test]
    fn wrap_around_allocation() {
        let r = AreaRing::new(AreaSpec { start: 100, len: 3 });
        r.alloc(2).expect("fits");
        r.release(2);
        // Tail at 2; allocating 2 wraps to block 0 of the area.
        let run = r.alloc(2).expect("fits");
        assert_eq!(run.map(|p| r.lba(p)).collect::<Vec<_>>(), vec![102, 100]);
    }

    #[test]
    fn release_all_empties() {
        let r = AreaRing::new(AreaSpec { start: 0, len: 8 });
        r.alloc(5).expect("fits");
        r.release_all();
        assert_eq!(r.free(), 8);
    }
}
