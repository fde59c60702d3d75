//! The content of a persistent memory region as shared pages.
//!
//! A [`PmrImage`] is the one form PMR content takes: the live region's
//! arrived bytes, a crash image, the image a device boots from and the
//! running image of a persistence-log replay. It is a table of 4 KB
//! pages, each behind an `Arc`. A fresh image points every entry at one
//! shared zero page; a clone copies the table, not the pages; a write
//! copies a page the first time it touches a shared one. A crash image
//! of a region, and the device booted from it, therefore cost only the
//! pages written since.

use std::{
    ops::Range,
    sync::{Arc, OnceLock},
};

/// Bytes per page of a [`PmrImage`].
pub const PAGE_SIZE: usize = 4096;

type Page = [u8; PAGE_SIZE];

/// The one zero page every unwritten page of every image points at.
fn zero_page() -> Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new([0; PAGE_SIZE])))
}

/// Calls `f(page, range in the page, range of the caller's bytes)` for
/// each page the `len` bytes at `off` of an image of `size` bytes touch.
///
/// # Panics
///
/// Panics when the bytes do not lie inside the image.
fn walk(size: usize, off: u64, len: usize, mut f: impl FnMut(usize, Range<usize>, Range<usize>)) {
    let off = off as usize;
    assert!(
        off + len <= size,
        "PMR image access out of bounds: {off}+{len} > {size}"
    );
    let mut done = 0;
    while done < len {
        let (page, at) = ((off + done) / PAGE_SIZE, (off + done) % PAGE_SIZE);
        let n = (PAGE_SIZE - at).min(len - done);
        f(page, at..at + n, done..done + n);
        done += n;
    }
}

/// PMR content: `size` bytes in shared copy-on-write pages.
#[derive(Clone)]
pub struct PmrImage {
    size: usize,
    pages: Vec<Arc<Page>>,
}

impl PmrImage {
    /// An image of `size` zero bytes: every page is the shared zero page.
    pub fn zeroed(size: usize) -> PmrImage {
        let pages = vec![zero_page(); size.div_ceil(PAGE_SIZE)];
        PmrImage { size, pages }
    }

    /// The image size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Writes `data` at `off`, copying each page it touches that is
    /// shared with another image (the zero page included) once.
    ///
    /// # Panics
    ///
    /// Panics when the write does not lie inside the image.
    pub fn write(&mut self, off: u64, data: &[u8]) {
        walk(self.size, off, data.len(), |page, at, src| {
            Arc::make_mut(&mut self.pages[page])[at].copy_from_slice(&data[src]);
        });
    }

    /// Copies the `buf.len()` bytes at `off` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics when the bytes do not lie inside the image.
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        walk(self.size, off, buf.len(), |page, at, dst| {
            buf[dst].copy_from_slice(&self.pages[page][at]);
        });
    }

    /// The `len` bytes at `off`, copied out.
    ///
    /// # Panics
    ///
    /// Panics when the bytes do not lie inside the image.
    pub fn read_vec(&self, off: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read(off, &mut out);
        out
    }

    /// What a power cut leaves of a PMR whose arrived bytes are `self`:
    /// those, plus the first `torn` of the writes still `posted`, taken
    /// in issue order. PCIe delivers the posted writes to one region in
    /// FIFO order (§2.2), so every set of them that can survive is such a
    /// prefix. Pages no surviving write touches stay shared with `self`.
    pub fn with_torn_prefix<'a>(
        &self,
        posted: impl IntoIterator<Item = (u64, &'a [u8])>,
        torn: usize,
    ) -> PmrImage {
        let mut image = self.clone();
        for (off, data) in posted.into_iter().take(torn) {
            image.write(off, data);
        }
        image
    }

    /// How many pages `self` and `other` hold in the same allocation.
    pub fn shared_pages(&self, other: &PmrImage) -> usize {
        let same = |(a, b): &(&Arc<Page>, &Arc<Page>)| Arc::ptr_eq(a, b);
        self.pages.iter().zip(&other.pages).filter(same).count()
    }
}

/// An image of exactly `bytes`, such as a saved dump.
impl From<Vec<u8>> for PmrImage {
    fn from(bytes: Vec<u8>) -> PmrImage {
        let mut image = PmrImage::zeroed(bytes.len());
        image.write(0, &bytes);
        image
    }
}

/// Equal bytes; a page shared by both compares without being read.
impl PartialEq for PmrImage {
    fn eq(&self, other: &PmrImage) -> bool {
        let same = |(a, b): (&Arc<Page>, &Arc<Page>)| Arc::ptr_eq(a, b) || a == b;
        self.size == other.size && self.pages.iter().zip(&other.pages).all(same)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_across_a_page_boundary_lands_on_both_pages() {
        let mut image = PmrImage::zeroed(3 * PAGE_SIZE);
        let data: Vec<u8> = (1..=16).collect();
        let off = (2 * PAGE_SIZE - 6) as u64;
        image.write(off, &data);
        assert_eq!(image.read_vec(off, 16), data);
        assert_eq!(image.read_vec(off - 1, 1), [0]);
        assert_eq!(image.read_vec(off + 16, 1), [0]);
        let zero = PmrImage::zeroed(3 * PAGE_SIZE);
        assert_eq!(
            image.shared_pages(&zero),
            1,
            "pages 0 and 1 copied, page 2 not"
        );
    }

    #[test]
    fn a_clone_shares_every_page_a_later_write_did_not_touch() {
        let mut image = PmrImage::zeroed(8 * PAGE_SIZE);
        for p in 0..8 {
            image.write((p * PAGE_SIZE) as u64, &[p as u8 + 1]);
        }
        let mut copy = image.clone();
        copy.write((5 * PAGE_SIZE + 100) as u64, &[9; 8]);
        for p in 0..8 {
            assert_eq!(
                Arc::ptr_eq(&image.pages[p], &copy.pages[p]),
                p != 5,
                "page {p}"
            );
        }
        // The copy owns its page now: a second write copies nothing.
        let owned = Arc::as_ptr(&copy.pages[5]);
        copy.write((5 * PAGE_SIZE) as u64, &[7]);
        assert_eq!(Arc::as_ptr(&copy.pages[5]), owned);
        assert_eq!(image.read_vec((5 * PAGE_SIZE) as u64, 1), [6]);
        assert!(image != copy);
    }

    #[test]
    fn a_fresh_image_allocates_only_the_zero_page() {
        let image = PmrImage::zeroed(2 << 20);
        let zero = zero_page();
        assert!(image.pages.iter().all(|p| Arc::ptr_eq(p, &zero)));
        assert_eq!(image.shared_pages(&PmrImage::zeroed(2 << 20)), 512);
    }

    #[test]
    fn an_image_holds_a_short_last_page() {
        let mut image = PmrImage::from(vec![5, 6, 7, 8]);
        assert_eq!(image.size(), 4);
        image.write(3, &[9]);
        assert_eq!(image.read_vec(0, 4), [5, 6, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_write_past_the_end_panics() {
        PmrImage::zeroed(100).write(98, &[0; 4]);
    }
}

#[cfg(test)]
mod prop_tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// For every cut, the crash image equals the committed writes
        /// plus exactly the first `cut` posted ones replayed on flat
        /// bytes — the PCIe FIFO prefix property — and shares every page
        /// no surviving posted write touched.
        #[test]
        fn crash_image_is_always_a_fifo_prefix(
            writes in proptest::collection::vec((0u64..4 * PAGE_SIZE as u64 - 64, 1usize..64, any::<u8>()), 1..24),
            arrived in 0usize..24,
            cut in 0usize..24,
        ) {
            let size = 4 * PAGE_SIZE;
            let arrived = arrived.min(writes.len());
            let bytes: Vec<Vec<u8>> = writes.iter().map(|&(_, len, b)| vec![b; len]).collect();
            let mut committed = PmrImage::zeroed(size);
            for ((off, _, _), data) in writes.iter().zip(&bytes).take(arrived) {
                committed.write(*off, data);
            }
            let posted = writes.iter().zip(&bytes).skip(arrived).map(|((off, _, _), d)| (*off, &d[..]));
            let image = committed.with_torn_prefix(posted, cut);
            let mut model = vec![0u8; size];
            let mut touched = vec![false; size / PAGE_SIZE];
            for (i, ((off, len, _), data)) in writes.iter().zip(&bytes).enumerate().take(arrived + cut) {
                let off = *off as usize;
                model[off..off + len].copy_from_slice(data);
                if i >= arrived {
                    touched[off / PAGE_SIZE] = true;
                    touched[(off + len - 1) / PAGE_SIZE] = true;
                }
            }
            prop_assert_eq!(image.read_vec(0, size), model);
            for (p, t) in touched.iter().enumerate() {
                prop_assert!(Arc::ptr_eq(&image.pages[p], &committed.pages[p]) != *t, "page {}", p);
            }
        }
    }
}
