//! Host-memory registry: the stand-in for PRP/SGL data pointers.
//!
//! Real NVMe commands carry physical addresses of host pages. In the
//! simulation, the driver registers a buffer and places the returned token
//! in the command's PRP field; the device dereferences the token when it
//! performs the data DMA. Buffer contents live in host DRAM and therefore
//! do not survive a simulated power loss.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use ccnvme_obs::hash::IntMap;
use parking_lot::Mutex;

/// A read's destination buffer, which the device fills (never locked
/// across simulation yields).
pub type DataBuf = Arc<Mutex<Vec<u8>>>;

/// A write's source buffer: immutable, so the device reads it without a
/// lock and keeps its blocks as the media content instead of copying.
pub type SrcBuf = Arc<Vec<u8>>;

/// A registered host buffer: where a write's data comes from, or where a
/// read's goes.
#[derive(Clone)]
pub enum HostBuf {
    /// A write's source.
    Src(SrcBuf),
    /// A read's destination.
    Dst(DataBuf),
}

/// Registry mapping data tokens to host buffers.
#[derive(Default)]
pub struct HostMemory {
    bufs: Mutex<IntMap<u64, HostBuf>>,
    next: AtomicU64,
}

impl HostMemory {
    /// Creates an empty registry.
    pub fn new() -> Self {
        HostMemory {
            bufs: Mutex::new(IntMap::default()),
            next: AtomicU64::new(1),
        }
    }

    /// Registers `buf` and returns its token (nonzero).
    pub fn register(&self, buf: HostBuf) -> u64 {
        // ord: Relaxed — token uniqueness is all that matters; the
        // map mutex below orders the insertion itself.
        let token = self.next.fetch_add(1, Ordering::Relaxed);
        self.bufs.lock().insert(token, buf);
        token
    }

    /// Looks up a token.
    pub fn get(&self, token: u64) -> Option<HostBuf> {
        self.bufs.lock().get(&token).cloned()
    }

    /// Removes a registration (after command completion).
    pub fn unregister(&self, token: u64) -> Option<HostBuf> {
        self.bufs.lock().remove(&token)
    }

    /// Number of live registrations (leak detection in tests).
    pub fn len(&self) -> usize {
        self.bufs.lock().len()
    }

    /// Returns whether no registrations are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_get_unregister() {
        let hm = HostMemory::new();
        let buf: DataBuf = Arc::new(Mutex::new(vec![1, 2, 3]));
        let t = hm.register(HostBuf::Dst(Arc::clone(&buf)));
        assert!(t != 0);
        let Some(HostBuf::Dst(got)) = hm.get(t) else {
            panic!("registered as a destination");
        };
        assert!(Arc::ptr_eq(&got, &buf));
        hm.unregister(t);
        assert!(hm.get(t).is_none());
        assert!(hm.is_empty());
    }

    #[test]
    fn tokens_are_unique() {
        let hm = HostMemory::new();
        let a = hm.register(HostBuf::Src(Arc::new(vec![])));
        let b = hm.register(HostBuf::Src(Arc::new(vec![])));
        assert_ne!(a, b);
    }
}
