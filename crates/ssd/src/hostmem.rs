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

/// A shared host data buffer (never locked across simulation yields).
pub type DataBuf = Arc<Mutex<Vec<u8>>>;

/// Registry mapping data tokens to host buffers.
#[derive(Default)]
pub struct HostMemory {
    bufs: Mutex<IntMap<u64, DataBuf>>,
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
    pub fn register(&self, buf: DataBuf) -> u64 {
        // ord: Relaxed — token uniqueness is all that matters; the
        // map mutex below orders the insertion itself.
        let token = self.next.fetch_add(1, Ordering::Relaxed);
        self.bufs.lock().insert(token, buf);
        token
    }

    /// Looks up a token.
    pub fn get(&self, token: u64) -> Option<DataBuf> {
        self.bufs.lock().get(&token).cloned()
    }

    /// Removes a registration (after command completion).
    pub fn unregister(&self, token: u64) -> Option<DataBuf> {
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
        let t = hm.register(Arc::clone(&buf));
        assert!(t != 0);
        assert_eq!(*hm.get(t).expect("registered").lock(), vec![1, 2, 3]);
        hm.unregister(t);
        assert!(hm.get(t).is_none());
        assert!(hm.is_empty());
    }

    #[test]
    fn tokens_are_unique() {
        let hm = HostMemory::new();
        let a = hm.register(Arc::new(Mutex::new(vec![])));
        let b = hm.register(Arc::new(Mutex::new(vec![])));
        assert_ne!(a, b);
    }
}
