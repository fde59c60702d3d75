//! Memory-mapped I/O regions with write-combining, persistence and
//! crash semantics.
//!
//! A [`MmioRegion`] models a BAR-mapped window of device memory. Two kinds
//! exist:
//!
//! * [`RegionKind::Pmr`] — the NVMe Persistent Memory Region: bytes that
//!   have *arrived* at the device survive power loss (the device backs
//!   them up with capacitor energy, §2 and §4.4 of the paper).
//! * [`RegionKind::Registers`] — doorbell registers: writes notify the
//!   controller but the content is volatile.
//!
//! Host writes are *posted*: the CPU issues write-combining stores and
//! continues; the data drains over the link and arrives later. PCIe
//! guarantees FIFO delivery of posted writes, so the device-visible (and
//! crash-surviving) state is always the committed bytes plus a prefix of
//! the in-flight writes. The persistent-MMIO protocol of §4.3 —
//! `clflush` + `mfence` + zero-byte read — is modeled by [`MmioRegion::flush`]:
//! the non-posted read cannot pass the posted writes, so its completion
//! proves they reached the PMR.

use std::{
    collections::VecDeque,
    sync::{Arc, OnceLock},
};

use ccnvme_runtime::Ns;
use parking_lot::Mutex;

use crate::{cost, link::PcieLink};

/// Callback invoked (on the writing thread) when a host write is issued to
/// the region; used by the device model to notice doorbell rings. The
/// third argument is the virtual time at which the posted write *arrives*
/// at the device — because PCIe delivers posted writes in FIFO order,
/// every earlier write to the same region has arrived by then, so a
/// device acting at that instant sees a consistent queue.
pub type WriteHook = Box<dyn Fn(u64, &[u8], Ns) + Send + Sync>;

/// Callback invoked (on the issuing thread) when a non-posted read of
/// the region completes — the moment every previously posted write has
/// provably arrived. Both [`MmioRegion::flush`] and [`MmioRegion::read`]
/// are such drain points (§4.3: the zero-byte read cannot pass the
/// posted writes). The argument is the completion instant. Used by the
/// persist-order sanitizer to record flush coverage.
pub type FlushHook = Box<dyn Fn(Ns) + Send + Sync>;

/// The persistence class of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Persistent memory region: arrived bytes survive power loss.
    Pmr,
    /// Volatile doorbell/control registers.
    Registers,
}

/// A posted write on its way; its bytes are in [`MmioState::bytes`].
struct PendingWrite {
    off: u64,
    len: usize,
    arrive_at: Ns,
}

struct MmioState {
    committed: Vec<u8>,
    /// Posted writes not applied yet, in issue order, which PCIe makes
    /// their arrival order.
    in_flight: VecDeque<PendingWrite>,
    /// Their bytes, back to back in the same order.
    bytes: VecDeque<u8>,
}

impl MmioState {
    /// Applies every in-flight write that arrived by `now`.
    fn commit_arrived(&mut self, now: Ns) {
        while let Some(w) = self.in_flight.front() {
            if w.arrive_at > now {
                break;
            }
            let (off, len) = (w.off as usize, w.len);
            self.in_flight.pop_front();
            copy_out(&self.bytes, 0, &mut self.committed[off..off + len]);
            self.bytes.drain(..len);
        }
    }
}

/// Copies `dst.len()` bytes of `fifo`, starting `start` bytes in.
fn copy_out(fifo: &VecDeque<u8>, start: usize, dst: &mut [u8]) {
    let (front, back) = fifo.as_slices();
    let (end, split) = (start + dst.len(), front.len());
    let in_front = start.min(split)..end.min(split);
    let n = in_front.len();
    dst[..n].copy_from_slice(&front[in_front]);
    dst[n..].copy_from_slice(&back[start.max(split) - split..end.max(split) - split]);
}

/// A BAR-mapped region of device memory reachable over a [`PcieLink`].
pub struct MmioRegion {
    name: String,
    kind: RegionKind,
    /// Bytes in the region, fixed at construction.
    size: u64,
    link: Arc<PcieLink>,
    st: Mutex<MmioState>,
    hook: OnceLock<WriteHook>,
    flush_hook: OnceLock<FlushHook>,
    flush_hist: Arc<ccnvme_obs::Histogram>,
}

impl MmioRegion {
    /// Creates a zero-filled region of `size` bytes.
    pub fn new(name: &str, kind: RegionKind, size: u64, link: Arc<PcieLink>) -> Self {
        let flush_hist = link.obs.metrics.histogram("pcie.mmio_flush_ns");
        MmioRegion {
            name: name.to_string(),
            kind,
            size,
            link,
            st: Mutex::new(MmioState {
                committed: vec![0; size as usize],
                in_flight: VecDeque::new(),
                bytes: VecDeque::new(),
            }),
            hook: OnceLock::new(),
            flush_hook: OnceLock::new(),
            flush_hist,
        }
    }

    /// Returns the region's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the region size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Installs the device-side notification hook (doorbell callback).
    ///
    /// # Panics
    ///
    /// Panics if the region already has one.
    pub fn set_write_hook(&self, hook: WriteHook) {
        if self.hook.set(hook).is_err() {
            panic!("region {} already has a write hook", self.name);
        }
    }

    /// Installs the posted-write drain hook, fired when a non-posted
    /// read (a [`flush`](Self::flush) or [`read`](Self::read)) completes.
    ///
    /// # Panics
    ///
    /// Panics if the region already has one.
    pub fn set_flush_hook(&self, hook: FlushHook) {
        if self.flush_hook.set(hook).is_err() {
            panic!("region {} already has a flush hook", self.name);
        }
    }

    /// Issues a posted MMIO write of `data` at `off` from the current
    /// simulated thread.
    ///
    /// Costs CPU time for the write-combining stores; the data itself
    /// drains over the link asynchronously. The CPU stalls only when the
    /// posted-write backlog exceeds the WC/root-complex buffering
    /// ([`cost::POSTED_BACKLOG_BYTES`]).
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the region bounds.
    pub fn write(&self, off: u64, data: &[u8]) {
        assert!(
            off + data.len() as u64 <= self.size(),
            "MMIO write out of bounds: {}+{} > {} in region {}",
            off,
            data.len(),
            self.size(),
            self.name
        );
        let len = data.len() as u64;
        match self.kind {
            RegionKind::Pmr => {
                self.link.traffic.mmio_stores.inc();
                self.link.traffic.mmio_store_bytes.add(len);
                if len <= 8 {
                    // Doorbell/head pointer update (not a WC entry burst).
                    self.link.traffic.mmio_pointer_stores.inc();
                }
            }
            RegionKind::Registers => {
                self.link.traffic.mmio_doorbells.inc();
            }
        }
        ccnvme_runtime::cpu(cost::MMIO_OP_BASE + cost::wc_lines(len) * cost::STORE_PER_LINE);
        // The link and the device-side PMR write engine are pipelined
        // stages: the arrival time is gated by whichever stage drains
        // later, and sustained bandwidth is the minimum of the two.
        let link_done = self.link.downstream.acquire(len.max(4) + cost::TLP_HEADER);
        let arrive_at = match self.kind {
            RegionKind::Pmr => link_done.max(self.link.pmr_write_engine.acquire(len.max(4))),
            RegionKind::Registers => link_done,
        };
        {
            let mut st = self.st.lock();
            st.in_flight.push_back(PendingWrite {
                off,
                len: data.len(),
                arrive_at,
            });
            st.bytes.extend(data);
        }
        // Backpressure: the CPU can keep roughly POSTED_BACKLOG_BYTES of
        // posted data outstanding before stalling on the WC buffer.
        let backlog_window = cost::transfer_ns(
            cost::POSTED_BACKLOG_BYTES,
            self.link.pmr_write_engine.bytes_per_sec(),
        );
        let now = ccnvme_runtime::now();
        if arrive_at > now + backlog_window {
            ccnvme_runtime::delay(arrive_at - now - backlog_window);
        }
        if let Some(h) = self.hook.get() {
            h(off, data, arrive_at);
        }
    }

    /// Runs the persistent-MMIO flush protocol: `clflush` + `mfence`
    /// followed by a zero-byte read, returning once every previously
    /// issued posted write has provably reached the device.
    pub fn flush(&self) {
        self.link.traffic.mmio_flushes.inc();
        let t0 = ccnvme_runtime::now();
        ccnvme_runtime::cpu(cost::CLFLUSH_COST);
        // The zero-byte read may not pass the posted writes, so it pushes
        // them to the device and its completion proves their arrival.
        self.read_internal(0, 0);
        // The flush wait varies with the posted-write backlog — the cost
        // the paper's §4.3 pays once per transaction. Export it.
        self.flush_hist.record(ccnvme_runtime::now() - t0);
    }

    /// Issues a non-posted MMIO read of `len` bytes at `off`, blocking the
    /// calling thread for the full round trip. Ordering: the read flushes
    /// all previously posted writes to the device first.
    pub fn read(&self, off: u64, len: u64) -> Vec<u8> {
        assert!(
            off + len <= self.size(),
            "MMIO read out of bounds in region {}",
            self.name
        );
        self.read_internal(off, len)
    }

    fn read_internal(&self, off: u64, len: u64) -> Vec<u8> {
        self.link.traffic.mmio_reads.inc();
        // Wait for every in-flight posted write to arrive, in order.
        let last_arrival = {
            let st = self.st.lock();
            st.in_flight.back().map(|w| w.arrive_at)
        };
        if let Some(t) = last_arrival {
            let now = ccnvme_runtime::now();
            if t > now {
                ccnvme_runtime::delay(t - now);
            }
        }
        // The read returns every write that arrived by now, and any later
        // one somebody else applies meanwhile: applied below, under the
        // lock the read takes anyway.
        let drained_at = ccnvme_runtime::now();
        // Pay the round trip plus data time for the read itself.
        let mut wait = self.link.rtt;
        if len > 0 {
            let end = self.link.pmr_read_engine.acquire(len);
            let now = ccnvme_runtime::now();
            wait += end.saturating_sub(now);
        }
        ccnvme_runtime::delay(wait);
        // Every write posted before this read has now arrived — report
        // the drain point to the sanitizer (or any other observer).
        if let Some(h) = self.flush_hook.get() {
            h(ccnvme_runtime::now());
        }
        let mut st = self.st.lock();
        st.commit_arrived(drained_at);
        st.committed[off as usize..(off + len) as usize].to_vec()
    }

    /// Device-side read: returns the bytes that have *arrived* by now.
    /// Free of PCIe cost (the controller reads its own memory).
    pub fn device_read(&self, off: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0; len as usize];
        self.device_read_into(off, &mut out);
        out
    }

    /// [`MmioRegion::device_read`] into `buf`: the `buf.len()` bytes at
    /// `off`.
    pub fn device_read_into(&self, off: u64, buf: &mut [u8]) {
        let mut st = self.st.lock();
        st.commit_arrived(ccnvme_runtime::now());
        let range = off as usize..off as usize + buf.len();
        assert!(
            range.end <= st.committed.len(),
            "device read out of bounds in region {}",
            self.name
        );
        buf.copy_from_slice(&st.committed[range]);
    }

    /// Returns the number of writes still in flight (not yet arrived).
    pub fn in_flight_count(&self) -> usize {
        let mut st = self.st.lock();
        st.commit_arrived(ccnvme_runtime::now());
        st.in_flight.len()
    }

    /// Produces the crash image of the region: the committed bytes plus
    /// the first `surviving_in_flight` still-pending writes. PCIe posted
    /// ordering guarantees the surviving set is a prefix.
    ///
    /// For a [`RegionKind::Registers`] region the image is what the
    /// controller had observed, which is lost on power-down anyway; crash
    /// tooling normally only snapshots PMR regions.
    pub fn crash_image(&self, surviving_in_flight: usize) -> Vec<u8> {
        let mut st = self.st.lock();
        st.commit_arrived(ccnvme_runtime::now());
        let mut image = st.committed.clone();
        let mut start = 0;
        for w in st.in_flight.iter().take(surviving_in_flight) {
            let off = w.off as usize;
            copy_out(&st.bytes, start, &mut image[off..off + w.len]);
            start += w.len;
        }
        image
    }

    /// Replaces the region content (power-restore path) and clears any
    /// in-flight writes.
    ///
    /// # Panics
    ///
    /// Panics if `image` has a different size than the region.
    pub fn restore(&self, image: &[u8]) {
        let mut st = self.st.lock();
        assert_eq!(image.len(), st.committed.len(), "restore size mismatch");
        st.committed.copy_from_slice(image);
        st.in_flight.clear();
        st.bytes.clear();
    }
}

/// The flight recorder posts its sealed records through the same
/// write-combining path as every other PMR store. The sink trait is
/// write-only by construction: the recorder cannot flush, read, or ring
/// doorbells through it, so attaching a blackbox can never add an
/// ordering edge to the protocol.
impl ccnvme_obs::BlackboxSink for MmioRegion {
    fn post(&self, off: u64, data: &[u8]) {
        self.write(off, data);
    }
}

#[cfg(test)]
mod tests {
    use ccnvme_sim::{delay, now, Sim};

    use super::*;

    fn region(kind: RegionKind) -> (Arc<PcieLink>, MmioRegion) {
        let link = Arc::new(PcieLink::new(3_300_000_000));
        let r = MmioRegion::new("test", kind, 1 << 21, Arc::clone(&link));
        (link, r)
    }

    #[test]
    fn posted_write_is_fast_flush_is_slow() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            let t0 = now();
            r.write(0, &[7u8; 64]);
            let t_write = now() - t0;
            let t1 = now();
            r.flush();
            let t_flush = now() - t1;
            // The paper's Figure 5: persistent write ≈ 2.5× a plain write
            // at 64 B. Check the flush adds at least the RTT.
            assert!(t_flush >= cost::PCIE_RTT, "flush={t_flush}");
            assert!(t_flush > t_write, "flush={t_flush} write={t_write}");
        });
        sim.run();
    }

    #[test]
    fn read_sees_posted_writes() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            r.write(128, &[1, 2, 3, 4]);
            // The read must not pass the posted write.
            assert_eq!(r.read(128, 4), vec![1, 2, 3, 4]);
        });
        sim.run();
    }

    #[test]
    fn copy_out_reads_across_the_fifo_wrap() {
        let mut fifo: VecDeque<u8> = VecDeque::with_capacity(8);
        fifo.extend(0..6u8);
        fifo.drain(..4);
        fifo.extend(6..12u8);
        assert!(!fifo.as_slices().1.is_empty(), "the bytes wrapped");
        let mut all = [0u8; 8];
        copy_out(&fifo, 0, &mut all);
        assert_eq!(all, [4, 5, 6, 7, 8, 9, 10, 11]);
        for (start, want) in [(1, [5, 6, 7]), (5, [9, 10, 11]), (0, [4, 5, 6])] {
            let mut part = [0u8; 3];
            copy_out(&fifo, start, &mut part);
            assert_eq!(part, want);
        }
    }

    #[test]
    fn device_read_sees_only_arrived_data() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            r.write(0, &[9u8; 16]);
            // Immediately after issue the write may still be in flight.
            let early = r.device_read(0, 16);
            delay(1_000_000); // 1 ms: plenty for arrival.
            let late = r.device_read(0, 16);
            assert_eq!(late, vec![9u8; 16]);
            // Early state is either all-zero (not arrived) or the data.
            assert!(early == vec![0u8; 16] || early == vec![9u8; 16]);
        });
        sim.run();
    }

    #[test]
    fn crash_prefix_semantics() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            // Issue a burst that cannot all arrive instantly.
            for i in 0..8u8 {
                r.write(i as u64 * 64, &[i + 1; 64]);
            }
            let pending = r.in_flight_count();
            if pending >= 2 {
                // Surviving 1 of the pending writes: earlier writes must
                // be present, later ones absent.
                let img = r.crash_image(1);
                let total = 8 - pending;
                // Every committed write is in the image.
                for i in 0..total {
                    assert_eq!(img[i * 64], i as u8 + 1);
                }
                // The last write is not.
                assert_eq!(img[7 * 64], 0);
            }
        });
        sim.run();
    }

    #[test]
    fn flush_makes_all_writes_crash_safe() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            for i in 0..8u8 {
                r.write(i as u64 * 64, &[i + 1; 64]);
            }
            r.flush();
            assert_eq!(r.in_flight_count(), 0);
            let img = r.crash_image(0);
            for i in 0..8usize {
                assert_eq!(img[i * 64], i as u8 + 1);
            }
        });
        sim.run();
    }

    #[test]
    fn doorbell_write_counts_and_hooks() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (link, r) = region(RegionKind::Registers);
            let hits = Arc::new(ccnvme_obs::Counter::new());
            let h2 = Arc::clone(&hits);
            r.set_write_hook(Box::new(move |off, data, arrive_at| {
                assert_eq!(off, 4);
                assert_eq!(data.len(), 4);
                assert!(arrive_at >= now());
                h2.inc();
            }));
            r.write(4, &42u32.to_le_bytes());
            assert_eq!(hits.get(), 1);
            assert_eq!(link.traffic.mmio_doorbells.get(), 1);
            assert_eq!(link.traffic.mmio_stores.get(), 0);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "already has a write hook")]
    fn a_second_write_hook_panics() {
        let (_link, r) = region(RegionKind::Registers);
        r.set_write_hook(Box::new(|_, _, _| {}));
        r.set_write_hook(Box::new(|_, _, _| {}));
    }

    #[test]
    fn restore_replaces_content() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            r.write(0, &[1u8; 8]);
            r.flush();
            let img = vec![5u8; 1 << 21];
            r.restore(&img);
            assert_eq!(r.device_read(0, 8), vec![5u8; 8]);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            r.write((1 << 21) - 2, &[0u8; 4]);
        });
        sim.run();
    }

    #[test]
    fn persistent_vs_plain_ratio_matches_figure5_shape() {
        // At 64 B the persistent write is several times slower; at 64 KB
        // they converge (link drain dominates both).
        fn measure(size: u64, persistent: bool) -> u64 {
            let mut sim = Sim::new(1);
            let out = Arc::new(ccnvme_obs::Counter::new());
            let out2 = Arc::clone(&out);
            sim.spawn("t", 0, move || {
                let (_link, r) = region(RegionKind::Pmr);
                let data = vec![0xabu8; size as usize];
                let iters = 32;
                let t0 = now();
                for i in 0..iters {
                    let off = (i * size) % (1 << 20);
                    r.write(off, &data);
                    if persistent {
                        r.flush();
                    }
                }
                out2.add((now() - t0) / iters);
            });
            sim.run();
            out.get()
        }
        let w64 = measure(64, false);
        let p64 = measure(64, true);
        let w64k = measure(65536, false);
        let p64k = measure(65536, true);
        let small_ratio = p64 as f64 / w64 as f64;
        let large_ratio = p64k as f64 / w64k as f64;
        assert!(small_ratio > 2.0, "small ratio {small_ratio}");
        assert!(large_ratio < 1.3, "large ratio {large_ratio}");
    }
}

#[cfg(test)]
mod prop_tests {
    use std::sync::Arc;

    use ccnvme_sim::Sim;
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// For every cut point k, the crash image equals replaying the
        /// committed writes plus exactly the first k in-flight ones —
        /// the PCIe FIFO prefix property.
        #[test]
        fn crash_image_is_always_a_fifo_prefix(
            writes in proptest::collection::vec((0u64..32, any::<u8>()), 1..24),
            cut in 0usize..24,
        ) {
            let writes2 = writes.clone();
            let mut sim = Sim::new(1);
            sim.spawn("t", 0, move || {
                let link = Arc::new(PcieLink::new(3_300_000_000));
                let r = MmioRegion::new("p", RegionKind::Pmr, 4096, link);
                for (slot, byte) in &writes2 {
                    r.write(slot * 64, &[*byte; 64]);
                }
                let pending = r.in_flight_count();
                let arrived = writes2.len() - pending;
                let k = cut.min(pending);
                let image = r.crash_image(k);
                // Reference: replay the first arrived + k writes.
                let mut model = vec![0u8; 4096];
                for (slot, byte) in writes2.iter().take(arrived + k) {
                    let off = (*slot * 64) as usize;
                    model[off..off + 64].copy_from_slice(&[*byte; 64]);
                }
                assert_eq!(image, model);
            });
            sim.run();
        }
    }
}
