//! Memory-mapped I/O regions with write-combining, persistence and
//! crash semantics.
//!
//! A [`MmioRegion`] models a BAR-mapped window of device memory. Two kinds
//! exist:
//!
//! * [`RegionKind::Pmr`] — the NVMe Persistent Memory Region: bytes that
//!   have *arrived* at the device survive power loss (the device backs
//!   them up with capacitor energy, §2 and §4.4 of the paper).
//! * [`RegionKind::Registers`] — doorbell registers: a store costs its
//!   link time and notifies the controller, and the region keeps no
//!   bytes: nothing reads a doorbell back.
//!
//! Host writes are *posted*: the CPU issues write-combining stores and
//! continues; the data drains over the link and arrives later. PCIe
//! guarantees FIFO delivery of posted writes, so the device-visible (and
//! crash-surviving) state is always the committed bytes plus a prefix of
//! the in-flight writes. The persistent-MMIO protocol of §4.3 —
//! `clflush` + `mfence` + zero-byte read — is modeled by [`MmioRegion::flush`]:
//! the non-posted read cannot pass the posted writes, so its completion
//! proves they reached the PMR.
//!
//! The arrived bytes are a [`PmrImage`]: a region is built from one (a
//! fresh device from a zeroed image, a rebooted one from its crash
//! image) and its crash image is one, sharing every page no later write
//! touched.

use std::{
    collections::VecDeque,
    sync::{Arc, OnceLock},
};

use ccnvme_runtime::Ns;
use parking_lot::Mutex;

use crate::{cost, image::PmrImage, link::PcieLink};

/// What a region tells its hook, on the thread that touched it.
#[derive(Debug, Clone, Copy)]
pub enum MmioEvent<'a> {
    /// A posted write, described once, as it is posted: before the
    /// CPU's backpressure stall and in the step that queues it. PCIe
    /// delivers posted writes to one region FIFO, so every earlier
    /// write to the region has arrived by `arrive_at`, and a device
    /// acting at that instant sees a consistent queue.
    Posted {
        /// Byte offset within the region.
        off: u64,
        /// The written bytes.
        data: &'a [u8],
        /// Virtual time the CPU posted the write.
        issued_at: Ns,
        /// Virtual time the write arrives at the device.
        arrive_at: Ns,
    },
    /// A non-posted read (a [`MmioRegion::flush`] or
    /// [`MmioRegion::read`]) completed at `at`: every previously posted
    /// write has provably arrived (§4.3: the zero-byte read cannot pass
    /// the posted writes).
    Drained {
        /// The read's completion instant.
        at: Ns,
    },
}

/// A region's one hook ([`MmioRegion::set_hook`]).
type Hook = Box<dyn Fn(MmioEvent<'_>) + Send + Sync>;

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
    committed: PmrImage,
    /// Posted writes not applied yet, in issue order, which PCIe makes
    /// their arrival order.
    in_flight: VecDeque<PendingWrite>,
    /// Their bytes, back to back in the same order.
    bytes: VecDeque<u8>,
}

impl MmioState {
    /// Applies every in-flight write that arrived by `now`.
    fn commit_arrived(&mut self, now: Ns) {
        let bytes = self.bytes.make_contiguous();
        let mut used = 0;
        while let Some(w) = self.in_flight.front().filter(|w| w.arrive_at <= now) {
            self.committed.write(w.off, &bytes[used..used + w.len]);
            used += w.len;
            self.in_flight.pop_front();
        }
        self.bytes.drain(..used);
    }
}

/// A BAR-mapped region of device memory reachable over a [`PcieLink`].
pub struct MmioRegion {
    name: String,
    kind: RegionKind,
    /// Bytes in the region, fixed at construction.
    size: u64,
    link: Arc<PcieLink>,
    st: Mutex<MmioState>,
    hook: OnceLock<Hook>,
    flush_hist: Arc<ccnvme_obs::Histogram>,
}

impl MmioRegion {
    /// Creates a zero-filled region of `size` bytes.
    pub fn new(name: &str, kind: RegionKind, size: u64, link: Arc<PcieLink>) -> Self {
        Self::from_image(name, kind, PmrImage::zeroed(size as usize), link)
    }

    /// Creates a region holding `image` (the power-up path), sized to
    /// it. The region shares the image's pages until it writes them.
    pub fn from_image(name: &str, kind: RegionKind, image: PmrImage, link: Arc<PcieLink>) -> Self {
        MmioRegion {
            name: name.to_string(),
            kind,
            size: image.size() as u64,
            flush_hist: link.obs.metrics.histogram("pcie.mmio_flush_ns"),
            link,
            st: Mutex::new(MmioState {
                committed: image,
                in_flight: VecDeque::new(),
                bytes: VecDeque::new(),
            }),
            hook: OnceLock::new(),
        }
    }

    /// Returns the region size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Installs the region's one hook: the device model's view of every
    /// posted write and every drain point.
    ///
    /// # Panics
    ///
    /// Panics if the region already has one.
    pub fn set_hook(&self, hook: Hook) {
        if self.hook.set(hook).is_err() {
            panic!("region {} already has a hook", self.name);
        }
    }

    fn notify(&self, event: MmioEvent<'_>) {
        if let Some(h) = self.hook.get() {
            h(event);
        }
    }

    /// Issues a posted MMIO write of `data` at `off` from the current
    /// simulated thread.
    ///
    /// Costs CPU time for the write-combining stores; the data itself
    /// drains over the link asynchronously. The write is queued (in a
    /// PMR) and handed to the hook as [`MmioEvent::Posted`] in one step;
    /// only then does the CPU stall, and only when the posted-write
    /// backlog exceeds the WC/root-complex buffering
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
        ccnvme_runtime::cpu(cost::MMIO_OP_BASE + cost::wc_lines(len) * cost::STORE_PER_LINE);
        // The link and the device-side PMR write engine are pipelined
        // stages: the arrival time is gated by whichever stage drains
        // later, and sustained bandwidth is the minimum of the two.
        let link_done = self.link.downstream.acquire(len.max(4) + cost::TLP_HEADER);
        let issued_at = ccnvme_runtime::now();
        let arrive_at = match self.kind {
            RegionKind::Pmr => {
                self.link.traffic.mmio_stores.inc();
                self.link.traffic.mmio_store_bytes.add(len);
                if len <= 8 {
                    // Doorbell/head pointer update (not a WC entry burst).
                    self.link.traffic.mmio_pointer_stores.inc();
                }
                let arrive_at = link_done.max(self.link.pmr_write_engine.acquire(len.max(4)));
                let mut st = self.st.lock();
                st.in_flight.push_back(PendingWrite {
                    off,
                    len: data.len(),
                    arrive_at,
                });
                st.bytes.extend(data);
                arrive_at
            }
            // A doorbell BAR keeps no bytes: nothing reads one back.
            RegionKind::Registers => {
                self.link.traffic.mmio_doorbells.inc();
                link_done
            }
        };
        self.notify(MmioEvent::Posted {
            off,
            data,
            issued_at,
            arrive_at,
        });
        // Backpressure: the CPU can keep roughly POSTED_BACKLOG_BYTES of
        // posted data outstanding before stalling on the WC buffer.
        let engine_bps = self.link.pmr_write_engine.bytes_per_sec();
        let backlog_window = cost::transfer_ns(cost::POSTED_BACKLOG_BYTES, engine_bps);
        if arrive_at > issued_at + backlog_window {
            ccnvme_runtime::delay(arrive_at - issued_at - backlog_window);
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
        self.read(0, 0);
        // The flush wait varies with the posted-write backlog — the cost
        // the paper's §4.3 pays once per transaction. Export it.
        self.flush_hist.record(ccnvme_runtime::now() - t0);
    }

    /// Issues a non-posted MMIO read of `len` bytes at `off`, blocking the
    /// calling thread for the full round trip. Ordering: the read flushes
    /// all previously posted writes to the device first.
    ///
    /// # Panics
    ///
    /// Panics if the read exceeds the region bounds.
    pub fn read(&self, off: u64, len: u64) -> Vec<u8> {
        self.link.traffic.mmio_reads.inc();
        // Wait for every in-flight posted write to arrive, in order.
        let last_arrival = self.st.lock().in_flight.back().map_or(0, |w| w.arrive_at);
        let now = ccnvme_runtime::now();
        if last_arrival > now {
            ccnvme_runtime::delay(last_arrival - now);
        }
        // The read returns every write that arrived by now, and any later
        // one somebody else applies meanwhile: applied below, under the
        // lock the read takes anyway.
        let drained_at = ccnvme_runtime::now();
        // Pay the round trip plus data time for the read itself.
        let mut wait = self.link.rtt;
        if len > 0 {
            let end = self.link.pmr_read_engine.acquire(len);
            wait += end.saturating_sub(drained_at);
        }
        ccnvme_runtime::delay(wait);
        // Every write posted before this read has now arrived — report
        // the drain point to the sanitizer (or any other observer).
        self.notify(MmioEvent::Drained {
            at: ccnvme_runtime::now(),
        });
        let mut st = self.st.lock();
        st.commit_arrived(drained_at);
        st.committed.read_vec(off, len as usize)
    }

    /// Device-side read into `buf` of the `buf.len()` bytes at `off`
    /// that have *arrived* by now. Free of PCIe cost (the controller
    /// reads its own memory).
    pub fn device_read_into(&self, off: u64, buf: &mut [u8]) {
        let mut st = self.st.lock();
        st.commit_arrived(ccnvme_runtime::now());
        st.committed.read(off, buf);
    }

    /// Returns the number of writes still in flight (not yet arrived).
    pub fn in_flight_count(&self) -> usize {
        let mut st = self.st.lock();
        st.commit_arrived(ccnvme_runtime::now());
        st.in_flight.len()
    }

    /// Produces the crash image of the region: the arrived bytes plus
    /// the first `surviving_in_flight` still-pending writes
    /// ([`PmrImage::with_torn_prefix`]). It shares every page those
    /// writes do not touch with the region.
    ///
    /// A [`RegionKind::Registers`] region keeps no bytes, so its image
    /// is the one it was built from.
    pub fn crash_image(&self, surviving_in_flight: usize) -> PmrImage {
        let mut st = self.st.lock();
        st.commit_arrived(ccnvme_runtime::now());
        let st = &mut *st;
        let bytes: &[u8] = st.bytes.make_contiguous();
        let mut start = 0;
        let posted = st.in_flight.iter().map(move |w| {
            start += w.len;
            (w.off, &bytes[start - w.len..start])
        });
        st.committed.with_torn_prefix(posted, surviving_in_flight)
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
    fn arrived_writes_apply_across_the_fifo_wrap() {
        let mut st = MmioState {
            committed: PmrImage::zeroed(16),
            in_flight: VecDeque::new(),
            bytes: VecDeque::with_capacity(8),
        };
        fn post(st: &mut MmioState, off: u64, data: &[u8], arrive_at: Ns) {
            st.in_flight.push_back(PendingWrite {
                off,
                len: data.len(),
                arrive_at,
            });
            st.bytes.extend(data);
        }
        post(&mut st, 0, &[1, 2, 3, 4], 1);
        post(&mut st, 6, &[5, 6], 2);
        st.commit_arrived(1);
        post(&mut st, 8, &[7, 8, 9, 10, 11, 12], 2);
        assert!(!st.bytes.as_slices().1.is_empty(), "the bytes wrapped");
        st.commit_arrived(2);
        assert_eq!(
            st.committed.read_vec(0, 16),
            [1, 2, 3, 4, 0, 0, 5, 6, 7, 8, 9, 10, 11, 12, 0, 0]
        );
        assert!(st.bytes.is_empty());
    }

    #[test]
    fn device_read_sees_only_arrived_data() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            r.write(0, &[9u8; 16]);
            // Immediately after issue the write may still be in flight.
            let early = r.crash_image(0).read_vec(0, 16);
            delay(1_000_000); // 1 ms: plenty for arrival.
            let late = r.crash_image(0).read_vec(0, 16);
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
                    assert_eq!(img.read_vec(i as u64 * 64, 1), [i as u8 + 1]);
                }
                // The last write is not.
                assert_eq!(img.read_vec(7 * 64, 1), [0]);
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
            for i in 0..8u8 {
                assert_eq!(img.read_vec(i as u64 * 64, 1), [i + 1]);
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
            r.set_hook(Box::new(move |e| {
                let MmioEvent::Posted {
                    off,
                    data,
                    issued_at,
                    arrive_at,
                } = e
                else {
                    panic!("a store drains nothing: {e:?}");
                };
                assert_eq!((off, data.len()), (4, 4));
                assert!(issued_at == now() && arrive_at > issued_at);
                h2.inc();
            }));
            r.write(4, &42u32.to_le_bytes());
            assert_eq!(hits.get(), 1);
            assert_eq!(link.traffic.mmio_doorbells.get(), 1);
            assert_eq!(link.traffic.mmio_stores.get(), 0);
        });
        sim.run();
    }

    /// Nothing reads a doorbell BAR back, so it queues nothing: a store
    /// costs its link time, rings the hook and is gone.
    #[test]
    fn a_registers_region_holds_no_store() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Registers);
            for i in 0..10_000u32 {
                r.write(4, &i.to_le_bytes());
                delay(1_000);
            }
            let st = r.st.lock();
            assert_eq!((st.in_flight.len(), st.bytes.len()), (0, 0));
        });
        sim.run();
    }

    /// A posted PMR write reaches the hook before the backpressure stall,
    /// while the region already holds it in flight, stamped with the
    /// instant it was posted.
    #[test]
    fn the_hook_sees_a_write_when_it_is_posted() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_link, r) = region(RegionKind::Pmr);
            let r = Arc::new(r);
            let weak = Arc::downgrade(&r);
            let posted = Arc::new(Mutex::new(Vec::new()));
            let p2 = Arc::clone(&posted);
            r.set_hook(Box::new(move |e| {
                if let MmioEvent::Posted { issued_at, .. } = e {
                    let queued = weak.upgrade().map(|r| r.st.lock().in_flight.len());
                    p2.lock().push((issued_at, now(), queued));
                }
            }));
            let mut stalled = false;
            for i in 0..8u64 {
                let t0 = now();
                r.write(i * 2048, &[1; 2048]);
                let (issued_at, hooked_at, queued) = posted.lock()[i as usize];
                assert_eq!(issued_at, hooked_at);
                assert!(queued >= Some(1), "{queued:?}");
                stalled |= now() - t0 > issued_at - t0;
            }
            assert!(stalled, "the backlog never stalled the CPU");
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "already has a hook")]
    fn a_second_hook_panics() {
        let (_link, r) = region(RegionKind::Registers);
        r.set_hook(Box::new(|_| {}));
        r.set_hook(Box::new(|_| {}));
    }

    #[test]
    fn a_region_built_from_an_image_holds_it_until_written() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let link = Arc::new(PcieLink::new(3_300_000_000));
            let mut image = PmrImage::zeroed(1 << 21);
            image.write(0, &[5u8; 8]);
            let r = MmioRegion::from_image("p", RegionKind::Pmr, image.clone(), link);
            assert_eq!(r.size(), 1 << 21);
            assert_eq!(r.crash_image(0).read_vec(0, 8), vec![5u8; 8]);
            assert_eq!(r.crash_image(0).shared_pages(&image), 512, "nothing copied");
            r.write(4096, &[1u8; 8]);
            r.flush();
            assert_eq!(r.crash_image(0).shared_pages(&image), 511);
            assert_eq!(
                image.read_vec(4096, 8),
                vec![0u8; 8],
                "the image stays as it was"
            );
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
