//! Bandwidth gates: serialized shared resources in virtual time.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use ccnvme_obs::Counter;
use ccnvme_runtime::Ns;
use parking_lot::Mutex;

use crate::cost::transfer_ns;

/// A bandwidth-limited, in-order resource (a PCIe link direction, a PMR
/// write engine, a flash channel, ...).
///
/// `acquire` reserves time on the resource and returns the virtual time at
/// which the transfer completes. The caller decides whether to wait for
/// that instant (non-posted semantics) or continue (posted semantics).
pub struct BandwidthGate {
    bytes_per_sec: u64,
    /// The instant the last reservation ends.
    busy_until: AtomicU64,
    /// Observability: total bytes reserved through this gate, if wired
    /// into a metrics registry (see [`BandwidthGate::metered`]).
    bytes_reserved: Option<Arc<Counter>>,
}

impl BandwidthGate {
    /// Creates a gate with the given bandwidth in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        BandwidthGate {
            bytes_per_sec,
            busy_until: AtomicU64::new(0),
            bytes_reserved: None,
        }
    }

    /// Creates a gate whose reserved bytes feed `counter` — the
    /// per-direction utilization metric the registry exports.
    pub fn metered(bytes_per_sec: u64, counter: Arc<Counter>) -> Self {
        let mut g = BandwidthGate::new(bytes_per_sec);
        g.bytes_reserved = Some(counter);
        g
    }

    fn account(&self, bytes: u64) {
        if let Some(c) = &self.bytes_reserved {
            c.add(bytes);
        }
    }

    /// Reserves link time for `bytes` starting no earlier than now;
    /// returns the completion instant.
    pub fn acquire(&self, bytes: u64) -> Ns {
        self.acquire_after(0, bytes)
    }

    /// Reserves link time beginning no earlier than `not_before` (used to
    /// chain a transfer after another resource frees it).
    pub fn acquire_after(&self, not_before: Ns, bytes: u64) -> Ns {
        self.account(bytes);
        let dur = transfer_ns(bytes, self.bytes_per_sec);
        let earliest = ccnvme_runtime::now().max(not_before);
        let end = |busy: Ns| earliest.max(busy) + dur;
        let busy = self
            .busy_until
            // ord: Relaxed — the word is the gate's whole state and
            // publishes no other data; one read-modify-write per
            // reservation keeps reservations disjoint in its
            // modification order.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| Some(end(busy)))
            .expect("the update always yields a value");
        end(busy)
    }

    /// Returns the instant until which the gate is currently reserved.
    pub fn busy_until(&self) -> Ns {
        // ord: Relaxed — a snapshot of the one word; nothing else is
        // read under it.
        self.busy_until.load(Ordering::Relaxed)
    }

    /// Returns the configured bandwidth in bytes/second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }
}

/// A bank of parallel service channels (flash dies / Optane banks).
///
/// Each command occupies the least-busy channel for `occupancy` and
/// completes `latency` after its start. Sustained throughput is
/// `channels / occupancy`; a small burst completes in ~one latency
/// because it spreads across channels — the internal parallelism the
/// paper's Figure 14 analysis relies on ("MQFS queues more I/Os to the
/// storage, taking full advantage of the internal data parallelism").
pub struct ChannelBank {
    channels: Mutex<Vec<Ns>>,
}

impl ChannelBank {
    /// Creates a bank of `n` channels.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one channel");
        ChannelBank {
            channels: Mutex::new(vec![0; n]),
        }
    }

    /// Books one command; returns its completion instant.
    pub fn book(&self, occupancy: Ns, latency: Ns) -> Ns {
        self.book_after(0, occupancy, latency)
    }

    /// Books one command that cannot start before `not_before` (e.g. its
    /// data DMA has not finished); returns its completion instant.
    pub fn book_after(&self, not_before: Ns, occupancy: Ns, latency: Ns) -> Ns {
        let now = ccnvme_runtime::now().max(not_before);
        let mut ch = self.channels.lock();
        let (idx, _) = ch
            .iter()
            .enumerate()
            .min_by_key(|(_, busy)| **busy)
            .expect("bank is non-empty");
        let start = now.max(ch[idx]);
        ch[idx] = start + occupancy;
        start + latency
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.lock().len()
    }

    /// Returns whether the bank has no channels (never true).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ccnvme_sim::{delay, now, Sim};

    use super::*;

    #[test]
    fn sequential_reservations_stack() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let g = BandwidthGate::new(1_000_000_000); // 1 GB/s = 1 ns/B
            let t1 = g.acquire(1_000);
            let t2 = g.acquire(1_000);
            assert_eq!(t1, 1_000);
            assert_eq!(t2, 2_000);
        });
        sim.run();
    }

    #[test]
    fn idle_gate_starts_at_now() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let g = BandwidthGate::new(1_000_000_000);
            delay(5_000);
            assert_eq!(g.acquire(100), now() + 100);
        });
        sim.run();
    }

    #[test]
    fn acquire_after_chains() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let g = BandwidthGate::new(1_000_000_000);
            assert_eq!(g.acquire_after(10_000, 500), 10_500);
        });
        sim.run();
    }

    /// Real threads racing on one gate: every reservation is its own
    /// interval of the link, none overlapping another.
    #[test]
    fn reservations_stay_disjoint_on_real_threads() {
        const THREADS: usize = 4;
        const EACH: usize = 1_000;
        let spans = ccnvme_runtime::run_on(ccnvme_runtime::RuntimeKind::Os, THREADS, || {
            let g = Arc::new(BandwidthGate::new(1_000_000_000));
            let dur = transfer_ns(4096, g.bytes_per_sec());
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let g = Arc::clone(&g);
                    ccnvme_runtime::spawn("gate", t, move || {
                        (0..EACH).map(|_| g.acquire(4096)).collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut spans: Vec<(Ns, Ns)> = workers
                .into_iter()
                .flat_map(|w| w.join())
                .map(|end| (end - dur, end))
                .collect();
            spans.sort_unstable();
            spans
        });
        assert_eq!(spans.len(), THREADS * EACH);
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "reservations {:?} and {:?} overlap",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn channel_bank_overlaps_bursts() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let bank = ChannelBank::new(4);
            // A burst of 4 commands with 10 us occupancy each completes
            // in ~one latency, not four.
            let ends: Vec<_> = (0..4).map(|_| bank.book(10_000, 10_000)).collect();
            assert!(ends.iter().all(|e| *e == 10_000), "{ends:?}");
            // The fifth queues behind a channel.
            assert_eq!(bank.book(10_000, 10_000), 20_000);
        });
        sim.run();
    }

    #[test]
    fn channel_bank_sustained_rate_is_channels_over_occupancy() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let bank = ChannelBank::new(2);
            let mut last = 0;
            for _ in 0..100 {
                last = bank.book(1_000, 1_000);
            }
            // 100 ops over 2 channels at 1 us each: 50 us.
            assert_eq!(last, 50_000);
        });
        sim.run();
    }

    #[test]
    fn contention_across_threads_serializes() {
        let mut sim = Sim::new(2);
        let g = Arc::new(BandwidthGate::new(1_000_000_000));
        let g1 = Arc::clone(&g);
        sim.spawn("a", 0, move || {
            let end = g1.acquire(1_000);
            delay(end - now());
        });
        let g2 = Arc::clone(&g);
        sim.spawn("b", 1, move || {
            let end = g2.acquire(1_000);
            delay(end - now());
            // Whichever thread went second finished at 2000.
        });
        let end = sim.run();
        assert_eq!(end, 2_000);
    }
}
