//! The MPSC channel, written once over [`RtMutex`] + [`RtCondvar`].
//!
//! One buffer, a sender count and a receiver-alive flag under one
//! mutex; the receiver parks on `recv_cv`, senders of a full bounded
//! channel on `send_cv`. The backend is the one the mutex and condvars
//! bound at construction, so on the sim a send to a parked receiver is
//! one `Kernel::schedule` (the condvar's wake) and a send to a running
//! one is none: no critical section here contains a scheduling point,
//! so the mutex is always free when a simulated thread reaches it.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use ccnvme_sim::Ns;

use crate::{RtCondvar, RtMutex, RtMutexGuard};

/// Error returned by [`Receiver::recv`] once the channel is empty and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

struct ChanState<T> {
    buf: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receiver_alive: bool,
}

impl<T> ChanState<T> {
    fn full(&self) -> bool {
        self.cap.is_some_and(|c| self.buf.len() >= c)
    }
}

struct Chan<T> {
    st: RtMutex<ChanState<T>>,
    /// Signalled when the buffer gains a message or the last sender
    /// leaves.
    recv_cv: RtCondvar,
    /// Signalled when the buffer loses a message or the receiver
    /// leaves.
    send_cv: RtCondvar,
}

/// Sending half of a runtime channel; cloneable.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Receiving half of a runtime channel.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Creates a multi-producer single-consumer channel bound to the
/// ambient backend. `cap = None` is unbounded; `Some(n)` makes senders
/// block once `n` messages are queued.
pub fn mpsc_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        st: RtMutex::new(ChanState {
            buf: VecDeque::new(),
            cap,
            senders: 1,
            receiver_alive: true,
        }),
        recv_cv: RtCondvar::new(),
        send_cv: RtCondvar::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while a bounded channel is full.
    /// Returns `Err(value)` if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.chan.st.lock();
        while st.receiver_alive && st.full() {
            st = self.chan.send_cv.wait(st);
        }
        self.push(st, value)
    }

    /// Sends without blocking; returns the value back if the channel
    /// is full or disconnected.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        let st = self.chan.st.lock();
        if st.full() {
            return Err(value);
        }
        self.push(st, value)
    }

    fn push(&self, mut st: RtMutexGuard<'_, ChanState<T>>, value: T) -> Result<(), T> {
        if !st.receiver_alive {
            return Err(value);
        }
        st.buf.push_back(value);
        drop(st);
        self.chan.recv_cv.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.st.lock().senders += 1;
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.chan.st.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.chan.recv_cv.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next message, blocking while the channel is empty.
    /// Returns [`RecvError`] once empty and disconnected.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.chan.st.lock();
        while st.buf.is_empty() && st.senders > 0 {
            st = self.chan.recv_cv.wait(st);
        }
        self.pop(st).ok_or(RecvError)
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.pop(self.chan.st.lock())
    }

    /// Receives with a timeout in the backend's time; `None` on
    /// timeout or disconnect-while-empty.
    pub fn recv_timeout(&self, timeout: Ns) -> Option<T> {
        let deadline = crate::now() + timeout;
        let mut st = self.chan.st.lock();
        while st.buf.is_empty() && st.senders > 0 {
            let now = crate::now();
            if now >= deadline {
                break;
            }
            st = self.chan.recv_cv.wait_timeout(st, deadline - now).0;
        }
        self.pop(st)
    }

    fn pop(&self, mut st: RtMutexGuard<'_, ChanState<T>>) -> Option<T> {
        let value = st.buf.pop_front()?;
        drop(st);
        self.chan.send_cv.notify_one();
        Some(value)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.st.lock().receiver_alive = false;
        self.chan.send_cv.notify_all();
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::{run_on, RuntimeKind};

    /// Exact on the sim, a lower bound on the wall clock.
    fn assert_elapsed(kind: RuntimeKind, t0: Ns, want: Ns) {
        let got = crate::now() - t0;
        match kind {
            RuntimeKind::Sim => assert_eq!(got, want),
            RuntimeKind::Os => assert!(got >= want, "{got} < {want}"),
        }
    }

    fn round_trip(kind: RuntimeKind) {
        run_on(kind, 2, || {
            let (tx, rx) = mpsc_channel::<u32>(None);
            let h = crate::spawn("producer", 1, move || {
                for i in 0..100 {
                    crate::cpu(5);
                    tx.send(i).unwrap();
                }
            });
            for i in 0..100 {
                assert_eq!(rx.recv().unwrap(), i);
            }
            h.join();
            assert_eq!(rx.recv(), Err(RecvError)); // Sender dropped.
        });
    }

    #[test]
    fn sim_channel_round_trip() {
        round_trip(RuntimeKind::Sim);
    }

    #[test]
    fn os_channel_round_trip() {
        round_trip(RuntimeKind::Os);
    }

    fn bounded_backpressure(kind: RuntimeKind) {
        run_on(kind, 2, move || {
            let (tx, rx) = mpsc_channel::<u32>(Some(1));
            let t0 = crate::now();
            tx.send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(2)); // Full.
            let h = crate::spawn("consumer", 1, move || {
                crate::delay(1_000_000);
                assert_eq!(rx.recv().unwrap(), 1);
                assert_eq!(rx.recv().unwrap(), 2);
                assert_eq!(rx.try_recv(), None);
            });
            tx.send(2).unwrap(); // Blocks until the consumer drains one.
            assert_elapsed(kind, t0, 1_000_000);
            h.join();
        });
    }

    #[test]
    fn sim_channel_bounded_backpressure() {
        bounded_backpressure(RuntimeKind::Sim);
    }

    #[test]
    fn os_channel_bounded_backpressure() {
        bounded_backpressure(RuntimeKind::Os);
    }

    fn recv_timeout(kind: RuntimeKind) {
        run_on(kind, 1, move || {
            let (tx, rx) = mpsc_channel::<u32>(None);
            let t0 = crate::now();
            assert_eq!(rx.recv_timeout(3_000_000), None);
            assert_elapsed(kind, t0, 3_000_000);
            tx.send(9).unwrap();
            assert_eq!(rx.recv_timeout(3_000_000), Some(9));
            drop(tx);
            assert_eq!(rx.recv_timeout(3_000_000), None); // Disconnected: at once.
            if kind == RuntimeKind::Sim {
                assert_elapsed(kind, t0, 3_000_000);
            }
        });
    }

    #[test]
    fn sim_channel_recv_timeout() {
        recv_timeout(RuntimeKind::Sim);
    }

    #[test]
    fn os_channel_recv_timeout() {
        recv_timeout(RuntimeKind::Os);
    }

    fn send_to_dropped_receiver(kind: RuntimeKind) {
        run_on(kind, 1, || {
            let (tx, rx) = mpsc_channel::<u32>(None);
            drop(rx);
            assert_eq!(tx.send(1), Err(1));
            assert_eq!(tx.try_send(2), Err(2));
        });
    }

    #[test]
    fn sim_channel_send_to_dropped_receiver_errors() {
        send_to_dropped_receiver(RuntimeKind::Sim);
    }

    #[test]
    fn os_channel_send_to_dropped_receiver_errors() {
        send_to_dropped_receiver(RuntimeKind::Os);
    }

    #[test]
    fn sim_channel_still_virtual_time() {
        run_on(RuntimeKind::Sim, 2, || {
            let (tx, rx) = mpsc_channel::<u32>(None);
            crate::spawn("producer", 1, move || {
                crate::delay(500);
                tx.send(5).unwrap();
            });
            let t0 = crate::now();
            assert_eq!(rx.recv().unwrap(), 5);
            assert_eq!(crate::now() - t0, 500);
        });
    }

    #[test]
    fn spawn_inside_holds_channel_graph() {
        run_on(RuntimeKind::Sim, 3, || {
            let (tx, rx) = mpsc_channel::<u64>(None);
            for i in 0..2u64 {
                let tx = tx.clone();
                crate::spawn(&format!("w{i}"), (i + 1) as usize, move || {
                    crate::cpu(10 * (i + 1));
                    tx.send(i).unwrap();
                });
            }
            drop(tx);
            let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
            got.sort_unstable();
            assert_eq!(got, vec![0, 1]);
        });
    }

    /// The claim every virtual-time oracle rests on: the generic channel
    /// asks the kernel for exactly the dispatches the hand-written sim
    /// channel did — one per send that finds the receiver parked, none
    /// for a send that finds it running.
    #[test]
    fn sim_send_costs_one_dispatch_to_a_parked_receiver_and_none_to_a_running_one() {
        const N: u64 = 16;
        let dispatches = |receiver_parks: bool| {
            let mut sim = ccnvme_sim::Sim::new(2);
            let (tx, rx) = mpsc_channel::<u64>(None);
            sim.spawn("receiver", 0, move || {
                if !receiver_parks {
                    crate::delay(1_000); // One dispatch; every message is queued by then.
                }
                for i in 0..N {
                    assert_eq!(rx.recv(), Ok(i));
                }
            });
            sim.spawn("sender", 1, move || {
                for i in 0..N {
                    if receiver_parks {
                        crate::delay(10); // One dispatch; the receiver is parked again by then.
                    }
                    tx.send(i).unwrap();
                }
            });
            sim.run();
            sim.events_processed()
        };
        // Two first dispatches, then the delays, then the wake-ups.
        assert_eq!(dispatches(true), 2 + N + N);
        assert_eq!(dispatches(false), 2 + 1);
    }

    /// A sim-backed channel outlives its simulation: the daemon that
    /// served it was unwound parked in `recv`, and the halves are dropped
    /// by a thread no simulation runs on.
    #[test]
    fn sim_backed_channel_drops_on_a_bare_thread() {
        let (tx, rx, back) = run_on(RuntimeKind::Sim, 1, || {
            let (tx, rx) = mpsc_channel::<u32>(Some(1));
            let (back_tx, back_rx) = mpsc_channel::<u32>(None);
            crate::spawn_daemon("server", 0, move || while back_rx.recv().is_ok() {});
            tx.send(1).unwrap();
            crate::delay(10); // The server is parked in `recv`.
            (tx, rx, back_tx)
        });
        drop(back); // The last sender: notifies the server's stale entry.
        drop(tx);
        assert_eq!(rx.try_recv(), Some(1));
        drop(rx);
    }
}

// The loom tier: every interleaving of the one channel over the `Os`
// arm of `RtMutex` / `RtCondvar`.
// Run with: cargo test -p ccnvme-runtime --features loom --lib loom_
#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use super::*;

    #[test]
    fn loom_send_recv_delivers_in_order() {
        loom::model(|| {
            let (tx, rx) = mpsc_channel::<u32>(None);
            let t = loom::thread::spawn(move || {
                tx.send(1).unwrap();
                tx.send(2).unwrap();
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap();
            assert_eq!(rx.recv(), Err(RecvError));
        });
    }

    #[test]
    fn loom_bounded_send_blocks_until_drained() {
        loom::model(|| {
            let (tx, rx) = mpsc_channel::<u32>(Some(1));
            let t = loom::thread::spawn(move || {
                tx.send(1).unwrap();
                tx.send(2).unwrap(); // Must wait for the recv below.
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap();
        });
    }

    #[test]
    fn loom_receiver_drop_unblocks_sender() {
        loom::model(|| {
            let (tx, rx) = mpsc_channel::<u32>(Some(1));
            let t = loom::thread::spawn(move || {
                let _ = tx.send(1);
                // Either the receiver is already gone (Err) or this
                // second send observes the drop while waiting for
                // space (Err) — it must never hang.
                assert_eq!(tx.send(2), Err(2));
            });
            drop(rx);
            t.join().unwrap();
        });
    }

    #[test]
    fn loom_two_senders_one_receiver() {
        loom::model(|| {
            let (a, rx) = mpsc_channel::<u32>(None);
            let b = a.clone();
            let ta = loom::thread::spawn(move || a.send(10).unwrap());
            let tb = loom::thread::spawn(move || b.send(20).unwrap());
            let x = rx.recv().unwrap();
            let y = rx.recv().unwrap();
            assert_eq!(x + y, 30);
            assert_eq!(rx.recv(), Err(RecvError));
            ta.join().unwrap();
            tb.join().unwrap();
        });
    }
}
