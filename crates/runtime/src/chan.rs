//! Runtime-dispatched MPSC channel with the `ccnvme_sim` channel's API.

use std::sync::Arc;

use ccnvme_sim::{Ns, RecvError};

use crate::oschan::OsChan;

/// Sending half of a runtime channel; cloneable.
pub struct Sender<T> {
    inner: SendInner<T>,
}

enum SendInner<T> {
    Sim(ccnvme_sim::Sender<T>),
    Os(Arc<OsChan<T>>),
}

/// Receiving half of a runtime channel.
pub struct Receiver<T> {
    inner: RecvInner<T>,
}

enum RecvInner<T> {
    Sim(ccnvme_sim::Receiver<T>),
    Os(Arc<OsChan<T>>),
}

/// Creates a multi-producer single-consumer channel bound to the
/// ambient backend. `cap = None` is unbounded; `Some(n)` makes senders
/// block once `n` messages are queued.
pub fn mpsc_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    if !ccnvme_sim::in_sim() && crate::os::in_os() {
        let chan = Arc::new(OsChan::new(cap));
        (
            Sender {
                inner: SendInner::Os(Arc::clone(&chan)),
            },
            Receiver {
                inner: RecvInner::Os(chan),
            },
        )
    } else {
        let (tx, rx) = ccnvme_sim::mpsc_channel(cap);
        (
            Sender {
                inner: SendInner::Sim(tx),
            },
            Receiver {
                inner: RecvInner::Sim(rx),
            },
        )
    }
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while a bounded channel is full.
    /// Returns `Err(value)` if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        match &self.inner {
            SendInner::Sim(tx) => tx.send(value),
            SendInner::Os(ch) => ch.send(value),
        }
    }

    /// Sends without blocking; returns the value back if the channel
    /// is full or disconnected.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        match &self.inner {
            SendInner::Sim(tx) => tx.try_send(value),
            SendInner::Os(ch) => ch.try_send(value),
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        match &self.inner {
            SendInner::Sim(tx) => Sender {
                inner: SendInner::Sim(tx.clone()),
            },
            SendInner::Os(ch) => {
                ch.sender_cloned();
                Sender {
                    inner: SendInner::Os(Arc::clone(ch)),
                }
            }
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // The sim sender's own Drop handles its bookkeeping.
        if let SendInner::Os(ch) = &self.inner {
            ch.sender_dropped();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next message, blocking while the channel is empty.
    /// Returns [`RecvError`] once empty and disconnected.
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.inner {
            RecvInner::Sim(rx) => rx.recv(),
            RecvInner::Os(ch) => ch.recv(),
        }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<T> {
        match &self.inner {
            RecvInner::Sim(rx) => rx.try_recv(),
            RecvInner::Os(ch) => ch.try_recv(),
        }
    }

    /// Receives with a timeout in the backend's time; `None` on
    /// timeout or disconnect-while-empty.
    pub fn recv_timeout(&self, timeout: Ns) -> Option<T> {
        match &self.inner {
            RecvInner::Sim(rx) => rx.recv_timeout(timeout),
            RecvInner::Os(ch) => ch.recv_timeout(timeout),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // The sim receiver's own Drop handles its bookkeeping.
        if let RecvInner::Os(ch) = &self.inner {
            ch.receiver_dropped();
        }
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::{run_on, RuntimeKind};

    #[test]
    fn os_channel_round_trip() {
        run_on(RuntimeKind::Os, 2, || {
            let (tx, rx) = mpsc_channel::<u32>(None);
            let h = crate::spawn("producer", 1, move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..100 {
                assert_eq!(rx.recv().unwrap(), i);
            }
            h.join();
            assert!(rx.recv().is_err()); // Sender dropped.
        });
    }

    #[test]
    fn os_channel_bounded_backpressure() {
        run_on(RuntimeKind::Os, 2, || {
            let (tx, rx) = mpsc_channel::<u32>(Some(1));
            tx.send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(2)); // Full.
            assert_eq!(rx.recv().unwrap(), 1);
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Some(2));
        });
    }

    #[test]
    fn os_channel_recv_timeout() {
        run_on(RuntimeKind::Os, 1, || {
            let (tx, rx) = mpsc_channel::<u32>(None);
            assert_eq!(rx.recv_timeout(3_000_000), None);
            tx.send(9).unwrap();
            assert_eq!(rx.recv_timeout(3_000_000), Some(9));
        });
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
}
