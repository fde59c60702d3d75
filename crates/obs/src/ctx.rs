//! The 16-byte trace context that follows a request end-to-end.
//!
//! A [`TraceCtx`] is stamped by the origin of a request (a
//! `FabricClient`, a local workload) and then travels with it: encoded
//! into every fabric capsule, re-established on the target's handler
//! thread, captured into each `Bio` the request spawns, carried in the
//! reserved Dwords of the sealed SQE, and finally copied into every
//! [`crate::TraceEvent`] and persistent blackbox record the request
//! touches — so one `trace_id` connects a remote initiator, its
//! retransmits, the target's restarts, and the `media_write` that made
//! the data durable.
//!
//! Propagation is per simulated thread: the simulator runs all of them
//! on one OS thread, so the context lives in the two ambient words the
//! kernel carries with each ([`ccnvme_sim::ambient`]), not in a `std`
//! thread-local of its own; on an OS-runtime or bare thread those words
//! are simply per OS thread. Crossing a thread boundary (a daemon
//! picking up another thread's work) requires an explicit carry:
//! capture [`current`] on one side, [`scoped`] (or [`set_current`]) on
//! the other.

/// A 16-byte trace context: who originated a request and which causal
/// span of that origin's work it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Globally unique id of the end-to-end trace (0 = untraced).
    pub trace_id: u64,
    /// Parent span within the trace (the initiator's command id).
    pub span: u32,
    /// Origin of the trace (e.g. a fabric client id, truncated).
    pub origin: u32,
}

impl TraceCtx {
    /// The absent context: untraced local work.
    pub const ZERO: TraceCtx = TraceCtx {
        trace_id: 0,
        span: 0,
        origin: 0,
    };

    /// Size of the wire encoding.
    pub const WIRE_BYTES: usize = 16;

    /// Whether this is the absent context.
    pub fn is_zero(&self) -> bool {
        *self == TraceCtx::ZERO
    }

    /// Little-endian wire encoding: trace_id, span, origin.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        b[8..12].copy_from_slice(&self.span.to_le_bytes());
        b[12..16].copy_from_slice(&self.origin.to_le_bytes());
        b
    }

    /// Decodes the wire encoding produced by [`TraceCtx::to_bytes`].
    pub fn from_bytes(b: &[u8; 16]) -> TraceCtx {
        TraceCtx {
            trace_id: u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            span: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
            origin: u32::from_le_bytes(b[12..16].try_into().expect("4 bytes")),
        }
    }
}

impl TraceCtx {
    fn to_words(self) -> [u64; 2] {
        [
            self.trace_id,
            u64::from(self.span) | u64::from(self.origin) << 32,
        ]
    }

    fn from_words([trace_id, rest]: [u64; 2]) -> TraceCtx {
        TraceCtx {
            trace_id,
            span: rest as u32,
            origin: (rest >> 32) as u32,
        }
    }
}

/// The calling thread's current trace context ([`TraceCtx::ZERO`] when
/// none was established).
pub fn current() -> TraceCtx {
    TraceCtx::from_words(ccnvme_sim::ambient())
}

/// Replaces the calling thread's current context, returning the
/// previous one. Prefer [`scoped`] so the previous context is restored
/// automatically.
pub fn set_current(ctx: TraceCtx) -> TraceCtx {
    TraceCtx::from_words(ccnvme_sim::set_ambient(ctx.to_words()))
}

/// Establishes `ctx` as the thread's current context for the lifetime
/// of the returned guard; the previous context is restored on drop.
pub fn scoped(ctx: TraceCtx) -> CtxScope {
    CtxScope {
        prev: set_current(ctx),
    }
}

/// Guard returned by [`scoped`]; restores the previous context on drop.
#[derive(Debug)]
pub struct CtxScope {
    prev: TraceCtx,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        set_current(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let ctx = TraceCtx {
            trace_id: 0xdead_beef_cafe_f00d,
            span: 42,
            origin: 7,
        };
        assert_eq!(TraceCtx::from_bytes(&ctx.to_bytes()), ctx);
        assert_eq!(
            TraceCtx::from_bytes(&TraceCtx::ZERO.to_bytes()),
            TraceCtx::ZERO
        );
        assert!(TraceCtx::ZERO.is_zero());
        assert!(!ctx.is_zero());
    }

    #[test]
    fn scoped_restores_previous_context() {
        assert_eq!(current(), TraceCtx::ZERO);
        let outer = TraceCtx {
            trace_id: 1,
            span: 1,
            origin: 1,
        };
        let _o = scoped(outer);
        assert_eq!(current(), outer);
        {
            let inner = TraceCtx {
                trace_id: 2,
                span: 2,
                origin: 2,
            };
            let _i = scoped(inner);
            assert_eq!(current(), inner);
        }
        assert_eq!(current(), outer);
    }

    #[test]
    #[cfg_attr(miri, ignore = "the simulator's context switch is assembly")]
    fn context_follows_the_simulated_thread_not_the_os_thread() {
        use ccnvme_sim::{delay, Sim};

        let id = |i: u32| TraceCtx {
            trace_id: u64::MAX - u64::from(i),
            span: i,
            origin: u32::MAX - i,
        };
        let _mine = scoped(id(9));
        let mut sim = Sim::new(2);
        for i in 0..2u32 {
            sim.spawn("t", i as usize, move || {
                assert_eq!(current(), TraceCtx::ZERO, "a new thread starts untraced");
                let _s = scoped(id(i));
                // Both are due at the same instants: every `delay` hands
                // the OS thread to the other one and gets it back.
                for _ in 0..100 {
                    delay(1);
                    assert_eq!(current(), id(i));
                }
            });
        }
        assert_eq!(sim.run(), 100);
        assert_eq!(current(), id(9), "the caller's context is back");
    }
}
