//! Deterministic fault injection for the simulated NVMe stack.
//!
//! Real NVMe deployments see media errors, dropped DMAs and stalled
//! controllers; the paper's crash-consistency contract (§4) is only
//! meaningful if it survives those too, not just power loss. This crate
//! defines *what* goes wrong and *when*: a [`FaultPlan`] is a list of
//! [`FaultRule`]s, each pairing a [`FaultKind`] with a [`Trigger`]. The
//! SSD controller consults a [`FaultInjector`] (the plan plus running
//! per-rule state) at its decision points — command execution and
//! doorbell arrival — and acts on the first matching rule.
//!
//! Everything is deterministic: probability triggers draw from a
//! [`DetRng`] derived from the plan seed and the rule index, so a
//! `(plan, workload)` pair replays the exact same fault schedule on
//! every run. Injection counts ride [`Counter`]s that the stack's
//! metrics registry exports as `fault.*`, so benches and campaigns can
//! report error-path overhead.

use std::sync::Arc;

use ccnvme_obs::Counter;
use ccnvme_sim::{DetRng, Ns};
use parking_lot::Mutex;

/// What goes wrong when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A read command fails with an unrecoverable media status; the data
    /// buffer is left untouched.
    MediaRead,
    /// A write command fails with a media status; no blocks are applied.
    MediaWrite,
    /// A write's DMA is torn: only a prefix of its blocks reaches the
    /// device before it fails with a media status.
    TornDma,
    /// The controller accepts the command but never posts a completion
    /// (a command stall; the host's timeout path must recover).
    Stall,
    /// A doorbell MMIO write is dropped: the queue never learns about
    /// the new tail until the host rings again.
    DoorbellDrop,
    /// The command completes with a transient busy status; a retry is
    /// expected to succeed.
    Busy,
}

impl FaultKind {
    /// Whether the host is expected to recover transparently (retry or
    /// re-ring) rather than fail the request.
    pub fn is_transient(self) -> bool {
        matches!(self, FaultKind::Busy | FaultKind::DoorbellDrop)
    }

    /// All kinds, for campaign iteration.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::MediaRead,
        FaultKind::MediaWrite,
        FaultKind::TornDma,
        FaultKind::Stall,
        FaultKind::DoorbellDrop,
        FaultKind::Busy,
    ];
}

/// When a rule fires, evaluated against each matching operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fires on the `n`-th matching operation (1-based), once.
    Nth(u64),
    /// Fires on every matching operation touching `[start, end)` LBAs.
    LbaRange {
        /// First affected LBA.
        start: u64,
        /// One past the last affected LBA.
        end: u64,
    },
    /// Fires on each matching operation independently with probability
    /// `p`, drawn from the rule's deterministic stream.
    Probability(f64),
    /// Fires on every matching operation inside a virtual-time window.
    TimeWindow {
        /// Window start (inclusive), ns of virtual time.
        from: Ns,
        /// Window end (exclusive).
        until: Ns,
    },
    /// Fires on every matching operation.
    Always,
}

/// The operation classes a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMask {
    /// Read commands.
    pub reads: bool,
    /// Write commands.
    pub writes: bool,
    /// Flush commands.
    pub flushes: bool,
    /// Doorbell MMIO writes (only meaningful for
    /// [`FaultKind::DoorbellDrop`]).
    pub doorbells: bool,
}

impl OpMask {
    /// Every command class (doorbells included).
    pub const ANY: OpMask = OpMask {
        reads: true,
        writes: true,
        flushes: true,
        doorbells: true,
    };

    /// Write commands only.
    pub const WRITES: OpMask = OpMask {
        reads: false,
        writes: true,
        flushes: false,
        doorbells: false,
    };

    /// Read commands only.
    pub const READS: OpMask = OpMask {
        reads: true,
        writes: false,
        flushes: false,
        doorbells: false,
    };

    /// Doorbell writes only.
    pub const DOORBELLS: OpMask = OpMask {
        reads: false,
        writes: false,
        flushes: false,
        doorbells: true,
    };

    fn matches(&self, op: OpClass) -> bool {
        match op {
            OpClass::Read => self.reads,
            OpClass::Write => self.writes,
            OpClass::Flush => self.flushes,
            OpClass::Doorbell => self.doorbells,
        }
    }
}

/// Class of the operation being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A read command.
    Read,
    /// A write command.
    Write,
    /// A flush command.
    Flush,
    /// A doorbell MMIO write.
    Doorbell,
}

/// One operation presented to the injector.
#[derive(Debug, Clone, Copy)]
pub struct FaultOp {
    /// Operation class.
    pub class: OpClass,
    /// First LBA (0 for flushes and doorbells).
    pub lba: u64,
    /// Block count (0 for flushes and doorbells).
    pub nblocks: u16,
    /// Queue the operation arrived on.
    pub qid: u16,
    /// Current virtual time.
    pub now: Ns,
}

/// One fault rule: a kind, a trigger, the operations it applies to and
/// an optional injection budget.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// What happens.
    pub kind: FaultKind,
    /// When it happens.
    pub trigger: Trigger,
    /// Which operations are eligible.
    pub ops: OpMask,
    /// Stop firing after this many injections (`None` = unlimited).
    pub max_hits: Option<u64>,
}

impl FaultRule {
    /// A rule over every eligible operation class for `kind` (doorbell
    /// faults restrict themselves to doorbells, media faults to their
    /// direction, stalls and busy to reads+writes).
    pub fn new(kind: FaultKind, trigger: Trigger) -> Self {
        let ops = match kind {
            FaultKind::MediaRead => OpMask::READS,
            FaultKind::MediaWrite | FaultKind::TornDma => OpMask::WRITES,
            FaultKind::DoorbellDrop => OpMask::DOORBELLS,
            FaultKind::Stall | FaultKind::Busy => OpMask {
                reads: true,
                writes: true,
                flushes: true,
                doorbells: false,
            },
        };
        FaultRule {
            kind,
            trigger,
            ops,
            max_hits: None,
        }
    }

    /// Caps the number of injections (builder style).
    pub fn max_hits(mut self, n: u64) -> Self {
        self.max_hits = Some(n);
        self
    }

    /// Restricts the eligible operation classes (builder style).
    pub fn ops(mut self, ops: OpMask) -> Self {
        self.ops = ops;
        self
    }
}

/// Direction of a fabric frame, as seen by the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDir {
    /// Initiator → target (request capsules).
    ToTarget,
    /// Target → initiator (response capsules).
    ToClient,
}

/// One fabric frame presented to the injector.
#[derive(Debug, Clone, Copy)]
pub struct NetOp {
    /// Direction of the frame.
    pub dir: NetDir,
    /// Connection (session) identifier the frame rides.
    pub conn: u64,
    /// Shard label of the target this frame is bound to (`None` when the
    /// transport is not shard-aware, e.g. a single standalone target).
    pub shard: Option<u64>,
    /// Current virtual time.
    pub now: Ns,
}

/// What goes wrong on the wire when a transport rule fires. Mirrors the
/// media [`FaultKind`]s: these are the classic unreliable-network
/// failures a fabric transport must mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFaultKind {
    /// The frame is silently lost; the peer's timeout path must recover.
    Drop,
    /// The frame is delivered twice (retransmission race); the receiver
    /// must deduplicate.
    Duplicate,
    /// The frame is held back and delivered after the next frame.
    Reorder,
    /// The connection is severed and stays unreachable until the rule's
    /// heal interval elapses; reconnect attempts fail until then.
    Partition,
    /// An asymmetric partition: frames matching the rule's direction
    /// filter are silently dropped for the heal interval while the
    /// opposite direction keeps delivering (A→B drops, B→A delivers).
    /// Unlike [`NetFaultKind::Partition`] the connection is never
    /// severed — the peer sees a one-way black hole, the classic
    /// split-brain-inducing failure a 2PC coordinator must survive.
    AsymPartition,
}

impl NetFaultKind {
    /// All kinds, for campaign iteration.
    pub const ALL: [NetFaultKind; 5] = [
        NetFaultKind::Drop,
        NetFaultKind::Duplicate,
        NetFaultKind::Reorder,
        NetFaultKind::Partition,
        NetFaultKind::AsymPartition,
    ];
}

/// One transport fault rule: a kind, a trigger, an optional direction
/// filter and an injection budget. [`Trigger::LbaRange`] gates on the
/// *connection id* for net operations (there is no LBA on the wire), so
/// a rule can single out one client of many.
#[derive(Debug, Clone)]
pub struct NetFaultRule {
    /// What happens.
    pub kind: NetFaultKind,
    /// When it happens.
    pub trigger: Trigger,
    /// Direction filter (`None` = both directions).
    pub dir: Option<NetDir>,
    /// Shard filter: only frames bound to this shard label are eligible
    /// (`None` = every shard). A frame whose transport carries no shard
    /// label never matches a shard-scoped rule.
    pub shard: Option<u64>,
    /// For [`NetFaultKind::Partition`] and
    /// [`NetFaultKind::AsymPartition`]: how long the connection stays
    /// unreachable (resp. the direction stays black-holed) after the
    /// cut, in virtual ns.
    pub heal_ns: Ns,
    /// Stop firing after this many injections (`None` = unlimited).
    pub max_hits: Option<u64>,
}

/// Default partition duration: long enough that in-flight acks are lost,
/// short enough that a client's backoff loop heals within a few retries.
pub const DEFAULT_HEAL_NS: Ns = 500_000;

impl NetFaultRule {
    /// A rule firing in both directions with the default heal interval.
    pub fn new(kind: NetFaultKind, trigger: Trigger) -> Self {
        NetFaultRule {
            kind,
            trigger,
            dir: None,
            shard: None,
            heal_ns: DEFAULT_HEAL_NS,
            max_hits: None,
        }
    }

    /// Restricts the rule to one direction (builder style).
    pub fn dir(mut self, dir: NetDir) -> Self {
        self.dir = Some(dir);
        self
    }

    /// Restricts the rule to connections bound to one shard label
    /// (builder style). Frames on unlabelled transports never match.
    pub fn shard(mut self, shard: u64) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Sets the partition heal interval (builder style).
    pub fn heal(mut self, ns: Ns) -> Self {
        self.heal_ns = ns;
        self
    }

    /// Caps the number of injections (builder style).
    pub fn max_hits(mut self, n: u64) -> Self {
        self.max_hits = Some(n);
        self
    }
}

/// Transport injection decision returned to the fabric layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetInjection {
    /// The fault to apply.
    pub kind: NetFaultKind,
    /// For [`NetFaultKind::Partition`]: the heal interval.
    pub heal_ns: Ns,
}

/// A complete, seedable fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of the deterministic probability streams.
    pub seed: u64,
    /// Media/controller rules, evaluated in order; the first firing rule
    /// wins.
    pub rules: Vec<FaultRule>,
    /// Transport rules (consumed by the fabric loopback transport),
    /// evaluated in order; the first firing rule wins.
    pub net_rules: Vec<NetFaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            net_rules: Vec::new(),
        }
    }

    /// Adds a media rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a transport rule (builder style).
    pub fn net_rule(mut self, rule: NetFaultRule) -> Self {
        self.net_rules.push(rule);
        self
    }

    /// Builds the runtime injector for this plan.
    pub fn injector(self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

/// Injection decision returned to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// The fault to apply.
    pub kind: FaultKind,
    /// For [`FaultKind::TornDma`]: how many leading blocks still land
    /// (strictly fewer than the command's block count).
    pub torn_blocks: u16,
}

/// Per-kind injection counters.
///
/// The counters are allocated when the injector is built — before any
/// stack (and hence any metrics registry) exists — so the controller
/// adopts them into its registry at attach time via
/// [`FaultCounters::register_into`], under `fault.*` names, where
/// harnesses read them. An injector attached to no stack (a fabric
/// target's transport rules) is read through these fields.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Injected unrecoverable read errors.
    pub media_read: Arc<Counter>,
    /// Injected unrecoverable write errors.
    pub media_write: Arc<Counter>,
    /// Injected torn DMAs.
    pub torn_dma: Arc<Counter>,
    /// Commands whose completion was withheld.
    pub stalls: Arc<Counter>,
    /// Dropped doorbell writes.
    pub doorbell_drops: Arc<Counter>,
    /// Injected transient busy completions.
    pub busy: Arc<Counter>,
    /// Dropped fabric frames.
    pub net_drops: Arc<Counter>,
    /// Duplicated fabric frames.
    pub net_dups: Arc<Counter>,
    /// Reordered fabric frames.
    pub net_reorders: Arc<Counter>,
    /// Injected connection partitions.
    pub net_partitions: Arc<Counter>,
    /// Injected asymmetric (one-way) partitions.
    pub net_asym_partitions: Arc<Counter>,
}

impl FaultCounters {
    /// Adopts these counters into `reg` under `fault.*` names, so fault
    /// campaigns show up in the unified metrics export.
    pub fn register_into(&self, reg: &ccnvme_obs::Registry) {
        reg.adopt_counter("fault.media_read", Arc::clone(&self.media_read));
        reg.adopt_counter("fault.media_write", Arc::clone(&self.media_write));
        reg.adopt_counter("fault.torn_dma", Arc::clone(&self.torn_dma));
        reg.adopt_counter("fault.stalls", Arc::clone(&self.stalls));
        reg.adopt_counter("fault.doorbell_drops", Arc::clone(&self.doorbell_drops));
        reg.adopt_counter("fault.busy", Arc::clone(&self.busy));
        reg.adopt_counter("fault.net_drops", Arc::clone(&self.net_drops));
        reg.adopt_counter("fault.net_dups", Arc::clone(&self.net_dups));
        reg.adopt_counter("fault.net_reorders", Arc::clone(&self.net_reorders));
        reg.adopt_counter("fault.net_partitions", Arc::clone(&self.net_partitions));
        reg.adopt_counter(
            "fault.net_asym_partitions",
            Arc::clone(&self.net_asym_partitions),
        );
    }

    /// Media and controller injections in `m`, a snapshot of a registry
    /// these counters were adopted into: every `fault.*` counter but the
    /// transport kinds (`fault.net_*`), which are counted apart.
    pub fn media_injections(m: &ccnvme_obs::MetricsSnapshot) -> u64 {
        m.counters
            .iter()
            .filter(|(name, _)| name.starts_with("fault.") && !name.starts_with("fault.net_"))
            .map(|(_, n)| n)
            .sum()
    }

    fn count(&self, kind: FaultKind) {
        match kind {
            FaultKind::MediaRead => self.media_read.inc(),
            FaultKind::MediaWrite => self.media_write.inc(),
            FaultKind::TornDma => self.torn_dma.inc(),
            FaultKind::Stall => self.stalls.inc(),
            FaultKind::DoorbellDrop => self.doorbell_drops.inc(),
            FaultKind::Busy => self.busy.inc(),
        }
    }

    fn count_net(&self, kind: NetFaultKind) {
        match kind {
            NetFaultKind::Drop => self.net_drops.inc(),
            NetFaultKind::Duplicate => self.net_dups.inc(),
            NetFaultKind::Reorder => self.net_reorders.inc(),
            NetFaultKind::Partition => self.net_partitions.inc(),
            NetFaultKind::AsymPartition => self.net_asym_partitions.inc(),
        }
    }
}

struct RuleState {
    /// Matching operations seen so far (drives [`Trigger::Nth`]).
    seen: u64,
    /// Injections fired so far (drives `max_hits`).
    hits: u64,
    /// For [`NetFaultKind::AsymPartition`]: frames matching this rule's
    /// filters are black-holed until this virtual time. Continuation
    /// drops do not consume `max_hits` or advance `seen` — one trigger
    /// is one partition event, however many frames it swallows.
    blackout_until: Ns,
    /// Deterministic stream for [`Trigger::Probability`] and torn sizes.
    rng: DetRng,
}

/// The runtime evaluator of a [`FaultPlan`]: thread-safe, deterministic,
/// shared between the device and the harness via `Arc`.
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<Vec<RuleState>>,
    net_state: Mutex<Vec<RuleState>>,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Builds the injector, deriving one RNG stream per rule. Net rules
    /// draw from streams derived with a disjoint index range so adding a
    /// media rule never perturbs a transport schedule (and vice versa).
    pub fn new(plan: FaultPlan) -> Self {
        let state = plan
            .rules
            .iter()
            .enumerate()
            .map(|(i, _)| RuleState {
                seen: 0,
                hits: 0,
                blackout_until: 0,
                rng: DetRng::derive(plan.seed, i as u64),
            })
            .collect();
        let net_state = plan
            .net_rules
            .iter()
            .enumerate()
            .map(|(i, _)| RuleState {
                seen: 0,
                hits: 0,
                blackout_until: 0,
                rng: DetRng::derive(plan.seed, 1_000 + i as u64),
            })
            .collect();
        FaultInjector {
            plan,
            state: Mutex::new(state),
            net_state: Mutex::new(net_state),
            counters: FaultCounters::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Evaluates `op` against the plan. Returns the first firing rule's
    /// injection, or `None` when the operation proceeds normally.
    pub fn decide(&self, op: &FaultOp) -> Option<Injection> {
        let mut state = self.state.lock();
        for (rule, st) in self.plan.rules.iter().zip(state.iter_mut()) {
            if !rule.ops.matches(op.class) {
                continue;
            }
            if let Some(max) = rule.max_hits {
                if st.hits >= max {
                    continue;
                }
            }
            st.seen += 1;
            let fires = match rule.trigger {
                Trigger::Nth(n) => st.seen == n,
                Trigger::LbaRange { start, end } => {
                    let op_end = op.lba + op.nblocks.max(1) as u64;
                    op.lba < end && op_end > start && op.class != OpClass::Doorbell
                }
                Trigger::Probability(p) => st.rng.chance(p),
                Trigger::TimeWindow { from, until } => op.now >= from && op.now < until,
                Trigger::Always => true,
            };
            if !fires {
                continue;
            }
            st.hits += 1;
            let torn_blocks = if rule.kind == FaultKind::TornDma && op.nblocks > 0 {
                (st.rng.below(op.nblocks as u64)) as u16
            } else {
                0
            };
            self.counters.count(rule.kind);
            return Some(Injection {
                kind: rule.kind,
                torn_blocks,
            });
        }
        None
    }

    /// Evaluates fabric frame `op` against the plan's transport rules.
    /// Returns the first firing rule's injection, or `None` when the
    /// frame is delivered normally.
    pub fn decide_net(&self, op: &NetOp) -> Option<NetInjection> {
        let mut state = self.net_state.lock();
        for (rule, st) in self.plan.net_rules.iter().zip(state.iter_mut()) {
            if rule.dir.is_some_and(|d| d != op.dir) {
                continue;
            }
            if let Some(want) = rule.shard {
                if op.shard != Some(want) {
                    continue;
                }
            }
            // An open asymmetric partition black-holes every frame that
            // passes the rule's filters, without consuming the budget:
            // the partition is one event, not one per swallowed frame.
            if rule.kind == NetFaultKind::AsymPartition && op.now < st.blackout_until {
                return Some(NetInjection {
                    kind: NetFaultKind::AsymPartition,
                    heal_ns: st.blackout_until - op.now,
                });
            }
            if let Some(max) = rule.max_hits {
                if st.hits >= max {
                    continue;
                }
            }
            st.seen += 1;
            let fires = match rule.trigger {
                Trigger::Nth(n) => st.seen == n,
                // On the wire there is no LBA; the range gates on the
                // connection id so one client of many can be targeted.
                Trigger::LbaRange { start, end } => op.conn >= start && op.conn < end,
                Trigger::Probability(p) => st.rng.chance(p),
                Trigger::TimeWindow { from, until } => op.now >= from && op.now < until,
                Trigger::Always => true,
            };
            if !fires {
                continue;
            }
            st.hits += 1;
            if rule.kind == NetFaultKind::AsymPartition {
                st.blackout_until = op.now + rule.heal_ns;
            }
            self.counters.count_net(rule.kind);
            return Some(NetInjection {
                kind: rule.kind,
                heal_ns: rule.heal_ns,
            });
        }
        None
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_op(lba: u64, n: u16) -> FaultOp {
        FaultOp {
            class: OpClass::Write,
            lba,
            nblocks: n,
            qid: 1,
            now: 0,
        }
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let inj = FaultPlan::new(1)
            .rule(FaultRule::new(FaultKind::MediaWrite, Trigger::Nth(3)))
            .injector();
        let hits: Vec<bool> = (0..6)
            .map(|i| inj.decide(&write_op(i, 1)).is_some())
            .collect();
        assert_eq!(hits, vec![false, false, true, false, false, false]);
        assert_eq!(inj.counters().media_write.get(), 1);
    }

    #[test]
    fn lba_range_hits_overlapping_commands_only() {
        let inj = FaultPlan::new(1)
            .rule(FaultRule::new(
                FaultKind::MediaRead,
                Trigger::LbaRange { start: 10, end: 20 },
            ))
            .injector();
        let read = |lba, n| FaultOp {
            class: OpClass::Read,
            lba,
            nblocks: n,
            qid: 1,
            now: 0,
        };
        assert!(inj.decide(&read(9, 1)).is_none());
        assert!(inj.decide(&read(9, 2)).is_some()); // Overlaps block 10.
        assert!(inj.decide(&read(19, 1)).is_some());
        assert!(inj.decide(&read(20, 4)).is_none());
    }

    #[test]
    fn probability_stream_is_deterministic() {
        let run = || {
            let inj = FaultPlan::new(77)
                .rule(FaultRule::new(FaultKind::Busy, Trigger::Probability(0.3)))
                .injector();
            (0..64)
                .map(|i| inj.decide(&write_op(i, 1)).is_some())
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|&b| b), "0.3 over 64 ops should fire");
        assert!(!a.iter().all(|&b| b));
    }

    #[test]
    fn time_window_gates_by_virtual_time() {
        let inj = FaultPlan::new(1)
            .rule(FaultRule::new(
                FaultKind::Stall,
                Trigger::TimeWindow {
                    from: 100,
                    until: 200,
                },
            ))
            .injector();
        let at = |now| FaultOp {
            class: OpClass::Write,
            lba: 0,
            nblocks: 1,
            qid: 1,
            now,
        };
        assert!(inj.decide(&at(99)).is_none());
        assert!(inj.decide(&at(100)).is_some());
        assert!(inj.decide(&at(199)).is_some());
        assert!(inj.decide(&at(200)).is_none());
    }

    #[test]
    fn max_hits_caps_injections() {
        let inj = FaultPlan::new(1)
            .rule(FaultRule::new(FaultKind::Busy, Trigger::Always).max_hits(2))
            .injector();
        let fired = (0..10)
            .filter(|&i| inj.decide(&write_op(i, 1)).is_some())
            .count();
        assert_eq!(fired, 2);
    }

    #[test]
    fn torn_dma_keeps_a_strict_prefix() {
        let inj = FaultPlan::new(5)
            .rule(FaultRule::new(FaultKind::TornDma, Trigger::Always))
            .injector();
        for i in 0..32 {
            let inj_result = inj.decide(&write_op(i, 8)).expect("always fires");
            assert!(inj_result.torn_blocks < 8);
        }
    }

    #[test]
    fn doorbell_rules_only_match_doorbells() {
        let inj = FaultPlan::new(1)
            .rule(FaultRule::new(FaultKind::DoorbellDrop, Trigger::Always))
            .injector();
        assert!(inj.decide(&write_op(0, 1)).is_none());
        let db = FaultOp {
            class: OpClass::Doorbell,
            lba: 0,
            nblocks: 0,
            qid: 1,
            now: 0,
        };
        assert_eq!(
            inj.decide(&db).map(|i| i.kind),
            Some(FaultKind::DoorbellDrop)
        );
        assert_eq!(inj.counters().doorbell_drops.get(), 1);
    }

    #[test]
    fn first_matching_rule_wins() {
        let inj = FaultPlan::new(1)
            .rule(FaultRule::new(FaultKind::Busy, Trigger::Nth(1)))
            .rule(FaultRule::new(FaultKind::MediaWrite, Trigger::Always))
            .injector();
        assert_eq!(
            inj.decide(&write_op(0, 1)).map(|i| i.kind),
            Some(FaultKind::Busy)
        );
        assert_eq!(
            inj.decide(&write_op(1, 1)).map(|i| i.kind),
            Some(FaultKind::MediaWrite)
        );
    }

    /// The injector's counters that moved, by registry name.
    fn fired(inj: &FaultInjector) -> Vec<(String, u64)> {
        let reg = ccnvme_obs::Registry::new();
        inj.counters().register_into(&reg);
        let counters = reg.snapshot().counters;
        counters.into_iter().filter(|(_, n)| *n > 0).collect()
    }

    #[test]
    fn media_injections_leave_out_transport_faults_and_other_layers() {
        let inj = FaultPlan::new(1)
            .rule(FaultRule::new(FaultKind::Busy, Trigger::Always))
            .net_rule(NetFaultRule::new(NetFaultKind::Drop, Trigger::Always))
            .injector();
        for i in 0..3 {
            assert!(inj.decide(&write_op(i, 1)).is_some());
        }
        assert!(inj.decide_net(&net_op(NetDir::ToTarget, 0, 0)).is_some());
        let reg = ccnvme_obs::Registry::new();
        inj.counters().register_into(&reg);
        reg.counter("host_err.retries").add(3);
        assert_eq!(FaultCounters::media_injections(&reg.snapshot()), 3);
    }

    fn net_op(dir: NetDir, conn: u64, now: Ns) -> NetOp {
        NetOp {
            dir,
            conn,
            shard: None,
            now,
        }
    }

    fn shard_op(dir: NetDir, shard: u64, now: Ns) -> NetOp {
        NetOp {
            dir,
            conn: 0,
            shard: Some(shard),
            now,
        }
    }

    #[test]
    fn net_nth_trigger_fires_once_and_counts() {
        let inj = FaultPlan::new(3)
            .net_rule(NetFaultRule::new(NetFaultKind::Drop, Trigger::Nth(2)))
            .injector();
        let hits: Vec<bool> = (0..4)
            .map(|_| inj.decide_net(&net_op(NetDir::ToTarget, 0, 0)).is_some())
            .collect();
        assert_eq!(hits, vec![false, true, false, false]);
        assert_eq!(fired(&inj), [("fault.net_drops".to_string(), 1)]);
    }

    #[test]
    fn net_direction_filter_applies() {
        let inj = FaultPlan::new(3)
            .net_rule(
                NetFaultRule::new(NetFaultKind::Duplicate, Trigger::Always).dir(NetDir::ToClient),
            )
            .injector();
        assert!(inj.decide_net(&net_op(NetDir::ToTarget, 0, 0)).is_none());
        assert_eq!(
            inj.decide_net(&net_op(NetDir::ToClient, 0, 0))
                .map(|i| i.kind),
            Some(NetFaultKind::Duplicate)
        );
    }

    #[test]
    fn net_lba_range_gates_on_connection_id() {
        let inj = FaultPlan::new(3)
            .net_rule(NetFaultRule::new(
                NetFaultKind::Reorder,
                Trigger::LbaRange { start: 2, end: 4 },
            ))
            .injector();
        assert!(inj.decide_net(&net_op(NetDir::ToTarget, 1, 0)).is_none());
        assert!(inj.decide_net(&net_op(NetDir::ToTarget, 2, 0)).is_some());
        assert!(inj.decide_net(&net_op(NetDir::ToTarget, 3, 0)).is_some());
        assert!(inj.decide_net(&net_op(NetDir::ToTarget, 4, 0)).is_none());
    }

    #[test]
    fn net_partition_carries_heal_interval() {
        let inj = FaultPlan::new(3)
            .net_rule(
                NetFaultRule::new(NetFaultKind::Partition, Trigger::Nth(1))
                    .heal(7_000)
                    .max_hits(1),
            )
            .injector();
        let got = inj
            .decide_net(&net_op(NetDir::ToClient, 0, 0))
            .expect("fires");
        assert_eq!(got.kind, NetFaultKind::Partition);
        assert_eq!(got.heal_ns, 7_000);
        assert!(inj.decide_net(&net_op(NetDir::ToClient, 0, 0)).is_none());
        assert_eq!(inj.counters().net_partitions.get(), 1);
    }

    #[test]
    fn shard_scoped_rule_only_hits_its_shard() {
        let inj = FaultPlan::new(4)
            .net_rule(NetFaultRule::new(NetFaultKind::Drop, Trigger::Always).shard(2))
            .injector();
        assert!(inj.decide_net(&shard_op(NetDir::ToTarget, 1, 0)).is_none());
        assert!(inj.decide_net(&shard_op(NetDir::ToTarget, 2, 0)).is_some());
        // Unlabelled transports never match a shard-scoped rule.
        assert!(inj.decide_net(&net_op(NetDir::ToTarget, 0, 0)).is_none());
    }

    #[test]
    fn asym_partition_black_holes_one_direction_until_heal() {
        let inj = FaultPlan::new(4)
            .net_rule(
                NetFaultRule::new(NetFaultKind::AsymPartition, Trigger::Nth(1))
                    .dir(NetDir::ToTarget)
                    .heal(10_000)
                    .max_hits(1),
            )
            .injector();
        // Trigger frame at t=100 opens the blackout.
        assert_eq!(
            inj.decide_net(&net_op(NetDir::ToTarget, 0, 100))
                .map(|i| i.kind),
            Some(NetFaultKind::AsymPartition)
        );
        // A→B frames inside the window are swallowed without consuming
        // the (already exhausted) budget...
        assert!(inj
            .decide_net(&net_op(NetDir::ToTarget, 0, 5_000))
            .is_some());
        assert!(inj
            .decide_net(&net_op(NetDir::ToTarget, 0, 10_000))
            .is_some());
        // ...while B→A keeps delivering the whole time.
        assert!(inj
            .decide_net(&net_op(NetDir::ToClient, 0, 5_000))
            .is_none());
        // After heal the direction delivers again.
        assert!(inj
            .decide_net(&net_op(NetDir::ToTarget, 0, 10_101))
            .is_none());
        // One partition event, not one per swallowed frame.
        assert_eq!(fired(&inj), [("fault.net_asym_partitions".to_string(), 1)]);
    }

    #[test]
    fn shard_partition_schedule_is_deterministic() {
        // Same seed → the exact same shard-scoped partition schedule,
        // frame for frame (the satellite-2 determinism contract).
        let run = || {
            let inj = FaultPlan::new(123)
                .net_rule(
                    NetFaultRule::new(NetFaultKind::AsymPartition, Trigger::Probability(0.2))
                        .shard(1)
                        .heal(500),
                )
                .net_rule(
                    NetFaultRule::new(NetFaultKind::Partition, Trigger::Probability(0.1)).shard(3),
                )
                .injector();
            (0..128)
                .map(|i| {
                    inj.decide_net(&shard_op(NetDir::ToTarget, i % 4, i * 100))
                        .map(|inj| inj.kind)
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains(&Some(NetFaultKind::AsymPartition)));
        assert!(a.contains(&Some(NetFaultKind::Partition)));
        // Shard scoping held: shard 0 and 2 frames were never touched.
        for (i, k) in a.iter().enumerate() {
            if i % 4 == 0 || i % 4 == 2 {
                assert_eq!(*k, None, "frame {i} bound to an unscoped shard fired");
            }
        }
    }

    #[test]
    fn net_probability_stream_is_deterministic_and_independent() {
        let run = |with_media_rule: bool| {
            let mut plan = FaultPlan::new(99).net_rule(NetFaultRule::new(
                NetFaultKind::Drop,
                Trigger::Probability(0.4),
            ));
            if with_media_rule {
                plan = plan.rule(FaultRule::new(FaultKind::Busy, Trigger::Probability(0.5)));
            }
            let inj = plan.injector();
            (0..64)
                .map(|i| inj.decide_net(&net_op(NetDir::ToTarget, i, 0)).is_some())
                .collect::<Vec<_>>()
        };
        let bare = run(false);
        assert_eq!(bare, run(false));
        // Adding an unrelated media rule must not shift the net stream.
        assert_eq!(bare, run(true));
        assert!(bare.iter().any(|&b| b));
        assert!(!bare.iter().all(|&b| b));
    }
}
