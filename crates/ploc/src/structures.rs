//! The persistent lock-free structures: node pool, Treiber stack, MS
//! queue and fixed-bucket hash map, composed from [`DetectableCas`] and
//! claim stamps.
//!
//! # Node incarnations and ABA
//!
//! Pool nodes are 32 bytes: `value`, `claim`, `next`, `next_owner`
//! (claim sits at +8 so the `next`/`next_owner` pair is a 16-byte
//! aligned dcas cell). Every allocation stamps the node with a fresh
//! monotone *tag* from `tag_seq` and hands out the tagged pointer
//! `(idx + 1) | tag << 32`. The tag is the node's incarnation and is
//! threaded through every word a racing thread might validate:
//!
//! * an unclaimed node's `claim` word holds its tag (bit 63 clear) —
//!   claiming CASes `tag → owner_word(c, s)`, so a claim can never land
//!   on a recycled node;
//! * an unlinked node's `next` word holds the end-of-chain marker
//!   `tag << 32` (low half zero) — the MS queue's link CAS expects the
//!   exact marker, so an enqueue can never link into a recycled node.
//!
//! Tags are never reused (the mount path rebuilds `tag_seq` above every
//! tag in the image), which is the whole ABA argument.
//!
//! # Linearization evidence
//!
//! * push → stack-head cell owner word; enqueue → predecessor node's
//!   `next_owner`; insert → bucket cell owner word. Overwriting any of
//!   these first raises the displaced client's help watermark
//!   (help-before-overwrite, see `cas.rs`).
//! * pop/dequeue → the claim stamp *on the node*: the value rides the
//!   node's `value` word, and a claimed node is not recycled until its
//!   claimer's result checkpoint is durable (release-after-flush), so
//!   recovery can always answer the pop with the exact value.
//!
//! No flushes anywhere here: content-before-link, intent-before-effect
//! and help-before-overwrite all hold by posted-write FIFO (§2.2).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ccnvme_obs::{Counter, Gauge, Obs};
use parking_lot::Mutex;

use crate::cas::{owner_parse, DetectableCas, OWNER_NONE};
use crate::checkpoint::OpResult;
use crate::region::PlocRegion;

/// Node word offsets.
const W_VALUE: u64 = 0;
const W_CLAIM: u64 = 8;
const W_NEXT: u64 = 16;
const W_NEXT_OWNER: u64 = 24;

/// Builds the tagged pointer for pool node `idx` under incarnation
/// `tag`. Low half `idx + 1` keeps every real pointer distinct from
/// [`NULL`] and from end-of-chain markers (whose low half is zero).
pub fn mk_ptr(idx: u32, tag: u64) -> u64 {
    debug_assert!(tag > 0 && tag < 1 << 31);
    (idx as u64 + 1) | tag << 32
}

/// Pool index of a tagged pointer; `None` for NULL / markers.
pub fn ptr_idx(ptr: u64) -> Option<u32> {
    let low = ptr as u32;
    (low != 0).then(|| low - 1)
}

/// Incarnation tag of a tagged pointer or marker.
pub fn ptr_tag(ptr: u64) -> u64 {
    ptr >> 32
}

/// End-of-chain marker for incarnation `tag`.
fn marker(tag: u64) -> u64 {
    tag << 32
}

/// The shared node pool. Free-list membership and the
/// retired/released/freed flags are volatile (rebuilt at mount by
/// reachability); the persistent truth is the region image itself.
pub struct Pool {
    free: Mutex<Vec<u32>>,
    /// Unlinked from its structure (set by the successful unlinker).
    retired: Vec<AtomicBool>,
    /// Claimer's result checkpoint is durable (set after the flush).
    released: Vec<AtomicBool>,
    /// Single-free gate: exactly one thread moves a node to the free
    /// list even when retire and release race.
    freed: Vec<AtomicBool>,
    /// Monotone incarnation counter; never reused across mounts.
    tag_seq: AtomicU64,
    free_nodes: Arc<Gauge>,
}

impl Pool {
    /// A pool with every node free and incarnations starting at 1.
    pub fn new(nodes: u32, obs: &Obs) -> Pool {
        let free_nodes = obs.metrics.gauge("ploc.free_nodes");
        free_nodes.set(nodes as i64);
        Pool {
            free: Mutex::new((0..nodes).rev().collect()),
            retired: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            released: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            freed: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            tag_seq: AtomicU64::new(1),
            free_nodes,
        }
    }

    /// Allocates a node, writing `value` plus the fresh incarnation's
    /// claim word and end-of-chain marker as one crash-atomic 32-byte
    /// store. Returns `(idx, tagged pointer)`.
    pub fn alloc(&self, r: &PlocRegion, value: u64) -> Option<(u32, u64)> {
        let n = self.free.lock().pop()?;
        self.free_nodes.dec();
        // ord: Release so a racing try_free never sees stale flags once
        // the node is observable again; pairs with try_free's Acquires.
        self.retired[n as usize].store(false, Ordering::Release);
        self.released[n as usize].store(false, Ordering::Release); // ord: as above
        self.freed[n as usize].store(false, Ordering::Release); // ord: as above

        // ord: AcqRel — tag_seq is persistence-critical (ABA protection);
        // the monotone handout must be totally ordered across threads.
        let tag = self.tag_seq.fetch_add(1, Ordering::AcqRel);
        r.store_node_through(r.geo().node_off(n), [value, tag, marker(tag), 0]);
        Some((n, mk_ptr(n, tag)))
    }

    /// Marks node `n` unlinked (called by the successful unlinker).
    pub fn retire(&self, r: &PlocRegion, n: u32) {
        // ord: Release publishes the unlink before the freed gate reads it.
        self.retired[n as usize].store(true, Ordering::Release);
        self.try_free(r, n);
    }

    /// Marks node `n`'s claimer result durable (called after the flush).
    pub fn release(&self, r: &PlocRegion, n: u32) {
        // ord: Release, same pairing as retire.
        self.released[n as usize].store(true, Ordering::Release);
        self.try_free(r, n);
    }

    /// Returns an allocated-but-never-linked node straight to the free
    /// list (lost insert races).
    pub fn discard(&self, r: &PlocRegion, n: u32) {
        self.retired[n as usize].store(true, Ordering::Release); // ord: see retire
        self.released[n as usize].store(true, Ordering::Release); // ord: see release
        self.try_free(r, n);
    }

    fn try_free(&self, r: &PlocRegion, n: u32) {
        // ord: Acquire pairs with the Releases above; the CAS makes one
        // winner when retire and release race to complete the pair.
        if self.retired[n as usize].load(Ordering::Acquire)
            && self.released[n as usize].load(Ordering::Acquire) // ord: as above
            && self.freed[n as usize]
                // ord: AcqRel CAS picks one winner for the free handoff.
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            // Reuse will overwrite this node's next_owner evidence; raise
            // the displaced enqueuer's watermark first (posted before any
            // realloc store — the free-list handoff orders the issues).
            let no = r.load(r.geo().node_off(n) + W_NEXT_OWNER);
            if let Some((c, s)) = owner_parse(no) {
                r.help_bump(c, s as u64);
            }
            self.free.lock().push(n);
            self.free_nodes.inc();
        }
    }

    /// Mount-path rebuild: free list, released set (the queue dummy,
    /// linked claimed nodes) and
    /// the incarnation floor (strictly above every tag in the image).
    pub fn rebuild(&self, free: Vec<u32>, released: &[u32], tag_floor: u64) {
        for n in 0..self.retired.len() {
            // ord: single-threaded mount; Release for the op-path Acquires.
            self.retired[n].store(false, Ordering::Release);
            self.released[n].store(false, Ordering::Release); // ord: as above
            self.freed[n].store(false, Ordering::Release); // ord: as above
        }
        for &n in released {
            self.released[n as usize].store(true, Ordering::Release); // ord: as above
        }
        self.free_nodes.set(free.len() as i64);
        *self.free.lock() = free;
        // ord: AcqRel; the floor must be visible before any op allocates.
        self.tag_seq.fetch_max(tag_floor.max(1), Ordering::AcqRel);
    }

    /// Free nodes right now (volatile).
    pub fn free_count(&self) -> usize {
        self.free.lock().len()
    }
}

/// Region + pool + the three structures. Per-operation sequencing
/// (checkpoints, flushes, replay) lives in `service.rs`; everything
/// here is the lock-free volatile protocol with write-through effects.
pub struct Shared {
    pub r: PlocRegion,
    pub pool: Pool,
    stack: DetectableCas,
    qhead: DetectableCas,
    qtail: DetectableCas,
    cas_retries: Arc<Counter>,
}

impl Shared {
    pub fn new(r: PlocRegion, obs: &Obs) -> Shared {
        let pool = Pool::new(r.geo().pool, obs);
        let (stack, qhead, qtail) = (
            DetectableCas::new(r.geo().stack_cell()),
            DetectableCas::new(r.geo().qhead_cell()),
            DetectableCas::new(r.geo().qtail_cell()),
        );
        Shared {
            r,
            pool,
            stack,
            qhead,
            qtail,
            cas_retries: obs.metrics.counter("ploc.cas_retries"),
        }
    }

    fn node(&self, n: u32) -> u64 {
        self.r.geo().node_off(n)
    }

    fn load_claim(&self, n: u32) -> u64 {
        self.r.load(self.node(n) + W_CLAIM)
    }

    fn load_next(&self, n: u32) -> u64 {
        self.r.load(self.node(n) + W_NEXT)
    }

    fn load_value(&self, n: u32) -> u64 {
        self.r.load(self.node(n) + W_VALUE)
    }

    fn next_cell(&self, n: u32) -> DetectableCas {
        DetectableCas::new(self.node(n) + W_NEXT)
    }

    // ---------------------------------------------------------- stack

    /// Completes a claimed top's pending swing on the claimer's behalf.
    /// The successful swinger retires the node.
    fn help_swing_stack(&self, top: u64, tn: u32, claim: u64) {
        let next = self.load_next(tn);
        if self.stack.cas(&self.r, top, next, claim).is_ok() {
            self.pool.retire(&self.r, tn);
        }
    }

    /// Push: private content + link CAS carrying the owner evidence.
    pub fn push(&self, owner: u64, v: u64) -> (OpResult, Option<u32>) {
        let Some((n, nptr)) = self.pool.alloc(&self.r, v) else {
            return (OpResult::Full, None);
        };
        loop {
            let (top, _) = self.stack.read(&self.r);
            if let Some(tn) = ptr_idx(top) {
                let cl = self.load_claim(tn);
                if owner_parse(cl).is_some() {
                    self.help_swing_stack(top, tn, cl);
                    continue;
                }
                if cl != ptr_tag(top) {
                    // Recycled under us; the head has moved on.
                    self.cas_retries.inc();
                    continue;
                }
            }
            // Content-before-link: the node is still private, so the
            // plain next store is racing nobody and is posted before the
            // link CAS below.
            self.r.store_through(self.node(n) + W_NEXT, top);
            match self.stack.cas(&self.r, top, nptr, owner) {
                Ok(()) => return (OpResult::Done, None),
                Err(_) => self.cas_retries.inc(),
            }
        }
    }

    /// Pop: claim stamp on the node is the linearization; the swing may
    /// be finished by any helper. Returns the claimed node so the caller
    /// can release it once the result checkpoint is durable.
    pub fn pop(&self, owner: u64) -> (OpResult, Option<u32>) {
        loop {
            let (top, _) = self.stack.read(&self.r);
            let Some(tn) = ptr_idx(top) else {
                return (OpResult::Empty, None);
            };
            let cl = self.load_claim(tn);
            if owner_parse(cl).is_some() {
                self.help_swing_stack(top, tn, cl);
                continue;
            }
            if cl != ptr_tag(top) {
                self.cas_retries.inc();
                continue;
            }
            // Claim tag → owner: fails on any recycle (fresh tag) or on
            // a racing claimer (owner word), never on a stale node.
            if self.r.cas_word(self.node(tn) + W_CLAIM, cl, owner).is_ok() {
                let v = self.load_value(tn);
                let next = self.load_next(tn);
                if self.stack.cas(&self.r, top, next, owner).is_ok() {
                    self.pool.retire(&self.r, tn);
                }
                return (OpResult::Value(v), Some(tn));
            }
            self.cas_retries.inc();
        }
    }

    // ---------------------------------------------------------- queue

    /// Classifies a dummy/tail node's `next` word against the pointer we
    /// reached it through: `Ok(Some(ptr))` = successor, `Ok(None)` =
    /// end of chain, `Err(())` = the node was recycled under us.
    fn next_of(&self, through: u64, n: u32) -> Result<Option<u64>, ()> {
        let v = self.load_next(n);
        if ptr_idx(v).is_some() {
            return Ok(Some(v));
        }
        if v == marker(ptr_tag(through)) {
            return Ok(None);
        }
        Err(())
    }

    /// Enqueue: link CAS on the tail node's next cell carries the owner
    /// evidence; the tail swing is best-effort and evidence-free.
    pub fn enqueue(&self, owner: u64, v: u64) -> (OpResult, Option<u32>) {
        let Some((_n, nptr)) = self.pool.alloc(&self.r, v) else {
            return (OpResult::Full, None);
        };
        loop {
            let (tail, _) = self.qtail.read(&self.r);
            let tn = ptr_idx(tail).expect("queue tail is always a node");
            match self.next_of(tail, tn) {
                Err(()) => {
                    self.cas_retries.inc();
                    continue;
                }
                Ok(Some(next)) => {
                    // Tail lags; help it forward (no evidence on qtail).
                    let _ = self.qtail.cas(&self.r, tail, next, OWNER_NONE);
                    continue;
                }
                Ok(None) => {
                    match self
                        .next_cell(tn)
                        .cas(&self.r, marker(ptr_tag(tail)), nptr, owner)
                    {
                        Ok(()) => {
                            let _ = self.qtail.cas(&self.r, tail, nptr, OWNER_NONE);
                            return (OpResult::Done, None);
                        }
                        Err(_) => self.cas_retries.inc(),
                    }
                }
            }
        }
    }

    /// Dequeue: claim the dummy's successor, then swing the head so the
    /// claimed node becomes the new dummy. The successful swinger
    /// retires the old dummy; the claimer releases the new dummy once
    /// its result checkpoint is durable.
    pub fn dequeue(&self, owner: u64) -> (OpResult, Option<u32>) {
        loop {
            let (head, _) = self.qhead.read(&self.r);
            let (tail, _) = self.qtail.read(&self.r);
            let dn = ptr_idx(head).expect("queue head is always a node");
            let next = match self.next_of(head, dn) {
                Err(()) => {
                    self.cas_retries.inc();
                    continue;
                }
                Ok(None) => return (OpResult::Empty, None),
                Ok(Some(next)) => next,
            };
            if head == tail {
                // Keep the MS invariant that the tail never points at an
                // unlinked node: advance it before swinging the head.
                let _ = self.qtail.cas(&self.r, tail, next, OWNER_NONE);
                continue;
            }
            let nn = ptr_idx(next).expect("successor is a node");
            let cl = self.load_claim(nn);
            if owner_parse(cl).is_some() {
                // Finish the racing dequeue's swing, then retry.
                if self.qhead.cas(&self.r, head, next, OWNER_NONE).is_ok() {
                    self.pool.retire(&self.r, dn);
                }
                continue;
            }
            if cl != ptr_tag(next) {
                self.cas_retries.inc();
                continue;
            }
            if self.r.cas_word(self.node(nn) + W_CLAIM, cl, owner).is_ok() {
                let v = self.load_value(nn);
                if self.qhead.cas(&self.r, head, next, OWNER_NONE).is_ok() {
                    self.pool.retire(&self.r, dn);
                }
                return (OpResult::Value(v), Some(nn));
            }
            self.cas_retries.inc();
        }
    }

    // ------------------------------------------------------- hash map

    fn bucket_of(&self, key: u32) -> DetectableCas {
        let b = (key.wrapping_mul(0x9e37_79b9) >> 16) % self.r.geo().buckets;
        DetectableCas::new(self.r.geo().bucket_cell(b))
    }

    /// Searches a bucket chain for `key`; hash nodes are never freed, so
    /// the traversal needs no validation (NVTraverse: persistence only
    /// at the destination).
    fn chain_find(&self, mut p: u64, key: u32) -> Option<u32> {
        while let Some(n) = ptr_idx(p) {
            if (self.load_value(n) >> 32) as u32 == key {
                return Some((self.load_value(n) & 0xffff_ffff) as u32);
            }
            p = self.load_next(n);
        }
        None
    }

    /// Insert: prepend with the owner evidence on the bucket cell.
    /// Unique keys — an existing key answers `Full` untouched.
    pub fn insert(&self, owner: u64, key: u32, val: u32) -> (OpResult, Option<u32>) {
        let cell = self.bucket_of(key);
        let mut node: Option<(u32, u64)> = None;
        loop {
            let (headp, _) = cell.read(&self.r);
            if self.chain_find(headp, key).is_some() {
                if let Some((n, _)) = node {
                    self.pool.discard(&self.r, n);
                }
                return (OpResult::Full, None);
            }
            let (n, nptr) = match node {
                Some(np) => np,
                None => match self.pool.alloc(&self.r, (key as u64) << 32 | val as u64) {
                    Some(np) => np,
                    None => return (OpResult::Full, None),
                },
            };
            node = Some((n, nptr));
            // Private until linked; content-before-link by FIFO.
            self.r.store_through(self.node(n) + W_NEXT, headp);
            match cell.cas(&self.r, headp, nptr, owner) {
                Ok(()) => return (OpResult::Done, None),
                Err(_) => self.cas_retries.inc(),
            }
        }
    }

    /// Lookup: read-only traversal, recovery re-executes it.
    pub fn lookup(&self, key: u32) -> (OpResult, Option<u32>) {
        let (headp, _) = self.bucket_of(key).read(&self.r);
        match self.chain_find(headp, key) {
            Some(v) => (OpResult::Value(v as u64), None),
            None => (OpResult::NotFound, None),
        }
    }

    // ------------------------------------------------- debug contents

    /// Stack values, top first (quiesced use only). A claimed node is
    /// popped already: a push that checked the top's claim links above
    /// it if a pop claims it before the link lands, and it stays linked
    /// until a later pop or push helps it off.
    pub fn stack_contents(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let (mut p, _) = self.stack.read(&self.r);
        while let Some(n) = ptr_idx(p) {
            if owner_parse(self.load_claim(n)).is_none() {
                out.push(self.load_value(n));
            }
            p = self.load_next(n);
        }
        out
    }

    /// Queue values, front first (quiesced use only).
    pub fn queue_contents(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let (head, _) = self.qhead.read(&self.r);
        let mut n = ptr_idx(head).expect("dummy");
        loop {
            let next = self.load_next(n);
            match ptr_idx(next) {
                Some(nn) => {
                    out.push(self.load_value(nn));
                    n = nn;
                }
                None => return out,
            }
        }
    }

    /// Hash contents sorted by key (quiesced use only).
    pub fn hash_contents(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for b in 0..self.r.geo().buckets {
            let mut p = self.r.load(self.r.geo().bucket_cell(b));
            while let Some(n) = ptr_idx(p) {
                let w = self.load_value(n);
                out.push(((w >> 32) as u32, (w & 0xffff_ffff) as u32));
                p = self.load_next(n);
            }
        }
        out.sort_unstable();
        out
    }

    // ----------------------------------------------------- mount path

    /// Finishes any claimed-but-unswung pop/dequeue left by the crash
    /// and catches the queue tail up. Single-threaded (mount).
    ///
    /// At most one claimed node is reachable at the queue's front: a
    /// second claim is only possible after the first swing's posted
    /// write — so FIFO never persists claim₂ without swing₁. Claimed
    /// stack nodes below an unclaimed one stay (see `stack_contents`).
    pub fn sanitize(&self) -> usize {
        let mut completed = 0;
        // Stack: unlink claimed tops (the claimer's pop is decided; its
        // result record was posted by the mount path before this runs).
        for _ in 0..self.r.geo().pool {
            let (top, _) = self.stack.read(&self.r);
            let Some(tn) = ptr_idx(top) else { break };
            let cl = self.load_claim(tn);
            if owner_parse(cl).is_none() {
                break;
            }
            self.help_swing_stack(top, tn, cl);
            completed += 1;
        }
        // Queue: a claimed successor becomes the dummy.
        for _ in 0..self.r.geo().pool {
            let (head, _) = self.qhead.read(&self.r);
            let dn = ptr_idx(head).expect("dummy");
            let Ok(Some(next)) = self.next_of(head, dn) else {
                break;
            };
            let nn = ptr_idx(next).expect("successor");
            if owner_parse(self.load_claim(nn)).is_none() {
                break;
            }
            if self.qhead.cas(&self.r, head, next, OWNER_NONE).is_ok() {
                self.pool.retire(&self.r, dn);
            }
            completed += 1;
        }
        // Tail catch-up: walk to the last linked node.
        let (mut last, _) = self.qhead.read(&self.r);
        while let Some(n) = ptr_idx(last) {
            match ptr_idx(self.load_next(n)) {
                Some(_) => last = self.load_next(n),
                None => break,
            }
        }
        let (tail, towner) = self.qtail.read(&self.r);
        if tail != last {
            let _ = towner; // evidence-free cell
            let _g = self.r.lock_cell(self.qtail.cell);
            self.r.store_cell_through(self.qtail.cell, last, OWNER_NONE);
        }
        completed
    }

    /// Reachability sweep: rebuilds the free list, the released set (the
    /// current dummy, linked claimed nodes) and the incarnation floor
    /// from the image. Must run after detection and sanitize.
    pub fn rebuild_pool(&self) {
        let geo = *self.r.geo();
        let mut reachable = vec![false; geo.pool as usize];
        let mut mark = |from: u64, shared: &Shared| {
            let mut p = from;
            while let Some(n) = ptr_idx(p) {
                if reachable[n as usize] {
                    break;
                }
                reachable[n as usize] = true;
                p = shared.load_next(n);
            }
        };
        mark(self.r.load(geo.stack_cell()), self);
        mark(self.r.load(geo.qhead_cell()), self);
        for b in 0..geo.buckets {
            mark(self.r.load(geo.bucket_cell(b)), self);
        }
        let mut free = Vec::new();
        for n in (0..geo.pool).rev() {
            if !reachable[n as usize] {
                free.push(n);
            }
        }
        let mut released = vec![ptr_idx(self.r.load(geo.qhead_cell())).expect("dummy")];
        // Incarnation floor: above every tag in any pointer, marker or
        // clean claim word in the image.
        let mut floor = 0u64;
        for off in [geo.stack_cell(), geo.qhead_cell(), geo.qtail_cell()] {
            floor = floor.max(ptr_tag(self.r.load(off)));
        }
        for b in 0..geo.buckets {
            floor = floor.max(ptr_tag(self.r.load(geo.bucket_cell(b))));
        }
        for n in 0..geo.pool {
            floor = floor.max(ptr_tag(self.load_next(n)));
            let cl = self.load_claim(n);
            if owner_parse(cl).is_none() {
                floor = floor.max(cl);
            } else if reachable[n as usize] {
                // Claimed yet linked (see `stack_contents`): its claimer's
                // result is durable once this mount flushes.
                released.push(n);
            }
        }
        self.pool.rebuild(free, &released, floor + 1);
    }
}
