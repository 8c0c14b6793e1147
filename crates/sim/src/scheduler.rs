//! Die- and channel-level command scheduling state machines.
//!
//! This module holds the per-resource state the SSD orchestrator
//! ([`crate::ssd::Ssd`]) schedules over:
//!
//! * `DieState` (crate-private) — one flash die: the currently executing
//!   `DieJob`, three priority queues (P0 retry continuations, P1 first
//!   sensings, P2 programs/erases), program/erase suspension, and the die's
//!   installed sensing phases;
//! * `ChannelState` (crate-private) — one channel: a DMA bus (tDMA per
//!   page, FIFO arbitration) and a dedicated ECC decoder (tECC per page,
//!   FIFO), so sensing on one die can overlap a transfer and a decode of
//!   other pages (Fig. 6);
//! * `Event` (crate-private) — the discrete-event vocabulary connecting
//!   them.
//!
//! Die-level scheduling priorities (enforced by `Ssd::pump_die`):
//!
//! 1. **P0** — continuations of in-flight read-retry operations (retry
//!    sensings, `SET FEATURE`, pipelined `CACHE READ`s). A read owns its die
//!    for the duration of its retry operation, as prior work assumes
//!    (paper footnote 10).
//! 2. **P1** — first sensings of host/GC reads.
//! 3. resume of a suspended program/erase;
//! 4. **P2** — programs and erases (suspendable; GC ops jump ahead when a
//!    plane runs critically low on free blocks).
//!
//! Generation counters (`gen`) make stale completion events cancellable: any
//! state change that invalidates the in-flight `DieDone` (suspension, RESET)
//! bumps the counter, and the handler drops events whose `gen` mismatches.

use crate::config::ArbPolicy;
use crate::request::{ReqId, TxnId};
use rr_flash::timing::SensePhases;
use rr_util::time::SimTime;
use std::collections::VecDeque;

/// The device-side host-queue arbiter: decides which submission queue the
/// controller fetches its next command from (NVMe §4.13-style round-robin /
/// weighted-round-robin).
///
/// The arbiter is a pure turn-taking state machine — it holds no queue
/// contents, only the rotation cursor and the credits left in the current
/// queue's turn — so the multi-queue front end ([`crate::hostq`]) can consult
/// it against whatever backlog predicate the admission path has. Turns are
/// credit-based: queue `q` may fetch up to `burst` (round-robin) or
/// `weight_q × burst` (weighted) consecutive commands before the cursor
/// rotates; a queue with no fetchable command forfeits the rest of its turn
/// (work-conserving), and a queue is never skipped while it still has both
/// credits and work — which bounds starvation to one full rotation.
///
/// # Example
///
/// ```
/// use rr_sim::config::ArbPolicy;
/// use rr_sim::scheduler::Arbiter;
///
/// // Weights 3:1, burst 1: the drain pattern is q0 q0 q0 q1 …
/// let mut arb = Arbiter::new(ArbPolicy::WeightedRoundRobin, 1, vec![3, 1]);
/// let picks: Vec<usize> = (0..8).map(|_| arb.pick(|_| true).unwrap()).collect();
/// assert_eq!(picks, vec![0, 0, 0, 1, 0, 0, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct Arbiter {
    policy: ArbPolicy,
    burst: u32,
    weights: Vec<u32>,
    current: usize,
    credits: u32,
}

impl Arbiter {
    /// Creates an arbiter over `weights.len()` queues. Weights are ignored
    /// under plain round-robin.
    ///
    /// # Panics
    ///
    /// Panics if there are no queues, `burst` is zero, or any weight is zero.
    pub fn new(policy: ArbPolicy, burst: u32, weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "arbiter needs at least one queue");
        assert!(burst >= 1, "arbitration burst must be at least 1");
        assert!(
            weights.iter().all(|&w| w >= 1),
            "arbitration weights must be at least 1"
        );
        let mut arb = Self {
            policy,
            burst,
            weights,
            current: 0,
            credits: 0,
        };
        arb.credits = arb.allowance(0);
        arb
    }

    /// Number of queues under arbitration.
    pub fn queues(&self) -> usize {
        self.weights.len()
    }

    /// Commands queue `q` may fetch per turn.
    fn allowance(&self, q: usize) -> u32 {
        match self.policy {
            ArbPolicy::RoundRobin => self.burst,
            ArbPolicy::WeightedRoundRobin => self.weights[q].saturating_mul(self.burst),
        }
    }

    /// Picks the queue to fetch the next command from, given which queues
    /// currently have a fetchable command, and consumes one credit from it.
    /// Returns `None` when no queue has work.
    pub fn pick(&mut self, has_work: impl Fn(usize) -> bool) -> Option<usize> {
        let n = self.queues();
        // `n + 1` visits: the current queue may start with zero credits left
        // in its turn, in which case the full rotation must come back around
        // to it with a fresh allowance.
        for _ in 0..=n {
            if self.credits > 0 && has_work(self.current) {
                self.credits -= 1;
                return Some(self.current);
            }
            self.current = (self.current + 1) % n;
            self.credits = self.allowance(self.current);
        }
        None
    }
}

const NIL: u32 = u32::MAX;

/// An index-linked FIFO queue over a slab of reusable nodes: the die's P2
/// queue, the one queue that needs *removal from the middle* (GC commands
/// jumping ahead of host programs, host programs passing GC under
/// [`crate::gc::GcPolicy::QueueShield`]). A `VecDeque` pays O(n) element
/// shifting for that; here every unlink is O(1) pointer surgery, and freed
/// nodes are recycled through an internal free list so a warmed-up queue
/// never allocates again.
#[derive(Debug, Clone)]
pub(crate) struct LinkedQueue<T> {
    nodes: Vec<Node<T>>,
    free_head: u32,
    head: u32,
    tail: u32,
    len: u32,
}

#[derive(Debug, Clone)]
struct Node<T> {
    prev: u32,
    next: u32,
    item: Option<T>,
}

impl<T> LinkedQueue<T> {
    pub(crate) fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc_node(&mut self, item: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            let node = &mut self.nodes[idx as usize];
            node.prev = NIL;
            node.next = NIL;
            node.item = Some(item);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx < NIL, "queue slab exhausted 2^32 nodes");
            self.nodes.push(Node {
                prev: NIL,
                next: NIL,
                item: Some(item),
            });
            idx
        }
    }

    /// Unlinks `idx` and returns its payload; the node joins the free list.
    fn unlink(&mut self, idx: u32) -> T {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        node.item.take().expect("unlinked a vacant node")
    }

    pub(crate) fn push_back(&mut self, item: T) {
        let idx = self.alloc_node(item);
        if self.tail == NIL {
            self.head = idx;
        } else {
            self.nodes[self.tail as usize].next = idx;
            self.nodes[idx as usize].prev = self.tail;
        }
        self.tail = idx;
        self.len += 1;
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        (self.head != NIL).then(|| self.unlink(self.head))
    }

    /// Unlinks and returns the first item matching `pred` — the O(1)-unlink
    /// replacement for `VecDeque::remove(position(..))`.
    pub(crate) fn pop_first_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let mut idx = self.head;
        while idx != NIL {
            let node = &self.nodes[idx as usize];
            if pred(node.item.as_ref().expect("linked node holds an item")) {
                return Some(self.unlink(idx));
            }
            idx = node.next;
        }
        None
    }

    /// Drops every queued item, keeping the slab for reuse.
    pub(crate) fn clear(&mut self) {
        while self.pop_front().is_some() {}
    }
}

/// Simulator events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A host request is admitted to the device.
    Arrive(ReqId),
    /// The die's current operation finishes (stale if `gen` mismatches).
    DieDone { die: u32, gen: u64 },
    /// The channel's current DMA transfer finishes.
    TransferDone { channel: u32 },
    /// The channel's ECC decoder finishes the current page.
    EccDone { channel: u32 },
}

/// Operations a read flow queues on its die (P0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueuedOp {
    Sense { step: u32 },
    SetFeature { phases: Option<SensePhases> },
}

/// What a die is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DieJob {
    Sense {
        txn: TxnId,
        step: u32,
    },
    SetFeature {
        txn: TxnId,
    },
    Reset {
        txn: TxnId,
    },
    /// Write waiting for its data transfer (busy_until = MAX) or programming.
    Program {
        txn: TxnId,
        data_loaded: bool,
    },
    Erase {
        txn: TxnId,
    },
    Suspending,
}

/// One flash die: current job, priority queues, suspension state.
#[derive(Debug)]
pub(crate) struct DieState {
    pub(crate) busy_until: SimTime,
    pub(crate) gen: u64,
    pub(crate) job: Option<DieJob>,
    /// The read transaction whose retry operation currently holds this die.
    ///
    /// A read-retry operation owns its die from dispatch until completion
    /// (incl. trailing RESET / SET FEATURE rollback): prior work models retry
    /// steps of one page as sequential on the die (paper footnote 10), and
    /// exclusive ownership is also what keeps one read's `SET FEATURE` from
    /// contaminating another read's sensing on the same die.
    pub(crate) owner: Option<TxnId>,
    pub(crate) p0: VecDeque<(TxnId, QueuedOp)>,
    pub(crate) p1: VecDeque<TxnId>,
    pub(crate) p2: LinkedQueue<TxnId>,
    pub(crate) suspended: Option<(DieJob, SimTime)>,
    pub(crate) phases: SensePhases,
}

impl DieState {
    pub(crate) fn new(phases: SensePhases) -> Self {
        Self {
            busy_until: SimTime::ZERO,
            gen: 0,
            job: None,
            owner: None,
            p0: VecDeque::new(),
            p1: VecDeque::new(),
            p2: LinkedQueue::new(),
            suspended: None,
            phases,
        }
    }

    /// Returns the die to its pristine state while keeping queue slabs —
    /// the arena path reuses one `DieState` set across simulation runs.
    pub(crate) fn reset(&mut self, phases: SensePhases) {
        self.busy_until = SimTime::ZERO;
        self.gen = 0;
        self.job = None;
        self.owner = None;
        self.p0.clear();
        self.p1.clear();
        self.p2.clear();
        self.suspended = None;
        self.phases = phases;
    }

    /// A die is busy until its completion event has been *handled* (the job
    /// cleared) — treating `now >= busy_until` as idle would let a
    /// same-timestamp event clobber a job whose `DieDone` hasn't fired yet.
    pub(crate) fn idle(&self) -> bool {
        self.job.is_none()
    }

    /// Starts `job`, running until `until`; returns the generation the
    /// caller must attach to the completion event.
    pub(crate) fn begin(&mut self, job: DieJob, until: SimTime) -> u64 {
        self.job = Some(job);
        self.gen += 1;
        self.busy_until = until;
        self.gen
    }

    /// Suspends the in-flight program/erase if doing so buys more than
    /// `min_benefit` of read latency (§7.2). On success the die runs a
    /// [`DieJob::Suspending`] job for `t_suspend` and the caller schedules
    /// its completion with the returned generation.
    pub(crate) fn try_suspend(
        &mut self,
        now: SimTime,
        min_benefit: SimTime,
        t_suspend: SimTime,
    ) -> Option<u64> {
        let suspendable = matches!(
            self.job,
            Some(DieJob::Program {
                data_loaded: true,
                ..
            }) | Some(DieJob::Erase { .. })
        );
        if !suspendable || self.suspended.is_some() || self.busy_until == SimTime::MAX {
            return None;
        }
        let remaining = self.busy_until.saturating_sub(now);
        if remaining <= min_benefit {
            return None;
        }
        let job = self.job.take().expect("checked suspendable");
        self.suspended = Some((job, remaining));
        Some(self.begin(DieJob::Suspending, now + t_suspend))
    }

    /// Resumes the suspended program/erase, if any; returns the generation
    /// for its (re-scheduled) completion event.
    pub(crate) fn resume(&mut self, now: SimTime) -> Option<u64> {
        let (job, remaining) = self.suspended.take()?;
        Some(self.begin(job, now + remaining))
    }
}

/// One page's worth of data crossing the channel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    pub(crate) txn: TxnId,
    /// `Some(step)` = read data in; `None` = write data out.
    pub(crate) step: Option<u32>,
    /// Raw bit errors of the sensed data; `u32::MAX` when beyond the ECC
    /// capability.
    pub(crate) errors: u32,
}

/// One channel: FIFO DMA bus plus FIFO ECC decoder.
///
/// Bus arbitration is first-come-first-served per channel: transfers from
/// all dies behind the channel share one queue, so a single 1 Gb/s bus
/// (tDMA per page) serializes data movement even when the dies sense in
/// parallel — exactly the contention that makes multi-die tail latency a
/// channel-scheduling problem.
#[derive(Debug)]
pub(crate) struct ChannelState {
    transfer_q: VecDeque<Transfer>,
    transferring: Option<Transfer>,
    ecc_q: VecDeque<Transfer>,
    decoding: Option<Transfer>,
}

impl ChannelState {
    pub(crate) fn new() -> Self {
        Self {
            transfer_q: VecDeque::new(),
            transferring: None,
            ecc_q: VecDeque::new(),
            decoding: None,
        }
    }

    /// Empties the channel for arena reuse, keeping queue allocations.
    pub(crate) fn reset(&mut self) {
        self.transfer_q.clear();
        self.transferring = None;
        self.ecc_q.clear();
        self.decoding = None;
    }

    /// Queues a transfer on the DMA bus.
    pub(crate) fn enqueue_transfer(&mut self, t: Transfer) {
        self.transfer_q.push_back(t);
    }

    /// If the bus is idle and work is queued, starts the next transfer;
    /// the caller schedules its completion event on `true`.
    pub(crate) fn begin_transfer(&mut self) -> bool {
        if self.transferring.is_none() {
            if let Some(t) = self.transfer_q.pop_front() {
                self.transferring = Some(t);
                return true;
            }
        }
        false
    }

    /// Completes the in-flight transfer.
    ///
    /// # Panics
    ///
    /// Panics if the bus is idle — a completion event without a transfer is
    /// a scheduling bug.
    pub(crate) fn end_transfer(&mut self) -> Transfer {
        self.transferring
            .take()
            .expect("TransferDone with idle channel")
    }

    /// Queues a decode on the ECC engine.
    pub(crate) fn enqueue_decode(&mut self, t: Transfer) {
        self.ecc_q.push_back(t);
    }

    /// If the decoder is idle and work is queued, starts the next decode;
    /// the caller schedules its completion event on `true`.
    pub(crate) fn begin_decode(&mut self) -> bool {
        if self.decoding.is_none() {
            if let Some(d) = self.ecc_q.pop_front() {
                self.decoding = Some(d);
                return true;
            }
        }
        false
    }

    /// Completes the in-flight decode.
    ///
    /// # Panics
    ///
    /// Panics if the decoder is idle.
    pub(crate) fn end_decode(&mut self) -> Transfer {
        self.decoding.take().expect("EccDone with idle decoder")
    }

    /// Whether any transfer or decode is queued or in flight.
    pub(crate) fn has_queued_work(&self) -> bool {
        !self.transfer_q.is_empty() || !self.ecc_q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_flash::timing::NandTimings;

    fn die() -> DieState {
        DieState::new(NandTimings::table1().sense)
    }

    #[test]
    fn begin_bumps_generation_and_sets_job() {
        let mut d = die();
        assert!(d.idle());
        let g1 = d.begin(DieJob::Erase { txn: TxnId(1) }, SimTime::from_us(10));
        assert_eq!(g1, 1);
        assert!(!d.idle());
        assert_eq!(d.busy_until, SimTime::from_us(10));
        d.job = None;
        let g2 = d.begin(DieJob::Suspending, SimTime::from_us(20));
        assert_eq!(g2, 2);
    }

    #[test]
    fn suspension_only_pays_when_benefit_exceeds_threshold() {
        let min_benefit = SimTime::from_us(100);
        let t_suspend = SimTime::from_us(20);
        let mut d = die();
        // An erase with 5 ms left: worth suspending.
        d.begin(DieJob::Erase { txn: TxnId(0) }, SimTime::from_us(5_000));
        let gen = d.try_suspend(SimTime::ZERO, min_benefit, t_suspend);
        assert!(gen.is_some());
        assert!(matches!(d.job, Some(DieJob::Suspending)));
        assert!(d.suspended.is_some());
        // Already suspended: a second attempt is refused.
        assert!(d
            .try_suspend(SimTime::ZERO, min_benefit, t_suspend)
            .is_none());
        // Resume restores the remaining time.
        d.job = None;
        let now = SimTime::from_us(20);
        assert!(d.resume(now).is_some());
        assert_eq!(d.busy_until, now + SimTime::from_us(5_000));
    }

    #[test]
    fn nearly_finished_program_is_not_suspended() {
        let mut d = die();
        d.begin(
            DieJob::Program {
                txn: TxnId(0),
                data_loaded: true,
            },
            SimTime::from_us(50),
        );
        // Only 50 µs left < 100 µs threshold: not worth the suspend cost.
        let gen = d.try_suspend(SimTime::ZERO, SimTime::from_us(100), SimTime::from_us(20));
        assert!(gen.is_none());
        assert!(d.suspended.is_none());
    }

    #[test]
    fn program_awaiting_data_is_not_suspendable() {
        let mut d = die();
        d.begin(
            DieJob::Program {
                txn: TxnId(0),
                data_loaded: false,
            },
            SimTime::MAX,
        );
        assert!(d
            .try_suspend(SimTime::ZERO, SimTime::from_us(100), SimTime::from_us(20))
            .is_none());
    }

    fn drain(q: &mut LinkedQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop_front()).collect()
    }

    #[test]
    fn linked_queue_is_fifo() {
        let mut q: LinkedQueue<u32> = LinkedQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
        for i in 0..5 {
            q.push_back(i);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn linked_queue_middle_removal_preserves_order() {
        let mut q: LinkedQueue<u32> = LinkedQueue::new();
        for i in 0..6 {
            q.push_back(i);
        }
        // Remove from the middle, the head, and the tail.
        assert_eq!(q.pop_first_where(|&x| x == 3), Some(3));
        assert_eq!(q.pop_first_where(|&x| x == 0), Some(0));
        assert_eq!(q.pop_first_where(|&x| x == 5), Some(5));
        assert_eq!(q.pop_first_where(|&x| x == 99), None);
        assert_eq!(q.len(), 3);
        // Freed nodes are recycled; pushes go to the back as usual.
        q.push_back(7);
        assert_eq!(q.nodes.len(), 6, "slab did not grow past its peak");
        assert_eq!(drain(&mut q), vec![1, 2, 4, 7]);
    }

    #[test]
    fn linked_queue_clear_keeps_slab() {
        let mut q: LinkedQueue<u32> = LinkedQueue::new();
        for i in 0..4 {
            q.push_back(i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
        for i in 10..14 {
            q.push_back(i);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.nodes.len(), 4, "cleared nodes were reused");
        assert_eq!(q.pop_front(), Some(10));
    }

    #[test]
    fn die_reset_returns_pristine_state() {
        let mut d = die();
        d.begin(DieJob::Erase { txn: TxnId(1) }, SimTime::from_us(10));
        d.p1.push_back(TxnId(2));
        d.p2.push_back(TxnId(3));
        d.owner = Some(TxnId(2));
        d.reset(NandTimings::table1().sense);
        assert!(d.idle());
        assert_eq!(d.gen, 0);
        assert!(d.owner.is_none());
        assert!(d.p0.is_empty() && d.p1.is_empty() && d.p2.is_empty());
        assert!(d.suspended.is_none());
    }

    #[test]
    fn arbiter_round_robin_alternates_with_burst() {
        let mut arb = Arbiter::new(ArbPolicy::RoundRobin, 2, vec![1, 1]);
        let picks: Vec<usize> = (0..8).map(|_| arb.pick(|_| true).unwrap()).collect();
        assert_eq!(picks, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn arbiter_wrr_delivers_the_weight_ratio_while_backlogged() {
        let mut arb = Arbiter::new(ArbPolicy::WeightedRoundRobin, 1, vec![3, 1]);
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            counts[arb.pick(|_| true).expect("both queues backlogged")] += 1;
        }
        // Exactly 3:1 over whole rounds.
        assert_eq!(counts, [300, 100]);
    }

    #[test]
    fn arbiter_idle_queue_forfeits_and_recovers_its_turn() {
        let mut arb = Arbiter::new(ArbPolicy::WeightedRoundRobin, 1, vec![3, 1]);
        // Only q1 has work: q0's turns are forfeited, q1 is served every pick.
        for _ in 0..5 {
            assert_eq!(arb.pick(|q| q == 1), Some(1));
        }
        // q0 comes back: it gets a fresh allowance on its next turn.
        let picks: Vec<usize> = (0..4).map(|_| arb.pick(|_| true).unwrap()).collect();
        assert_eq!(picks.iter().filter(|&&q| q == 0).count(), 3);
        // Nothing to fetch anywhere: no pick, and the arbiter stays usable.
        assert_eq!(arb.pick(|_| false), None);
        assert!(arb.pick(|_| true).is_some());
    }

    #[test]
    fn arbiter_single_queue_always_picks_it() {
        let mut arb = Arbiter::new(ArbPolicy::RoundRobin, 1, vec![1]);
        for _ in 0..10 {
            assert_eq!(arb.pick(|_| true), Some(0));
        }
        assert_eq!(arb.queues(), 1);
    }

    #[test]
    fn channel_bus_and_decoder_are_fifo() {
        let mut ch = ChannelState::new();
        let t = |i| Transfer {
            txn: TxnId(i),
            step: Some(0),
            errors: 0,
        };
        ch.enqueue_transfer(t(1));
        ch.enqueue_transfer(t(2));
        assert!(ch.has_queued_work());
        assert!(ch.begin_transfer());
        // Bus busy: the second transfer must wait.
        assert!(!ch.begin_transfer());
        assert_eq!(ch.end_transfer().txn, TxnId(1));
        assert!(ch.begin_transfer());
        assert_eq!(ch.end_transfer().txn, TxnId(2));
        // Decoder is an independent FIFO.
        ch.enqueue_decode(t(3));
        assert!(ch.begin_decode());
        assert!(!ch.begin_decode());
        assert_eq!(ch.end_decode().txn, TxnId(3));
        assert!(!ch.has_queued_work());
    }
}
