//! The event-driven multi-die SSD simulator (orchestrator).
//!
//! Architecture (paper §7.1's baseline high-end SSD):
//!
//! * host requests are admitted by the [`crate::replay`] load generator —
//!   open-loop (trace timestamps) or closed-loop (fixed queue depth) — and
//!   split into page-level flash transactions;
//! * each **die** executes one operation at a time, scheduled out-of-order
//!   with read priority and program/erase suspension; independent reads on
//!   different dies overlap freely (multi-die interleaving);
//! * each **channel** has a DMA bus (tDMA per page, FIFO) and a dedicated
//!   ECC decoder (tECC per page, FIFO) — so sensing on one die can overlap a
//!   transfer and a decode of other pages (Fig. 6);
//! * read-retry behaviour is delegated to a [`RetryController`]
//!   (Baseline here; PR²/AR²/PnAR²/PSO in `rr-core`).
//!
//! The per-die priority queues and per-channel FIFO arbitration live in
//! [`crate::scheduler`]; this module owns the FTL, the error model, garbage
//! collection (whose start/preempt/yield decisions are delegated to the
//! configured [`crate::gc::GcPolicy`], with per-queue stall attribution in
//! [`crate::metrics::GcStalls`]), the retry controller, and metrics
//! collection.

use crate::config::SsdConfig;
use crate::event::EventQueue;
use crate::ftl::{Ftl, Ppn, PpnLocation};
use crate::gc::{GcPolicy, GcThrottle};
use crate::hostq::{FrontEnd, HostQueueConfig};
use crate::metrics::{LatencySamples, MetricsCollector, SimReport};
use crate::readflow::{Actions, ReadAction, ReadContext, RetryController};
use crate::replay::ReplayMode;
use crate::request::{HostRequest, IoOp, ReqId, TxnId, TxnKind};
use crate::scheduler::{ChannelState, DieJob, DieState, Event, QueuedOp, Transfer};
use crate::snapshot::DeviceImage;
use rr_flash::calibration::OperatingCondition;
use rr_flash::error_model::{ErrorModel, PageId, PageReadProfile};
use rr_flash::timing::SensePhases;
use rr_util::time::SimTime;
use std::sync::Arc;

/// The error model's identity of the physical page at `loc`.
fn page_id(loc: PpnLocation) -> PageId {
    PageId::new(loc.block_global, loc.page_in_block)
}

#[derive(Debug)]
struct TxnState {
    kind: TxnKind,
    req: Option<ReqId>,
    lpn: u64,
    loc: PpnLocation,
    ctx: Option<ReadContext>,
    /// The read's ground truth (required step, final errors), derived once
    /// at spawn: every simulated block behaves the same on every read
    /// (§7.1), so it is fixed for the whole retry operation. `None` for
    /// writes and erases and under `ideal_no_retry`. Kept out of
    /// [`ReadContext`]: controllers never see it.
    profile: Option<PageReadProfile>,
    /// The timing penalty of `profile` under the last sense phases this read
    /// was sensed with, as `(phases, penalty)`.
    penalty: Option<(SensePhases, f64)>,
    /// `(step, raw errors)` pairs recorded at sense time. The buffer is
    /// recycled with its slot, so a warmed-up pool stops allocating.
    sensed: Vec<(u32, u32)>,
    senses: u32,
    finished: bool,
    /// Channel-side references (queued/in-flight transfers and decodes)
    /// still carrying this transaction's id. A slot may only return to the
    /// free list once this reaches zero — stale pipelined decodes of a
    /// completed read must find the slot intact, not recycled.
    pending_io: u32,
    /// For GC reads: the source PPN (to detect concurrent invalidation) and
    /// the GC job index.
    gc_src: Option<(Ppn, usize)>,
    /// For GC writes/erases: the GC job index.
    gc_job: Option<usize>,
}

#[derive(Debug)]
struct ReqState {
    op: IoOp,
    lpn: u64,
    /// Submission time: the trace timestamp (open loop) or the instant the
    /// load generator submitted the request (closed loop). Response times
    /// run from here, so any submission-queue wait before the arbiter
    /// admits the request counts as host-observed latency.
    arrival: SimTime,
    /// The host submission queue this request was submitted to.
    queue: u16,
    /// Page transactions not yet completed. Equals the request length until
    /// admission spawns the transactions.
    remaining: u32,
    /// Whether any page read of this request needed ≥ 1 retry step.
    retried: bool,
    /// The request's position in the run's trace. The front end stripes
    /// trace request `i` to queue `i mod n` and hands each queue's stripe
    /// out FIFO, so the position is reconstructed at submission from the
    /// per-queue sequence counters — the redundancy merge keys on it.
    index: u32,
}

#[derive(Debug)]
struct GcJobState {
    victim_block: u32,
    plane: u32,
    remaining_moves: u32,
    erase_issued: bool,
    /// Unconditional read preemptions this job may still absorb
    /// ([`GcPolicy::ReadPreempt`]'s per-job budget; 0 under other policies).
    preemptions_left: u32,
}

/// The simulated SSD.
///
/// # Example
///
/// ```
/// use rr_sim::config::SsdConfig;
/// use rr_sim::readflow::BaselineController;
/// use rr_sim::request::{HostRequest, IoOp};
/// use rr_sim::ssd::Ssd;
/// use rr_util::time::SimTime;
///
/// let cfg = SsdConfig::scaled_for_tests();
/// let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 1000)
///     .expect("valid configuration");
/// let trace = vec![HostRequest::new(SimTime::ZERO, IoOp::Read, 5, 1)];
/// let report = ssd.run(&trace);
/// assert_eq!(report.requests_completed, 1);
/// ```
pub struct Ssd {
    cfg: Arc<SsdConfig>,
    ftl: Ftl,
    model: ErrorModel,
    controller: Box<dyn RetryController>,
    events: EventQueue<Event>,
    now: SimTime,
    dies: Vec<DieState>,
    channels: Vec<ChannelState>,
    txns: Vec<TxnState>,
    /// Recycled transaction slots (indices into `txns`), LIFO.
    free_txns: Vec<u32>,
    reqs: Vec<ReqState>,
    front: FrontEnd,
    metrics: MetricsCollector,
    gc_jobs: Vec<GcJobState>,
    gc_policy: GcPolicy,
    gc_throttle: GcThrottle,
    /// Per host queue: admitted read requests not yet completed — the
    /// "queue is busy" signal of [`GcPolicy::QueueShield`].
    reads_outstanding: Vec<u32>,
    /// Per host queue: requests submitted so far, for reconstructing each
    /// request's trace index (`queue + queues * seq`).
    queue_seq: Vec<u32>,
    /// Whether the run records per-request responses by trace index (the
    /// redundancy layer's copy-matching; off for every other path).
    track_requests: bool,
    max_step: u32,
    slab_reuse: bool,
}

/// Reusable simulation buffers: one arena per worker amortizes the FTL's
/// multi-megabyte mapping tables, the die/channel queue slabs, the event
/// queue, and the transaction pool (with its sense
/// buffers) across the many short runs of an experiment matrix or sweep.
///
/// Runs through an arena are **bit-identical** to fresh [`Ssd::new`] runs:
/// every buffer is reset to its pristine observable state before reuse
/// (`tests/hotpath_equiv.rs` asserts this).
///
/// # Example
///
/// ```
/// use rr_sim::config::SsdConfig;
/// use rr_sim::readflow::BaselineController;
/// use rr_sim::replay::ReplayMode;
/// use rr_sim::request::{HostRequest, IoOp};
/// use rr_sim::ssd::{SimArena, Ssd};
/// use rr_util::time::SimTime;
///
/// let cfg = SsdConfig::scaled_for_tests();
/// let trace = vec![HostRequest::new(SimTime::ZERO, IoOp::Read, 5, 1)];
/// let mut arena = SimArena::new();
/// for _ in 0..2 {
///     let report = Ssd::run_pooled(
///         &mut arena,
///         cfg.clone(),
///         Box::new(BaselineController::new()),
///         1000,
///         &trace,
///         ReplayMode::OpenLoop,
///     )
///     .expect("valid configuration");
///     assert_eq!(report.requests_completed, 1);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SimArena {
    ftl: Option<Ftl>,
    dies: Vec<DieState>,
    channels: Vec<ChannelState>,
    events: EventQueue<Event>,
    txns: Vec<TxnState>,
    free_txns: Vec<u32>,
    reqs: Vec<ReqState>,
}

impl SimArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Ssd {
    /// Builds a preconditioned SSD: `lpn_count` logical pages are mapped and
    /// carry the configured retention age (cold data).
    ///
    /// Accepts the configuration by value or as a pre-shared
    /// `Arc<SsdConfig>`; experiment runners share one `Arc` across cells so
    /// sweep setup stops copying the config per simulator.
    ///
    /// # Errors
    ///
    /// Propagates configuration/footprint validation errors.
    pub fn new(
        cfg: impl Into<Arc<SsdConfig>>,
        controller: Box<dyn RetryController>,
        lpn_count: u64,
    ) -> Result<Self, String> {
        Self::assemble(&mut SimArena::new(), cfg.into(), controller, lpn_count)
    }

    /// Builds an SSD out of `arena`'s recycled buffers (the arena is left
    /// empty until the SSD returns them via [`Ssd::run_pooled`]).
    fn assemble(
        arena: &mut SimArena,
        cfg: Arc<SsdConfig>,
        controller: Box<dyn RetryController>,
        lpn_count: u64,
    ) -> Result<Self, String> {
        Self::assemble_from(arena, cfg, controller, lpn_count, None)
    }

    /// [`Ssd::assemble`], warm-started from a device image when one is given:
    /// instead of rebuilding and re-preconditioning the FTL, the image's
    /// captured state is restored into the arena's recycled tables
    /// (allocation-retaining, like the rebuild path). The image must have
    /// been captured for the same geometry, footprint and model inputs —
    /// restoring is then bit-identical to preconditioning from scratch.
    fn assemble_from(
        arena: &mut SimArena,
        cfg: Arc<SsdConfig>,
        controller: Box<dyn RetryController>,
        lpn_count: u64,
        image: Option<&DeviceImage>,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let ftl = match image {
            None => {
                let mut ftl = match arena.ftl.take() {
                    Some(mut recycled) => {
                        recycled.rebuild(&cfg, lpn_count)?;
                        recycled
                    }
                    None => Ftl::new(&cfg, lpn_count)?,
                };
                ftl.precondition();
                ftl
            }
            Some(img) => {
                img.validate_for(&cfg, lpn_count)?;
                let mut ftl = match arena.ftl.take() {
                    Some(recycled) => recycled,
                    // A throwaway seed FTL for restore to fill; geometry
                    // checks happen inside `restore` against the image.
                    None => Ftl::new(&cfg, lpn_count)?,
                };
                ftl.restore(&cfg, img.ftl())?;
                ftl
            }
        };
        let mut model = ErrorModel::new(cfg.seed).with_outlier_rate(cfg.outlier_rate);
        if let Some(img) = image {
            model.restore(img.model())?;
        }
        let model = model;
        let max_step = model.retry_table().max_steps();
        let mut dies = std::mem::take(&mut arena.dies);
        if dies.len() == cfg.total_dies() as usize {
            for d in &mut dies {
                d.reset(cfg.timings.sense);
            }
        } else {
            dies = (0..cfg.total_dies())
                .map(|_| DieState::new(cfg.timings.sense))
                .collect();
        }
        let mut channels = std::mem::take(&mut arena.channels);
        if channels.len() == cfg.channels as usize {
            for c in &mut channels {
                c.reset();
            }
        } else {
            channels = (0..cfg.channels).map(|_| ChannelState::new()).collect();
        }
        let mut events = std::mem::take(&mut arena.events);
        events.reset();
        let slab_reuse = cfg.hotpath.txn_slab_reuse;
        let mut txns = std::mem::take(&mut arena.txns);
        let mut free_txns = std::mem::take(&mut arena.free_txns);
        if !slab_reuse {
            // Fresh-allocation semantics: ids must be assigned in append
            // order with no pooled slots.
            txns.clear();
            free_txns.clear();
        }
        let mut reqs = std::mem::take(&mut arena.reqs);
        reqs.clear();
        Ok(Self {
            metrics: MetricsCollector::new(max_step, 1),
            gc_policy: cfg.gc_policy,
            cfg,
            ftl,
            model,
            controller,
            events,
            now: SimTime::ZERO,
            dies,
            channels,
            txns,
            free_txns,
            reqs,
            front: FrontEnd::idle(),
            gc_jobs: Vec::new(),
            gc_throttle: GcThrottle::default(),
            reads_outstanding: Vec::new(),
            queue_seq: Vec::new(),
            track_requests: false,
            max_step,
            slab_reuse,
        })
    }

    /// Returns the simulation buffers to `arena` for the next run.
    fn release_into(mut self, arena: &mut SimArena) {
        arena.ftl = Some(self.ftl);
        arena.dies = self.dies;
        arena.channels = self.channels;
        arena.events = self.events;
        // Every slot is free for the next run; keep the sense buffers.
        for t in &mut self.txns {
            t.sensed.clear();
        }
        self.free_txns.clear();
        self.free_txns.extend((0..self.txns.len() as u32).rev());
        arena.free_txns = self.free_txns;
        arena.txns = self.txns;
        self.reqs.clear();
        arena.reqs = self.reqs;
    }

    /// Runs one trace on recycled `arena` buffers and returns them to the
    /// arena afterwards — the per-worker fast path of the experiment
    /// runners. Reports are bit-identical to `Ssd::new(..).run_with(..)`.
    ///
    /// # Errors
    ///
    /// Propagates configuration/footprint validation errors.
    ///
    /// # Panics
    ///
    /// Panics if the replay mode is invalid or a request's LPN range exceeds
    /// the preconditioned footprint (as [`Ssd::run_with`] does).
    pub fn run_pooled(
        arena: &mut SimArena,
        cfg: impl Into<Arc<SsdConfig>>,
        controller: Box<dyn RetryController>,
        lpn_count: u64,
        trace: &[HostRequest],
        mode: ReplayMode,
    ) -> Result<SimReport, String> {
        Self::run_pooled_queued(
            arena,
            cfg,
            controller,
            lpn_count,
            trace,
            &HostQueueConfig::single(mode),
        )
    }

    /// [`Ssd::run_pooled`] under a multi-queue host front end (see
    /// [`crate::hostq`]).
    ///
    /// # Errors
    ///
    /// Propagates configuration/footprint validation errors.
    ///
    /// # Panics
    ///
    /// Panics if the front-end configuration is invalid or a request's LPN
    /// range exceeds the preconditioned footprint.
    pub fn run_pooled_queued(
        arena: &mut SimArena,
        cfg: impl Into<Arc<SsdConfig>>,
        controller: Box<dyn RetryController>,
        lpn_count: u64,
        trace: &[HostRequest],
        queues: &HostQueueConfig,
    ) -> Result<SimReport, String> {
        Self::run_pooled_queued_from(arena, cfg, controller, lpn_count, trace, queues, None)
    }

    /// [`Ssd::run_pooled_queued`], warm-started from a device image when one
    /// is given: the expensive precondition step is replaced by an
    /// allocation-retaining restore of the image into the arena's recycled
    /// tables, and the run is bit-identical to a cold start (the sweep
    /// equivalence suite pins this).
    ///
    /// # Errors
    ///
    /// Propagates configuration/footprint validation errors, plus image
    /// mismatches (wrong geometry, footprint, seed or outlier rate).
    ///
    /// # Panics
    ///
    /// Panics if the front-end configuration is invalid or a request's LPN
    /// range exceeds the preconditioned footprint.
    pub fn run_pooled_queued_from(
        arena: &mut SimArena,
        cfg: impl Into<Arc<SsdConfig>>,
        controller: Box<dyn RetryController>,
        lpn_count: u64,
        trace: &[HostRequest],
        queues: &HostQueueConfig,
        image: Option<&DeviceImage>,
    ) -> Result<SimReport, String> {
        let mut ssd = Self::assemble_from(arena, cfg.into(), controller, lpn_count, image)?;
        let report = ssd.run_mut(trace, queues);
        ssd.release_into(arena);
        Ok(report)
    }

    /// [`Ssd::run_pooled_queued_from`] that also hands back the raw latency
    /// samples, for the array layer's exact cross-device quantile merge. The
    /// report is bit-identical to the plain variant. `track` additionally
    /// records per-request responses by trace index (the redundancy layer's
    /// copy-matching) without perturbing anything else.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_pooled_queued_collected_from(
        arena: &mut SimArena,
        cfg: impl Into<Arc<SsdConfig>>,
        controller: Box<dyn RetryController>,
        lpn_count: u64,
        trace: &[HostRequest],
        queues: &HostQueueConfig,
        image: Option<&DeviceImage>,
        track: bool,
    ) -> Result<(SimReport, LatencySamples), String> {
        let mut ssd = Self::assemble_from(arena, cfg.into(), controller, lpn_count, image)?;
        ssd.track_requests = track;
        let (name, collector) = ssd.run_core(trace, queues);
        let out = collector.finish_with_samples(&name);
        ssd.release_into(arena);
        Ok(out)
    }

    /// Snapshots this device's mutable state into a [`DeviceImage`].
    ///
    /// Capture happens at quiescence (before a run, or conceptually between
    /// runs), where all in-flight structures — events, transactions, host
    /// queues — are empty by construction; what remains is exactly the FTL
    /// tables, the freshness bitmap, and the error-model inputs.
    pub fn capture_image(&self) -> DeviceImage {
        DeviceImage::from_parts(self.ftl.capture(), self.model.capture())
    }

    /// Runs the trace to completion open-loop (requests arrive at their
    /// trace timestamps) and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if a request's LPN range exceeds the preconditioned footprint.
    pub fn run(self, trace: &[HostRequest]) -> SimReport {
        self.run_with(trace, ReplayMode::OpenLoop)
    }

    /// Runs the trace to completion under the given replay mode.
    ///
    /// Closed-loop replay ignores trace timestamps and keeps
    /// `queue_depth` requests outstanding; see [`ReplayMode`].
    ///
    /// # Panics
    ///
    /// Panics if the replay mode is invalid (zero queue depth or rate) or a
    /// request's LPN range exceeds the preconditioned footprint.
    pub fn run_with(mut self, trace: &[HostRequest], mode: ReplayMode) -> SimReport {
        self.run_mut(trace, &HostQueueConfig::single(mode))
    }

    /// Runs the trace under a multi-queue host front end: the trace is
    /// striped over the configured submission queues, each queue replays its
    /// stripe under its own [`ReplayMode`], and the device admits from the
    /// queues through the configured RR/WRR arbiter and admission window
    /// (see [`crate::hostq`]).
    ///
    /// A [`HostQueueConfig::single`] front end is bit-identical to
    /// [`Ssd::run_with`] with the same mode.
    ///
    /// # Panics
    ///
    /// Panics if the front-end configuration is invalid or a request's LPN
    /// range exceeds the preconditioned footprint.
    pub fn run_with_queues(mut self, trace: &[HostRequest], queues: &HostQueueConfig) -> SimReport {
        self.run_mut(trace, queues)
    }

    fn run_mut(&mut self, trace: &[HostRequest], queues: &HostQueueConfig) -> SimReport {
        let (name, collector) = self.run_core(trace, queues);
        collector.finish(&name)
    }

    /// The shared event loop behind [`Ssd::run_mut`] and the collected
    /// variant: runs the trace to completion and returns the controller name
    /// plus the filled collector, leaving finalization to the caller.
    fn run_core(
        &mut self,
        trace: &[HostRequest],
        queues: &HostQueueConfig,
    ) -> (String, MetricsCollector) {
        queues
            .validate()
            .expect("valid host-queue configuration and replay modes");
        for r in trace {
            assert!(
                r.lpn + r.len_pages as u64 <= self.ftl.lpn_count(),
                "request LPN range {}..{} exceeds footprint {}",
                r.lpn,
                r.lpn + r.len_pages as u64,
                self.ftl.lpn_count()
            );
        }
        self.metrics = MetricsCollector::new(self.max_step, queues.queue_count());
        if self.track_requests {
            self.metrics.track_requests(trace.len());
        }
        self.reads_outstanding.clear();
        self.reads_outstanding.resize(queues.queue_count(), 0);
        self.queue_seq.clear();
        self.queue_seq.resize(queues.queue_count(), 0);
        self.gc_throttle.reset();
        let (front, initial) = FrontEnd::start(queues, trace);
        self.front = front;
        for (queue, arrival, r) in initial {
            self.submit(arrival, queue, r);
        }
        while let Some((t, ev)) = self.events.pop() {
            self.now = t;
            self.metrics.events_processed += 1;
            match ev {
                Event::Arrive(id) => self.handle_arrival(id),
                Event::DieDone { die, gen } => self.handle_die_done(die, gen),
                Event::TransferDone { channel } => self.handle_transfer_done(channel),
                Event::EccDone { channel } => self.handle_ecc_done(channel),
            }
        }
        self.assert_drained();
        let name = self.controller.name().to_string();
        let collector =
            std::mem::replace(&mut self.metrics, MetricsCollector::new(self.max_step, 1));
        (name, collector)
    }

    /// After the event queue empties, nothing may remain queued anywhere —
    /// a leftover means a lost wakeup (a scheduling bug), so fail loudly.
    fn assert_drained(&self) {
        for (i, d) in self.dies.iter().enumerate() {
            assert!(
                d.p0.is_empty() && d.p1.is_empty() && d.p2.is_empty(),
                "die {i} still has queued work: p0={} p1={} p2={} job={:?} suspended={}",
                d.p0.len(),
                d.p1.len(),
                d.p2.len(),
                d.job,
                d.suspended.is_some(),
            );
            assert!(
                d.suspended.is_none(),
                "die {i} left a suspended op unresumed"
            );
            assert!(d.job.is_none(), "die {i} left job {:?} in flight", d.job);
            assert!(d.owner.is_none(), "die {i} still owned by {:?}", d.owner);
        }
        for (i, c) in self.channels.iter().enumerate() {
            assert!(
                !c.has_queued_work(),
                "channel {i} still has queued transfers/decodes"
            );
        }
        for (i, r) in self.reqs.iter().enumerate() {
            assert!(
                r.remaining == 0,
                "request {i} ({:?}, arrival {}) never completed: {} pages left",
                r.op,
                r.arrival,
                r.remaining
            );
        }
        assert_eq!(
            self.front.pending_submissions(),
            0,
            "host queues never submitted {} requests",
            self.front.pending_submissions()
        );
        assert_eq!(
            self.front.parked(),
            0,
            "{} submitted requests were never admitted",
            self.front.parked()
        );
        assert_eq!(
            self.front.in_flight(),
            0,
            "{} admitted requests never completed",
            self.front.in_flight()
        );
    }

    // ---- submission, arbitration & transaction creation -------------------

    /// Submits one host request of `queue` at `arrival` (schedules its
    /// `Arrive` event; the request reaches its submission queue when the
    /// event fires).
    fn submit(&mut self, arrival: SimTime, queue: u16, r: HostRequest) {
        let id = ReqId(self.reqs.len() as u32);
        let index = queue as u32 + self.queue_seq.len() as u32 * self.queue_seq[queue as usize];
        self.queue_seq[queue as usize] += 1;
        self.reqs.push(ReqState {
            op: r.op,
            lpn: r.lpn,
            arrival,
            queue,
            remaining: r.len_pages,
            retried: false,
            index,
        });
        self.events.push(arrival, Event::Arrive(id));
    }

    fn handle_arrival(&mut self, req: ReqId) {
        let queue = self.reqs[req.0 as usize].queue;
        // Open loop feeds each queue's arrivals one at a time (stripes are
        // time-sorted, so the next submission is never in the past);
        // scheduling it before the spawned flash work keeps the event-queue
        // footprint minimal.
        if let Some((at, r)) = self.front.next_arrival(queue) {
            self.submit(at, queue, r);
        }
        self.front.enqueue(queue, req);
        self.pump_admission();
    }

    /// Drains the submission queues into the device while the admission
    /// window has room, in the arbiter's RR/WRR order — the front-end hook
    /// of the admission path. With an unbounded window this degenerates to
    /// admit-on-submission.
    fn pump_admission(&mut self) {
        while let Some(req) = self.front.try_admit() {
            self.dispatch(req);
        }
    }

    /// Splits an admitted request into its per-page flash transactions.
    fn dispatch(&mut self, req: ReqId) {
        let r = &self.reqs[req.0 as usize];
        // No page has completed yet, so `remaining` is the request length.
        let (op, first, last) = (r.op, r.lpn, r.lpn + r.remaining as u64);
        if op == IoOp::Read {
            self.reads_outstanding[r.queue as usize] += 1;
        }
        match op {
            IoOp::Read => {
                for lpn in first..last {
                    self.spawn_host_read(req, lpn);
                }
            }
            IoOp::Write => {
                for lpn in first..last {
                    self.spawn_host_write(req, lpn);
                }
            }
        }
    }

    fn condition_for(&self, lpn: u64) -> (OperatingCondition, bool) {
        let cold = self.ftl.is_cold(lpn);
        let retention = if cold {
            self.cfg.condition.retention_months
        } else {
            0.0
        };
        (
            OperatingCondition::new(self.cfg.condition.pec, retention, self.cfg.condition.temp_c),
            cold,
        )
    }

    fn spawn_host_read(&mut self, req: ReqId, lpn: u64) {
        let ppn = self
            .ftl
            .translate(lpn)
            .expect("preconditioned footprint covers all trace LPNs");
        let loc = self.ftl.locate(ppn);
        let txn = self.new_txn(TxnKind::HostRead, Some(req), lpn, loc, None, None);
        self.start_read(txn);
    }

    /// Gives a freshly allocated read transaction its controller context
    /// and (unless the run is ideal) its profile, then queues it on its die.
    fn start_read(&mut self, txn: TxnId) {
        let t = &self.txns[txn.0 as usize];
        let (lpn, loc) = (t.lpn, t.loc);
        let (condition, cold) = self.condition_for(lpn);
        let profile =
            (!self.cfg.ideal_no_retry).then(|| self.model.page_profile(page_id(loc), condition));
        let t = &mut self.txns[txn.0 as usize];
        t.ctx = Some(ReadContext {
            txn,
            die: loc.die_global,
            condition,
            cold,
            max_step: self.max_step,
        });
        t.profile = profile;
        self.enqueue_read(txn, loc.die_global);
    }

    fn spawn_host_write(&mut self, req: ReqId, lpn: u64) {
        let alloc = self
            .ftl
            .allocate_for_write(lpn)
            .expect("GC keeps free pages available");
        let loc = self.ftl.locate(alloc.ppn);
        let txn = self.new_txn(TxnKind::HostWrite, Some(req), lpn, loc, None, None);
        self.dies[loc.die_global as usize].p2.push_back(txn);
        self.pump_die(loc.die_global);
        if let Some(plane) = alloc.gc_hint {
            let trigger_queue = self.reqs[req.0 as usize].queue;
            self.maybe_start_gc(plane, trigger_queue);
        }
    }

    /// Allocates a transaction record, preferring a recycled slot (whose
    /// sense buffer is kept, cleared) over growing the slab.
    fn new_txn(
        &mut self,
        kind: TxnKind,
        req: Option<ReqId>,
        lpn: u64,
        loc: PpnLocation,
        gc_src: Option<(Ppn, usize)>,
        gc_job: Option<usize>,
    ) -> TxnId {
        let mut state = TxnState {
            kind,
            req,
            lpn,
            loc,
            ctx: None,
            profile: None,
            penalty: None,
            sensed: Vec::new(),
            senses: 0,
            finished: false,
            pending_io: 0,
            gc_src,
            gc_job,
        };
        if let Some(i) = self.free_txns.pop() {
            let slot = &mut self.txns[i as usize];
            let mut sensed = std::mem::take(&mut slot.sensed);
            sensed.clear();
            state.sensed = sensed;
            *slot = state;
            TxnId(i)
        } else {
            let id = TxnId(self.txns.len() as u32);
            self.txns.push(state);
            id
        }
    }

    /// Returns a finished transaction's slot to the free list once nothing
    /// in the machine references it anymore: the die has released ownership
    /// (reads) or never owned it (writes/erases), and no channel transfer or
    /// decode still carries its id.
    fn maybe_recycle(&mut self, txn: TxnId) {
        if !self.slab_reuse {
            return;
        }
        let t = &self.txns[txn.0 as usize];
        if !t.finished || t.pending_io != 0 {
            return;
        }
        if self.dies[t.loc.die_global as usize].owner == Some(txn) {
            return;
        }
        self.free_txns.push(txn.0);
    }

    fn enqueue_read(&mut self, txn: TxnId, die: u32) {
        self.dies[die as usize].p1.push_back(txn);
        self.maybe_suspend(die, txn);
        self.record_gc_wait_if_blocked(die, txn);
        self.pump_die(die);
    }

    // ---- garbage collection ------------------------------------------------

    /// Whether the GC policy admits a new non-critical job on `plane` right
    /// now, recording a deferral against the accountable queue when it does
    /// not. Critically low planes (≤ 1 free block) always collect.
    fn gc_policy_admits(&mut self, plane: u32, trigger_queue: u16) -> bool {
        match self.gc_policy {
            GcPolicy::Greedy | GcPolicy::ReadPreempt { .. } => true,
            GcPolicy::WindowedTokens { tokens, window_us } => {
                if self.ftl.plane_is_critical(plane) {
                    return true;
                }
                if self
                    .gc_throttle
                    .try_take(self.now, tokens, SimTime::from_us(window_us))
                {
                    true
                } else {
                    self.metrics.record_gc_deferral(trigger_queue);
                    false
                }
            }
            GcPolicy::QueueShield { queue } => {
                if self.ftl.plane_is_critical(plane) {
                    return true;
                }
                let shield_busy = self
                    .reads_outstanding
                    .get(queue as usize)
                    .is_some_and(|&n| n > 0);
                if shield_busy {
                    self.metrics.record_gc_deferral(queue);
                    false
                } else {
                    true
                }
            }
        }
    }

    fn maybe_start_gc(&mut self, plane: u32, trigger_queue: u16) {
        // One active job per plane at a time.
        if self
            .gc_jobs
            .iter()
            .any(|j| j.plane == plane && (j.remaining_moves > 0 || !j.erase_issued))
        {
            return;
        }
        if !self.gc_policy_admits(plane, trigger_queue) {
            return;
        }
        let Some(job) = self.ftl.start_gc(plane) else {
            return;
        };
        let job_idx = self.gc_jobs.len();
        self.gc_jobs.push(GcJobState {
            victim_block: job.victim_block,
            plane,
            remaining_moves: job.moves.len() as u32,
            erase_issued: false,
            preemptions_left: self.gc_policy.job_preempt_budget(),
        });
        if job.moves.is_empty() {
            self.issue_gc_erase(job_idx);
            return;
        }
        for (lpn, src) in job.moves {
            let loc = self.ftl.locate(src);
            let txn = self.new_txn(TxnKind::GcRead, None, lpn, loc, Some((src, job_idx)), None);
            self.start_read(txn);
        }
    }

    fn gc_read_finished(&mut self, txn: TxnId) {
        let (src, job_idx) = self.txns[txn.0 as usize]
            .gc_src
            .expect("gc_read_finished on a non-GC read");
        let lpn = self.txns[txn.0 as usize].lpn;
        let plane = self.gc_jobs[job_idx].plane;
        if self.ftl.gc_move_still_needed(lpn, src) {
            let dst = self
                .ftl
                .allocate_for_gc(lpn, plane)
                .expect("GC target plane has reserve space");
            let loc = self.ftl.locate(dst);
            let wtxn = self.new_txn(TxnKind::GcWrite, None, lpn, loc, None, Some(job_idx));
            self.dies[loc.die_global as usize].p2.push_back(wtxn);
            self.pump_die(loc.die_global);
        } else {
            // A host write invalidated the page mid-move; nothing to copy.
            self.gc_move_done(job_idx);
        }
    }

    fn gc_move_done(&mut self, job_idx: usize) {
        let job = &mut self.gc_jobs[job_idx];
        job.remaining_moves -= 1;
        if job.remaining_moves == 0 {
            self.issue_gc_erase(job_idx);
        }
    }

    fn issue_gc_erase(&mut self, job_idx: usize) {
        let job = &mut self.gc_jobs[job_idx];
        job.erase_issued = true;
        let victim = job.victim_block;
        let ppb = self.cfg.chip.pages_per_block;
        let loc = self.ftl.locate(Ppn(victim * ppb));
        let txn = self.new_txn(TxnKind::GcErase, None, 0, loc, None, Some(job_idx));
        self.dies[loc.die_global as usize].p2.push_back(txn);
        self.pump_die(loc.die_global);
    }

    // ---- die scheduling -----------------------------------------------------

    /// Suspend an in-flight program/erase because `reader` is waiting
    /// (§7.2). Host programs always arbitrate under the default
    /// minimum-benefit rule; for GC programs/erases the [`GcPolicy`] may
    /// force the suspension (ignoring the benefit rule) or veto it outright,
    /// and every GC suspension is attributed to the waiting read's host
    /// queue ([`crate::metrics::GcStalls`]).
    fn maybe_suspend(&mut self, die_idx: u32, reader: TxnId) {
        let min_benefit = SimTime::from_us(self.cfg.min_suspend_benefit_us);
        let t_suspend = self.cfg.timings.t_suspend;
        // The in-flight GC program/erase this suspension would interrupt,
        // if any (only data-loaded programs and erases are suspendable).
        let gc_job = match self.dies[die_idx as usize].job {
            Some(DieJob::Program {
                txn,
                data_loaded: true,
            })
            | Some(DieJob::Erase { txn }) => self.txns[txn.0 as usize].gc_job,
            _ => None,
        };
        let reader_queue = self.txns[reader.0 as usize]
            .req
            .map(|r| self.reqs[r.0 as usize].queue);
        let mut benefit_floor = min_benefit;
        let mut forced = false;
        if let Some(job_idx) = gc_job {
            match self.gc_policy {
                GcPolicy::Greedy | GcPolicy::WindowedTokens { .. } => {}
                GcPolicy::ReadPreempt { .. } => {
                    // GC readers keep the default rule; host reads spend the
                    // job's preemption budget, after which the job's
                    // operations run to completion unsuspended.
                    if reader_queue.is_some() {
                        if self.gc_jobs[job_idx].preemptions_left > 0 {
                            benefit_floor = SimTime::ZERO;
                            forced = true;
                        } else {
                            return;
                        }
                    }
                }
                GcPolicy::QueueShield { queue } => {
                    if reader_queue == Some(queue) {
                        benefit_floor = SimTime::ZERO;
                        forced = true;
                    }
                }
            }
        }
        let now = self.now;
        let die = &mut self.dies[die_idx as usize];
        if let Some(gen) = die.try_suspend(now, benefit_floor, t_suspend) {
            let at = die.busy_until;
            self.events.push(at, Event::DieDone { die: die_idx, gen });
            self.metrics.suspensions += 1;
            if let Some(job_idx) = gc_job {
                if forced {
                    let left = &mut self.gc_jobs[job_idx].preemptions_left;
                    *left = left.saturating_sub(1);
                }
                if let Some(queue) = reader_queue {
                    self.metrics
                        .record_gc_suspension(queue, t_suspend.as_us_f64(), forced);
                }
            }
        }
    }

    /// If the just-enqueued read is a host read stuck behind a GC die
    /// operation that was not (or could not be) suspended, attribute the
    /// residual busy time to the read's queue as a GC wait. A GC program
    /// still awaiting its data transfer has no bounded completion time yet;
    /// the wait is counted with zero residual.
    fn record_gc_wait_if_blocked(&mut self, die_idx: u32, reader: TxnId) {
        let Some(req) = self.txns[reader.0 as usize].req else {
            return;
        };
        let die = &self.dies[die_idx as usize];
        let blocking_gc = match die.job {
            Some(
                DieJob::Sense { txn, .. }
                | DieJob::SetFeature { txn }
                | DieJob::Reset { txn }
                | DieJob::Program { txn, .. }
                | DieJob::Erase { txn },
            ) => !self.txns[txn.0 as usize].kind.is_host(),
            Some(DieJob::Suspending) | None => false,
        };
        if !blocking_gc {
            return;
        }
        let residual = if die.busy_until == SimTime::MAX {
            0.0
        } else {
            die.busy_until.saturating_sub(self.now).as_us_f64()
        };
        let queue = self.reqs[req.0 as usize].queue;
        self.metrics.record_gc_wait(queue, residual);
    }

    /// Starts the next operation on an idle die, by priority (see
    /// [`crate::scheduler`] for the priority rationale).
    fn pump_die(&mut self, die_idx: u32) {
        loop {
            let die = &self.dies[die_idx as usize];
            if !die.idle() {
                return;
            }
            // P0: continuations of the owning read's retry operation.
            if let Some((txn, op)) = self.dies[die_idx as usize].p0.pop_front() {
                debug_assert_eq!(
                    self.dies[die_idx as usize].owner,
                    Some(txn),
                    "P0 ops always belong to the die owner"
                );
                self.start_queued_op(die_idx, txn, op);
                return;
            }
            // While a read-retry operation owns the die, nothing else runs —
            // its next step arrives after the in-flight transfer/decode.
            if self.dies[die_idx as usize].owner.is_some() {
                return;
            }
            // P1: first sensings of reads — the new owner.
            if let Some(txn) = self.dies[die_idx as usize].p1.pop_front() {
                self.dies[die_idx as usize].owner = Some(txn);
                let ctx = self.txns[txn.0 as usize]
                    .ctx
                    .expect("reads carry a context");
                let actions = self.controller.on_start(&ctx);
                self.execute_actions(txn, actions);
                // Actions queued into P0; loop to start them.
                continue;
            }
            // Resume a suspended program/erase before starting new P2 work.
            if let Some(gen) = self.dies[die_idx as usize].resume(self.now) {
                let at = self.dies[die_idx as usize].busy_until;
                self.events.push(at, Event::DieDone { die: die_idx, gen });
                return;
            }
            // P2: programs and erases; GC jumps ahead when a plane is
            // critical — an O(1) unlink from the middle of the linked queue.
            if self.dies[die_idx as usize].p2.is_empty() {
                return;
            }
            let urgent = self.die_has_critical_plane(die_idx);
            // QueueShield: while the shielded queue has reads outstanding
            // (and no plane is critical), queued GC operations yield to
            // host operations on this die.
            let shield_yields = !urgent
                && self.gc_policy.shield_queue().is_some_and(|q| {
                    self.reads_outstanding
                        .get(q as usize)
                        .is_some_and(|&n| n > 0)
                });
            let txn = {
                let Self { dies, txns, .. } = self;
                let p2 = &mut dies[die_idx as usize].p2;
                let promoted = if urgent {
                    p2.pop_first_where(|&t| !txns[t.0 as usize].kind.is_host())
                } else if shield_yields {
                    p2.pop_first_where(|&t| txns[t.0 as usize].kind.is_host())
                } else {
                    None
                };
                promoted
                    .or_else(|| p2.pop_front())
                    .expect("P2 checked non-empty")
            };
            self.start_p2_txn(die_idx, txn);
            return;
        }
    }

    fn die_has_critical_plane(&self, die_idx: u32) -> bool {
        let ppd = self.cfg.chip.planes_per_die;
        (0..ppd).any(|p| self.ftl.plane_is_critical(die_idx * ppd + p))
    }

    fn start_queued_op(&mut self, die_idx: u32, txn: TxnId, op: QueuedOp) {
        match op {
            QueuedOp::Sense { step } => {
                let phases = self.dies[die_idx as usize].phases;
                let t = &mut self.txns[txn.0 as usize];
                let kind = self.cfg.chip.page_kind(t.loc.page_in_block);
                // No profile only under `ideal_no_retry`: every read passes.
                // A count beyond the ECC capability is recorded as `u32::MAX`:
                // decode fails with margin 0 either way.
                let capability = self.cfg.ecc.capability;
                let errors = t.profile.map_or(0, |profile| {
                    let page = page_id(t.loc);
                    let condition = t.ctx.expect("sense on a read").condition;
                    let penalty = match t.penalty {
                        Some((sensed_with, penalty)) if sensed_with == phases => penalty,
                        _ => {
                            let penalty = self.model.timing_penalty(page, condition, &phases);
                            t.penalty = Some((phases, penalty));
                            penalty
                        }
                    };
                    let errors = self
                        .model
                        .errors_within(page, &profile, step, penalty, capability);
                    debug_assert_eq!(errors, {
                        let exact = self.model.errors_at_step(page, condition, step, &phases);
                        (exact <= capability).then_some(exact)
                    });
                    errors.unwrap_or(u32::MAX)
                });
                t.sensed.push((step, errors));
                t.senses += 1;
                self.metrics.senses += 1;
                let until = self.now + phases.t_r(kind);
                let die = &mut self.dies[die_idx as usize];
                let gen = die.begin(DieJob::Sense { txn, step }, until);
                self.events
                    .push(until, Event::DieDone { die: die_idx, gen });
            }
            QueuedOp::SetFeature { phases } => {
                self.metrics.set_features += 1;
                let default = self.cfg.timings.sense;
                let until = self.now + self.cfg.timings.t_set;
                let die = &mut self.dies[die_idx as usize];
                die.phases = phases.unwrap_or(default);
                let gen = die.begin(DieJob::SetFeature { txn }, until);
                self.events
                    .push(until, Event::DieDone { die: die_idx, gen });
            }
        }
    }

    fn start_p2_txn(&mut self, die_idx: u32, txn: TxnId) {
        let kind = self.txns[txn.0 as usize].kind;
        match kind {
            TxnKind::HostWrite | TxnKind::GcWrite => {
                // Reserve the die, then move the data over the channel;
                // programming starts when the transfer lands.
                let die = &mut self.dies[die_idx as usize];
                die.begin(
                    DieJob::Program {
                        txn,
                        data_loaded: false,
                    },
                    SimTime::MAX,
                );
                let t = &mut self.txns[txn.0 as usize];
                t.pending_io += 1;
                let channel = t.loc.channel;
                self.channels[channel as usize].enqueue_transfer(Transfer {
                    txn,
                    step: None,
                    errors: 0,
                });
                self.pump_channel(channel);
            }
            TxnKind::GcErase => {
                let until = self.now + self.cfg.timings.t_bers;
                let die = &mut self.dies[die_idx as usize];
                let gen = die.begin(DieJob::Erase { txn }, until);
                self.events
                    .push(until, Event::DieDone { die: die_idx, gen });
            }
            TxnKind::HostRead | TxnKind::GcRead => {
                unreachable!("reads are dispatched from P1, not P2")
            }
        }
    }

    // ---- event handlers ------------------------------------------------------

    fn handle_die_done(&mut self, die_idx: u32, gen: u64) {
        if self.dies[die_idx as usize].gen != gen {
            return; // cancelled by RESET or suspension
        }
        let job = self.dies[die_idx as usize]
            .job
            .take()
            .expect("DieDone with empty job");
        match job {
            DieJob::Sense { txn, step } => {
                if !self.txns[txn.0 as usize].finished {
                    let ctx = self.txns[txn.0 as usize].ctx.expect("sense on a read");
                    let actions = self.controller.on_sense_done(&ctx, step);
                    self.execute_actions(txn, actions);
                }
            }
            DieJob::SetFeature { txn } => {
                if !self.txns[txn.0 as usize].finished {
                    let ctx = self.txns[txn.0 as usize].ctx.expect("feature on a read");
                    let actions = self.controller.on_feature_applied(&ctx);
                    self.execute_actions(txn, actions);
                }
            }
            DieJob::Reset { txn } => {
                if !self.txns[txn.0 as usize].finished {
                    let ctx = self.txns[txn.0 as usize].ctx.expect("reset on a read");
                    let actions = self.controller.on_reset_done(&ctx);
                    self.execute_actions(txn, actions);
                }
            }
            DieJob::Program { txn, .. } => {
                self.finish_write(txn);
            }
            DieJob::Erase { txn } => {
                let job_idx = self.txns[txn.0 as usize].gc_job.expect("erases are GC ops");
                let victim = self.gc_jobs[job_idx].victim_block;
                self.ftl.finish_gc(victim);
                self.metrics.gc_collections += 1;
                self.txns[txn.0 as usize].finished = true;
                self.maybe_recycle(txn);
            }
            DieJob::Suspending => {}
        }
        self.try_release_owner(die_idx);
        self.pump_die(die_idx);
    }

    /// Releases die ownership once the owning read has completed and all of
    /// its trailing die operations (speculation RESET, `SET FEATURE`
    /// rollback) have drained.
    fn try_release_owner(&mut self, die_idx: u32) {
        let die = &self.dies[die_idx as usize];
        let Some(owner) = die.owner else {
            return;
        };
        if !self.txns[owner.0 as usize].finished {
            return;
        }
        // P0 ops belong exclusively to the die owner, so a non-empty P0
        // means the owner still has queued work (O(1) check).
        if !die.p0.is_empty() {
            debug_assert!(
                die.p0.iter().all(|&(t, _)| t == owner),
                "P0 held another read's ops"
            );
            return;
        }
        let job_is_owners = match die.job {
            Some(DieJob::Sense { txn, .. })
            | Some(DieJob::SetFeature { txn })
            | Some(DieJob::Reset { txn }) => txn == owner,
            _ => false,
        };
        if job_is_owners {
            return;
        }
        self.dies[die_idx as usize].owner = None;
        self.maybe_recycle(owner);
    }

    fn handle_transfer_done(&mut self, channel: u32) {
        let t = self.channels[channel as usize].end_transfer();
        match t.step {
            Some(_) => {
                // Read data arrived at the controller: queue ECC decode.
                // The channel reference lives on (transfer → decode), so
                // `pending_io` stays held until the decode completes.
                self.channels[channel as usize].enqueue_decode(t);
                self.pump_ecc(channel);
            }
            None => {
                // Write data arrived at the chip: the channel reference
                // drops and programming starts.
                let txn_state = &mut self.txns[t.txn.0 as usize];
                debug_assert!(txn_state.pending_io > 0);
                txn_state.pending_io -= 1;
                let die_idx = txn_state.loc.die_global;
                let until = self.now + self.cfg.timings.t_prog;
                let die = &mut self.dies[die_idx as usize];
                debug_assert!(matches!(
                    die.job,
                    Some(DieJob::Program {
                        data_loaded: false,
                        ..
                    })
                ));
                let gen = die.begin(
                    DieJob::Program {
                        txn: t.txn,
                        data_loaded: true,
                    },
                    until,
                );
                self.events
                    .push(until, Event::DieDone { die: die_idx, gen });
            }
        }
        self.pump_channel(channel);
    }

    fn handle_ecc_done(&mut self, channel: u32) {
        let d = self.channels[channel as usize].end_decode();
        self.pump_ecc(channel);
        let step = d.step.expect("only reads are decoded");
        {
            let t = &mut self.txns[d.txn.0 as usize];
            debug_assert!(t.pending_io > 0, "decode without a channel reference");
            t.pending_io -= 1;
        }
        if self.txns[d.txn.0 as usize].finished {
            // Stale pipelined transfer after completion: the dropped channel
            // reference may have been the last thing pinning the slot.
            self.maybe_recycle(d.txn);
            return;
        }
        let success = d.errors <= self.cfg.ecc.capability;
        let margin = self.cfg.ecc.capability.saturating_sub(d.errors);
        let ctx = self.txns[d.txn.0 as usize].ctx.expect("decode on a read");
        let actions = self.controller.on_decode_done(&ctx, step, success, margin);
        self.execute_actions(d.txn, actions);
    }

    // ---- action execution ----------------------------------------------------

    fn execute_actions(&mut self, txn: TxnId, actions: Actions) {
        let die_idx = self.txns[txn.0 as usize].loc.die_global;
        for &a in actions.as_slice() {
            match a {
                ReadAction::Sense { step } => {
                    self.dies[die_idx as usize]
                        .p0
                        .push_back((txn, QueuedOp::Sense { step }));
                    self.maybe_suspend(die_idx, txn);
                }
                ReadAction::SetFeature { phases } => {
                    self.dies[die_idx as usize]
                        .p0
                        .push_back((txn, QueuedOp::SetFeature { phases }));
                    self.maybe_suspend(die_idx, txn);
                }
                ReadAction::Transfer { step } => {
                    let t = &mut self.txns[txn.0 as usize];
                    let errors = t
                        .sensed
                        .iter()
                        .rev()
                        .find(|&&(s, _)| s == step)
                        .map(|&(_, e)| e)
                        .expect("transfer of a step that was sensed");
                    t.pending_io += 1;
                    let channel = t.loc.channel;
                    self.channels[channel as usize].enqueue_transfer(Transfer {
                        txn,
                        step: Some(step),
                        errors,
                    });
                    self.pump_channel(channel);
                }
                ReadAction::Reset => self.do_reset(txn, die_idx),
                ReadAction::CompleteSuccess { step } => self.finish_read(txn, Some(step)),
                ReadAction::CompleteFailure => self.finish_read(txn, None),
            }
        }
        self.try_release_owner(die_idx);
        self.pump_die(die_idx);
    }

    /// `RESET` immediately terminates the die's in-flight sensing for `txn`
    /// (the speculative extra retry step of PR², §6.1).
    fn do_reset(&mut self, txn: TxnId, die_idx: u32) {
        self.metrics.resets += 1;
        let t_rst = self.cfg.timings.t_rst_read;
        let until = self.now + t_rst;
        let die = &mut self.dies[die_idx as usize];
        match die.job {
            Some(DieJob::Sense { txn: sensing, .. }) if self.now < die.busy_until => {
                assert_eq!(
                    sensing, txn,
                    "RESET may only kill the issuing read's own sensing"
                );
            }
            _ => {
                // The die already finished (or never started) the speculative
                // step; RESET still costs tRST to return the die to ready.
            }
        }
        // Drop any not-yet-started ops this txn queued (stale speculation).
        // P0 holds only the issuing read's (the owner's) ops, so the whole
        // queue empties — no scan-and-compare retain.
        while let Some((t, _)) = die.p0.pop_front() {
            debug_assert_eq!(t, txn, "P0 held another read's op during RESET");
        }
        let gen = die.begin(DieJob::Reset { txn }, until);
        self.events
            .push(until, Event::DieDone { die: die_idx, gen });
    }

    fn pump_channel(&mut self, channel: u32) {
        if self.channels[channel as usize].begin_transfer() {
            self.events.push(
                self.now + self.cfg.timings.t_dma,
                Event::TransferDone { channel },
            );
        }
    }

    fn pump_ecc(&mut self, channel: u32) {
        if self.channels[channel as usize].begin_decode() {
            self.events.push(
                self.now + self.cfg.timings.t_ecc,
                Event::EccDone { channel },
            );
        }
    }

    // ---- completion -----------------------------------------------------------

    fn finish_read(&mut self, txn: TxnId, success_step: Option<u32>) {
        {
            let t = &mut self.txns[txn.0 as usize];
            debug_assert!(!t.finished, "double completion of {txn:?}");
            t.finished = true;
        }
        let t = &self.txns[txn.0 as usize];
        let kind = t.kind;
        let senses = t.senses;
        let req = t.req;
        let ctx = t.ctx.expect("reads carry a context");
        if kind == TxnKind::HostRead {
            // Retry steps = sensings beyond the first.
            self.metrics.record_retry_steps(senses.saturating_sub(1));
            if senses > 1 {
                if let Some(req) = req {
                    self.reqs[req.0 as usize].retried = true;
                }
            }
            if success_step.is_none() {
                self.metrics.read_failures += 1;
            }
        }
        self.controller.on_end(&ctx, success_step);
        if let Some(req) = req {
            self.complete_req_part(req);
        }
        if kind == TxnKind::GcRead {
            self.gc_read_finished(txn);
        }
    }

    fn finish_write(&mut self, txn: TxnId) {
        self.txns[txn.0 as usize].finished = true;
        if let Some(req) = self.txns[txn.0 as usize].req {
            self.complete_req_part(req);
        }
        if let Some(job_idx) = self.txns[txn.0 as usize].gc_job {
            self.gc_move_done(job_idx);
        }
        // Writes never own their die and their lone data transfer completed
        // before programming began, so the slot frees immediately.
        self.maybe_recycle(txn);
    }

    fn complete_req_part(&mut self, req: ReqId) {
        let r = &mut self.reqs[req.0 as usize];
        r.remaining -= 1;
        if r.remaining == 0 {
            let response = self.now - r.arrival;
            let is_read = r.op == IoOp::Read;
            let retried = r.retried;
            let queue = r.queue;
            let index = r.index;
            if is_read {
                self.reads_outstanding[queue as usize] -= 1;
            }
            self.metrics
                .record_request(queue, is_read, retried, response, self.now);
            self.metrics.record_indexed(index, response, retried);
            // Closed loop: the completing queue submits its next backlog
            // request (an `Arrive` event at `now`, FIFO within the tick, so
            // same-tick completion bursts submit in trace order per queue).
            if let Some(next) = self.front.complete(queue) {
                self.submit(self.now, queue, next);
            }
            // The freed window slot can admit a parked submission from
            // whichever queue the arbiter picks.
            self.pump_admission();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readflow::BaselineController;

    fn cfg_at(pec: f64, months: f64) -> SsdConfig {
        SsdConfig::scaled_for_tests().with_condition(OperatingCondition::new(pec, months, 30.0))
    }

    fn run_reads(cfg: SsdConfig, lpns: &[u64], spacing_us: u64) -> SimReport {
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 50_000).unwrap();
        let trace: Vec<HostRequest> = lpns
            .iter()
            .enumerate()
            .map(|(i, &lpn)| {
                HostRequest::new(SimTime::from_us(i as u64 * spacing_us), IoOp::Read, lpn, 1)
            })
            .collect();
        ssd.run(&trace)
    }

    #[test]
    fn fresh_read_latency_matches_eq2_no_retry() {
        // Fresh SSD (0 PEC, 0 retention): no retry. tREAD = tR + tDMA + tECC.
        let report = run_reads(cfg_at(0.0, 0.0), &[0, 1, 2], 1000);
        assert_eq!(report.requests_completed, 3);
        assert_eq!(report.avg_retry_steps(), 0.0);
        // LPNs 0,1,2 land on different planes/dies (striping), all are LSB
        // pages (page 0 of their blocks): tR = 78, +16 +20 = 114 µs.
        assert!(
            (report.avg_read_response_us() - 114.0).abs() < 1.0,
            "avg = {}",
            report.avg_read_response_us()
        );
        // No retried reads on a fresh SSD, and no writes at all: those
        // classes report no tail instead of a fake 0 µs one.
        assert_eq!(report.retried_read_latency.count, 0);
        assert_eq!(report.retried_read_latency.p99, None);
        assert_eq!(report.write_latency.p99, None);
        assert_eq!(report.read_latency.count, 3);
        assert!(report.read_p99_us().is_some());
    }

    #[test]
    fn retry_latency_matches_eq3_for_isolated_read() {
        // One isolated cold read at (1K, 6 mo): N_RR retries, each costing
        // tR + tDMA + tECC (Eq. 3), all on an otherwise idle SSD.
        let cfg = cfg_at(1000.0, 6.0);
        let seed = cfg.seed;
        let ssd = Ssd::new(cfg.clone(), Box::new(BaselineController::new()), 50_000).unwrap();
        // Recompute the expected N_RR from the model directly.
        let model = ErrorModel::new(seed);
        let lpn = 17u64;
        let ppn = {
            // Re-derive mapping: build an identical FTL.
            let mut ftl = Ftl::new(&cfg, 50_000).unwrap();
            ftl.precondition();
            ftl.translate(lpn).unwrap()
        };
        let loc = {
            let ftl = Ftl::new(&cfg, 50_000).unwrap();
            ftl.locate(ppn)
        };
        let n_rr = model.required_step_index(
            PageId::new(loc.block_global, loc.page_in_block),
            OperatingCondition::new(1000.0, 6.0, 30.0),
        );
        assert!(n_rr >= 8, "aged cold read must retry (Fig. 5)");
        let kind = cfg.chip.page_kind(loc.page_in_block);
        let t_r = cfg.timings.sense.t_r(kind).as_us_f64();
        let expected = (n_rr as f64 + 1.0) * (t_r + 16.0 + 20.0);
        let trace = vec![HostRequest::new(SimTime::ZERO, IoOp::Read, lpn, 1)];
        let report = ssd.run(&trace);
        assert!(
            (report.avg_read_response_us() - expected).abs() < 1.0,
            "measured {} vs Eq.2/3 expectation {expected}",
            report.avg_read_response_us()
        );
        assert_eq!(report.retry_steps.mean(), n_rr as f64);
        // The lone read retried, so the retried class holds exactly it.
        assert_eq!(report.retried_read_latency.count, 1);
        assert_eq!(report.retried_read_latency.p99, report.read_latency.p99);
    }

    #[test]
    fn write_latency_is_tdma_plus_tprog() {
        let cfg = cfg_at(0.0, 0.0);
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 10_000).unwrap();
        let trace = vec![HostRequest::new(SimTime::ZERO, IoOp::Write, 5, 1)];
        let report = ssd.run(&trace);
        assert_eq!(report.requests_completed, 1);
        assert!(
            (report.write_response_us.mean() - 716.0).abs() < 1.0,
            "write = {} µs",
            report.write_response_us.mean()
        );
        // A write-only run must not fabricate a read tail.
        assert_eq!(report.read_p99_us(), None);
        assert_eq!(report.write_latency.count, 1);
    }

    #[test]
    fn ideal_norr_never_retries_even_when_aged() {
        let cfg = cfg_at(2000.0, 12.0).ideal();
        let report = {
            let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 10_000).unwrap();
            let trace: Vec<HostRequest> = (0..20)
                .map(|i| HostRequest::new(SimTime::from_ms(i), IoOp::Read, i * 3, 1))
                .collect();
            ssd.run(&trace)
        };
        assert_eq!(report.avg_retry_steps(), 0.0);
        assert_eq!(report.read_failures, 0);
        assert_eq!(report.retried_read_latency.count, 0);
    }

    #[test]
    fn hot_data_reads_fresh_after_overwrite() {
        // Write an LPN, then read it: retention resets to ~0 ⇒ no retry even
        // on an aged SSD (the cold/hot distinction behind Table 2's ratios).
        let cfg = cfg_at(1000.0, 12.0);
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 10_000).unwrap();
        let trace = vec![
            HostRequest::new(SimTime::ZERO, IoOp::Write, 9, 1),
            HostRequest::new(SimTime::from_ms(10), IoOp::Read, 9, 1),
        ];
        let report = ssd.run(&trace);
        // At (1K, 0 months) the mean retry count is ~1.5, so the single hot
        // read needs only a few steps, far below the cold ~16.5 (Fig. 5).
        assert!(
            report.avg_retry_steps() <= 4.0,
            "hot read took {} steps",
            report.avg_retry_steps()
        );
    }

    #[test]
    fn suspension_lets_read_preempt_program() {
        let cfg = cfg_at(0.0, 0.0);
        // One write then immediately a read on the same die. LPN layout:
        // consecutive LPNs stripe across planes; same-die pairs are
        // (lpn, lpn + planes_per_die·…): lpn and lpn + total_planes hit the
        // same plane. Writing lpn 0 targets plane of the round-robin cursor
        // (plane 0 = die 0); reading lpn 0 also targets die 0 (precondition
        // put lpn 0 in plane 0).
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 10_000).unwrap();
        let trace = vec![
            HostRequest::new(SimTime::ZERO, IoOp::Write, 0, 1),
            // Arrives while the program (700 µs) is in flight.
            HostRequest::new(SimTime::from_us(100), IoOp::Read, 0, 1),
        ];
        let report = ssd.run(&trace);
        assert_eq!(report.requests_completed, 2);
        assert_eq!(report.suspensions, 1, "the read should suspend the program");
        // The read waited ~t_suspend, not the full remaining program time:
        // response ≈ suspend(20) + tR(78) + 16 + 20 ≈ 134 µs ≪ 700.
        assert!(
            report.read_response_us.mean() < 300.0,
            "read = {} µs",
            report.read_response_us.mean()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let cfg = cfg_at(1000.0, 6.0);
            let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 20_000).unwrap();
            let trace: Vec<HostRequest> = (0..100)
                .map(|i| {
                    let op = if i % 4 == 0 { IoOp::Write } else { IoOp::Read };
                    HostRequest::new(SimTime::from_us(i * 50), op, (i * 13) % 5000, 1)
                })
                .collect();
            ssd.run(&trace)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.avg_response_us(), b.avg_response_us());
        assert_eq!(a.senses, b.senses);
        assert_eq!(a.suspensions, b.suspensions);
        assert_eq!(a, b, "full reports must be bit-identical");
    }

    #[test]
    fn gc_reclaims_blocks_under_write_pressure() {
        let mut cfg = cfg_at(0.0, 0.0);
        cfg.chip.blocks_per_plane = 16;
        cfg.chip.pages_per_block = 12;
        let footprint = cfg.max_lpns();
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), footprint).unwrap();
        // Hammer overwrites on a small hot range to generate invalid pages,
        // then keep writing to force allocation past the free pool.
        let trace: Vec<HostRequest> = (0..3000)
            .map(|i| {
                HostRequest::new(
                    SimTime::from_us(i * 40),
                    IoOp::Write,
                    (i * 7) % (footprint / 4),
                    1,
                )
            })
            .collect();
        let report = ssd.run(&trace);
        assert_eq!(report.requests_completed, 3000);
        assert!(report.gc_collections > 0, "GC must have run");
    }

    #[test]
    fn open_loop_accepts_unsorted_raw_request_slices() {
        // `run` takes a raw slice, not a (pre-sorted) Trace; arrivals out of
        // trace order must replay as if time-sorted, not panic.
        let cfg = cfg_at(0.0, 0.0);
        let mk = |reqs: Vec<HostRequest>| {
            Ssd::new(cfg.clone(), Box::new(BaselineController::new()), 10_000)
                .unwrap()
                .run(&reqs)
        };
        let unsorted = mk(vec![
            HostRequest::new(SimTime::from_ms(2), IoOp::Read, 7, 1),
            HostRequest::new(SimTime::from_ms(1), IoOp::Read, 11, 1),
            HostRequest::new(SimTime::ZERO, IoOp::Write, 3, 1),
        ]);
        let sorted = mk(vec![
            HostRequest::new(SimTime::ZERO, IoOp::Write, 3, 1),
            HostRequest::new(SimTime::from_ms(1), IoOp::Read, 11, 1),
            HostRequest::new(SimTime::from_ms(2), IoOp::Read, 7, 1),
        ]);
        assert_eq!(unsorted.requests_completed, 3);
        assert_eq!(unsorted, sorted);
    }

    #[test]
    fn multi_page_requests_complete_once() {
        let cfg = cfg_at(0.0, 0.0);
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 10_000).unwrap();
        let trace = vec![HostRequest::new(SimTime::ZERO, IoOp::Read, 100, 8)];
        let report = ssd.run(&trace);
        assert_eq!(report.requests_completed, 1);
        // 8 pages across 8 planes: mostly parallel, bounded by channel DMA.
        assert!(report.read_response_us.mean() < 400.0);
    }

    #[test]
    fn empty_trace_reports_zero_throughput_without_nan() {
        // Regression (zero-duration runs): an empty trace must report 0
        // kIOPS and finite means — never ∞/NaN from a 0/0 — and the report
        // must stay comparable (the CLI prints these fields verbatim).
        let cfg = cfg_at(0.0, 0.0);
        let mk = || {
            Ssd::new(cfg.clone(), Box::new(BaselineController::new()), 1_000)
                .unwrap()
                .run(&[])
        };
        let report = mk();
        assert_eq!(report.requests_completed, 0);
        assert_eq!(report.kiops(), 0.0);
        assert!(report.kiops().is_finite());
        assert_eq!(report.avg_response_us(), 0.0);
        assert!(report.avg_response_us().is_finite());
        assert_eq!(report.read_p99_us(), None);
        assert_eq!(report.makespan, SimTime::ZERO);
        assert_eq!(report, mk(), "empty runs are comparable and stable");
        // Closed loop over an empty trace is equally inert.
        let closed = Ssd::new(cfg.clone(), Box::new(BaselineController::new()), 1_000)
            .unwrap()
            .run_with(&[], ReplayMode::closed_loop(4));
        assert_eq!(closed.kiops(), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds footprint")]
    fn out_of_range_lpn_panics() {
        let cfg = cfg_at(0.0, 0.0);
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 100).unwrap();
        let trace = vec![HostRequest::new(SimTime::ZERO, IoOp::Read, 100, 1)];
        ssd.run(&trace);
    }

    // ---- closed-loop replay --------------------------------------------------

    fn fresh_reads(n: u64) -> Vec<HostRequest> {
        (0..n)
            .map(|l| HostRequest::new(SimTime::ZERO, IoOp::Read, l, 1))
            .collect()
    }

    #[test]
    fn closed_loop_qd1_runs_requests_in_isolation() {
        // QD = 1 degenerates to a serial device: each read runs alone, so
        // the average equals the isolated Eq. 2 latency and the makespan is
        // the sum of the individual latencies.
        let cfg = cfg_at(0.0, 0.0);
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 50_000).unwrap();
        let report = ssd.run_with(&fresh_reads(3), ReplayMode::closed_loop(1));
        assert_eq!(report.requests_completed, 3);
        assert!(
            (report.avg_read_response_us() - 114.0).abs() < 1.0,
            "avg = {}",
            report.avg_read_response_us()
        );
        assert!(
            (report.makespan.as_us_f64() - 3.0 * 114.0).abs() < 3.0,
            "makespan = {}",
            report.makespan.as_us_f64()
        );
    }

    #[test]
    fn closed_loop_higher_qd_overlaps_independent_reads() {
        let cfg = cfg_at(0.0, 0.0);
        let mk = || Ssd::new(cfg.clone(), Box::new(BaselineController::new()), 50_000).unwrap();
        let serial = mk().run_with(&fresh_reads(8), ReplayMode::closed_loop(1));
        let loaded = mk().run_with(&fresh_reads(8), ReplayMode::closed_loop(8));
        assert_eq!(loaded.requests_completed, 8);
        // Multi-die interleaving: 8 outstanding reads finish sooner in
        // wall-clock (sensing overlaps across dies) ...
        assert!(
            loaded.makespan < serial.makespan,
            "QD 8 makespan {} must beat QD 1 makespan {}",
            loaded.makespan,
            serial.makespan
        );
        // ... while per-request latency can only grow under contention
        // (shared channel bus and ECC decoder).
        assert!(loaded.avg_read_response_us() >= serial.avg_read_response_us() - 1e-9);
        assert!(loaded.kiops() > serial.kiops());
    }

    #[test]
    fn closed_loop_report_is_deterministic() {
        let mk = || {
            let cfg = cfg_at(1000.0, 6.0);
            let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 20_000).unwrap();
            let trace: Vec<HostRequest> = (0..120)
                .map(|i| {
                    let op = if i % 5 == 0 { IoOp::Write } else { IoOp::Read };
                    HostRequest::new(SimTime::ZERO, op, (i * 17) % 5000, 1)
                })
                .collect();
            ssd.run_with(&trace, ReplayMode::closed_loop(8))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn closed_loop_queue_depth_beyond_trace_len() {
        let cfg = cfg_at(0.0, 0.0);
        let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 10_000).unwrap();
        let report = ssd.run_with(&fresh_reads(4), ReplayMode::closed_loop(64));
        assert_eq!(report.requests_completed, 4);
    }
}
