//! Array-scale simulation: N replica devices behind a placement layer.
//!
//! Production traffic does not hit one SSD — it hits dozens behind a
//! striping/replication layer, where the classic "p99 of the slowest of N"
//! effect interacts with per-device GC storms. This module makes the fleet a
//! first-class axis: a [`DeviceSet`] instantiates N devices (sharing one
//! `Arc<SsdConfig>` and forking one warm [`DeviceImage`] across all of them),
//! a pluggable [`Placement`] routes every request of a single trace to
//! exactly one device *ahead of* the host-queue front end, each device runs
//! the existing single-device engine unchanged, and the per-device
//! [`SimReport`]s merge into an [`ArrayReport`] carrying per-device
//! distributions plus array-level tail amplification.
//!
//! On top of placement sits [`Redundancy`]: `replicate(r)` and `ec(k, n)`
//! fan each logical request out to a replica/stripe set (anchored at the
//! placement's primary device) and complete it at the wait-for-k order
//! statistic of its copies' responses — the first of `r` for replicated
//! reads, the k-th for EC reconstruction. [`route_redundant`] also models a
//! mid-run device loss ([`FailurePlan`]): later requests route around the
//! dead device and deterministic rebuild reads land on the survivors,
//! flowing through the same event cores so rebuild interference shows up in
//! per-queue [`GcStalls`] and the tail tables. `Redundancy::None` takes the
//! placement-only merge path, bit-identical to PR 9.
//!
//! # Semantics
//!
//! * Devices are **full-footprint replicas**: every device restores the same
//!   image and serves the same logical address space, so any placement is
//!   admissible and placements can be compared on identical state.
//! * Routing preserves arrival times and per-device arrival order; each
//!   device's sub-trace then replays under the run's own front-end
//!   configuration (so a closed-loop sweep keeps `qd` requests outstanding
//!   *per device*).
//! * Array-level quantiles are **exact**: the merge concatenates the raw
//!   per-class latency samples of every device (in device order) and
//!   re-summarizes, rather than approximating from per-device summaries.
//! * Everything is deterministic: results are bit-identical across reruns,
//!   `--jobs` and device-worker counts, because devices are independent and
//!   merged in fixed device order.

use crate::config::{ConfigError, SsdConfig};
use crate::hostq::HostQueueConfig;
use crate::metrics::{GcStalls, LatencySamples, LatencySummary, SimReport};
use crate::readflow::RetryController;
use crate::request::{HostRequest, IoOp};
use crate::snapshot::DeviceImage;
use crate::ssd::{SimArena, Ssd};
use rr_util::stats::{OnlineStats, Percentiles};
use rr_util::time::SimTime;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Routes each request of a trace to one device of an array.
///
/// Implementations must be pure functions of their arguments: the same
/// `(index, request, devices, footprint)` must always map to the same device,
/// so routing is deterministic and reproducible across reruns and worker
/// counts.
pub trait Placement: Sync {
    /// Short policy name (as accepted by `--placement`).
    fn name(&self) -> &'static str;

    /// The device (in `0..devices`) that serves request `req`, the
    /// `index`-th request of the trace (0-based, arrival order).
    /// `footprint` is the trace's logical footprint in pages.
    fn route(&self, index: usize, req: &HostRequest, devices: u32, footprint: u64) -> u32;
}

/// Exact round-robin striping: request `i` lands on device `i mod N`.
/// Perfectly balanced per-request, blind to address locality.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinStripe;

impl Placement for RoundRobinStripe {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn route(&self, index: usize, _req: &HostRequest, devices: u32, _footprint: u64) -> u32 {
        (index % devices as usize) as u32
    }
}

/// LPN-hash placement: a request lands on `splitmix64(lpn) mod N`, so every
/// access to one logical page consistently hits the same device (the
/// consistent-hashing analogue of a key-value fleet).
#[derive(Debug, Clone, Copy, Default)]
pub struct LpnHash;

impl Placement for LpnHash {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn route(&self, _index: usize, req: &HostRequest, devices: u32, _footprint: u64) -> u32 {
        (splitmix64(req.lpn) % devices as u64) as u32
    }
}

/// Hot/cold tiering: the hot quarter of the address space (`lpn <
/// footprint/4`) stripes round-robin over the first `⌈N/2⌉` devices, the
/// cold remainder hashes over the rest. With fewer than two devices the
/// cold tier is empty and everything lands on the hot tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotColdTier;

impl Placement for HotColdTier {
    fn name(&self) -> &'static str {
        "tier"
    }

    fn route(&self, index: usize, req: &HostRequest, devices: u32, footprint: u64) -> u32 {
        let hot = devices.div_ceil(2);
        let cold = devices - hot;
        if cold == 0 || req.lpn < footprint / 4 {
            (index % hot as usize) as u32
        } else {
            hot + (splitmix64(req.lpn) % cold as u64) as u32
        }
    }
}

/// SplitMix64: a full-avalanche mix of one `u64`, used so LPN-hash routing
/// does not alias with the FTL's own striding.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The built-in placement policies, as selected by `--placement`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// [`RoundRobinStripe`].
    #[default]
    RoundRobin,
    /// [`LpnHash`].
    LpnHash,
    /// [`HotColdTier`].
    HotCold,
}

static STRIPE: RoundRobinStripe = RoundRobinStripe;
static HASH: LpnHash = LpnHash;
static TIER: HotColdTier = HotColdTier;

impl PlacementPolicy {
    /// Parses a `--placement` value (`rr`, `hash`, `tier`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rr" => Some(Self::RoundRobin),
            "hash" => Some(Self::LpnHash),
            "tier" => Some(Self::HotCold),
            _ => None,
        }
    }

    /// The policy's CLI name.
    pub fn name(self) -> &'static str {
        self.placement().name()
    }

    /// The policy as a [`Placement`] trait object.
    pub fn placement(self) -> &'static dyn Placement {
        match self {
            Self::RoundRobin => &STRIPE,
            Self::LpnHash => &HASH,
            Self::HotCold => &TIER,
        }
    }

    /// Routes one request (see [`Placement::route`]).
    pub fn route(self, index: usize, req: &HostRequest, devices: u32, footprint: u64) -> u32 {
        self.placement().route(index, req, devices, footprint)
    }
}

/// Routes every request of `requests` and returns the device index each one
/// lands on — the single source of truth the trace-splitting hooks and the
/// routing-invariant tests share.
pub fn route_indices(
    requests: &[HostRequest],
    devices: u32,
    placement: PlacementPolicy,
    footprint: u64,
) -> Vec<u32> {
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let d = placement.route(i, r, devices, footprint);
            debug_assert!(d < devices, "placement routed request {i} to device {d}");
            d
        })
        .collect()
}

// ---- redundancy ------------------------------------------------------------

/// How logical requests fan out across the array's devices.
///
/// * `None` — every request goes to exactly one device (the PR 9
///   placement-only path, byte-frozen).
/// * `Replicate { r }` — every request is copied to `r` devices; a read
///   completes at the **first** response (read hedging), a write waits for
///   all `r` copies (durability).
/// * `Ec { k, n }` — requests stripe over an `n`-device span; a read fans to
///   `k` stripe members and completes at the **k-th** (last) response (the
///   reconstruction fan-in), a write updates all its targeted members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Redundancy {
    /// Placement-only routing, one device per request.
    #[default]
    None,
    /// `r`-way replication.
    Replicate {
        /// Copies per request (≥ 2 to be meaningful).
        r: u32,
    },
    /// `k`-of-`n` erasure coding.
    Ec {
        /// Responses a read needs (data shards touched).
        k: u32,
        /// Stripe span in devices.
        n: u32,
    },
}

impl Redundancy {
    /// Parses a `--redundancy` value: `none`, `replicate:R` (R ≥ 2) or
    /// `ec:K:N` (1 ≤ K < N).
    pub fn parse(s: &str) -> Option<Self> {
        if s == "none" {
            return Some(Self::None);
        }
        if let Some(r) = s.strip_prefix("replicate:") {
            let r: u32 = r.parse().ok()?;
            return (r >= 2).then_some(Self::Replicate { r });
        }
        if let Some(kn) = s.strip_prefix("ec:") {
            let (k, n) = kn.split_once(':')?;
            let (k, n): (u32, u32) = (k.parse().ok()?, n.parse().ok()?);
            return (k >= 1 && k < n).then_some(Self::Ec { k, n });
        }
        None
    }

    /// The scheme's CLI name (`none`, `replicate:2`, `ec:2:3`, ...).
    pub fn name(self) -> String {
        match self {
            Self::None => "none".to_string(),
            Self::Replicate { r } => format!("replicate:{r}"),
            Self::Ec { k, n } => format!("ec:{k}:{n}"),
        }
    }

    /// Whether the scheme fans requests out at all.
    pub fn is_redundant(self) -> bool {
        !matches!(self, Self::None)
    }

    /// The replica/stripe set request `req` (the `index`-th of the trace)
    /// fans out to: the placement's primary device plus its successors
    /// (mod `devices`) within the scheme's stripe span, skipping a `failed`
    /// device. The set is a pure function of its arguments — stable across
    /// calls, never larger than the stripe span (`r`, `n`, or 1), never
    /// repeating a device — and degrades deterministically when the failed
    /// device would have been a member: the surviving members keep their
    /// order and the next in-span successor (if any) fills in.
    pub fn route_set(
        self,
        index: usize,
        req: &HostRequest,
        devices: u32,
        footprint: u64,
        placement: PlacementPolicy,
        failed: Option<u32>,
    ) -> Vec<u32> {
        assert!(devices > 0, "cannot route across zero devices");
        let primary = placement.route(index, req, devices, footprint);
        let (span, width) = match self {
            Self::None => (1, 1),
            Self::Replicate { r } => (devices, r.min(devices)),
            Self::Ec { k, n } => {
                let span = n.min(devices);
                let width = if req.op == IoOp::Read {
                    k.min(span)
                } else {
                    span
                };
                (span, width)
            }
        };
        let set: Vec<u32> = (0..span)
            .map(|j| (primary + j) % devices)
            .filter(|&d| Some(d) != failed)
            .take(width as usize)
            .collect();
        if set.is_empty() {
            // Degenerate single-device array with that device failed: route
            // to the primary anyway so the request is not lost.
            vec![primary]
        } else {
            set
        }
    }

    /// How many of a request's `set_len` copies must respond before the
    /// logical request completes: 1 for replicated reads (first copy wins),
    /// all of them otherwise (EC reconstruction fan-in; write durability).
    pub fn wait_for(self, op: IoOp, set_len: usize) -> u32 {
        match self {
            Self::Replicate { .. } if op == IoOp::Read => 1,
            _ => set_len as u32,
        }
    }
}

/// A mid-run device loss: requests arriving at or after `at` route around
/// device `device`, and deterministic rebuild reads are injected across the
/// survivors (see [`route_redundant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailurePlan {
    /// The device that fails.
    pub device: u32,
    /// Trace time of the failure.
    pub at: SimTime,
}

/// Simulated gap between consecutive rebuild reads injected after a device
/// loss, in µs — a steady background reconstruction stream rather than a
/// single burst.
pub const REBUILD_INTERVAL_US: u64 = 25;

/// Cap on lost logical pages whose reconstruction is injected into the run
/// (the rebuild window that overlaps the trace horizon; a full-device
/// rebuild takes far longer than any trace).
pub const REBUILD_PAGE_CAP: u64 = 2048;

/// Salt decorrelating rebuild-source selection from page placement.
const REBUILD_SALT: u64 = 0xC0DE_D00D_5EED_CAFE;

/// A trace routed under a redundancy scheme (and optional device loss):
/// per-device request streams plus the bookkeeping that lets the merge
/// reassemble each logical request from its copies' responses.
#[derive(Debug, Clone)]
pub struct RedundantRouting {
    /// Per-device request streams (logical copies interleaved with rebuild
    /// reads), each in arrival order.
    device_requests: Vec<Vec<HostRequest>>,
    /// Per logical request: the `(device, position-in-device-stream)` of
    /// each issued copy, in route-set order.
    copies: Vec<Vec<(u32, u32)>>,
    /// Responses to wait for per logical request (the k in wait-for-k).
    wait_for: Vec<u32>,
    /// Whether each logical request is a read.
    is_read: Vec<bool>,
    /// Rebuild reads injected per device.
    rebuild_reads: Vec<u64>,
    /// The scheme the routing was computed under.
    scheme: Redundancy,
    /// The failed device, when the failure fell inside the trace horizon.
    failed: Option<u32>,
}

impl RedundantRouting {
    /// Per-device request streams, in device order.
    pub fn device_requests(&self) -> &[Vec<HostRequest>] {
        &self.device_requests
    }

    /// Number of logical requests routed.
    pub fn logical_len(&self) -> usize {
        self.copies.len()
    }

    /// The `(device, position)` copies of logical request `i`.
    pub fn copies_of(&self, i: usize) -> &[(u32, u32)] {
        &self.copies[i]
    }

    /// Rebuild reads injected per device (all zero without a failure).
    pub fn rebuild_reads(&self) -> &[u64] {
        &self.rebuild_reads
    }

    /// The failed device, when the failure fell inside the trace horizon.
    pub fn failed_device(&self) -> Option<u32> {
        self.failed
    }
}

/// Routes a trace across `devices` array members under `redundancy` (and an
/// optional mid-run `failure`), producing the per-device request streams
/// and the copy map the merge needs.
///
/// Semantics:
///
/// * Each logical request fans out to [`Redundancy::route_set`]; copies keep
///   the request's arrival time, so per-device streams stay arrival-sorted.
/// * A failure **at or before the trace horizon** (the last request's
///   arrival) makes requests arriving from `failure.at` on route around the
///   failed device, and injects rebuild reads: the failed device's share of
///   the footprint (`splitmix64(lpn) % devices == failed`, capped at
///   [`REBUILD_PAGE_CAP`] pages) is re-read from survivors — one
///   deterministic source per page under `none`/`replicate`, `k` cyclic
///   sources per page under `ec:k:n` (reconstruction fan-in) — spaced
///   [`REBUILD_INTERVAL_US`] apart from `failure.at`.
/// * A failure **beyond the trace horizon** (or on an empty trace, an
///   out-of-range device, or a single-device array) is dropped entirely:
///   the routing is structurally identical to an unfailed one.
/// * Requests already issued before `failure.at` complete normally — the
///   loss is fail-stop for *routing*, modelling a controller that stops
///   sending new I/O to the dead device while in-flight I/O drains.
pub fn route_redundant(
    requests: &[HostRequest],
    devices: u32,
    placement: PlacementPolicy,
    footprint: u64,
    redundancy: Redundancy,
    failure: Option<FailurePlan>,
) -> RedundantRouting {
    assert!(devices > 0, "cannot route across zero devices");
    let failure = failure.filter(|f| {
        f.device < devices && devices > 1 && requests.last().is_some_and(|r| f.at <= r.arrival)
    });
    // Rebuild schedule: (arrival, sources, lpn), arrival-sorted by
    // construction.
    let mut rebuild: Vec<(SimTime, Vec<u32>, u64)> = Vec::new();
    if let Some(f) = failure {
        let survivors: Vec<u32> = (0..devices).filter(|&d| d != f.device).collect();
        let sources_per_page = match redundancy {
            Redundancy::Ec { k, .. } => (k as usize).clamp(1, survivors.len()),
            _ => 1,
        };
        let mut injected = 0u64;
        for lpn in 0..footprint {
            if injected >= REBUILD_PAGE_CAP {
                break;
            }
            if splitmix64(lpn) % devices as u64 != f.device as u64 {
                continue;
            }
            let arrival = f.at + SimTime::from_us(injected * REBUILD_INTERVAL_US);
            let start = (splitmix64(lpn ^ REBUILD_SALT) % survivors.len() as u64) as usize;
            let sources = (0..sources_per_page)
                .map(|j| survivors[(start + j) % survivors.len()])
                .collect();
            rebuild.push((arrival, sources, lpn));
            injected += 1;
        }
    }
    let mut device_requests: Vec<Vec<HostRequest>> = vec![Vec::new(); devices as usize];
    let mut rebuild_reads = vec![0u64; devices as usize];
    let mut copies = Vec::with_capacity(requests.len());
    let mut wait_for = Vec::with_capacity(requests.len());
    let mut is_read = Vec::with_capacity(requests.len());
    let mut next_rebuild = 0usize;
    let flush_rebuild = |upto: Option<SimTime>,
                         next_rebuild: &mut usize,
                         device_requests: &mut Vec<Vec<HostRequest>>,
                         rebuild_reads: &mut Vec<u64>| {
        while *next_rebuild < rebuild.len() && upto.is_none_or(|t| rebuild[*next_rebuild].0 < t) {
            let (at, sources, lpn) = &rebuild[*next_rebuild];
            for &d in sources {
                device_requests[d as usize].push(HostRequest::new(*at, IoOp::Read, *lpn, 1));
                rebuild_reads[d as usize] += 1;
            }
            *next_rebuild += 1;
        }
    };
    for (i, r) in requests.iter().enumerate() {
        // Rebuild reads interleave by arrival time (ties: the logical
        // request first, matching `Trace::new`'s stable sort).
        flush_rebuild(
            Some(r.arrival),
            &mut next_rebuild,
            &mut device_requests,
            &mut rebuild_reads,
        );
        let active_fail = failure.filter(|f| r.arrival >= f.at).map(|f| f.device);
        let set = redundancy.route_set(i, r, devices, footprint, placement, active_fail);
        wait_for.push(redundancy.wait_for(r.op, set.len()));
        is_read.push(r.op == IoOp::Read);
        let mut c = Vec::with_capacity(set.len());
        for d in set {
            c.push((d, device_requests[d as usize].len() as u32));
            device_requests[d as usize].push(*r);
        }
        copies.push(c);
    }
    flush_rebuild(
        None,
        &mut next_rebuild,
        &mut device_requests,
        &mut rebuild_reads,
    );
    RedundantRouting {
        device_requests,
        copies,
        wait_for,
        is_read,
        rebuild_reads,
        scheme: redundancy,
        failed: failure.map(|f| f.device),
    }
}

/// Redundancy attribution of one array run: the wait-for-k latency class,
/// which reads the scheme rescued from the slowest device, and the
/// per-device fan-out and rebuild counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedundancyStats {
    /// Scheme name (`replicate:2`, `ec:2:3`, ...).
    pub scheme: String,
    /// The logical read latency distribution — each read's k-th (or
    /// 1st-of-r) copy response, the wait-for-k latency.
    pub wait_for_k: LatencySummary,
    /// Replicated reads whose copy on the slowest device (worst read p99.9)
    /// was strictly slower than the copy that completed them — reads the
    /// scheme rescued from that device's GC window. EC reads wait for their
    /// whole fan-out, so they never rescue.
    pub rescued_reads: u64,
    /// Total latency those rescued reads avoided, µs (slowest-device copy
    /// minus completing copy, summed).
    pub rescued_saved_us: f64,
    /// Read copies issued per device (fan-out attribution).
    pub fanout_reads: Vec<u64>,
    /// Write copies issued per device.
    pub fanout_writes: Vec<u64>,
    /// Rebuild reads injected per device (all zero without a failure).
    pub rebuild_reads: Vec<u64>,
    /// The failed device, when a failure fell inside the trace horizon.
    pub failed_device: Option<u32>,
}

/// Merged results of one array run: the per-device [`SimReport`]s (device
/// `i` at index `i`) plus exact array-level latency classes and the
/// tail-amplification quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayReport {
    /// Per-device reports, in device order.
    pub devices: Vec<SimReport>,
    /// Exact array-level read latency distribution (all devices' samples).
    pub read_latency: LatencySummary,
    /// Exact array-level write latency distribution.
    pub write_latency: LatencySummary,
    /// Exact array-level distribution of retried reads.
    pub retried_read_latency: LatencySummary,
    /// Response-time statistics over all host requests of all devices.
    pub response_us: OnlineStats,
    /// Response-time statistics over host reads of all devices.
    pub read_response_us: OnlineStats,
    /// Host requests completed across the array.
    pub requests_completed: u64,
    /// Discrete events processed across the array.
    pub events_processed: u64,
    /// Array makespan: the *slowest* device's makespan (devices run
    /// concurrently in wall-clock terms).
    pub makespan: SimTime,
    /// Redundancy attribution, when the run fanned requests out (see
    /// [`RedundancyStats`]); `None` on the placement-only path.
    pub redundancy: Option<RedundancyStats>,
}

impl ArrayReport {
    /// Merges per-device results (in device order) into an array report.
    fn merge(per_device: Vec<(SimReport, LatencySamples)>) -> Self {
        let mut reads = Percentiles::new();
        let mut writes = Percentiles::new();
        let mut retried = Percentiles::new();
        let mut response_us = OnlineStats::new();
        let mut read_response_us = OnlineStats::new();
        let mut requests_completed = 0u64;
        let mut events_processed = 0u64;
        let mut makespan = SimTime::ZERO;
        let mut devices = Vec::with_capacity(per_device.len());
        for (report, samples) in per_device {
            for &x in &samples.reads {
                reads.push(x);
            }
            for &x in &samples.writes {
                writes.push(x);
            }
            for &x in &samples.retried_reads {
                retried.push(x);
            }
            response_us.merge(&report.response_us);
            read_response_us.merge(&report.read_response_us);
            requests_completed += report.requests_completed;
            events_processed += report.events_processed;
            makespan = makespan.max(report.makespan);
            devices.push(report);
        }
        Self {
            devices,
            read_latency: reads.summary(),
            write_latency: writes.summary(),
            retried_read_latency: retried.summary(),
            response_us,
            read_response_us,
            requests_completed,
            events_processed,
            makespan,
            redundancy: None,
        }
    }

    /// Merges per-device results of a redundantly routed run: the array's
    /// latency classes are computed over **logical** requests — each one the
    /// wait-for-k order statistic of its copies' response latencies — rather
    /// than over the per-device copy populations, and `requests_completed`
    /// counts logical requests (per-device completions exceed it by the
    /// fan-out plus any rebuild reads).
    ///
    /// Copies replay as independent requests under each device's own front
    /// end, so the order statistic combines per-copy response latencies
    /// (submission-relative) — the standard fork-join approximation of a
    /// hedged read.
    fn merge_redundant(
        per_device: Vec<(SimReport, LatencySamples)>,
        routing: &RedundantRouting,
    ) -> Self {
        let (devices, samples): (Vec<SimReport>, Vec<LatencySamples>) =
            per_device.into_iter().unzip();
        let mut events_processed = 0u64;
        let mut makespan = SimTime::ZERO;
        for report in &devices {
            events_processed += report.events_processed;
            makespan = makespan.max(report.makespan);
        }
        // The rescue attribution target: the device with the worst read
        // p99.9 (same selection as `slowest_device`).
        let mut slowest: Option<(u32, f64)> = None;
        for (i, d) in devices.iter().enumerate() {
            if let Some(p) = d.read_latency.p999 {
                if slowest.is_none_or(|(_, w)| p > w) {
                    slowest = Some((i as u32, p));
                }
            }
        }
        let slowest = slowest.map(|(i, _)| i);
        let mut reads = Percentiles::new();
        let mut writes = Percentiles::new();
        let mut retried = Percentiles::new();
        let mut wait_for_k = Percentiles::new();
        let mut response_us = OnlineStats::new();
        let mut read_response_us = OnlineStats::new();
        let mut fanout_reads = vec![0u64; devices.len()];
        let mut fanout_writes = vec![0u64; devices.len()];
        let mut rescued_reads = 0u64;
        let mut rescued_saved_us = 0.0;
        let mut scratch: Vec<(f64, bool, u32)> = Vec::new();
        for i in 0..routing.logical_len() {
            scratch.clear();
            for &(d, pos) in routing.copies_of(i) {
                let (us, was_retried) = samples[d as usize].by_request[pos as usize];
                scratch.push((us, was_retried, d));
            }
            // Stable by latency: ties keep route-set order, so the merge is
            // deterministic.
            scratch.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("latencies are finite"));
            let w = (routing.wait_for[i] as usize).clamp(1, scratch.len());
            let completed = scratch[w - 1].0;
            let retried_any = scratch[..w].iter().any(|c| c.1);
            response_us.push(completed);
            if routing.is_read[i] {
                read_response_us.push(completed);
                reads.push(completed);
                wait_for_k.push(completed);
                if retried_any {
                    retried.push(completed);
                }
                for c in &scratch {
                    fanout_reads[c.2 as usize] += 1;
                }
                if w < scratch.len() {
                    if let Some(slow) = slowest {
                        let worst_on_slow = scratch[w..]
                            .iter()
                            .filter(|c| c.2 == slow)
                            .map(|c| c.0)
                            .fold(f64::NEG_INFINITY, f64::max);
                        if worst_on_slow > completed {
                            rescued_reads += 1;
                            rescued_saved_us += worst_on_slow - completed;
                        }
                    }
                }
            } else {
                writes.push(completed);
                for c in &scratch {
                    fanout_writes[c.2 as usize] += 1;
                }
            }
        }
        let redundancy = RedundancyStats {
            scheme: routing.scheme.name(),
            wait_for_k: wait_for_k.summary(),
            rescued_reads,
            rescued_saved_us,
            fanout_reads,
            fanout_writes,
            rebuild_reads: routing.rebuild_reads.clone(),
            failed_device: routing.failed,
        };
        Self {
            devices,
            read_latency: reads.summary(),
            write_latency: writes.summary(),
            retried_read_latency: retried.summary(),
            response_us,
            read_response_us,
            requests_completed: routing.logical_len() as u64,
            events_processed,
            makespan,
            redundancy: Some(redundancy),
        }
    }

    /// Number of devices in the array.
    pub fn device_count(&self) -> u32 {
        self.devices.len() as u32
    }

    /// Average response time in µs over all requests of all devices.
    pub fn avg_response_us(&self) -> f64 {
        self.response_us.mean()
    }

    /// Array throughput in kIOPS: total completions over the slowest
    /// device's makespan (devices serve concurrently).
    pub fn kiops(&self) -> f64 {
        let us = self.makespan.as_us_f64();
        if us <= 0.0 {
            0.0
        } else {
            self.requests_completed as f64 / us * 1_000.0
        }
    }

    /// Total GC stalls attributed to device `device` (summed over its host
    /// queues) — the quantity that explains which device's GC storm drives
    /// the array tail.
    pub fn device_gc(&self, device: usize) -> GcStalls {
        let mut total = GcStalls::default();
        for q in &self.devices[device].per_queue {
            total.suspensions += q.gc.suspensions;
            total.preemptions += q.gc.preemptions;
            total.waits += q.gc.waits;
            total.deferrals += q.gc.deferrals;
            total.stall_us += q.gc.stall_us;
        }
        total
    }

    /// The device with the worst read p99.9 (lowest index on ties), or
    /// `None` when no device completed a read — the array-tail culprit.
    pub fn slowest_device(&self) -> Option<u32> {
        let mut worst: Option<(u32, f64)> = None;
        for (i, d) in self.devices.iter().enumerate() {
            if let Some(p) = d.read_latency.p999 {
                if worst.is_none_or(|(_, w)| p > w) {
                    worst = Some((i as u32, p));
                }
            }
        }
        worst.map(|(i, _)| i)
    }

    /// Best (lowest) per-device read quantile: `q99` selects p99, otherwise
    /// p99.9.
    fn best_device_read(&self, q99: bool) -> Option<f64> {
        self.devices
            .iter()
            .filter_map(|d| {
                if q99 {
                    d.read_latency.p99
                } else {
                    d.read_latency.p999
                }
            })
            .min_by(|a, b| a.partial_cmp(b).expect("latencies are finite"))
    }

    /// Median per-device read quantile (lower-middle on even counts, so the
    /// value is always an actual device's quantile).
    fn median_device_read(&self, q99: bool) -> Option<f64> {
        let mut qs: Vec<f64> = self
            .devices
            .iter()
            .filter_map(|d| {
                if q99 {
                    d.read_latency.p99
                } else {
                    d.read_latency.p999
                }
            })
            .collect();
        if qs.is_empty() {
            return None;
        }
        qs.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Some(qs[(qs.len() - 1) / 2])
    }

    /// Best per-device read p99 (the fastest device's tail).
    pub fn best_device_read_p99(&self) -> Option<f64> {
        self.best_device_read(true)
    }

    /// Best per-device read p99.9.
    pub fn best_device_read_p999(&self) -> Option<f64> {
        self.best_device_read(false)
    }

    /// Median per-device read p99.
    pub fn median_device_read_p99(&self) -> Option<f64> {
        self.median_device_read(true)
    }

    /// Median per-device read p99.9.
    pub fn median_device_read_p999(&self) -> Option<f64> {
        self.median_device_read(false)
    }

    /// Array-tail amplification at p99: the array-level read p99 over the
    /// *best* device's read p99 (≥ 1 by construction when every device saw
    /// reads and requests route to single devices — the fleet can only be
    /// as fast as its fastest member). Under redundancy the numerator is
    /// the **post-redundancy** wait-for-k tail, so replication can push the
    /// ratio *below* 1: hedged reads beat even the best single device.
    pub fn amplification_p99(&self) -> Option<f64> {
        match (self.read_latency.p99, self.best_device_read_p99()) {
            (Some(array), Some(best)) if best > 0.0 => Some(array / best),
            _ => None,
        }
    }

    /// Array-tail amplification at p99.9 (array read p99.9 over the best
    /// device's read p99.9).
    pub fn amplification_p999(&self) -> Option<f64> {
        match (self.read_latency.p999, self.best_device_read_p999()) {
            (Some(array), Some(best)) if best > 0.0 => Some(array / best),
            _ => None,
        }
    }
}

/// How many devices of an array should simulate concurrently when an
/// experiment runs `jobs` matrix cells at once: the machine's available
/// parallelism split across the cell workers, clamped to `[1, devices]`.
/// The budget is divided, never multiplied, so `jobs` cell workers times
/// this many device threads never exceed `max(available_parallelism, jobs)`.
pub fn worker_budget(devices: u32, jobs: usize) -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (avail / jobs.max(1)).clamp(1, devices.max(1) as usize)
}

/// N devices' worth of retained simulation state: one [`SimArena`] per
/// device slot, reused run after run (queries after cells), so an array
/// restores N warm images without re-cloning or re-allocating anything.
#[derive(Debug)]
pub struct DeviceSet {
    arenas: Vec<SimArena>,
}

impl DeviceSet {
    /// Creates a device set of `devices` slots.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] when `devices` is zero.
    pub fn new(devices: u32) -> Result<Self, ConfigError> {
        if devices == 0 {
            return Err(ConfigError::new(
                "an array needs at least one device (devices = 0)",
            ));
        }
        Ok(Self {
            arenas: (0..devices).map(|_| SimArena::new()).collect(),
        })
    }

    /// Number of device slots.
    pub fn devices(&self) -> u32 {
        self.arenas.len() as u32
    }

    /// Runs one routed trace across the array and merges the results.
    ///
    /// `device_traces[i]` is device `i`'s sub-trace (see [`route_indices`]
    /// and `rr_workloads::Trace::split_routed`); `images` is the per-device
    /// warm-start fork from [`crate::snapshot::ImageBank::fork_for_array`]
    /// (`None` cold-starts every device); `device_workers` bounds how many
    /// devices simulate concurrently (see [`worker_budget`]). Results are
    /// invariant to the thread count.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] on a device-count mismatch between this set
    /// and the routed trace or the image fork, and on any
    /// configuration/footprint/image error of a device run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_queued_from(
        &mut self,
        cfg: &Arc<SsdConfig>,
        make_controller: &(dyn Fn() -> Box<dyn RetryController + Send> + Sync),
        lpn_count: u64,
        device_traces: &[&[HostRequest]],
        queues: &HostQueueConfig,
        images: Option<&[&DeviceImage]>,
        device_workers: usize,
    ) -> Result<ArrayReport, ConfigError> {
        let results = self.run_devices(
            cfg,
            make_controller,
            lpn_count,
            device_traces,
            queues,
            images,
            device_workers,
            false,
        )?;
        Ok(ArrayReport::merge(results))
    }

    /// Runs a redundantly routed trace (see [`route_redundant`]) across the
    /// array: every device replays its copy/rebuild stream with per-request
    /// tracking on, and the merge reassembles each logical request at its
    /// wait-for-k order statistic into an [`ArrayReport`] carrying
    /// [`RedundancyStats`].
    ///
    /// `shard_workers` is kept for source compatibility with callers written
    /// against the former channel-sharded engine and must be 0.
    ///
    /// # Errors
    ///
    /// As [`DeviceSet::run_queued_from`], plus a typed [`ConfigError`] when
    /// `shard_workers` is not 0.
    #[allow(clippy::too_many_arguments)]
    pub fn run_redundant_from(
        &mut self,
        cfg: &Arc<SsdConfig>,
        make_controller: &(dyn Fn() -> Box<dyn RetryController + Send> + Sync),
        lpn_count: u64,
        routing: &RedundantRouting,
        queues: &HostQueueConfig,
        images: Option<&[&DeviceImage]>,
        shard_workers: usize,
        device_workers: usize,
    ) -> Result<ArrayReport, ConfigError> {
        if shard_workers != 0 {
            return Err(ConfigError::new(format!(
                "shard_workers = {shard_workers}: the channel-sharded engine has been \
                 removed; pass 0 to run every device on the serial event engine"
            )));
        }
        let slices: Vec<&[HostRequest]> = routing
            .device_requests
            .iter()
            .map(|v| v.as_slice())
            .collect();
        let results = self.run_devices(
            cfg,
            make_controller,
            lpn_count,
            &slices,
            queues,
            images,
            device_workers,
            true,
        )?;
        Ok(ArrayReport::merge_redundant(results, routing))
    }

    /// The shared device-running body behind both merge paths: runs every
    /// device's stream (serially or work-stealing across `device_workers`)
    /// and returns the per-device results in device order.
    #[allow(clippy::too_many_arguments)]
    fn run_devices(
        &mut self,
        cfg: &Arc<SsdConfig>,
        make_controller: &(dyn Fn() -> Box<dyn RetryController + Send> + Sync),
        lpn_count: u64,
        device_traces: &[&[HostRequest]],
        queues: &HostQueueConfig,
        images: Option<&[&DeviceImage]>,
        device_workers: usize,
        track: bool,
    ) -> Result<Vec<(SimReport, LatencySamples)>, ConfigError> {
        let n = self.arenas.len();
        if device_traces.len() != n {
            return Err(ConfigError::new(format!(
                "device set holds {n} devices but the routed trace has {} slices",
                device_traces.len()
            )));
        }
        if let Some(images) = images {
            if images.len() != n {
                return Err(ConfigError::new(format!(
                    "device set holds {n} devices but the image fork has {} slots",
                    images.len()
                )));
            }
        }
        let run_device = |device: usize,
                          arena: &mut SimArena,
                          trace: &[HostRequest]|
         -> Result<(SimReport, LatencySamples), String> {
            Ssd::run_pooled_queued_collected_from(
                arena,
                Arc::clone(cfg),
                make_controller(),
                lpn_count,
                trace,
                queues,
                images.map(|v| v[device]),
                track,
            )
        };
        let mut results: Vec<(SimReport, LatencySamples)> = Vec::with_capacity(n);
        if device_workers <= 1 || n <= 1 {
            for (d, (arena, trace)) in self.arenas.iter_mut().zip(device_traces).enumerate() {
                results.push(run_device(d, arena, trace).map_err(ConfigError::new)?);
            }
        } else {
            // Work-stealing over ordered slots: any thread count produces the
            // same device-ordered results, so `device_workers` only changes
            // wall-clock time.
            type DeviceRun<'a> = (&'a mut SimArena, &'a [HostRequest]);
            type DeviceOut = Result<(SimReport, LatencySamples), String>;
            let work: Vec<Mutex<Option<DeviceRun<'_>>>> = self
                .arenas
                .iter_mut()
                .zip(device_traces)
                .map(|(arena, trace)| Mutex::new(Some((arena, *trace))))
                .collect();
            let slots: Vec<Mutex<Option<DeviceOut>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..device_workers.min(n) {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let (arena, trace) = work[i]
                            .lock()
                            .expect("no panics hold the work lock")
                            .take()
                            .expect("each device is claimed exactly once");
                        let out = run_device(i, arena, trace);
                        *slots[i].lock().expect("no panics hold the slot lock") = Some(out);
                    });
                }
            });
            for slot in slots {
                let out = slot
                    .into_inner()
                    .expect("no panics hold the slot lock")
                    .expect("every device slot is filled");
                results.push(out.map_err(ConfigError::new)?);
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_util::time::SimTime;

    fn reqs(n: usize) -> Vec<HostRequest> {
        (0..n)
            .map(|i| {
                HostRequest::new(
                    SimTime::from_us(10 * i as u64),
                    crate::request::IoOp::Read,
                    (i as u64 * 37) % 1000,
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn stripe_is_exact_round_robin() {
        let r = reqs(64);
        let routed = route_indices(&r, 4, PlacementPolicy::RoundRobin, 1000);
        for (i, d) in routed.iter().enumerate() {
            assert_eq!(*d, (i % 4) as u32);
        }
    }

    #[test]
    fn every_placement_routes_to_exactly_one_valid_device() {
        let r = reqs(200);
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LpnHash,
            PlacementPolicy::HotCold,
        ] {
            for devices in [1, 2, 3, 5] {
                let routed = route_indices(&r, devices, policy, 1000);
                assert_eq!(routed.len(), r.len());
                assert!(routed.iter().all(|&d| d < devices));
            }
        }
    }

    #[test]
    fn hash_is_stable_and_lpn_consistent() {
        let r = reqs(200);
        let a = route_indices(&r, 3, PlacementPolicy::LpnHash, 1000);
        let b = route_indices(&r, 3, PlacementPolicy::LpnHash, 1000);
        assert_eq!(a, b);
        // Same LPN → same device, independent of request index.
        for (i, x) in r.iter().enumerate() {
            for (j, y) in r.iter().enumerate() {
                if x.lpn == y.lpn {
                    assert_eq!(a[i], a[j], "requests {i} and {j} share lpn {}", x.lpn);
                }
            }
        }
    }

    #[test]
    fn tier_splits_hot_and_cold_address_ranges() {
        let hot = HostRequest::new(SimTime::ZERO, crate::request::IoOp::Read, 10, 1);
        let cold = HostRequest::new(SimTime::ZERO, crate::request::IoOp::Read, 900, 1);
        for devices in [2u32, 3, 4, 5] {
            let hot_set = devices.div_ceil(2);
            for index in 0..8 {
                let d = PlacementPolicy::HotCold.route(index, &hot, devices, 1000);
                assert!(d < hot_set, "hot lpn on cold device {d} of {devices}");
                let d = PlacementPolicy::HotCold.route(index, &cold, devices, 1000);
                assert!(d >= hot_set, "cold lpn on hot device {d} of {devices}");
            }
        }
    }

    #[test]
    fn placement_policy_parses_cli_names() {
        assert_eq!(
            PlacementPolicy::parse("rr"),
            Some(PlacementPolicy::RoundRobin)
        );
        assert_eq!(
            PlacementPolicy::parse("hash"),
            Some(PlacementPolicy::LpnHash)
        );
        assert_eq!(
            PlacementPolicy::parse("tier"),
            Some(PlacementPolicy::HotCold)
        );
        assert_eq!(PlacementPolicy::parse("zipf"), None);
        assert_eq!(PlacementPolicy::RoundRobin.name(), "rr");
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::RoundRobin);
    }

    #[test]
    fn device_set_rejects_zero_devices_and_slice_mismatch() {
        assert!(DeviceSet::new(0).is_err());
        let mut set = DeviceSet::new(2).unwrap();
        let cfg = Arc::new(SsdConfig::scaled_for_tests());
        let r = reqs(4);
        let slices: Vec<&[HostRequest]> = vec![&r];
        let err = set
            .run_queued_from(
                &cfg,
                &|| Box::new(crate::readflow::BaselineController::new()),
                1000,
                &slices,
                &HostQueueConfig::single(crate::replay::ReplayMode::OpenLoop),
                None,
                1,
            )
            .unwrap_err();
        assert!(err.to_string().contains("2 devices"), "{err}");
    }
}
