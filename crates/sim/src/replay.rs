//! Host-side load generation: how trace requests are admitted to the SSD.
//!
//! The load axis is first-class: the same trace can be replayed
//!
//! * **open-loop** — requests arrive at their trace timestamps regardless of
//!   whether the device keeps up (arrival-rate-driven; the classic block-trace
//!   replay, and the mode every `Ssd::run` call uses);
//! * **closed-loop** — trace timestamps are ignored and a fixed number of
//!   requests (the *queue depth*) is kept outstanding: the next request is
//!   admitted the instant one completes. Sweeping the queue depth sweeps
//!   device load directly, which is how tail-latency-vs-load curves are
//!   measured on real SSDs (`fio --iodepth`, MILC-style cluster sweeps).
//!
//! Closed-loop response time is measured from *admission* (the moment the
//! request is handed to the device), not from any trace timestamp — host-side
//! queueing before admission is the load generator's business, not the
//! device's.
//!
//! # Example
//!
//! ```
//! use rr_sim::config::SsdConfig;
//! use rr_sim::readflow::BaselineController;
//! use rr_sim::replay::ReplayMode;
//! use rr_sim::request::{HostRequest, IoOp};
//! use rr_sim::ssd::Ssd;
//! use rr_util::time::SimTime;
//!
//! let cfg = SsdConfig::scaled_for_tests();
//! let trace: Vec<_> = (0..8)
//!     .map(|i| HostRequest::new(SimTime::ZERO, IoOp::Read, i * 11, 1))
//!     .collect();
//! // Keep 4 requests in flight at all times.
//! let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 1_000).unwrap();
//! let report = ssd.run_with(&trace, ReplayMode::closed_loop(4));
//! assert_eq!(report.requests_completed, 8);
//! assert_eq!(report.read_latency.count, 8);
//! ```

use crate::config::ConfigError;
use crate::request::HostRequest;
use rr_util::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Fixed-point denominator of the open-loop rate multiplier (parts per
/// million, so rates keep derived `Eq`/hash semantics and integer-exact
/// arrival scaling).
pub const RATE_PPM: u64 = 1_000_000;

/// How host requests are admitted to the device.
///
/// # Example
///
/// ```
/// use rr_sim::replay::ReplayMode;
///
/// // Closed loop: 8 requests kept outstanding, trace timestamps ignored.
/// let qd = ReplayMode::closed_loop(8);
/// assert!(qd.is_closed_loop());
///
/// // Open loop at twice the trace's native arrival rate; rate 1.0
/// // degenerates to the plain timestamp-driven replay.
/// let doubled = ReplayMode::open_loop_rate(2.0);
/// assert!(!doubled.is_closed_loop());
/// assert_eq!(ReplayMode::open_loop_rate(1.0), ReplayMode::OpenLoop);
///
/// // Rates from external input validate instead of panicking.
/// assert!(ReplayMode::try_open_loop_rate(f64::NAN).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayMode {
    /// Replay requests at their trace timestamps (arrival-rate-driven).
    OpenLoop,
    /// Replay open-loop with every trace inter-arrival time divided by
    /// `rate_ppm / 1e6` — the offered-load multiplier of rate sweeps.
    /// `rate_ppm = 2_000_000` doubles the arrival rate; values below 1e6
    /// stretch the trace out. Build via [`ReplayMode::open_loop_rate`].
    OpenLoopScaled {
        /// Arrival-rate multiplier in parts per million (≥ 1).
        rate_ppm: u64,
    },
    /// Ignore trace timestamps and keep `queue_depth` requests outstanding,
    /// admitting the next request (in trace order) whenever one completes.
    ClosedLoop {
        /// Number of requests kept in flight (≥ 1). Depth 1 degenerates to a
        /// serial device: each request runs in complete isolation.
        queue_depth: u32,
    },
}

impl ReplayMode {
    /// Closed-loop replay at `queue_depth` outstanding requests.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn closed_loop(queue_depth: u32) -> Self {
        assert!(queue_depth >= 1, "queue depth must be at least 1");
        ReplayMode::ClosedLoop { queue_depth }
    }

    /// Open-loop replay with trace arrival times compressed by `rate`
    /// (2.0 = twice the offered load, 0.5 = half). A rate of exactly 1.0
    /// degenerates to plain [`ReplayMode::OpenLoop`].
    ///
    /// # Panics
    ///
    /// Panics if `rate` is rejected by [`ReplayMode::try_open_loop_rate`]
    /// (not finite, or not positive).
    pub fn open_loop_rate(rate: f64) -> Self {
        Self::try_open_loop_rate(rate).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`ReplayMode::open_loop_rate`] for rates coming from
    /// external input (CLI flags, sweep scripts).
    ///
    /// The valid range is any finite `rate > 0`. Rates are stored in ppm
    /// fixed point, so values below 1 ppm (10⁻⁶) — including sub-ppm inputs
    /// like `1e-9` — clamp to the 1 ppm floor instead of rounding to an
    /// (invalid) zero multiplier, and values beyond `u64::MAX` ppm saturate.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `rate` is not finite and positive
    /// (NaN, ±∞, zero, or negative).
    pub fn try_open_loop_rate(rate: f64) -> Result<Self, ConfigError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ConfigError::new(format!(
                "open-loop rate multiplier must be finite and positive, got {rate}"
            )));
        }
        // `as u64` saturates at the type bounds; the max(1) clamps sub-ppm
        // rates onto the documented floor.
        let rate_ppm = ((rate * RATE_PPM as f64).round() as u64).max(1);
        Ok(if rate_ppm == RATE_PPM {
            ReplayMode::OpenLoop
        } else {
            ReplayMode::OpenLoopScaled { rate_ppm }
        })
    }

    /// Whether this mode admits on completion rather than by timestamp.
    pub fn is_closed_loop(&self) -> bool {
        matches!(self, ReplayMode::ClosedLoop { .. })
    }

    /// Validates the mode.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem (zero queue depth or rate).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ReplayMode::OpenLoop => Ok(()),
            ReplayMode::OpenLoopScaled { rate_ppm: 0 } => {
                Err("open-loop rate multiplier must be at least 1 ppm".into())
            }
            ReplayMode::OpenLoopScaled { .. } => Ok(()),
            ReplayMode::ClosedLoop { queue_depth: 0 } => {
                Err("closed-loop queue depth must be at least 1".into())
            }
            ReplayMode::ClosedLoop { .. } => Ok(()),
        }
    }
}

/// Scales an arrival timestamp by `rate_ppm` with exact integer math:
/// `t · 1e6 / rate_ppm`, saturating at the clock's maximum.
fn scale_arrival(t: SimTime, rate_ppm: u64) -> SimTime {
    let scaled = (t.as_ns() as u128) * (RATE_PPM as u128) / (rate_ppm as u128);
    SimTime::from_ns(u64::try_from(scaled).unwrap_or(u64::MAX))
}

/// The host-side load generator driving one replay.
///
/// Owns the not-yet-admitted backlog; the simulator asks it for the initial
/// admissions up front, then for one follow-up admission per processed
/// arrival (open loop) or per completed request (closed loop). Feeding
/// open-loop arrivals one at a time keeps the event queue as small as the
/// device's actual concurrency instead of as deep as the whole trace —
/// a large constant-factor win on every push.
#[derive(Debug)]
pub(crate) enum LoadGenerator {
    /// Open loop: arrivals not yet scheduled, in trace order, with their
    /// (possibly rate-scaled) admission timestamps.
    Open {
        /// Remaining arrivals, front = next.
        pending: VecDeque<(SimTime, HostRequest)>,
    },
    /// Closed loop: requests not yet handed to the device, in trace order.
    Closed { pending: VecDeque<HostRequest> },
}

impl LoadGenerator {
    /// A generator with nothing to admit (the simulator's pre-run state).
    pub(crate) fn idle() -> Self {
        LoadGenerator::Open {
            pending: VecDeque::new(),
        }
    }

    /// Builds the generator for `mode` over `trace` and returns the requests
    /// to admit immediately, each with its admission timestamp.
    pub(crate) fn start(
        mode: ReplayMode,
        trace: &[HostRequest],
    ) -> (Self, Vec<(SimTime, HostRequest)>) {
        match mode {
            ReplayMode::OpenLoop => Self::start_open(trace.iter().map(|&r| (r.arrival, r))),
            ReplayMode::OpenLoopScaled { rate_ppm } => Self::start_open(
                trace
                    .iter()
                    .map(|&r| (scale_arrival(r.arrival, rate_ppm), r)),
            ),
            ReplayMode::ClosedLoop { queue_depth } => {
                let window = (queue_depth as usize).min(trace.len());
                let initial = trace[..window]
                    .iter()
                    .map(|&r| (SimTime::ZERO, r))
                    .collect();
                (
                    LoadGenerator::Closed {
                        pending: trace[window..].iter().copied().collect(),
                    },
                    initial,
                )
            }
        }
    }

    fn start_open(
        arrivals: impl Iterator<Item = (SimTime, HostRequest)>,
    ) -> (Self, Vec<(SimTime, HostRequest)>) {
        let mut pending: Vec<(SimTime, HostRequest)> = arrivals.collect();
        // Lazy admission schedules each arrival while handling the previous
        // one, so admission order must be time-ordered. Traces built via
        // `Trace::new` already are; raw request slices may not be — a stable
        // sort preserves trace order among equal timestamps.
        if !pending.windows(2).all(|w| w[0].0 <= w[1].0) {
            pending.sort_by_key(|&(at, _)| at);
        }
        let mut pending: VecDeque<(SimTime, HostRequest)> = pending.into();
        let initial = pending.pop_front().into_iter().collect();
        (LoadGenerator::Open { pending }, initial)
    }

    /// An open-loop arrival was processed; returns the next arrival to
    /// schedule (trace order guarantees non-decreasing timestamps).
    pub(crate) fn next_arrival(&mut self) -> Option<(SimTime, HostRequest)> {
        match self {
            LoadGenerator::Open { pending } => pending.pop_front(),
            LoadGenerator::Closed { .. } => None,
        }
    }

    /// A host request completed; returns the next request to admit now (if
    /// the mode admits on completion and backlog remains).
    pub(crate) fn on_completion(&mut self) -> Option<HostRequest> {
        match self {
            LoadGenerator::Open { .. } => None,
            LoadGenerator::Closed { pending } => pending.pop_front(),
        }
    }

    /// Requests the generator has not yet handed out (scheduled arrivals or
    /// closed-loop backlog) — must be zero once a replay drains.
    pub(crate) fn pending_len(&self) -> usize {
        match self {
            LoadGenerator::Open { pending } => pending.len(),
            LoadGenerator::Closed { pending } => pending.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoOp;

    fn trace(n: u64) -> Vec<HostRequest> {
        (0..n)
            .map(|i| HostRequest::new(SimTime::from_us(100 * i), IoOp::Read, i, 1))
            .collect()
    }

    #[test]
    fn open_loop_admits_in_trace_order_one_at_a_time() {
        let t = trace(3);
        let (mut generator, initial) = LoadGenerator::start(ReplayMode::OpenLoop, &t);
        // Only the first arrival is scheduled eagerly; the rest feed in one
        // per processed arrival so the event queue stays shallow.
        assert_eq!(initial.len(), 1);
        assert_eq!(initial[0].0, SimTime::ZERO);
        assert_eq!(
            generator.next_arrival(),
            Some((SimTime::from_us(100), t[1]))
        );
        assert_eq!(
            generator.next_arrival(),
            Some((SimTime::from_us(200), t[2]))
        );
        assert_eq!(generator.next_arrival(), None);
        assert_eq!(generator.on_completion(), None);
    }

    #[test]
    fn closed_loop_admits_window_then_one_per_completion() {
        let t = trace(5);
        let (mut generator, initial) = LoadGenerator::start(ReplayMode::closed_loop(2), &t);
        assert_eq!(initial.len(), 2);
        // Initial admissions happen at t = 0, not at trace timestamps.
        assert!(initial.iter().all(|&(at, _)| at == SimTime::ZERO));
        // Backlog drains one request per completion, in trace order.
        assert_eq!(generator.on_completion().map(|r| r.lpn), Some(2));
        assert_eq!(generator.on_completion().map(|r| r.lpn), Some(3));
        assert_eq!(generator.on_completion().map(|r| r.lpn), Some(4));
        assert_eq!(generator.on_completion(), None);
    }

    #[test]
    fn queue_depth_larger_than_trace_is_fine() {
        let t = trace(2);
        let (mut generator, initial) = LoadGenerator::start(ReplayMode::closed_loop(16), &t);
        assert_eq!(initial.len(), 2);
        assert_eq!(generator.on_completion(), None);
    }

    #[test]
    fn mode_validation() {
        assert!(ReplayMode::OpenLoop.validate().is_ok());
        assert!(ReplayMode::ClosedLoop { queue_depth: 0 }
            .validate()
            .is_err());
        assert!(ReplayMode::OpenLoopScaled { rate_ppm: 0 }
            .validate()
            .is_err());
        assert!(ReplayMode::open_loop_rate(2.0).validate().is_ok());
        assert!(ReplayMode::closed_loop(1).validate().is_ok());
        assert!(ReplayMode::closed_loop(4).is_closed_loop());
        assert!(!ReplayMode::OpenLoop.is_closed_loop());
        assert!(!ReplayMode::open_loop_rate(2.0).is_closed_loop());
    }

    #[test]
    fn rate_one_degenerates_to_plain_open_loop() {
        assert_eq!(ReplayMode::open_loop_rate(1.0), ReplayMode::OpenLoop);
    }

    #[test]
    fn rate_scaling_compresses_and_stretches_arrivals() {
        let t = trace(3);
        let drain = |mode: ReplayMode| -> Vec<SimTime> {
            let (mut generator, initial) = LoadGenerator::start(mode, &t);
            let mut times: Vec<SimTime> = initial.iter().map(|&(at, _)| at).collect();
            while let Some((at, _)) = generator.next_arrival() {
                times.push(at);
            }
            times
        };
        // Rate 2: arrivals at half their trace offsets.
        let doubled = drain(ReplayMode::open_loop_rate(2.0));
        assert_eq!(
            doubled,
            vec![SimTime::ZERO, SimTime::from_us(50), SimTime::from_us(100)]
        );
        // Rate 0.5: arrivals stretched to twice their offsets.
        let halved = drain(ReplayMode::open_loop_rate(0.5));
        assert_eq!(
            halved,
            vec![SimTime::ZERO, SimTime::from_us(200), SimTime::from_us(400)]
        );
        // Scaling preserves trace order.
        assert!(halved.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_rate_constructor_panics() {
        ReplayMode::open_loop_rate(0.0);
    }

    #[test]
    fn sub_ppm_rates_clamp_to_the_fixed_point_floor() {
        // Regression: `(1e-9 · 1e6).round()` is 0 ppm, which used to trip an
        // `assert!(rate_ppm >= 1)` panic. Sub-ppm rates now clamp to 1 ppm.
        for tiny in [1e-9, 1e-7, f64::MIN_POSITIVE] {
            assert_eq!(
                ReplayMode::try_open_loop_rate(tiny),
                Ok(ReplayMode::OpenLoopScaled { rate_ppm: 1 }),
                "rate {tiny} must clamp, not panic"
            );
        }
        // The clamped mode validates and replays (maximally stretched).
        let mode = ReplayMode::open_loop_rate(1e-9);
        assert!(mode.validate().is_ok());
        let t = trace(2);
        let (_, initial) = LoadGenerator::start(mode, &t);
        assert_eq!(initial.len(), 1);
        // Huge rates saturate instead of wrapping.
        assert!(ReplayMode::try_open_loop_rate(1e30).is_ok());
    }

    #[test]
    fn non_finite_and_non_positive_rates_are_config_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let err = ReplayMode::try_open_loop_rate(bad)
                .expect_err("non-finite/non-positive rates must be rejected");
            assert!(
                String::from(err).contains("finite and positive"),
                "error names the valid range"
            );
        }
    }

    #[test]
    fn unsorted_raw_arrivals_are_admitted_in_time_order() {
        // Raw request slices (no Trace::new sorting) must still replay:
        // lazy admission sorts them stably by arrival first.
        let reqs = vec![
            HostRequest::new(SimTime::from_us(300), IoOp::Read, 0, 1),
            HostRequest::new(SimTime::from_us(100), IoOp::Read, 1, 1),
            HostRequest::new(SimTime::from_us(200), IoOp::Read, 2, 1),
        ];
        let (mut generator, initial) = LoadGenerator::start(ReplayMode::OpenLoop, &reqs);
        assert_eq!(initial[0].0, SimTime::from_us(100));
        assert_eq!(
            generator.next_arrival(),
            Some((SimTime::from_us(200), reqs[2]))
        );
        assert_eq!(
            generator.next_arrival(),
            Some((SimTime::from_us(300), reqs[0]))
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_queue_depth_constructor_panics() {
        ReplayMode::closed_loop(0);
    }
}
