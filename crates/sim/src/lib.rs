//! # rr-sim — an event-driven multi-queue SSD simulator
//!
//! This crate is the MQSim-equivalent substrate of the reproduction of Park
//! et al., *"Reducing Solid-State Drive Read Latency by Optimizing
//! Read-Retry"* (ASPLOS 2021): a deterministic discrete-event simulator of a
//! high-end SSD with
//!
//! * page-level FTL (mapping, striped allocation, greedy GC) — [`ftl`];
//! * per-die command queues with out-of-order read priority and
//!   program/erase suspension, plus per-channel FIFO bus/decoder
//!   arbitration — [`scheduler`], orchestrated by [`ssd`] — so sensing
//!   overlaps transfer and decode (Fig. 6) and independent reads interleave
//!   across dies;
//! * a host-side load generator — [`replay`] — replaying traces open-loop
//!   (trace timestamps) or closed-loop (fixed queue depth, the load knob of
//!   tail-latency sweeps);
//! * a pluggable read-retry mechanism — [`readflow::RetryController`] — with
//!   the regular baseline (Fig. 12a) built in; `rr-core` supplies PR², AR²,
//!   PnAR² and the PSO-augmented variants.
//!
//! Reads experience the number of retry steps and the raw-bit-error counts of
//! the calibrated `rr-flash` error model; the paper's operating conditions
//! (P/E cycles × retention age × temperature) are set in [`config::SsdConfig`].
//!
//! # Example
//!
//! ```
//! use rr_sim::config::SsdConfig;
//! use rr_sim::readflow::BaselineController;
//! use rr_sim::request::{HostRequest, IoOp};
//! use rr_sim::ssd::Ssd;
//! use rr_flash::calibration::OperatingCondition;
//! use rr_util::time::SimTime;
//!
//! // An aged SSD: 1K P/E cycles, 6-month-old cold data.
//! let cfg = SsdConfig::scaled_for_tests()
//!     .with_condition(OperatingCondition::new(1000.0, 6.0, 30.0));
//! let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 10_000).unwrap();
//! let trace: Vec<_> = (0..50)
//!     .map(|i| HostRequest::new(SimTime::from_us(100 * i), IoOp::Read, i * 7, 1))
//!     .collect();
//! let report = ssd.run(&trace);
//! assert_eq!(report.requests_completed, 50);
//! // Cold reads at this operating point need many retry steps (Fig. 5).
//! assert!(report.avg_retry_steps() > 8.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod config;
pub mod event;
pub mod ftl;
pub mod gc;
pub mod hostq;
pub mod metrics;
pub mod readflow;
pub mod replay;
pub mod request;
pub mod scheduler;
pub mod snapshot;
pub mod ssd;

pub use array::{
    route_redundant, worker_budget, ArrayReport, DeviceSet, FailurePlan, Placement,
    PlacementPolicy, Redundancy, RedundancyStats, RedundantRouting,
};
pub use config::{ArbPolicy, ConfigError, SsdConfig};
pub use gc::GcPolicy;
pub use hostq::{HostQueueConfig, QueueSpec};
pub use metrics::{GcStalls, LatencySummary, QueueLatency, SimReport};
pub use readflow::{BaselineController, ReadAction, ReadContext, RetryController};
pub use replay::ReplayMode;
pub use request::{HostRequest, IoOp};
pub use scheduler::Arbiter;
pub use snapshot::{DeviceImage, ImageBank};
pub use ssd::Ssd;
