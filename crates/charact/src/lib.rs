//! # rr-charact — the virtual chip-characterization infrastructure
//!
//! The paper's findings rest on characterizing 160 real 3D TLC NAND chips on
//! an FPGA test platform with temperature control (§4). This crate recreates
//! that infrastructure against the calibrated `rr-flash` error model:
//!
//! * [`platform`] — the chip population, block/page sampling, temperature
//!   chamber, and Arrhenius retention baking;
//! * [`figures`] — one function per characterization figure (4b, 5, 7, 8, 9,
//!   10, 11), each reproducing the paper's measurement procedure and
//!   returning serializable data series;
//! * [`figures::max_safe_reduction`] — the measured-profile safety search
//!   that AR²'s Read-timing Parameter Table is built from (Fig. 11 → RPT).
//!
//! # Example
//!
//! ```
//! use rr_charact::platform::TestPlatform;
//! use rr_charact::figures::fig5;
//!
//! let platform = TestPlatform::new(8, 42);
//! let cells = fig5(&platform, 100);
//! let worst = cells
//!     .iter()
//!     .find(|c| c.pec == 2000.0 && c.months == 12.0)
//!     .expect("sweep covers the worst case");
//! // Fig. 5: ~19.9 retry steps on average at end of life.
//! assert!(worst.mean > 18.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod figures;
pub mod platform;

pub use figures::{fig10, fig11, fig4b, fig5, fig7, fig8, fig9};
pub use platform::{PageSweep, TestPage, TestPlatform};
