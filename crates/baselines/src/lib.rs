//! Baseline trackers the EBBIOT paper compares against.
//!
//! * [`kalman`] — the Kalman-filter tracker of Lin, Ramesh & Xiang (2015)
//!   as configured in §II-C: constant-velocity motion model over track
//!   centroids, fed by the same EBBI + RPN proposals as EBBIOT. Cost
//!   model: Eq. 7 (`C_KF = 1200` for `NT = 2`, `M_KF ≈ 1.1 kB`).
//! * [`ebms`] — event-based mean shift (Delbrück & Lang 2013): cluster
//!   trackers updated per event, running behind the NN-filter in a fully
//!   event-based pipeline. Cost model: Eq. 8 (`C_EBMS = 252 k ops/frame`,
//!   `M_EBMS = 3.32 kB` for `CL_max = 8`).
//! * [`backends`] — NN-filt + EBMS packaged as an event-domain
//!   [`ebbiot_core::Tracker`] back-end.
//! * [`registry`] — the back-end registry: eval sweeps and experiment
//!   binaries enumerate trackers by name ([`registry::BACKENDS`])
//!   instead of hand-rolled match arms. The composed baselines of
//!   Figs. 4 and 5 are `build_pipeline("ebbi-kf", ..)` (EBBI + median +
//!   RPN + KF) and `build_pipeline("nn-ebms", ..)` (NN-filt + EBMS), the
//!   same generic [`ebbiot_core::Pipeline`] as EBBIOT; build one with
//!   [`ebbiot_core::Pipeline::with_tracker`] to keep the concrete
//!   tracker's statistics in reach.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod ebms;
pub mod kalman;
pub mod registry;

pub use backends::NnEbmsTracker;
pub use ebms::{EbmsConfig, EbmsTracker};
pub use kalman::{KalmanConfig, KalmanTracker};
pub use registry::{build_pipeline, find_backend, restore_pipeline, BackendSpec, BACKENDS};
