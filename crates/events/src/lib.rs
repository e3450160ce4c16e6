//! Event-camera primitives for the EBBIOT pipeline.
//!
//! Neuromorphic vision sensors (NVS) such as the DAVIS used in the EBBIOT
//! paper output a sparse asynchronous stream of *events*
//! `e_i = (x_i, y_i, t_i, p_i)`: a pixel location, a microsecond timestamp
//! and a polarity (ON for a positive log-intensity change, OFF for a
//! negative one). This crate provides:
//!
//! * [`Event`] and [`Polarity`] — the fundamental datatypes,
//! * [`SensorGeometry`] — the `A x B` pixel array (240x180 for DAVIS240),
//! * [`stream`] — ordering checks, windowing into fixed `tF` frames
//!   (the paper's interrupt-driven readout of Fig. 2),
//! * [`stats`] — summary statistics used to regenerate Table I.
//!
//! # Example
//!
//! ```
//! use ebbiot_events::{Event, Polarity, SensorGeometry, stream::FrameWindows};
//!
//! let geom = SensorGeometry::davis240();
//! let events = vec![
//!     Event::new(10, 20, 1_000, Polarity::On),
//!     Event::new(11, 20, 70_000, Polarity::Off),
//! ];
//! let frames: Vec<_> = FrameWindows::new(&events, 66_000).collect();
//! assert_eq!(frames.len(), 2);
//! assert!(geom.contains(10, 20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod geometry;
pub mod ops;
pub mod stats;
pub mod stream;

pub use event::{Event, Polarity};
pub use geometry::SensorGeometry;
pub use ops::OpsCounter;
pub use stats::StreamStats;

/// Microsecond timestamp type used throughout the pipeline.
///
/// The DAVIS timestamps events at microsecond resolution; `u64` covers
/// ~584 000 years of recording, which comfortably exceeds the paper's
/// 1.1 hours.
pub type Timestamp = u64;

/// Duration in microseconds.
pub type Micros = u64;

/// The paper's frame duration `tF` = 66 ms, in microseconds.
pub const DEFAULT_FRAME_DURATION_US: Micros = 66_000;
