//! `ebbiot_telemetry` — lock-free metrics for the EBBIOT stack.
//!
//! A deliberately small, std-only observability layer:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — instruments built from
//!   `Relaxed` atomics; recording a sample never takes a lock.
//! - [`Registry`] — names + labels instruments idempotently and renders
//!   a Prometheus-style text exposition ([`Registry::render`]).
//! - [`validate_exposition`] — the scrape-side parser CI asserts with.
//!
//! Histograms use fixed log2 buckets ([`BUCKETS`] of them): recording is
//! O(1) with no configuration, at factor-of-two resolution — exactly
//! enough to answer "where does worker time go". The metric naming
//! scheme and the STATS surface that serves [`Registry::render`] over
//! TCP are specified in `ARCHITECTURE.md` §7.
//!
//! Telemetry is observation-only by design: instruments are written with
//! relaxed atomics off the result path, so enabling it cannot change any
//! pipeline output (the determinism suites assert this bit-exactly).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, BUCKETS};
pub use registry::{validate_exposition, MetricKind, Registry};
