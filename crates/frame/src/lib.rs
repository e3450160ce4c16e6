//! Frame-domain substrate for the EBBIOT pipeline.
//!
//! The EBBIOT paper's "mixed approach" accumulates NVS events into
//! *event-based binary images* (EBBI) and does all further processing in
//! the frame domain. This crate provides that domain:
//!
//! * [`BinaryImage`] — bit-packed one-bit-per-pixel frames with a
//!   row-aligned `u64` layout (each row starts on a word boundary; tail
//!   bits past `width` are an always-zero invariant),
//! * [`EbbiAccumulator`] — sensor-as-memory event accumulation (§II-A),
//! * [`MedianFilter`] — `p x p` binary median denoising (§II-A, Eq. 1),
//! * [`CountImage`] — block-sum downsampling (Eq. 3), kept for the CCA
//!   proposer and for Fig. 3's intermediates,
//! * [`Histogram`] / [`Run`] — axis projections and 1-D run extraction
//!   (Eq. 4), including [`Histogram::project_rows`], which projects a
//!   binary image's rows onto both axes without the count image,
//! * [`cca`] — connected-component analysis (the paper's traditional
//!   baseline and future-work RPN),
//! * [`BoundingBox`] / [`PixelBox`] — the box geometry (incl. IoU, Eq. 9)
//!   shared by the RPN, the trackers and the evaluator,
//! * [`mod@reference`] — scalar per-pixel transcriptions of the hot kernels,
//!   kept as the bit-exactness oracle for the word-parallel paths.
//!
//! The hot kernels (median, downsampling, box counting, CCA scans) are
//! **word-parallel**: they process 64 pixels per `u64` operation on top
//! of the row-aligned layout. They are also **sparse-aware**, because a
//! stationary sensor's frames are mostly empty: the 3x3 median computes
//! only output rows near a row holding a horizontal pair (no other row
//! can reach a majority) and records the rows it wrote
//! ([`MedianFilter::written_rows`]), and the region proposer's
//! projection reads only those rows, set bit by set bit. The EBBI latch
//! counts new pixels branch-free and reads out by swapping buffers. The
//! paper's Eq. 1 / Eq. 5 op accounting and the `A x B` payload-bit
//! figures are *logical* and unchanged by any of this: the median
//! charges its Eq. 1 additions and the projection its Eq. 5 charge in
//! closed form, and every count equals the per-pixel
//! [`mod@reference`]. See ARCHITECTURE.md ("Frame memory layout") at the
//! repository root for the layout contract, the tail-bit invariant, the
//! closed-form derivations and the median → RPN row hand-off. The
//! `_into` variants ([`EbbiAccumulator::readout_into`],
//! [`MedianFilter::apply_into`], [`CountImage::downsample_into`]) and
//! [`Histogram::project_rows`] write into caller-owned buffers, so a
//! streaming front end allocates no frame-sized memory per frame.
//!
//! # Example: events → EBBI → denoised frame
//!
//! ```
//! use ebbiot_events::{Event, SensorGeometry};
//! use ebbiot_frame::{ebbi::ebbi_from_events, MedianFilter};
//!
//! let geom = SensorGeometry::davis240();
//! let events: Vec<Event> = (0..5).map(|i| Event::on(100 + i, 90, u64::from(i))).collect();
//! let ebbi = ebbi_from_events(geom, &events);
//! let denoised = MedianFilter::paper_default().apply(&ebbi);
//! assert!(denoised.count_ones() <= ebbi.count_ones());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary_image;
pub mod boxes;
pub mod cca;
pub mod downsample;
pub mod ebbi;
pub mod histogram;
pub mod median;
pub mod reference;

pub use binary_image::BinaryImage;
pub use boxes::{BoundingBox, PixelBox};
pub use downsample::CountImage;
pub use ebbi::EbbiAccumulator;
pub use histogram::{Axis, Histogram, Run};
pub use median::MedianFilter;
