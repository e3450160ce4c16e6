//! Event-domain noise filtering.
//!
//! NVS pixels produce spurious background-activity events even in a static
//! scene (§II-A: "noise prevalent in such sensors invariably lead to
//! spurious spikes even in the absence of any objects"). A *fully*
//! event-based pipeline must therefore denoise the stream before tracking;
//! the EBBIOT paper's EBMS baseline runs behind the nearest-neighbour
//! filter of Padala et al., whose cost model is Eq. 2:
//!
//! ```text
//! C_NN-filt = (2 (p^2 - 1) + Bt) * n        [ops per frame]
//! M_NN-filt = Bt * A * B                    [bits]
//! ```
//!
//! This crate implements that filter, [`NnFilter`]: an event is signal
//! when some pixel in its `p x p` neighbourhood fired within the support
//! window. It sees each event once, in time order, through
//! [`NnFilter::keep`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod nn_filter;

pub use nn_filter::NnFilter;
