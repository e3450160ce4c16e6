//! The AVX2 instance of [`window::push`](super::push)'s in-chunk order
//! check: the same `fold` compiled a second time with AVX2 enabled,
//! where LLVM vectorises the timestamp compares (at the SSE2 baseline it
//! does not). [`time_ordered`] runs it when the CPU has AVX2 and
//! returns `None` otherwise, so the caller runs the baseline build. The
//! CPU alone picks the instance.
//!
//! This module and the 3x3 median's in `ebbiot_frame` are the only
//! places in the workspace's crates that use `unsafe`: here, to call a
//! `#[target_feature]` function after detecting the feature.

#![allow(unsafe_code)]

use ebbiot_events::Event;

/// Whether `chunk`'s timestamps never decrease, or `None` when the CPU
/// lacks AVX2.
pub(super) fn time_ordered(chunk: &[Event]) -> Option<bool> {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return None;
    }
    // SAFETY: AVX2 was detected on this CPU just above.
    Some(unsafe { time_ordered_avx2(chunk) })
}

#[target_feature(enable = "avx2")]
fn time_ordered_avx2(chunk: &[Event]) -> bool {
    super::time_ordered_fold(chunk)
}
