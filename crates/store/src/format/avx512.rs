//! The AVX-512 instance of the chunk unpacker: eight events per step,
//! with no table and no per-event branch (the SIMD unpack of
//! frame-of-reference packing, Lemire & Boytsov, 2015).
//!
//! Eight events of `eb ≤ 57` bits fill exactly `eb` bytes, so block `k`
//! of a chunk starts on byte `k · eb` and each of its events sits at the
//! same byte and bit offset within the block as in every other block. One
//! 64-byte load holds the whole block (its last event starts at most 49
//! bytes in and reads 8), a load masked to the payload's end when fewer
//! than 64 bytes remain. Then, per block:
//!
//! * `vpermb` gathers each event's 8 bytes into its `u64` lane, and one
//!   variable shift (`vpsrlvq`) moves its first bit to bit 0;
//! * shifts and masks split out `Δt`, `zigzag(Δx)` and
//!   `zigzag(Δy) << 1 | p`, and the two deltas are unzigzagged;
//! * three `valignq` steps prefix-sum `t`, `x` and `y` across the lanes,
//!   and the running values of the previous block are added;
//! * unsigned mask compares collect a timestamp that wrapped and a pixel
//!   outside the array, in any lane;
//! * `vpermt2q` interleaves `t` with `x | y << 16 | polarity << 32` into
//!   two 64-byte stores of four whole [`Event`]s each (its layout is
//!   fixed by `#[repr(C)]` and asserted below).
//!
//! The last `count % 8` events take the same step with their lanes
//! masked. A chunk with any violation returns `None` with `out` still
//! empty, and the caller decodes it again on the scalar unpacker, so
//! every error and the contents of `out` after it are the scalar ones.
//!
//! [`unpack_into`] runs it when the CPU has AVX-512F, BW and VBMI and the
//! events take at most 57 bits, and returns `None` otherwise. The CPU
//! alone picks the instance.
//!
//! This module and the carry-less-multiply CRC beside it are the only
//! places in `ebbiot_store` that use `unsafe`: to call a
//! `#[target_feature]` function after detecting the features, for the
//! payload loads and the event stores, and to set the length of the
//! events they wrote.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m512i, __mmask8, _mm512_add_epi64, _mm512_alignr_epi64, _mm512_and_si512,
    _mm512_castsi512_si128, _mm512_cmpge_epu64_mask, _mm512_cmplt_epu64_mask, _mm512_loadu_si512,
    _mm512_mask_storeu_epi64, _mm512_maskz_loadu_epi8, _mm512_or_si512, _mm512_permutex2var_epi64,
    _mm512_permutexvar_epi64, _mm512_permutexvar_epi8, _mm512_set1_epi64, _mm512_setr_epi64,
    _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srli_epi64, _mm512_srlv_epi64,
    _mm512_storeu_si512, _mm512_sub_epi64, _mm512_xor_si512, _mm_cvtsi128_si64,
};
use core::mem::{offset_of, size_of};

use ebbiot_events::{Event, Polarity, SensorGeometry, Timestamp};

use super::{BitStream, ONE_LOAD_BITS};

// The stores below write each event as two `u64`s: `t`, then
// `x | y << 16 | polarity << 32` with ON as 0 and OFF as 1.
const _: () = {
    assert!(size_of::<Event>() == 16);
    assert!(offset_of!(Event, t) == 0 && offset_of!(Event, x) == 8);
    assert!(offset_of!(Event, y) == 10 && offset_of!(Event, polarity) == 12);
    assert!(Polarity::On as u8 == 0 && Polarity::Off as u8 == 1);
};

/// Events per block: one per `u64` lane.
const LANES: usize = 8;

/// Whether the AVX-512 unpacker runs on this CPU.
pub(in crate::format) fn usable() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vbmi")
}

/// Unpacks every event of `stream` into `out`, which must be empty, from
/// `t_first` on, and returns the last timestamp, exactly as the scalar
/// unpacker does for a chunk it accepts. `None`, with `out` still empty,
/// when the CPU lacks the features, the events take more than 57 bits or
/// any event fails a check.
pub(in crate::format) fn unpack_into(
    out: &mut Vec<Event>,
    stream: &BitStream<'_>,
    geometry: SensorGeometry,
    t_first: Timestamp,
) -> Option<Timestamp> {
    if stream.event_bits > ONE_LOAD_BITS || !usable() {
        return None;
    }
    assert!(out.is_empty(), "unpacking into a non-empty buffer");
    // SAFETY: `usable` detected AVX-512F, BW and VBMI on this CPU.
    unsafe { unpack_avx512(out, stream, geometry, t_first) }
}

#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
fn unpack_avx512(
    out: &mut Vec<Event>,
    stream: &BitStream<'_>,
    geometry: SensorGeometry,
    t_first: Timestamp,
) -> Option<Timestamp> {
    let unpacker = Unpacker::new(stream, geometry);
    let (count, data) = (stream.count, stream.data);
    out.reserve(count);
    let events = &mut out.spare_capacity_mut()[..count];
    let zero = _mm512_setzero_si512();
    let mut running = Running { t: _mm512_set1_epi64(t_first as i64), x: zero, y: zero };
    let mut violations: __mmask8 = 0;
    let (blocks, rest) = (count / LANES, count % LANES);
    for block in 0..blocks {
        let [first, second] = unpacker.block(
            window(data, block * stream.event_bits),
            &mut running,
            &mut violations,
            LANES,
        );
        let dst = &mut events[block * LANES..][..LANES];
        // SAFETY: `dst` is 8 events, 128 writable bytes; each store
        // writes 64 of them (four events), and `storeu` has no alignment
        // requirement.
        unsafe {
            _mm512_storeu_si512(dst.as_mut_ptr().cast(), first);
            _mm512_storeu_si512(dst.as_mut_ptr().add(LANES / 2).cast(), second);
        }
    }
    if rest > 0 {
        let [first, second] = unpacker.block(
            window(data, blocks * stream.event_bits),
            &mut running,
            &mut violations,
            rest,
        );
        let dst = &mut events[blocks * LANES..];
        // Two `u64` lanes per event: events 0..4 of the block in the
        // first store, 4..8 in the second.
        let mask = |events: usize| ((1u32 << (2 * events)) - 1) as __mmask8;
        // SAFETY: `dst` is `rest` events; the masks select the `u64`
        // lanes of the first `rest.min(4)` and the next `rest - 4` events
        // only, and masked-off lanes are neither written nor faulted on.
        unsafe {
            _mm512_mask_storeu_epi64(dst.as_mut_ptr().cast(), mask(rest.min(4)), first);
            _mm512_mask_storeu_epi64(
                dst.as_mut_ptr().add(LANES / 2).cast(),
                mask(rest.saturating_sub(4)),
                second,
            );
        }
    }
    if violations != 0 {
        return None;
    }
    // SAFETY: the stores above wrote all 16 bytes of each of the first
    // `count` events: `t`, in-bounds `x` and `y` (checked, so below
    // 2^16), a polarity byte of 0 or 1 and zero padding.
    unsafe { out.set_len(count) };
    Some(_mm_cvtsi128_si64(_mm512_castsi512_si128(running.t)) as u64)
}

/// The block at byte `start` of `data`: 64 bytes, or the bytes up to the
/// end with zeros after them.
#[target_feature(enable = "avx512f,avx512bw")]
fn window(data: &[u8], start: usize) -> __m512i {
    let bytes = &data[start..];
    if bytes.len() >= 64 {
        // SAFETY: `bytes` holds at least the 64 bytes read; `loadu` has
        // no alignment requirement.
        unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
    } else {
        // SAFETY: the mask selects the first `bytes.len()` bytes only,
        // all readable, and masked-off bytes are neither read nor
        // faulted on.
        unsafe { _mm512_maskz_loadu_epi8((1u64 << bytes.len()) - 1, bytes.as_ptr().cast()) }
    }
}

/// The running `t`, `x` and `y` after the last event unpacked, in every
/// lane.
struct Running {
    t: __m512i,
    x: __m512i,
    y: __m512i,
}

/// One chunk's per-block constants.
struct Unpacker {
    /// Byte `8i + k` is the offset of event `i`'s byte `k` in the block.
    gather: __m512i,
    /// Event `i`'s first bit within its first byte.
    shift: __m512i,
    field_shifts: [__m512i; 2],
    masks: [__m512i; 3],
    width: __m512i,
    height: __m512i,
}

impl Unpacker {
    #[target_feature(enable = "avx512f")]
    fn new(stream: &BitStream<'_>, geometry: SensorGeometry) -> Self {
        let (mut gather, mut shift) = ([0i64; LANES], [0i64; LANES]);
        for lane in 0..LANES {
            let bit = lane * stream.event_bits;
            let first = (bit / 8) as i64;
            gather[lane] = (0..8).fold(0, |word, k| word | (first + k) << (8 * k));
            shift[lane] = (bit % 8) as i64;
        }
        let vector =
            |l: [i64; LANES]| _mm512_setr_epi64(l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]);
        let [s1, s2] = stream.shifts.map(|s| _mm512_set1_epi64(i64::from(s)));
        Self {
            gather: vector(gather),
            shift: vector(shift),
            field_shifts: [s1, s2],
            masks: stream.masks.map(|m| _mm512_set1_epi64(m as i64)),
            width: _mm512_set1_epi64(i64::from(geometry.width())),
            height: _mm512_set1_epi64(i64::from(geometry.height())),
        }
    }

    /// Unpacks the first `lanes` events of the block in `window` after
    /// `running`: ORs their violations into `violations`, moves
    /// `running` to the last of them and returns the block's events as
    /// two vectors of four.
    #[target_feature(enable = "avx512f,avx512vbmi")]
    fn block(
        &self,
        window: __m512i,
        running: &mut Running,
        violations: &mut __mmask8,
        lanes: usize,
    ) -> [__m512i; 2] {
        let word = _mm512_srlv_epi64(_mm512_permutexvar_epi8(self.gather, window), self.shift);
        let [m0, m1, m2] = self.masks;
        let [s1, s2] = self.field_shifts;
        let dt = _mm512_and_si512(word, m0);
        let dx = unzigzag(_mm512_and_si512(_mm512_srlv_epi64(word, s1), m1));
        let dyp = _mm512_and_si512(_mm512_srlv_epi64(word, s2), m2);
        let dy = unzigzag(_mm512_srli_epi64::<1>(dyp));
        let one = _mm512_set1_epi64(1);
        let off = _mm512_xor_si512(_mm512_and_si512(dyp, one), one);
        // Each Δt is below 2^56, so the in-block sums cannot wrap; a sum
        // added to the running timestamp wrapped exactly when it came out
        // below it.
        let t = _mm512_add_epi64(prefix_sum(dt), running.t);
        let x = _mm512_add_epi64(prefix_sum(dx), running.x);
        let y = _mm512_add_epi64(prefix_sum(dy), running.y);
        let valid = ((1u32 << lanes) - 1) as __mmask8;
        *violations |= valid
            & (_mm512_cmplt_epu64_mask(t, running.t)
                | _mm512_cmpge_epu64_mask(x, self.width)
                | _mm512_cmpge_epu64_mask(y, self.height));
        let last = _mm512_set1_epi64(lanes as i64 - 1);
        *running = Running {
            t: _mm512_permutexvar_epi64(last, t),
            x: _mm512_permutexvar_epi64(last, x),
            y: _mm512_permutexvar_epi64(last, y),
        };
        let packed = _mm512_or_si512(
            x,
            _mm512_or_si512(_mm512_slli_epi64::<16>(y), _mm512_slli_epi64::<32>(off)),
        );
        let interleave = |lane: i64| {
            let index = _mm512_setr_epi64(
                lane,
                lane + 8,
                lane + 1,
                lane + 9,
                lane + 2,
                lane + 10,
                lane + 3,
                lane + 11,
            );
            _mm512_permutex2var_epi64(t, index, packed)
        };
        [interleave(0), interleave(4)]
    }
}

/// `zigzag`'s inverse in every lane: `(v >> 1) ^ -(v & 1)`.
#[target_feature(enable = "avx512f")]
fn unzigzag(v: __m512i) -> __m512i {
    let sign = _mm512_sub_epi64(_mm512_setzero_si512(), _mm512_and_si512(v, _mm512_set1_epi64(1)));
    _mm512_xor_si512(_mm512_srli_epi64::<1>(v), sign)
}

/// Inclusive prefix sum across the eight lanes: three steps that add the
/// vector shifted up by one, two and four lanes (zeros shifted in).
#[target_feature(enable = "avx512f")]
fn prefix_sum(v: __m512i) -> __m512i {
    let zero = _mm512_setzero_si512();
    let v = _mm512_add_epi64(v, _mm512_alignr_epi64::<7>(v, zero));
    let v = _mm512_add_epi64(v, _mm512_alignr_epi64::<6>(v, zero));
    _mm512_add_epi64(v, _mm512_alignr_epi64::<4>(v, zero))
}
