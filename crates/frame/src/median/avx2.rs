//! The AVX2 instance of the 3x3 median: one row of at most four words
//! (256 pixels: DAVIS240, DVS128) per `__m256i`.
//!
//! It computes exactly what the word kernel in the parent module
//! computes, a whole row per instruction instead of a word: the same
//! pair-flag pre-pass, the same carry-save planes and `count > 4` mask,
//! the same closed-form Eq. 1 additions. The cross-word carries that
//! the word kernel reads from the neighbouring word come from a lane
//! permute here. A row of fewer than four words is loaded into the low
//! lanes with the rest zero, and the output mask clears every bit past
//! the width, padded lanes included. Only the row's own words are ever
//! loaded or stored.
//!
//! [`median3`] runs it when the CPU has AVX2 and POPCNT and the rows fit
//! one register, and returns `None` otherwise, so the caller falls back
//! to the word kernel. The CPU alone picks the instance.
//!
//! This module and the order check's in `ebbiot_core` are the only
//! places in the workspace's crates that use `unsafe`: to call a
//! `#[target_feature]` function after detecting the feature, and for the
//! pointer loads and stores of one row's words.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_blend_epi32, _mm256_extract_epi64,
    _mm256_loadu_si256, _mm256_maskload_epi64, _mm256_maskstore_epi64, _mm256_or_si256,
    _mm256_permute4x64_epi64, _mm256_setr_epi64x, _mm256_setzero_si256, _mm256_slli_epi64,
    _mm256_srli_epi64, _mm256_srlv_epi64, _mm256_storeu_si256, _mm256_testz_si256,
    _mm256_xor_si256,
};

use super::addition_charge;
use crate::BinaryImage;

/// The widest row, in words, that fits one `__m256i`.
const LANES: usize = 4;

/// Whether [`median3`] runs its AVX2 instance for rows of `words_per_row`
/// words on this CPU.
pub(super) fn usable(words_per_row: usize) -> bool {
    words_per_row <= LANES
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("popcnt")
}

/// The 3x3 median of `input` into `out` (which must be all zero), as the
/// word kernel computes it: lists the pre-pass's flagged rows in
/// `paired_rows` and the non-empty output rows in `written_rows`, and
/// returns the Eq. 1 `(additions, writes)`. `None`, touching nothing,
/// when the host or the row width rules the AVX2 instance out.
pub(super) fn median3(
    input: &BinaryImage,
    set_pixels: u64,
    out: &mut BinaryImage,
    paired_rows: &mut Vec<u16>,
    written_rows: &mut Vec<u16>,
) -> Option<(u64, u64)> {
    if !usable(input.words_per_row()) {
        return None;
    }
    // SAFETY: `usable` detected AVX2 and POPCNT on this CPU.
    Some(unsafe { median3_avx2(input, set_pixels, out, paired_rows, written_rows) })
}

/// The lane masks of one row: `load` selects the row's own words (sign
/// bit set per lane, as `vpmaskmovq` reads it) and `valid` its pixels,
/// with the tail mask on the last real lane and zero in padded lanes.
/// (No pixel past the width can reach a count of 5, since its patch
/// holds at most one image column, so `valid` keeps the tail invariant
/// by construction rather than by that argument, as the word kernel
/// does.) `left` and `right` select the two border-column bits, and
/// `right_shift` moves the right one down to bit 0.
#[derive(Clone, Copy)]
struct Row {
    words: usize,
    load: __m256i,
    valid: __m256i,
    left: __m256i,
    right: __m256i,
    right_shift: __m256i,
}

impl Row {
    #[target_feature(enable = "avx2")]
    fn new(input: &BinaryImage) -> Self {
        let words = input.words_per_row();
        let (mut load, mut valid) = ([0i64; LANES], [0i64; LANES]);
        for lane in 0..words {
            load[lane] = -1;
            valid[lane] = if lane + 1 == words { input.tail_mask() as i64 } else { -1 };
        }
        let last_bit = i64::from(input.width() - 1) & 63;
        let (mut right, mut right_shift) = ([0i64; LANES], [0i64; LANES]);
        right[words - 1] = 1 << last_bit;
        right_shift[words - 1] = last_bit;
        let vector = |l: [i64; LANES]| _mm256_setr_epi64x(l[0], l[1], l[2], l[3]);
        Self {
            words,
            load: vector(load),
            valid: vector(valid),
            left: _mm256_setr_epi64x(1, 0, 0, 0),
            right: vector(right),
            right_shift: vector(right_shift),
        }
    }

    /// One row's words, zero in the padded lanes.
    #[target_feature(enable = "avx2")]
    fn load(self, row: &[u64]) -> __m256i {
        assert_eq!(row.len(), self.words, "a row of another width");
        if self.words == LANES {
            // SAFETY: `row` holds exactly four `u64` (asserted above), the
            // 32 bytes read; `loadu` has no alignment requirement.
            unsafe { _mm256_loadu_si256(row.as_ptr().cast()) }
        } else {
            // SAFETY: `self.load` selects lanes `0..self.words` only, which
            // is `row.len()` (asserted above), and masked-off lanes are
            // neither read nor faulted on.
            unsafe { _mm256_maskload_epi64(row.as_ptr().cast(), self.load) }
        }
    }

    /// Stores `bits` (zero in the padded lanes) as row `y` of `image`.
    #[target_feature(enable = "avx2")]
    fn store(self, image: &mut BinaryImage, y: usize, bits: __m256i) {
        let row = image.row_words_mut(y as u16);
        assert_eq!(row.len(), self.words, "a row of another width");
        if self.words == LANES {
            // SAFETY: `row` holds exactly four `u64` (asserted above), the
            // 32 bytes written; `storeu` has no alignment requirement.
            unsafe { _mm256_storeu_si256(row.as_mut_ptr().cast(), bits) }
        } else {
            // SAFETY: `self.load` selects lanes `0..self.words` only, which
            // is `row.len()` (asserted above), and masked-off lanes are not
            // written.
            unsafe { _mm256_maskstore_epi64(row.as_mut_ptr().cast(), self.load, bits) }
        }
    }
}

/// Each lane's word shifted left by `N` bits, with the top `N` bits of
/// the lane below (zero for lane 0) shifted in: the word kernel's
/// `(c << N) | (row[i - 1] >> (64 - N))` across the whole row.
#[target_feature(enable = "avx2")]
fn shl_row<const N: i32, const CARRY: i32>(c: __m256i) -> __m256i {
    // Lanes [0, c0, c1, c2]: the permute gives [c0, c0, c1, c2] and the
    // blend zeroes lane 0.
    let below = _mm256_blend_epi32::<0b0000_0011>(
        _mm256_permute4x64_epi64::<0b10_01_00_00>(c),
        _mm256_setzero_si256(),
    );
    _mm256_or_si256(_mm256_slli_epi64::<N>(c), _mm256_srli_epi64::<CARRY>(below))
}

/// Each lane's word shifted right by one bit, with bit 0 of the lane
/// above (zero for lane 3) shifted in at bit 63.
#[target_feature(enable = "avx2")]
fn shr1_row(c: __m256i) -> __m256i {
    // Lanes [c1, c2, c3, 0]: the permute gives [c1, c2, c3, c3] and the
    // blend zeroes lane 3.
    let above = _mm256_blend_epi32::<0b1100_0000>(
        _mm256_permute4x64_epi64::<0b11_11_10_01>(c),
        _mm256_setzero_si256(),
    );
    _mm256_or_si256(_mm256_srli_epi64::<1>(c), _mm256_slli_epi64::<63>(above))
}

/// The horizontal 3-neighbour sums of one row as 2-bit planes
/// `(ones, twos)`, as the word kernel's `horizontal_planes` builds them.
#[target_feature(enable = "avx2")]
fn planes(c: __m256i) -> (__m256i, __m256i) {
    let (l, r) = (shl_row::<1, 63>(c), shr1_row(c));
    let lc = _mm256_xor_si256(l, c);
    let ones = _mm256_xor_si256(lc, r);
    let twos = _mm256_or_si256(_mm256_and_si256(l, c), _mm256_and_si256(r, lc));
    (ones, twos)
}

/// Carry-save sum of three words: `(sum, carry)`.
#[target_feature(enable = "avx2")]
fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
    let ab = _mm256_xor_si256(a, b);
    (_mm256_xor_si256(ab, c), _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(c, ab)))
}

/// The `count > 4` mask of the patch counts whose three rows have the
/// horizontal planes `a`, `m` and `b`.
#[target_feature(enable = "avx2")]
fn majority(
    (oa, ta): (__m256i, __m256i),
    (om, tm): (__m256i, __m256i),
    (ob, tb): (__m256i, __m256i),
) -> __m256i {
    // Vertical sum of three 2-bit horizontal counts into bit-planes of
    // weight 1/2/4/8 (patch count 0..=9).
    let (bit0, c0) = csa(oa, om, ob);
    let (s1, c1) = csa(ta, tm, tb);
    let bit1 = _mm256_xor_si256(s1, c0);
    let c2 = _mm256_and_si256(s1, c0);
    let bit2 = _mm256_xor_si256(c1, c2);
    let bit3 = _mm256_and_si256(c1, c2);
    // count > 4 <=> 8-plane set, or 4-plane set with a 1 or 2.
    _mm256_or_si256(bit3, _mm256_and_si256(bit2, _mm256_or_si256(bit1, bit0)))
}

/// How many of row `y`'s two border-column pixels are set (one pixel,
/// counted twice, for a one-pixel-wide image).
fn row_edges(input: &BinaryImage, y: u16) -> u64 {
    let row = input.row_words(y);
    let last_bit = u32::from(input.width() - 1) & 63;
    (row[0] & 1) + ((row[row.len() - 1] >> last_bit) & 1)
}

/// The four lanes of `v`.
#[target_feature(enable = "avx2")]
fn lanes(v: __m256i) -> [i64; LANES] {
    [
        _mm256_extract_epi64::<0>(v),
        _mm256_extract_epi64::<1>(v),
        _mm256_extract_epi64::<2>(v),
        _mm256_extract_epi64::<3>(v),
    ]
}

#[target_feature(enable = "avx2")]
fn is_zero(v: __m256i) -> bool {
    _mm256_testz_si256(v, v) != 0
}

/// [`median3`] on a host with AVX2 and POPCNT.
#[target_feature(enable = "avx2,popcnt")]
fn median3_avx2(
    input: &BinaryImage,
    set_pixels: u64,
    out: &mut BinaryImage,
    paired_rows: &mut Vec<u16>,
    written_rows: &mut Vec<u16>,
) -> (u64, u64) {
    let row = Row::new(input);
    let height = usize::from(input.height());

    // Pre-pass: the pair flag `c & ((c << 1) | (c << 2))` with the
    // cross-lane carries, tested with one `vptest`. The list is written
    // branch-free: every row's index is stored, and the length advances
    // past it only when the row is flagged. The border-column bits of
    // every row are summed in a register.
    paired_rows.clear();
    paired_rows.resize(height, 0);
    let mut flagged = 0usize;
    let mut edge_lanes = _mm256_setzero_si256();
    for (y, words) in input.words().chunks_exact(row.words).enumerate() {
        let c = row.load(words);
        let pair = _mm256_and_si256(c, _mm256_or_si256(shl_row::<1, 63>(c), shl_row::<2, 62>(c)));
        paired_rows[flagged] = y as u16;
        flagged += usize::from(!is_zero(pair));
        let left = _mm256_and_si256(c, row.left);
        let right = _mm256_srlv_epi64(_mm256_and_si256(c, row.right), row.right_shift);
        edge_lanes = _mm256_add_epi64(edge_lanes, _mm256_add_epi64(left, right));
    }
    let edges = lanes(edge_lanes).iter().map(|&e| e as u64).sum::<u64>();
    paired_rows.truncate(flagged);
    // Every row has `ny = 3` except the two border rows, which have 2
    // (one row, both borders: 1).
    let edge_charge = 3 * edges - row_edges(input, 0) - row_edges(input, input.height() - 1);
    let additions = addition_charge(input, set_pixels, edge_charge);

    // Majority over the output rows within 1 of a flagged row, in
    // increasing order. `window` holds the planes of input rows
    // `y - 1`, `y`, `y + 1` for output row `y = next_out - 1`, so a run
    // of consecutive output rows builds one new row of planes each.
    let zero = _mm256_setzero_si256();
    let planes_of = |y: usize| {
        if y < height {
            planes(row.load(input.row_words(y as u16)))
        } else {
            (zero, zero)
        }
    };
    let mut window = [(zero, zero); 3];
    let (mut writes, mut next_out) = (0u64, 0usize);
    for &paired in paired_rows.iter() {
        let paired = usize::from(paired);
        for y in paired.saturating_sub(1).max(next_out)..(paired + 2).min(height) {
            if y > 0 && y == next_out {
                window = [window[1], window[2], planes_of(y + 1)];
            } else {
                let above = if y > 0 { planes_of(y - 1) } else { (zero, zero) };
                window = [above, planes_of(y), planes_of(y + 1)];
            }
            next_out = y + 1;
            let bits = _mm256_and_si256(majority(window[0], window[1], window[2]), row.valid);
            if is_zero(bits) {
                continue;
            }
            row.store(out, y, bits);
            written_rows.push(y as u16);
            writes += lanes(bits).iter().map(|&w| u64::from(w.count_ones())).sum::<u64>();
        }
    }
    (additions, writes)
}
