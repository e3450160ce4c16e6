//! The carry-less-multiply instance of [`crc32`](super::crc32): four
//! 128-bit lanes folded by PCLMULQDQ, then one Barrett reduction (Gopal
//! et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction", Intel, 2009, in its bit-reflected form).
//!
//! The register is XORed into the first 16 bytes, and each lane then
//! takes every fourth 16-byte block: a lane is folded forward over the
//! 512 bits that follow it by multiplying its two halves with
//! `x^(512+32)` and `x^(512-32)` mod P. The four lanes fold into one with
//! the 128-bit constants, the leftover whole blocks fold into that, and
//! 128 bits reduce to the 32-bit register. Every constant is derived
//! from the polynomial below by a `const fn`. Inputs under 64 bytes, and
//! the last `len % 16` bytes, take the slice-by-16 tables.
//!
//! [`update`] runs it when the CPU has PCLMULQDQ and returns `None`
//! otherwise, so the caller falls back to slice-by-16. The CPU alone
//! picks the instance.
//!
//! This module and the AVX-512 unpacker beside it are the only places in
//! `ebbiot_store` that use `unsafe`: to call a `#[target_feature]`
//! function after detecting the feature, and for unaligned 16-byte
//! loads.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

use super::crc_update_slice_by_16;

/// The CRC-32 generator polynomial without its `x^32` term, in normal
/// (most significant bit first) order.
const POLY: u32 = 0x04C1_1DB7;

/// `x^n mod P`, in normal order.
const fn x_pow_mod(n: u32) -> u32 {
    let mut r = 1u32;
    let mut i = 0;
    while i < n {
        r = (r << 1) ^ if r & 0x8000_0000 != 0 { POLY } else { 0 };
        i += 1;
    }
    r
}

/// A fold constant for the bit-reflected domain: `x^n mod P`, reflected
/// to 32 bits, times `x` (the reflected product of two 64-bit halves
/// comes out one bit short).
const fn fold_constant(n: u32) -> i64 {
    (x_pow_mod(n).reverse_bits() as i64) << 1
}

/// `⌊x^64 / P⌋`, the 33-bit Barrett quotient, reflected to 33 bits.
const fn barrett_quotient() -> i64 {
    let divisor = 1u128 << 32 | POLY as u128;
    let (mut rem, mut quotient) = (1u128 << 64, 0u64);
    let mut degree = 33;
    while degree > 0 {
        degree -= 1;
        if rem & 1 << (degree + 32) != 0 {
            rem ^= divisor << degree;
            quotient |= 1 << degree;
        }
    }
    (quotient.reverse_bits() >> 31) as i64
}

/// The reflected polynomial with its `x^32` term, 33 bits.
const P_REFLECTED: i64 = ((POLY.reverse_bits() as i64) << 1) | 1;
/// Fold one lane forward over the other three (512 bits): the constants
/// for its low and high halves.
const FOLD_512: (i64, i64) = (fold_constant(4 * 128 + 32), fold_constant(4 * 128 - 32));
/// Fold one lane into the next (128 bits).
const FOLD_128: (i64, i64) = (fold_constant(128 + 32), fold_constant(128 - 32));
/// Reduce 96 bits to 64.
const FOLD_64: i64 = fold_constant(64);
/// The Barrett constant `μ`.
const MU: i64 = barrett_quotient();

/// Whether [`update`] runs its PCLMULQDQ instance on this CPU.
pub(in crate::format) fn usable() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
}

/// Advances the CRC register `crc` (not inverted) over `bytes` as
/// [`crc_update_slice_by_16`] does, or `None`, touching nothing, when the
/// CPU lacks PCLMULQDQ.
pub(in crate::format) fn update(crc: u32, bytes: &[u8]) -> Option<u32> {
    if !usable() {
        return None;
    }
    // SAFETY: `usable` detected PCLMULQDQ on this CPU (SSE2 is part of
    // the x86-64 baseline).
    Some(unsafe { update_clmul(crc, bytes) })
}

/// One 16-byte block as a vector, its first byte in the lowest lane.
#[inline(always)]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes, the width of the load;
    // `loadu` has no alignment requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// Folds `lane` forward onto `next` by the pair of constants in `keys`
/// (low half times the low constant, high half times the high one).
#[target_feature(enable = "pclmulqdq")]
fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let low = _mm_clmulepi64_si128::<0x00>(lane, keys);
    let high = _mm_clmulepi64_si128::<0x11>(lane, keys);
    _mm_xor_si128(_mm_xor_si128(next, low), high)
}

#[target_feature(enable = "pclmulqdq")]
fn update_clmul(crc: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    if blocks.len() < 4 {
        return crc_update_slice_by_16(crc, bytes);
    }
    let (first, rest) = blocks.split_at(4);
    let mut lanes = [load(&first[0]), load(&first[1]), load(&first[2]), load(&first[3])];
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
    let fold_512 = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
    let mut rounds = rest.chunks_exact(4);
    for round in &mut rounds {
        for (lane, block) in lanes.iter_mut().zip(round) {
            *lane = fold(*lane, load(block), fold_512);
        }
    }
    let fold_128 = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
    let mut x = lanes[0];
    for &lane in &lanes[1..] {
        x = fold(x, lane, fold_128);
    }
    for block in rounds.remainder() {
        x = fold(x, load(block), fold_128);
    }
    // 128 bits to 96: the low half times x^(128-32) onto the high half.
    let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, fold_128), _mm_srli_si128::<8>(x));
    // 96 bits to 64: the low 32 bits times x^64 onto the rest.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett reduction, 64 bits to 32: T1 = (R mod x^32)·μ,
    // T2 = (T1 mod x^32)·P, and the register is the upper half of R ^ T2.
    let p_mu = _mm_set_epi64x(MU, P_REFLECTED);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
    let crc = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;
    crc_update_slice_by_16(crc, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_derived_from_the_polynomial_match_the_published_ones() {
        // The values Gopal et al.'s method gives for the IEEE polynomial
        // (as in zlib's and Linux's PCLMULQDQ CRC-32).
        assert_eq!(FOLD_512, (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(FOLD_128, (0x1_7519_97D0, 0x0_CCAA_009E));
        assert_eq!(FOLD_64, 0x1_63CD_6124);
        assert_eq!(P_REFLECTED, 0x1_DB71_0641);
        assert_eq!(MU, 0x1_F701_1641);
    }
}
