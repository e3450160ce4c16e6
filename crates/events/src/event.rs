//! The fundamental event datatype.

use crate::Timestamp;

/// Polarity of a change-detection event.
///
/// The paper's convention: `p_i = 1` (ON) when the light intensity rises
/// beyond the pixel threshold, `p_i = -1` (OFF) when it falls below it.
///
/// One byte in memory, ON as 0 and OFF as 1 (declaration order, which
/// the derived `Ord` also follows), so a vectorised decoder can store
/// whole [`Event`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Polarity {
    /// Intensity increased beyond the threshold (`p = +1`).
    On,
    /// Intensity decreased below the threshold (`p = -1`).
    Off,
}

impl Polarity {
    /// The paper's signed representation: +1 for ON, -1 for OFF.
    #[must_use]
    pub const fn sign(self) -> i8 {
        match self {
            Polarity::On => 1,
            Polarity::Off => -1,
        }
    }

    /// Single-bit representation used by the chunk codec (1 = ON).
    #[must_use]
    pub const fn bit(self) -> u8 {
        match self {
            Polarity::On => 1,
            Polarity::Off => 0,
        }
    }

    /// Inverse of [`Polarity::bit`]; any non-zero value decodes to ON.
    #[must_use]
    pub const fn from_bit(bit: u8) -> Self {
        if bit != 0 {
            Polarity::On
        } else {
            Polarity::Off
        }
    }

    /// The opposite polarity.
    #[must_use]
    pub const fn flipped(self) -> Self {
        match self {
            Polarity::On => Polarity::Off,
            Polarity::Off => Polarity::On,
        }
    }
}

/// A single address-event: pixel location, microsecond timestamp, polarity.
///
/// Matches the paper's `e_i = (x_i, y_i, t_i, p_i)`. Field order in memory
/// puts the timestamp first so the derived `Ord` sorts streams temporally,
/// with (x, y, polarity) as deterministic tie-breakers.
///
/// The layout is fixed (`#[repr(C)]`, 16 bytes): `t` at byte 0, `x` at 8,
/// `y` at 10, the polarity byte at 12 and three bytes of padding, so a
/// vectorised decoder can store whole events as two `u64` words each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct Event {
    /// Microsecond timestamp `t_i`.
    pub t: Timestamp,
    /// Column coordinate `x_i` in `[0, A)`.
    pub x: u16,
    /// Row coordinate `y_i` in `[0, B)`.
    pub y: u16,
    /// Polarity `p_i`.
    pub polarity: Polarity,
}

impl Event {
    /// Creates an event.
    #[must_use]
    pub const fn new(x: u16, y: u16, t: Timestamp, polarity: Polarity) -> Self {
        Self { t, x, y, polarity }
    }

    /// Convenience constructor for an ON event.
    #[must_use]
    pub const fn on(x: u16, y: u16, t: Timestamp) -> Self {
        Self::new(x, y, t, Polarity::On)
    }

    /// Convenience constructor for an OFF event.
    #[must_use]
    pub const fn off(x: u16, y: u16, t: Timestamp) -> Self {
        Self::new(x, y, t, Polarity::Off)
    }

    /// The pixel address as an `(x, y)` pair.
    #[must_use]
    pub const fn pixel(&self) -> (u16, u16) {
        (self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_sign_matches_paper_convention() {
        assert_eq!(Polarity::On.sign(), 1);
        assert_eq!(Polarity::Off.sign(), -1);
    }

    #[test]
    fn polarity_bit_round_trips() {
        for p in [Polarity::On, Polarity::Off] {
            assert_eq!(Polarity::from_bit(p.bit()), p);
        }
        assert_eq!(Polarity::from_bit(7), Polarity::On);
    }

    #[test]
    fn polarity_flip_is_involutive() {
        assert_eq!(Polarity::On.flipped(), Polarity::Off);
        assert_eq!(Polarity::Off.flipped().flipped(), Polarity::Off);
    }

    #[test]
    fn event_ordering_is_temporal_first() {
        let early = Event::on(100, 100, 10);
        let late = Event::on(0, 0, 20);
        assert!(early < late);
    }

    #[test]
    fn event_ordering_breaks_ties_deterministically() {
        let a = Event::on(1, 0, 10);
        let b = Event::on(2, 0, 10);
        assert!(a < b);
    }

    #[test]
    fn pixel_accessor() {
        let e = Event::off(3, 4, 5);
        assert_eq!(e.pixel(), (3, 4));
    }
}
