//! Object classes and their physical/statistical parameters.
//!
//! Table-free version of the paper's scene description: "typical objects in
//! the scene include humans, bikes, cars, vans, trucks and buses", "sizes
//! of various moving objects vary by an order of magnitude" and
//! "velocities also range over a wide range (sub-pixel to 5-6
//! pixels/frame)". Sizes below are apparent pixel sizes at the ENG
//! recording's 12 mm lens; the 6 mm LT4 lens halves them (wider field of
//! view), which the presets apply via `lens_scale`.

/// The object classes observed at the paper's traffic junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectClass {
    /// Pedestrian: small and slow — the paper explicitly does *not* track
    /// these well at `tF` = 66 ms and proposes a two-timescale extension.
    Human,
    /// Bicycle or motorbike.
    Bike,
    /// Passenger car.
    Car,
    /// Van.
    Van,
    /// Truck.
    Truck,
    /// Bus: long flat sides, the canonical fragmentation case of Fig. 3.
    Bus,
}

impl ObjectClass {
    /// All classes, in size order.
    #[must_use]
    pub const fn all() -> [ObjectClass; 6] {
        [
            ObjectClass::Human,
            ObjectClass::Bike,
            ObjectClass::Car,
            ObjectClass::Van,
            ObjectClass::Truck,
            ObjectClass::Bus,
        ]
    }

    /// Nominal apparent size `(width, height)` in pixels at a 12 mm lens
    /// on the DAVIS240 looking side-on at the road.
    #[must_use]
    pub const fn nominal_size(self) -> (f32, f32) {
        match self {
            ObjectClass::Human => (7.0, 16.0),
            ObjectClass::Bike => (18.0, 13.0),
            ObjectClass::Car => (40.0, 18.0),
            ObjectClass::Van => (46.0, 23.0),
            ObjectClass::Truck => (62.0, 27.0),
            ObjectClass::Bus => (85.0, 32.0),
        }
    }

    /// Speed range in pixels/second (12 mm lens). At `tF` = 66 ms,
    /// 15 px/s ≈ 1 px/frame and 90 px/s ≈ 6 px/frame — the paper's
    /// vehicle range. Humans move at sub-pixel speeds per frame.
    #[must_use]
    pub const fn speed_range_px_s(self) -> (f32, f32) {
        match self {
            ObjectClass::Human => (4.0, 10.0),
            ObjectClass::Bike => (25.0, 60.0),
            ObjectClass::Car => (30.0, 90.0),
            ObjectClass::Van => (30.0, 80.0),
            ObjectClass::Truck => (20.0, 60.0),
            ObjectClass::Bus => (15.0, 50.0),
        }
    }

    /// Relative interior texture activity in events per interior pixel per
    /// pixel of travel. Large vehicles have "a lot of plane surface on
    /// their sides that do not generate much events" (§II-C) — this is
    /// what makes their EBBIs fragment.
    #[must_use]
    pub const fn interior_activity(self) -> f32 {
        match self {
            ObjectClass::Human => 0.12,
            ObjectClass::Bike => 0.10,
            ObjectClass::Car => 0.030,
            ObjectClass::Van => 0.022,
            ObjectClass::Truck => 0.015,
            ObjectClass::Bus => 0.010,
        }
    }

    /// Relative strength of the object's contrast edges. Vehicles have
    /// hard, high-contrast metal boundaries; humans are non-rigid and low
    /// contrast (clothing), so their edges fire sparsely — the physical
    /// reason the paper's 66 ms EBBI cannot track them and proposes the
    /// two-timescale extension.
    #[must_use]
    pub const fn edge_strength(self) -> f64 {
        match self {
            ObjectClass::Human => 0.35,
            ObjectClass::Bike => 0.75,
            ObjectClass::Car | ObjectClass::Van | ObjectClass::Truck | ObjectClass::Bus => 1.0,
        }
    }

    /// Short display label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            ObjectClass::Human => "human",
            ObjectClass::Bike => "bike",
            ObjectClass::Car => "car",
            ObjectClass::Van => "van",
            ObjectClass::Truck => "truck",
            ObjectClass::Bus => "bus",
        }
    }
}

impl core::fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_span_an_order_of_magnitude() {
        let (hw, hh) = ObjectClass::Human.nominal_size();
        let (bw, bh) = ObjectClass::Bus.nominal_size();
        assert!(bw * bh >= 10.0 * hw * hh, "paper: sizes vary by an order of magnitude");
    }

    #[test]
    fn vehicle_speeds_reach_paper_range() {
        // 5-6 px/frame at 66 ms is ~75-90 px/s.
        let (_, max_car) = ObjectClass::Car.speed_range_px_s();
        assert!(max_car >= 75.0);
        // Humans are sub-pixel per frame: < 15 px/s.
        let (_, max_human) = ObjectClass::Human.speed_range_px_s();
        assert!(max_human < 15.0);
    }

    #[test]
    fn bigger_vehicles_have_sparser_interiors() {
        let classes = ObjectClass::all();
        for pair in classes.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a != ObjectClass::Human {
                assert!(
                    a.interior_activity() >= b.interior_activity(),
                    "{a} should be at least as textured as {b}"
                );
            }
        }
    }

    #[test]
    fn all_lists_each_class_once() {
        let mut all = ObjectClass::all().to_vec();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = ObjectClass::all().iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
        assert_eq!(ObjectClass::Bus.to_string(), "bus");
    }

    #[test]
    fn speed_ranges_are_well_formed() {
        for c in ObjectClass::all() {
            let (lo, hi) = c.speed_range_px_s();
            assert!(lo > 0.0 && hi > lo, "{c}");
        }
    }
}
