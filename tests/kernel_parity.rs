//! Kernel parity: every word-parallel frame kernel must be bit-exact
//! (and op-count-exact) against its scalar reference transcription in
//! [`ebbiot::frame::reference`], over geometries chosen to stress the
//! row-aligned layout — widths that are not word multiples (17, 346, 1),
//! single-pixel frames, all-zeros/all-ones frames, and boxes straddling
//! word boundaries — and over tall sensor-sized frames where only a few
//! row bands are set, which is what the kernels' sparsity shortcuts see on
//! a stationary camera. Every mutating operation must also preserve the
//! tail-bit invariant (`BinaryImage::tail_bits_zero`). The batched EBBI
//! latch must match the one-event-at-a-time latch, counters and op
//! charge included. The region proposer that projects only the rows the
//! median wrote must propose exactly what the count-image path of
//! `propose_with_intermediates` proposes, op counts included.

use std::collections::HashSet;

use ebbiot::core::rpn::{RegionProposalNetwork, RpnConfig};
use ebbiot::events::{Event, OpsCounter, Polarity, SensorGeometry};
use ebbiot::frame::{
    reference, Axis, BinaryImage, BoundingBox, CountImage, EbbiAccumulator, Histogram,
    MedianFilter, PixelBox,
};
use proptest::prelude::*;

/// Geometries that stress the layout: non-word-multiple widths, exact
/// word widths, the paper sensors, and degenerate 1-pixel frames.
const GEOMS: [(u16, u16); 7] = [(17, 5), (64, 4), (65, 3), (1, 1), (1, 9), (130, 7), (346, 13)];

/// Full sensor geometries for the banded frames: the paper's DAVIS240,
/// whose 180 rows divide by `s2 = 3`, and the DAVIS346, whose 260 rows
/// leave a partial last band.
const BANDED_GEOMS: [(u16, u16); 2] = [(240, 180), (346, 260)];

/// A generated frame: geometry index, pixel seeds (mapped into bounds by
/// modulo), and a fill mode (0 = sparse, 1 = all ones, 2 = all zeros).
fn arb_frame() -> impl Strategy<Value = (BinaryImage, SensorGeometry)> {
    (0..GEOMS.len(), proptest::collection::vec((0u16..1024, 0u16..1024), 0..250), 0u8..6).prop_map(
        |(gi, seeds, mode)| {
            let (w, h) = GEOMS[gi];
            let geom = SensorGeometry::new(w, h);
            let mut img = BinaryImage::new(geom);
            match mode {
                1 => img.fill_box(&PixelBox::new(0, 0, w, h)),
                2 => {}
                _ => {
                    for (sx, sy) in seeds {
                        img.set(sx % w, sy % h, true);
                    }
                }
            }
            (img, geom)
        },
    )
}

/// A sensor-sized frame where only a few row bands are set: 1 to 4
/// bands, each 1 to 8 rows tall, anchored at the top row, flush with
/// the very last row (so it lands in the last, possibly partial,
/// downsampling band), or at a random row. Each row of a band sets every
/// `step`-th pixel of a shared column span, with `step` drawn per row
/// from 1 (solid), 2 or 3 (isolated pixels, no horizontal pair), so
/// neighbouring rows mix solid runs with speckle. Every other row is
/// empty.
fn arb_banded_frame() -> impl Strategy<Value = (BinaryImage, SensorGeometry)> {
    let band = (0u8..3, 0u16..1024, 1u16..9, (0u16..1024, 1u16..90), 0u16..u16::MAX);
    (0..BANDED_GEOMS.len(), proptest::collection::vec(band, 1..5)).prop_map(|(gi, bands)| {
        let (w, h) = BANDED_GEOMS[gi];
        let geom = SensorGeometry::new(w, h);
        let mut img = BinaryImage::new(geom);
        for (anchor, ys, rows, (xs, cols), steps) in bands {
            let y0 = match anchor {
                0 => 0,
                1 => h - rows,
                _ => ys % h,
            };
            let x0 = xs % w;
            for (r, y) in (y0..(y0 + rows).min(h)).enumerate() {
                let step = [1, 3, 3, 2][usize::from(steps >> (2 * (r % 8)) & 3)];
                for x in (x0..(x0 + cols).min(w)).step_by(step) {
                    img.set(x, y, true);
                }
            }
        }
        (img, geom)
    })
}

/// Geometries for the pair-targeted frames: the two paper sensors and a
/// width just over one 64-bit word.
const PAIR_GEOMS: [(u16, u16); 3] = [(240, 180), (346, 260), (67, 12)];

/// A sensor-sized frame whose only horizontal pairs (a pixel with a
/// horizontal count of 2 or more) sit in a few targeted rows and come
/// from a gap pair (`x - 1` and `x + 1` set, `x` clear) or from a pair
/// straddling a word boundary `b` (`b - 1, b`, `b - 2, b` or
/// `b - 1, b + 1`). Targeted rows come in bands of 1 to 3 rows that
/// repeat one pattern, anchored at the top row, flush with the last row
/// or at a random row, so stacked pair rows reach the majority. Some of
/// the other rows carry speckle three pixels apart, which never forms a
/// pair but lifts a neighbouring pair band over the majority.
fn arb_pair_frame() -> impl Strategy<Value = (BinaryImage, SensorGeometry)> {
    let band = (0u8..3, 0u16..1024, 1u16..4, 0u8..4, 0u16..1024);
    (0..PAIR_GEOMS.len(), proptest::collection::vec(band, 1..5), 0u16..3, 0u16..5).prop_map(
        |(gi, bands, speckle_x, speckle_rows)| {
            let (w, h) = PAIR_GEOMS[gi];
            let geom = SensorGeometry::new(w, h);
            let mut pattern: Vec<Option<[u16; 2]>> = vec![None; usize::from(h)];
            for (anchor, ys, rows, kind, xs) in bands {
                let y0 = match anchor {
                    0 => 0,
                    1 => h - rows,
                    _ => ys % h,
                };
                let b = 64 * (1 + xs % ((w - 1) / 64));
                let pair = match kind {
                    0 => {
                        let x = 1 + xs % (w - 2);
                        [x - 1, x + 1]
                    }
                    1 => [b - 1, b],
                    2 => [b - 2, b],
                    _ => [b - 1, b + 1],
                };
                for y in y0..(y0 + rows).min(h) {
                    pattern[usize::from(y)] = Some(pair);
                }
            }
            let mut img = BinaryImage::new(geom);
            for (y, row) in (0..h).zip(&pattern) {
                match row {
                    Some(pair) => pair.iter().for_each(|&x| img.set(x, y, true)),
                    None if y % 5 < speckle_rows => {
                        (speckle_x..w).step_by(3).for_each(|x| img.set(x, y, true));
                    }
                    None => {}
                }
            }
            (img, geom)
        },
    )
}

/// An event window over a small or sensor-sized geometry: coordinates
/// range a few pixels past the array (out-of-bounds events are counted
/// but not latched), and a prefix of the window is replayed at its end
/// so pixels repeat even on the large sensor.
fn arb_event_window() -> impl Strategy<Value = (SensorGeometry, Vec<Event>)> {
    const GEOMS: [(u16, u16); 4] = [(17, 5), (65, 3), (1, 1), (240, 180)];
    let event = (0u16..1024, 0u16..1024, any::<bool>());
    (0..GEOMS.len(), proptest::collection::vec(event, 0..300), 0usize..100).prop_map(
        |(gi, seeds, repeat)| {
            let (w, h) = GEOMS[gi];
            let mut events: Vec<Event> = seeds
                .into_iter()
                .enumerate()
                .map(|(t, (sx, sy, on))| {
                    let polarity = if on { Polarity::On } else { Polarity::Off };
                    Event::new(sx % (w + 4), sy % (h + 4), t as u64, polarity)
                })
                .collect();
            events.extend_from_within(..repeat.min(events.len()));
            (SensorGeometry::new(w, h), events)
        },
    )
}

/// Checks the median at `patch` against the reference, op counts and
/// the tail invariant included.
fn check_median(img: &BinaryImage, geom: SensorGeometry, patch: u16) {
    let mut ref_ops = OpsCounter::new();
    let expected = reference::median(img, patch, &mut ref_ops);
    let mut filter = MedianFilter::new(patch);
    let mut out = BinaryImage::new(geom);
    filter.apply_into(img, &mut out);
    assert_eq!(out, expected, "median p={patch} on {geom}");
    assert_eq!(*filter.ops(), ref_ops, "median op accounting p={patch} on {geom}");
    assert!(out.tail_bits_zero(), "tail invariant after median");
    assert_eq!(filter.written_rows(), non_empty_rows(&expected), "median p={patch} row list");
}

/// The rows of `img` holding at least one set pixel, in order.
fn non_empty_rows(img: &BinaryImage) -> Vec<u16> {
    (0..img.height()).filter(|&y| img.row_words(y).iter().any(|&w| w != 0)).collect()
}

/// Checks the downsample and both projections of its result against
/// the references, op counts included.
fn check_downsample_and_projections(img: &BinaryImage, geom: SensorGeometry, s1: u16, s2: u16) {
    let s1 = s1.min(geom.width());
    let s2 = s2.min(geom.height());
    let mut ref_ops = OpsCounter::new();
    let expected = reference::downsample(img, s1, s2, &mut ref_ops);
    let mut ops = OpsCounter::new();
    let got = CountImage::downsample(img, s1, s2, &mut ops);
    assert_eq!(got, expected, "downsample {s1}x{s2} on {geom}");
    assert_eq!(ops, ref_ops, "downsample op accounting {s1}x{s2} on {geom}");
    // Partial edge cells mean mass is conserved unconditionally.
    assert_eq!(got.total(), img.count_ones() as u64);
    for axis in [Axis::X, Axis::Y] {
        let (mut ops, mut ref_ops) = (OpsCounter::new(), OpsCounter::new());
        let hist = Histogram::project(&got, axis, &mut ops);
        assert_eq!(hist, reference::project(&expected, axis, &mut ref_ops), "{axis:?} bins");
        assert_eq!(ops, ref_ops, "{axis:?} projection op accounting on {geom}");
        assert_eq!(hist.total(), got.total(), "{axis:?} projection conserves mass");
    }
    // The row projection builds both histograms without the count image
    // and charges the downsample plus both projections.
    let (mut hx, mut hy) = (Histogram::default(), Histogram::default());
    let mut rows_ops = OpsCounter::new();
    let rows = non_empty_rows(img);
    Histogram::project_rows(img, rows, (s1, s2), &mut hx, &mut hy, &mut rows_ops);
    let mut ref_ops = OpsCounter::new();
    let _ = reference::downsample(img, s1, s2, &mut ref_ops);
    assert_eq!(hx, reference::project(&expected, Axis::X, &mut ref_ops), "row-projected H_X");
    assert_eq!(hy, reference::project(&expected, Axis::Y, &mut ref_ops), "row-projected H_Y");
    assert_eq!(rows_ops, ref_ops, "row projection op accounting {s1}x{s2} on {geom}");
}

/// Geometries for the region-proposer frames: the paper's DAVIS240, the
/// DAVIS346 (partial edge cells on both axes for `(6, 3)`) and a frame
/// 67 pixels wide, just over one word.
const RPN_GEOMS: [(u16, u16); 3] = [(240, 180), (346, 260), (67, 40)];

/// A sparse sensor-sized frame of up to four solid blobs plus speckle,
/// or, in a diagonal layout, exactly two blobs of at least 6x6 pixels in
/// opposite quadrants with a 16-pixel gap: two runs on both axes for any
/// cell size up to 8, so two of the four run intersections are false.
/// Returns the frame and whether it is diagonal.
fn arb_rpn_frame() -> impl Strategy<Value = (BinaryImage, bool)> {
    let blob = (0u16..1024, 0u16..1024, 3u16..14, 3u16..9);
    let speckle = proptest::collection::vec((0u16..1024, 0u16..1024), 0..60);
    (0..RPN_GEOMS.len(), proptest::collection::vec(blob, 2..5), any::<bool>(), speckle).prop_map(
        |(gi, blobs, diagonal, speckle)| {
            let (w, h) = RPN_GEOMS[gi];
            let mut img = BinaryImage::new(SensorGeometry::new(w, h));
            if diagonal {
                for (k, &(xs, ys, bw, bh)) in blobs.iter().take(2).enumerate() {
                    let (bw, bh) = (bw.clamp(6, w / 4), bh.clamp(6, h / 4));
                    let (free_x, free_y) = (w / 2 - 8 - bw, h / 2 - 8 - bh);
                    let (mut x0, mut y0) = (xs % free_x, ys % free_y);
                    if k == 1 {
                        (x0, y0) = (w - bw - x0, h - bh - y0);
                    }
                    img.fill_box(&PixelBox::new(x0, y0, x0 + bw, y0 + bh));
                }
                return (img, true);
            }
            for (xs, ys, bw, bh) in blobs {
                let (x0, y0) = (xs % (w - bw), ys % (h - bh));
                img.fill_box(&PixelBox::new(x0, y0, x0 + bw, y0 + bh));
            }
            for (sx, sy) in speckle {
                img.set(sx % w, sy % h, true);
            }
            (img, false)
        },
    )
}

fn arb_pixel_box() -> impl Strategy<Value = PixelBox> {
    (0u16..400, 0u16..40, 0u16..400, 0u16..40)
        .prop_map(|(x0, y0, x1, y1)| PixelBox::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)))
}

proptest! {
    #[test]
    fn median_matches_reference_for_all_patch_sizes((img, geom) in arb_frame(), p_idx in 0usize..3) {
        check_median(&img, geom, [1u16, 3, 5][p_idx]);
    }

    #[test]
    fn median_matches_reference_on_banded_frames(
        (img, geom) in arb_banded_frame(),
        p_idx in 0usize..3,
    ) {
        check_median(&img, geom, [1u16, 3, 5][p_idx]);
    }

    #[test]
    fn median_matches_reference_on_gap_and_word_straddling_pairs(
        (img, geom) in arb_pair_frame(),
        p_idx in 0usize..3,
    ) {
        check_median(&img, geom, [1u16, 3, 5][p_idx]);
    }

    #[test]
    fn ebbi_accumulate_all_matches_per_event_accumulate((geom, events) in arb_event_window()) {
        let mut batch = EbbiAccumulator::new(geom);
        batch.accumulate_all(&events);
        let mut single = EbbiAccumulator::new(geom);
        for e in &events {
            single.accumulate(e);
        }
        prop_assert_eq!(batch.current(), single.current());
        prop_assert_eq!(batch.events_seen(), single.events_seen());
        prop_assert_eq!(batch.pixels_latched(), single.pixels_latched());
        prop_assert_eq!(batch.beta().to_bits(), single.beta().to_bits());
        prop_assert_eq!(batch.ops(), single.ops());
        // And against a model with no latch at all: the distinct
        // in-bounds pixels.
        let distinct: HashSet<(u16, u16)> = events
            .iter()
            .filter(|e| geom.contains_event(e))
            .map(|e| (e.x, e.y))
            .collect();
        prop_assert_eq!(batch.events_seen(), events.len() as u64);
        prop_assert_eq!(batch.pixels_latched(), distinct.len() as u64);
        prop_assert_eq!(batch.current().count_ones(), distinct.len());

        // `readout_into` over a stale, all-ones frame hands out exactly
        // the latched image and leaves the accumulator empty.
        let frame = single.readout();
        let mut out = BinaryImage::new(geom);
        out.fill_box(&PixelBox::new(0, 0, geom.width(), geom.height()));
        batch.readout_into(&mut out);
        prop_assert_eq!(&out, &frame);
        prop_assert!(out.tail_bits_zero(), "tail invariant after readout_into");
        prop_assert_eq!(batch.events_seen(), 0);
        prop_assert_eq!(batch.pixels_latched(), 0);
        prop_assert_eq!(batch.current().count_ones(), 0);
        // A second readout with nothing latched is empty, and the window
        // latched again reads out the same frame.
        batch.readout_into(&mut out);
        prop_assert_eq!(out.count_ones(), 0);
        batch.accumulate_all(&events);
        batch.readout_into(&mut out);
        prop_assert_eq!(&out, &frame);
        prop_assert_eq!(batch.ops().mem_writes, 2 * single.ops().mem_writes);
    }

    #[test]
    fn downsample_matches_reference((img, geom) in arb_frame(), s1 in 1u16..9, s2 in 1u16..9) {
        check_downsample_and_projections(&img, geom, s1, s2);
    }

    #[test]
    fn downsample_matches_reference_on_banded_frames(
        (img, geom) in arb_banded_frame(),
        s1 in 1u16..9,
        s2 in 1u16..9,
    ) {
        check_downsample_and_projections(&img, geom, s1, s2);
    }

    #[test]
    fn wide_block_downsample_matches_reference_on_banded_frames(
        (img, geom) in arb_banded_frame(),
        s1 in 65u16..200,
        s2 in 1u16..9,
    ) {
        check_downsample_and_projections(&img, geom, s1, s2);
    }

    #[test]
    fn row_list_rpn_matches_the_count_image_path(
        (raw, diagonal) in arb_rpn_frame(),
        p_idx in 0usize..2,
        (s1, s2) in (1u16..9, 1u16..9),
        threshold in 1u32..4,
        refine_boxes in any::<bool>(),
    ) {
        let patch = [3u16, 5][p_idx];
        let mut median = MedianFilter::new(patch);
        let denoised = median.apply(&raw);
        prop_assert_eq!(median.written_rows(), non_empty_rows(&denoised), "p={} row list", patch);
        let config = RpnConfig { s1, s2, threshold, refine_boxes, ..RpnConfig::paper_default() };
        let mut counted = RegionProposalNetwork::new(config);
        let (expected, scaled, hx, hy) = counted.propose_with_intermediates(&denoised);
        // The median's list, every row, and a superset with empty rows.
        let every_seventh = (0..denoised.height()).filter(|y| y % 7 == 0);
        let mut superset: Vec<u16> =
            median.written_rows().iter().copied().chain(every_seventh).collect();
        superset.sort_unstable();
        superset.dedup();
        for rows in [median.written_rows().to_vec(), (0..denoised.height()).collect(), superset] {
            let mut by_rows = RegionProposalNetwork::new(config);
            prop_assert_eq!(&by_rows.propose_rows(&denoised, &rows), &expected);
            prop_assert_eq!(by_rows.ops(), counted.ops());
        }
        let mut all_rows = RegionProposalNetwork::new(config);
        prop_assert_eq!(&all_rows.propose(&denoised), &expected);
        prop_assert_eq!(all_rows.ops(), counted.ops());

        // The proposals follow from the count image alone: with both
        // axes holding several runs, an intersection is kept only when
        // its cells hold a non-zero sum, which the proposer reads off the
        // denoised frame instead. Unrefined proposals are the kept
        // intersections' cell boxes, clamped to the frame.
        let mut ops = OpsCounter::new();
        let x_runs = hx.runs_at_least(threshold, &mut ops);
        let y_runs = hy.runs_at_least(threshold, &mut ops);
        let ambiguous = x_runs.len() > 1 && y_runs.len() > 1;
        if diagonal && threshold == 1 {
            prop_assert!(ambiguous, "a diagonal layout has false intersections");
        }
        let (w, h) = (u32::from(denoised.width()), u32::from(denoised.height()));
        let px = |cell: usize, s: u16, limit: u32| (cell as u32 * u32::from(s)).min(limit) as u16;
        let mut oracle = Vec::new();
        for rx in &x_runs {
            for ry in &y_runs {
                let cells = (ry.start..ry.end)
                    .any(|j| (rx.start..rx.end).any(|i| scaled.get(i as u16, j as u16) > 0));
                let (x0, x1) = (px(rx.start, s1, w), px(rx.end, s1, w));
                let (y0, y1) = (px(ry.start, s2, h), px(ry.end, s2, h));
                prop_assert_eq!(denoised.any_in_box(&PixelBox::new(x0, y0, x1, y1)), cells);
                let bbox = BoundingBox::from_corners(
                    f32::from(x0),
                    f32::from(y0),
                    f32::from(x1),
                    f32::from(y1),
                );
                if (cells || !ambiguous) && bbox.area() >= config.min_area {
                    oracle.push(bbox);
                }
            }
        }
        if !refine_boxes {
            prop_assert_eq!(&expected, &oracle);
        }
    }

    #[test]
    fn box_queries_match_reference((img, _geom) in arb_frame(), b in arb_pixel_box()) {
        prop_assert_eq!(img.any_in_box(&b), reference::any_in_box(&img, &b));
    }

    #[test]
    fn fill_box_matches_reference_and_keeps_tail_invariant(
        (img, geom) in arb_frame(),
        b in arb_pixel_box(),
    ) {
        let mut fast = img.clone();
        fast.fill_box(&b);
        let mut scalar = img;
        reference::fill_box(&mut scalar, &b);
        prop_assert_eq!(&fast, &scalar, "fill_box {:?} on {}", b, geom);
        prop_assert!(fast.tail_bits_zero(), "tail invariant after fill_box");
    }

    #[test]
    fn every_mutating_op_preserves_the_tail_invariant(
        (mut img, geom) in arb_frame(),
        pokes in proptest::collection::vec((0u16..1024, 0u16..1024, 0u8..3), 0..40),
        b in arb_pixel_box(),
    ) {
        prop_assert!(img.tail_bits_zero(), "fresh/filled frame");
        for (sx, sy, op) in pokes {
            let (x, y) = (sx % geom.width(), sy % geom.height());
            match op {
                0 => img.set(x, y, true),
                1 => img.set(x, y, false),
                _ => {
                    let _ = img.latch(x, y);
                }
            }
            prop_assert!(img.tail_bits_zero(), "after point op {} at ({}, {})", op, x, y);
        }
        img.fill_box(&b);
        prop_assert!(img.tail_bits_zero(), "after fill_box");
        let mut copy = BinaryImage::new(geom);
        copy.copy_from(&img);
        prop_assert!(copy.tail_bits_zero(), "after copy_from");
        // count_ones must agree with a per-pixel scan (popcount honesty).
        let mut scalar = 0usize;
        for y in 0..geom.height() {
            for x in 0..geom.width() {
                if img.get(x, y) {
                    scalar += 1;
                }
            }
        }
        prop_assert_eq!(img.count_ones(), scalar);
        img.clear();
        prop_assert!(img.tail_bits_zero(), "after clear");
        prop_assert_eq!(img.count_ones(), 0);
    }
}
