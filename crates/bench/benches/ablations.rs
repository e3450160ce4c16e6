//! Ablation benches for the design choices ARCHITECTURE.md §1 describes:
//!
//! * RPN downsampling (`s1 = 6, s2 = 3` vs none): the paper's second Eq. 5
//!   term and the fragmentation merging both depend on it.
//! * Histogram RPN vs the future-work CCA RPN.
//! * Median-filter front end vs NN-filter front end (frame vs event
//!   domain denoising).
//! * Overlap tracker with vs without occlusion look-ahead.

use criterion::{criterion_group, criterion_main, Criterion};
use ebbiot_core::{
    rpn::{RegionProposalNetwork, RpnConfig},
    tracker::{OtConfig, OverlapTracker},
    RpnMode,
};
use ebbiot_events::{Event, SensorGeometry};
use ebbiot_filters::NnFilter;
use ebbiot_frame::{BoundingBox, MedianFilter};
use ebbiot_sim::DatasetPreset;
use std::hint::black_box;

fn setup() -> (Vec<Event>, ebbiot_frame::BinaryImage) {
    let rec = DatasetPreset::Eng.config().with_duration_s(2.0).generate(7);
    let events: Vec<Event> = rec.events.iter().copied().filter(|e| e.t < 66_000).collect();
    let image = ebbiot_frame::ebbi::ebbi_from_events(SensorGeometry::davis240(), &events);
    (events, image)
}

fn bench_ablations(c: &mut Criterion) {
    let (events, image) = setup();
    let filtered = MedianFilter::paper_default().apply(&image);
    let geometry = SensorGeometry::davis240();

    let mut group = c.benchmark_group("ablations");

    // --- RPN downsampling -------------------------------------------------
    group.bench_function("rpn_downsampled_s6x3", |b| {
        let mut rpn = RegionProposalNetwork::new(RpnConfig::paper_default());
        b.iter(|| black_box(rpn.propose(black_box(&filtered))));
    });
    group.bench_function("rpn_full_resolution_s1x1", |b| {
        let mut rpn =
            RegionProposalNetwork::new(RpnConfig { s1: 1, s2: 1, ..RpnConfig::paper_default() });
        b.iter(|| black_box(rpn.propose(black_box(&filtered))));
    });

    // --- Histogram vs CCA proposals ---------------------------------------
    group.bench_function("rpn_mode_histogram", |b| {
        let mut rpn = RegionProposalNetwork::new(RpnConfig::paper_default());
        b.iter(|| black_box(rpn.propose(black_box(&filtered))));
    });
    group.bench_function("rpn_mode_cca", |b| {
        let mut rpn = RegionProposalNetwork::new(RpnConfig {
            mode: RpnMode::ConnectedComponents,
            ..RpnConfig::paper_default()
        });
        b.iter(|| black_box(rpn.propose(black_box(&filtered))));
    });

    // --- Frame-domain vs event-domain denoising ---------------------------
    group.bench_function("denoise_median_frame", |b| {
        let mut filter = MedianFilter::paper_default();
        b.iter(|| black_box(filter.apply(black_box(&image))));
    });
    group.bench_function("denoise_nn_filter_events", |b| {
        let mut filter = NnFilter::paper_default(geometry);
        b.iter(|| {
            let mut kept = 0usize;
            for e in &events {
                if filter.keep(e) {
                    kept += 1;
                }
            }
            black_box(kept)
        });
    });

    // --- OT occlusion look-ahead -------------------------------------------
    let crossing =
        vec![BoundingBox::new(100.0, 80.0, 30.0, 16.0), BoundingBox::new(118.0, 82.0, 30.0, 16.0)];
    group.bench_function("ot_with_occlusion_lookahead", |b| {
        let mut ot = OverlapTracker::new(geometry, OtConfig::paper_default());
        let _ = ot.step(&crossing);
        b.iter(|| black_box(ot.step(black_box(&crossing))));
    });
    group.bench_function("ot_without_occlusion_lookahead", |b| {
        let cfg = OtConfig { occlusion_lookahead: 0, ..OtConfig::paper_default() };
        let mut ot = OverlapTracker::new(geometry, cfg);
        let _ = ot.step(&crossing);
        b.iter(|| black_box(ot.step(black_box(&crossing))));
    });

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
