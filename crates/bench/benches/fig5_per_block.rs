//! Criterion benches backing Fig. 5: wall-clock cost of every pipeline
//! block on identical, realistic frame workloads.
//!
//! The paper's Fig. 5 is an ops/memory comparison; these benches provide
//! the wall-clock analogue on this machine, with the same expected shape
//! (EBBI + median + RPN dominated by A*B work; OT and KF tiny; NN-filt +
//! EBMS scaling with the event rate).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ebbiot_baselines::{EbmsConfig, EbmsTracker, KalmanConfig, KalmanTracker};
use ebbiot_core::{
    rpn::{RegionProposalNetwork, RpnConfig},
    tracker::{OtConfig, OverlapTracker},
};
use ebbiot_events::{Event, SensorGeometry};
use ebbiot_filters::NnFilter;
use ebbiot_frame::{BinaryImage, BoundingBox, EbbiAccumulator, MedianFilter};
use ebbiot_sim::DatasetPreset;
use std::hint::black_box;

/// One representative 66 ms frame of ENG traffic (events) for the
/// event-domain blocks.
fn frame_events() -> Vec<Event> {
    let rec = DatasetPreset::Eng.config().with_duration_s(2.0).generate(42);
    rec.events.iter().copied().filter(|e| e.t < 66_000).collect::<Vec<_>>()
}

/// The EBBI of that frame for the frame-domain blocks.
fn frame_image(events: &[Event]) -> BinaryImage {
    ebbiot_frame::ebbi::ebbi_from_events(SensorGeometry::davis240(), events)
}

fn bench_blocks(c: &mut Criterion) {
    let events = frame_events();
    let image = frame_image(&events);
    let filtered = MedianFilter::paper_default().apply(&image);
    let geometry = SensorGeometry::davis240();

    let mut group = c.benchmark_group("fig5_blocks");

    group.bench_function("ebbi_accumulate_frame", |b| {
        b.iter_batched(
            || EbbiAccumulator::new(geometry),
            |mut acc| {
                acc.accumulate_all(black_box(&events));
                black_box(acc.readout())
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("median_filter_3x3", |b| {
        let mut filter = MedianFilter::paper_default();
        b.iter(|| black_box(filter.apply(black_box(&image))));
    });

    group.bench_function("nn_filter_frame", |b| {
        b.iter_batched(
            || NnFilter::paper_default(geometry),
            |mut f| {
                let mut kept = 0usize;
                for e in &events {
                    if f.keep(e) {
                        kept += 1;
                    }
                }
                black_box(kept)
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("rpn_histogram", |b| {
        let mut rpn = RegionProposalNetwork::new(RpnConfig::paper_default());
        b.iter(|| black_box(rpn.propose(black_box(&filtered))));
    });

    group.bench_function("rpn_cca", |b| {
        let mut rpn = RegionProposalNetwork::new(RpnConfig {
            mode: ebbiot_core::RpnMode::ConnectedComponents,
            ..RpnConfig::paper_default()
        });
        b.iter(|| black_box(rpn.propose(black_box(&filtered))));
    });

    // Two steady proposals, matching the paper's NT ~ 2.
    let proposals =
        vec![BoundingBox::new(60.0, 90.0, 42.0, 18.0), BoundingBox::new(150.0, 110.0, 30.0, 16.0)];

    group.bench_function("ot_step_nt2", |b| {
        let mut ot = OverlapTracker::new(geometry, OtConfig::paper_default());
        let _ = ot.step(&proposals);
        b.iter(|| black_box(ot.step(black_box(&proposals))));
    });

    group.bench_function("kf_step_nt2", |b| {
        let mut kf = KalmanTracker::new(geometry, KalmanConfig::paper_default());
        let _ = kf.step(&proposals);
        b.iter(|| black_box(kf.step(black_box(&proposals))));
    });

    group.bench_function("ebms_frame_nt2", |b| {
        b.iter_batched(
            || {
                let mut t = EbmsTracker::new(geometry, EbmsConfig::paper_default());
                // Pre-seed two clusters.
                for k in 0..40u32 {
                    t.process_event(&Event::on(70 + (k % 6) as u16, 95, u64::from(k)));
                    t.process_event(&Event::on(160 + (k % 6) as u16, 115, u64::from(k)));
                }
                t
            },
            |mut t| {
                for e in &events {
                    t.process_event(e);
                }
                t.maintain(66_000);
                black_box(t.visible())
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_blocks);
criterion_main!(benches);
