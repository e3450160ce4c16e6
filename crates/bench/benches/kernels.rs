//! Frame-kernel benches: word-parallel hot kernels vs their scalar
//! references on one busy frame of a simulated LT4 camera (the EBBI for
//! the median, its denoised version and the median's row list for the
//! region proposer's projection and the box counts), per-kernel pixel
//! throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ebbiot_bench::{tracker_box_tiling, FleetFrames};
use ebbiot_events::OpsCounter;
use ebbiot_frame::{reference, Axis, BinaryImage, Histogram, MedianFilter};
use ebbiot_sim::DatasetPreset;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let frames = FleetFrames::capture(DatasetPreset::Lt4, 1, 2.0, 7);
    // The frame with the most motion left after denoising.
    let busiest = (0..frames.denoised.len())
        .max_by_key(|&k| frames.denoised[k].count_ones())
        .expect("captured frames");
    let (ebbi, img) = (&frames.ebbis[busiest], &frames.denoised[busiest]);
    let rows = &frames.denoised_rows[busiest];
    let geometry = img.geometry();
    let mut scratch = BinaryImage::new(geometry);

    let mut group = c.benchmark_group("kernels_lt4");
    group.throughput(Throughput::Elements(geometry.num_pixels() as u64));

    let mut filter = MedianFilter::paper_default();
    group.bench_function("median3_word", |b| {
        b.iter(|| filter.apply_into(black_box(ebbi), &mut scratch));
    });
    let mut ops = OpsCounter::new();
    group.bench_function("median3_reference", |b| {
        b.iter(|| reference::median_into(black_box(ebbi), 3, &mut scratch, &mut ops));
    });

    let (mut hx, mut hy) = (Histogram::default(), Histogram::default());
    group.bench_function("project_rows6x3_word", |b| {
        b.iter(|| {
            let rows = rows.iter().copied();
            Histogram::project_rows(black_box(img), rows, (6, 3), &mut hx, &mut hy, &mut ops);
        });
    });
    group.bench_function("project6x3_reference", |b| {
        b.iter(|| {
            let scaled = reference::downsample(black_box(img), 6, 3, &mut ops);
            black_box(reference::project(&scaled, Axis::X, &mut ops));
            black_box(reference::project(&scaled, Axis::Y, &mut ops));
        });
    });

    let boxes = tracker_box_tiling(geometry);
    group.bench_function("count_in_box_word", |b| {
        b.iter(|| black_box(boxes.iter().map(|bx| img.count_in_box(bx)).sum::<usize>()));
    });
    group.bench_function("count_in_box_reference", |b| {
        b.iter(|| {
            black_box(boxes.iter().map(|bx| reference::count_in_box(img, bx)).sum::<usize>())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
