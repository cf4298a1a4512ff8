//! Micro-bench: spatial-grid contact detection — executed once per
//! movement tick, the simulator's per-tick fixed cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtn_core::geometry::{Point2, Rect};
use dtn_core::grid::SpatialGrid;
use dtn_core::ids::NodeId;
use dtn_core::rng::{stream_rng, streams, uniform_range};
use dtn_core::time::SimTime;
use dtn_net::contact::ContactTracker;
use std::hint::black_box;

fn positions(n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = stream_rng(seed, streams::BENCH);
    (0..n)
        .map(|_| {
            Point2::new(
                uniform_range(&mut rng, 0.0, 4500.0),
                uniform_range(&mut rng, 0.0, 3400.0),
            )
        })
        .collect()
}

fn bench_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("contact_detection");
    for &n in &[100usize, 400, 1600] {
        let pos = positions(n, 1);
        g.bench_with_input(BenchmarkId::new("grid_rebuild_pairs", n), &pos, |b, pos| {
            let mut grid = SpatialGrid::new(Rect::from_size(4500.0, 3400.0), 100.0);
            let mut out: Vec<(NodeId, NodeId)> = Vec::new();
            b.iter(|| {
                grid.rebuild(pos);
                out.clear();
                grid.pairs_within(100.0, &mut out);
                black_box(out.len())
            })
        });
    }

    // Tracker diffing across two alternating position sets (forces
    // up/down event churn). Every node jumps kilometres each tick, so
    // every update rebuilds the candidates: the tracker's worst case.
    let a = positions(100, 1);
    let b_pos = positions(100, 2);
    g.bench_function("tracker_update_100", |b| {
        let mut tracker = ContactTracker::new(Rect::from_size(4500.0, 3400.0), 100.0);
        let mut events = Vec::new();
        let mut t = 0.0f64;
        b.iter(|| {
            t += 1.0;
            events.clear();
            let pos = if (t as u64) % 2 == 0 { &a } else { &b_pos };
            tracker.update(SimTime::from_secs(t), pos, &mut events);
            black_box(events.len())
        })
    });

    // The paper's regime: every node walks straight at 2 m per tick (RWP
    // at 2 m/s, 1 s ticks), turning back at the playground's edges, so
    // most updates only re-test the candidates and the skin triggers a
    // rebuild every ten ticks.
    g.bench_function("tracker_update_rwp_100", |b| {
        let mut tracker = ContactTracker::new(Rect::from_size(4500.0, 3400.0), 100.0);
        let mut events = Vec::new();
        let mut pos = positions(100, 1);
        let mut rng = stream_rng(3, streams::BENCH);
        let mut vel: Vec<Point2> = (0..pos.len())
            .map(|_| {
                let heading = uniform_range(&mut rng, 0.0, std::f64::consts::TAU);
                Point2::new(2.0 * heading.cos(), 2.0 * heading.sin())
            })
            .collect();
        let mut t = 0.0f64;
        b.iter(|| {
            t += 1.0;
            for (p, v) in pos.iter_mut().zip(&mut vel) {
                if !(0.0..=4500.0).contains(&(p.x + v.x)) {
                    v.x = -v.x;
                }
                if !(0.0..=3400.0).contains(&(p.y + v.y)) {
                    v.y = -v.y;
                }
                *p = Point2::new(p.x + v.x, p.y + v.y);
            }
            events.clear();
            tracker.update(SimTime::from_secs(t), &pos, &mut events);
            black_box(events.len())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_grid);
criterion_main!(benches);
