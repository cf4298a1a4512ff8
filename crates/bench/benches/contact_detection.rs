//! Micro-bench: spatial-grid contact detection and movement sampling —
//! executed once per movement tick, the simulator's per-tick fixed cost.
//!
//! The `large_world` cases run at the density of the `large-world`
//! benchmark workload: 10 000 nodes in 31 623 m x 23 717 m, 100 m radio
//! range (140 m grid cells with the tracker's skin).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtn_core::geometry::{Point2, Rect};
use dtn_core::grid::SpatialGrid;
use dtn_core::ids::NodeId;
use dtn_core::rng::{stream_rng, streams, uniform_range};
use dtn_core::time::SimTime;
use dtn_mobility::random_waypoint::RandomWaypointConfig;
use dtn_mobility::{build_fleet, Leg, Mobility, MobilityConfig};
use dtn_net::contact::ContactTracker;
use std::hint::black_box;

/// The paper's playground (Table II).
const PAPER: (f64, f64) = (4500.0, 3400.0);
/// The `large-world` playground: 1e4 nodes at 1/75 000 m² each.
const LARGE: (f64, f64) = (31_622.776_601_683_792, 23_717.082_451_262_846);
const LARGE_NODES: usize = 10_000;

fn positions(n: usize, seed: u64) -> Vec<Point2> {
    positions_in(PAPER, n, seed)
}

fn positions_in((w, h): (f64, f64), n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = stream_rng(seed, streams::BENCH);
    (0..n)
        .map(|_| {
            Point2::new(
                uniform_range(&mut rng, 0.0, w),
                uniform_range(&mut rng, 0.0, h),
            )
        })
        .collect()
}

/// Every node walks straight at 2 m per tick (RWP at 2 m/s, 1 s ticks),
/// turning back at the playground's edges.
struct Walk {
    area: (f64, f64),
    pos: Vec<Point2>,
    vel: Vec<Point2>,
}

impl Walk {
    fn new(area: (f64, f64), n: usize) -> Walk {
        let mut rng = stream_rng(3, streams::BENCH);
        let vel = (0..n)
            .map(|_| {
                let heading = uniform_range(&mut rng, 0.0, std::f64::consts::TAU);
                Point2::new(2.0 * heading.cos(), 2.0 * heading.sin())
            })
            .collect();
        Walk {
            area,
            pos: positions_in(area, n, 1),
            vel,
        }
    }

    fn step(&mut self) -> &[Point2] {
        let (w, h) = self.area;
        for (p, v) in self.pos.iter_mut().zip(&mut self.vel) {
            if !(0.0..=w).contains(&(p.x + v.x)) {
                v.x = -v.x;
            }
            if !(0.0..=h).contains(&(p.y + v.y)) {
                v.y = -v.y;
            }
            *p = Point2::new(p.x + v.x, p.y + v.y);
        }
        &self.pos
    }
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
                grid.pairs_within_rows(100.0, 0..grid.row_count(), &mut out);
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

    // The paper's regime: most updates only re-test the candidates and
    // the skin triggers a rebuild every ten ticks.
    g.bench_function("tracker_update_rwp_100", |b| {
        let mut tracker = ContactTracker::new(Rect::from_size(PAPER.0, PAPER.1), 100.0);
        let mut events = Vec::new();
        let mut walk = Walk::new(PAPER, 100);
        let mut t = 0.0f64;
        b.iter(|| {
            t += 1.0;
            events.clear();
            tracker.update(SimTime::from_secs(t), walk.step(), &mut events);
            black_box(events.len())
        })
    });
    g.finish();

    // `large-world` density: one candidate rebuild (grid rebuild plus
    // pair query at the candidate reach), and one tracker tick of the
    // 2 m/s walk (one rebuild in ten ticks).
    let mut g = c.benchmark_group("contact_detection_large_world");
    let area = Rect::from_size(LARGE.0, LARGE.1);
    let pos = positions_in(LARGE, LARGE_NODES, 1);
    g.bench_function("grid_rebuild_pairs_10000", |b| {
        let mut grid = SpatialGrid::new(area, 140.0);
        let mut out: Vec<(NodeId, NodeId)> = Vec::new();
        b.iter(|| {
            grid.rebuild(&pos);
            out.clear();
            grid.pairs_within_rows(140.0, 0..grid.row_count(), &mut out);
            black_box(out.len())
        })
    });
    g.bench_function("tracker_update_rwp_10000", |b| {
        let mut tracker = ContactTracker::new(area, 100.0);
        let mut events = Vec::new();
        let mut walk = Walk::new(LARGE, LARGE_NODES);
        let mut t = 0.0f64;
        b.iter(|| {
            t += 1.0;
            events.clear();
            tracker.update(SimTime::from_secs(t), walk.step(), &mut events);
            black_box(events.len())
        })
    });
    g.finish();
}

/// The movement phase at `large-world` scale: 10 000 random-waypoint
/// nodes at 2 m/s sampled once per 1 s tick, through each boxed model's
/// `position_at`, and through a cached leg kept beside each model (as
/// the world keeps it) that asks the model only when the leg runs out.
fn bench_movement(c: &mut Criterion) {
    let mut g = c.benchmark_group("movement_large_world");
    let cfg = MobilityConfig::RandomWaypoint(RandomWaypointConfig {
        area: Rect::from_size(LARGE.0, LARGE.1),
        min_speed: 2.0,
        max_speed: 2.0,
        min_pause: 0.0,
        max_pause: 0.0,
    });
    g.bench_function("position_at_10000", |b| {
        let mut fleet = build_fleet(&cfg, LARGE_NODES, 42);
        let mut positions = vec![Point2::default(); LARGE_NODES];
        let mut t = 0.0f64;
        b.iter(|| {
            let now = SimTime::from_secs(t);
            for (m, p) in fleet.iter_mut().zip(&mut positions) {
                *p = m.position_at(now);
            }
            t += 1.0;
            black_box(positions[0])
        })
    });
    g.bench_function("cached_legs_10000", |b| {
        let mut movers: Vec<(Leg, Box<dyn Mobility>)> = build_fleet(&cfg, LARGE_NODES, 42)
            .into_iter()
            .map(|mut m| (m.leg_at(SimTime::ZERO), m))
            .collect();
        let mut positions = vec![Point2::default(); LARGE_NODES];
        let mut t = 0.0f64;
        b.iter(|| {
            let now = SimTime::from_secs(t);
            for ((leg, m), p) in movers.iter_mut().zip(&mut positions) {
                *p = leg.follow(&mut **m, now);
            }
            t += 1.0;
            black_box(positions[0])
        })
    });
    g.finish();
}

criterion_group!(benches, bench_grid, bench_movement);
criterion_main!(benches);
