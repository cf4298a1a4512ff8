//! Leg-path differential tests: the movement phase reads each node's
//! cached leg and asks the model only when the leg runs out, and must
//! produce exactly the positions the models gave before they answered
//! with legs — bit for bit, at every tick, at any thread count, through
//! the instants where one leg hands over to the next and through
//! radio-off windows (a parked node sits at its sentinel and rejoins at
//! its true position).
//!
//! The waypoint models' `position_at` walks the planner's legs itself,
//! so a fresh `build_fleet` fleet is the reference for them. A trace's
//! and a script's `position_at` now read their own legs, so the
//! reference for those is the interpolation they did before, restated
//! here over their samples.

use super::soa::NodeArrays;
use super::*;
use crate::config::presets;
use crate::config::FaultPlan;
use dtn_core::geometry::{Point2, Rect};
use dtn_mobility::clustered::ClusteredWaypointConfig;
use dtn_mobility::random_direction::RandomDirectionConfig;
use dtn_mobility::random_walk::RandomWalkConfig;
use dtn_mobility::stationary::Scripted;
use dtn_mobility::trace::MobilityTrace;
use dtn_mobility::{build_fleet, Mobility, MobilityConfig};

const TICKS: u32 = 2_000;
const NODES: usize = 12;

fn sentinel(i: usize) -> Point2 {
    Point2::new(-1.0e12 - i as f64 * 1.0e9, -1.0e12)
}

fn same_bits(a: Point2, b: Point2) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// A tiny xorshift stream for test data.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A trace whose samples fall on ticks and between them, starting after
/// t = 0 for some nodes and ending before the run does for all.
fn trace_body() -> String {
    let mut state = 0x9e37_79b9_7f4a_7c15;
    let mut body = String::new();
    for node in 0..NODES {
        let mut t = (node % 4) as f64 * 3.0;
        while t < 1_900.0 {
            let x = (xorshift(&mut state) % 1_000_000) as f64 / 997.0;
            let y = (xorshift(&mut state) % 1_000_000) as f64 / 991.0;
            body.push_str(&format!("{node} {t} {x} {y}\n"));
            t += [5.0, 7.25, 1.0, 13.0, 0.5, 30.0][(xorshift(&mut state) % 6) as usize];
        }
    }
    body
}

/// Every `MobilityConfig` variant, with the trace's sample instants and
/// the stationary layout sized for `NODES`.
fn every_mobility_config() -> Vec<MobilityConfig> {
    let small = Rect::from_size(1_500.0, 1_000.0);
    vec![
        MobilityConfig::paper_random_waypoint(),
        MobilityConfig::RandomWalk(RandomWalkConfig {
            area: small,
            ..RandomWalkConfig::paper_area()
        }),
        MobilityConfig::RandomDirection(RandomDirectionConfig {
            area: small,
            ..RandomDirectionConfig::paper_area()
        }),
        MobilityConfig::paper_taxi(),
        MobilityConfig::ClusteredWaypoint(ClusteredWaypointConfig::default_communities()),
        MobilityConfig::Stationary {
            positions: (0..NODES).map(|i| (60.0 * i as f64, 0.0)).collect(),
        },
        MobilityConfig::TraceText { body: trace_body() },
    ]
}

/// A trace's position at `t` as `TraceMobility` computed it before it
/// answered with legs: the first sample up to its instant, the last from
/// its instant on, and in between the segment *ending* at or after `t`.
fn trace_position(samples: &[(SimTime, Point2)], t: SimTime) -> Point2 {
    let (first, last) = (samples[0], samples[samples.len() - 1]);
    if t <= first.0 {
        return first.1;
    }
    if t >= last.0 {
        return last.1;
    }
    let end = samples.partition_point(|&(st, _)| st < t);
    let ((t0, p0), (t1, p1)) = (samples[end - 1], samples[end]);
    p0.lerp(p1, (t - t0).as_secs() / (t1 - t0).as_secs())
}

/// A script's position at `t` as `Scripted` computed it before it
/// answered with legs: like [`trace_position`], but in between on the
/// segment *starting* at or before `t`.
fn scripted_position(keys: &[(SimTime, Point2)], t: SimTime) -> Point2 {
    let (first, last) = (keys[0], keys[keys.len() - 1]);
    if t <= first.0 {
        return first.1;
    }
    if t >= last.0 {
        return last.1;
    }
    let idx = keys.partition_point(|&(kt, _)| kt <= t);
    let ((t0, p0), (t1, p1)) = (keys[idx - 1], keys[idx]);
    p0.lerp(p1, (t - t0).as_secs() / (t1 - t0).as_secs())
}

#[test]
fn trace_samples_include_instants_that_lerp_off_the_sample() {
    // The trap the trace's legs guard against: at a sample instant the
    // trace sits at `f = 1` on the segment ending there, which can
    // differ from the sample itself. The trace above must contain such
    // instants on ticks, or the differential test below proves nothing
    // about them.
    let trace = MobilityTrace::parse(trace_body().as_bytes()).unwrap();
    let off = (0..NODES)
        .flat_map(|n| {
            let s = trace.node_samples(n);
            s.windows(2)
                .map(|w| (w[1].0, w[0].1.lerp(w[1].1, 1.0), w[1].1))
                .collect::<Vec<_>>()
        })
        .filter(|&(t, at, sample)| t.as_secs().fract() == 0.0 && !same_bits(at, sample))
        .count();
    assert!(off > 0, "no tick lands on a sample that lerps off itself");
}

#[test]
fn world_positions_equal_position_at_for_every_mobility_config() {
    for mobility in every_mobility_config() {
        for threads in [1, 2] {
            let cfg = ScenarioConfig {
                n_nodes: NODES,
                duration_secs: TICKS as f64,
                mobility: mobility.clone(),
                faults: FaultPlan {
                    crash_rate_per_hour: 6.0,
                    reboot_secs: 40.0,
                    blackout_rate_per_hour: 6.0,
                    blackout_secs: 25.0,
                    ..FaultPlan::default()
                },
                ..presets::smoke()
            };
            let mut world = World::build(&cfg);
            world.set_threads(threads);
            let mut fleet = build_fleet(&cfg.mobility, NODES, cfg.seed);
            let trace = match &mobility {
                MobilityConfig::TraceText { body } => {
                    Some(MobilityTrace::parse(body.as_bytes()).unwrap())
                }
                _ => None,
            };
            let mut was_parked = [false; NODES];
            let (mut parked_ticks, mut rejoins) = (0, 0);
            for tick in 0..=TICKS {
                let now = SimTime::from_secs(tick as f64);
                world.step_until(now);
                for (i, model) in fleet.iter_mut().enumerate() {
                    let truth = match &trace {
                        Some(trace) => trace_position(trace.node_samples(i), now),
                        None => model.position_at(now),
                    };
                    let parked = world.soa.radio_off[i] > 0;
                    let want = if parked { sentinel(i) } else { truth };
                    let got = world.soa.positions[i];
                    assert!(
                        same_bits(got, want),
                        "{mobility:?}: node {i} at t={tick} ({threads} threads): \
                         {got:?} != {want:?}"
                    );
                    parked_ticks += usize::from(parked);
                    rejoins += usize::from(was_parked[i] && !parked);
                    was_parked[i] = parked;
                }
            }
            assert!(parked_ticks > 0 && rejoins > 0, "no radio-off window ran");
        }
    }
}

/// Scripted keyframes on ticks and between them, with `-0.0`
/// coordinates at ticks: there the script sits at `f = 0` on the next
/// segment, which turns the zero positive.
fn keyframes(node: usize) -> Vec<(SimTime, Point2)> {
    let mut state = 0x2545_f491_4f6c_dd1d ^ node as u64;
    let mut keys = vec![(SimTime::from_secs(2.0), Point2::new(-0.0, 5.0))];
    let mut t = 2.0;
    while t < 1_950.0 {
        t += [1.0, 3.5, 8.0, 0.25, 21.0][(xorshift(&mut state) % 5) as usize];
        let x = (xorshift(&mut state) % 100_000) as f64 / 7.0;
        let y = if xorshift(&mut state) % 4 == 0 {
            -0.0
        } else {
            (xorshift(&mut state) % 100_000) as f64 / 3.0
        };
        keys.push((SimTime::from_secs(t), Point2::new(x, y)));
    }
    keys
}

#[test]
fn scripted_legs_match_position_at_through_radio_off_windows() {
    let scripts: Vec<_> = (0..NODES).map(keyframes).collect();
    for threads in [1, 2] {
        let pool = Pool::new(threads);
        let fleet = scripts
            .iter()
            .map(|keys| Box::new(Scripted::new(keys.clone())) as Box<dyn Mobility>)
            .collect();
        let mut arrays = NodeArrays::new(fleet, Vec::new());
        for tick in 0..=TICKS {
            let now = SimTime::from_secs(tick as f64);
            // Node i is off for 30 ticks every 100 + 10 i ticks, and
            // nodes 0 and 1 also for an overlapping second window.
            for i in 0..NODES {
                let period = 100 + 10 * i as u32;
                let mut depth = u32::from(tick % period < 30);
                if i < 2 && (tick + 15) % period < 40 {
                    depth += 1;
                }
                arrays.radio_off[i] = depth;
            }
            arrays.sample_movement(now, &pool);
            for (i, keys) in scripts.iter().enumerate() {
                let truth = scripted_position(keys, now);
                let want = if arrays.radio_off[i] > 0 {
                    sentinel(i)
                } else {
                    truth
                };
                let got = arrays.positions[i];
                assert!(
                    same_bits(got, want),
                    "node {i} at t={tick} ({threads} threads): {got:?} != {want:?}"
                );
            }
        }
    }
}
