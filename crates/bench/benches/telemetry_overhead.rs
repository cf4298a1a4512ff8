//! Telemetry-cost bench: the same smoke run with no recorder, a
//! disabled recorder (the default every `World` carries) and a
//! counting-only recorder — the disabled path must stay within noise of
//! the no-recorder baseline (<2% is the acceptance bar), plus a
//! micro-bench of the raw `Recorder::record` call in both states.

use criterion::{criterion_group, criterion_main, Criterion, SamplingMode};
use dtn_sim::config::presets;
use dtn_sim::world::World;
use dtn_telemetry::{Recorder, SimEvent};
use std::hint::black_box;

fn smoke_cfg() -> dtn_sim::config::ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 600.0;
    cfg
}

fn bench_run_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_run");
    g.sample_size(10);
    g.sampling_mode(SamplingMode::Flat);

    g.bench_function("smoke_600s_baseline", |b| {
        b.iter(|| {
            let report = World::build(&smoke_cfg()).run();
            black_box(report.delivered())
        })
    });

    g.bench_function("smoke_600s_recorder_disabled", |b| {
        b.iter(|| {
            let mut world = World::build(&smoke_cfg());
            world.attach_recorder(Recorder::disabled());
            let report = world.finish().report;
            black_box(report.delivered())
        })
    });

    g.bench_function("smoke_600s_recorder_counting", |b| {
        b.iter(|| {
            let mut world = World::build(&smoke_cfg());
            world.attach_recorder(Recorder::enabled(0));
            let out = world.finish();
            black_box((out.report.delivered(), out.recorder.totals().total()))
        })
    });

    g.finish();
}

fn bench_record_call(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_record");

    g.bench_function("record_disabled", |b| {
        let mut r = Recorder::disabled();
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            r.record(|| SimEvent::ContactUp {
                t: black_box(t),
                a: 1,
                b: 2,
            });
            black_box(r.totals().total())
        })
    });

    g.bench_function("record_counting", |b| {
        let mut r = Recorder::enabled(0);
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            r.record(|| SimEvent::ContactUp {
                t: black_box(t),
                a: 1,
                b: 2,
            });
            black_box(r.totals().total())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_run_overhead, bench_record_call);
criterion_main!(benches);
