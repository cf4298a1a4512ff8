//! `dtn-bench` — the macro-benchmark harness that seeds the
//! `BENCH_*.json` performance trajectory.
//!
//! Times three macro scenarios end-to-end (single-threaded worlds):
//!
//! * **headline** — the pinned golden scenario (smoke preset, SDSRP,
//!   seed 42, 3600 s), exactly the config behind
//!   `tests/golden/headline_smoke.json`;
//! * **buffer-pressure** — 80 nodes, 5400 s, one 100 kB message every
//!   3–5 s into 1.5 MB buffers (~15 residents per node): the paper's
//!   small-buffer regime where the per-contact drop ranking dominates
//!   runtime;
//! * **contact-dense** — 120 nodes in the smoke playground: contact
//!   churn (and therefore send scheduling + λ updates) dominates.
//!
//! Each scenario also runs with the SDSRP priority memo off, every
//! priority evaluated afresh and everything else the same, so every
//! report carries its own cached-vs-uncached speedup: the memo's
//! effect alone.
//! A Taylor-ablation section reproduces the paper's Fig. 4
//! accuracy/compute trade-off as data: for each truncation depth
//! `k ∈ {1, 2, 4, 8, 16}` it reports the analytic worst-case relative
//! error of the Eq. 13 Taylor priority against the exact closed form
//! (swept over a dense delivery-probability grid) next to the
//! buffer-pressure wall clock and delivery ratio at that depth.
//! A congestion section runs the paper's four baseline policies plus
//! the two congestion-adaptive variants (occupancy-gated admission,
//! tiered retention) on the buffer-pressure scenario, recording
//! delivery, latency, drops and incoming rejects per policy.
//! The whole report — wall clock, contacts/sec, events/sec, peak RSS,
//! config hash, cache hit rates, fingerprints — is written as
//! `BENCH_sdsrp.json` (schema `dtn-bench/v7`; see EXPERIMENTS.md
//! §Benchmarking for how to read and compare trajectories).
//!
//! Correctness gate: the headline fingerprint is compared against the
//! committed golden snapshot and the process exits non-zero on any
//! mismatch, so a perf "win" that changes behaviour cannot land a
//! trajectory point.
//!
//! ```text
//! cargo run --release -p dtn-bench --bin dtn-bench            # full
//! cargo run --release -p dtn-bench --bin dtn-bench -- --quick # CI smoke
//! dtn-bench [--quick] [--out FILE] [--iters N]
//! ```

use dtn_fleet::cli::{flag_count, flag_value, parse_args};
use dtn_sim::config::{presets, PolicyKind, ScenarioConfig};
use dtn_sim::replay::fingerprint;
use dtn_sim::world::World;
use dtn_telemetry::{hash_config_json, peak_rss_bytes, Recorder};
use serde::Serialize;
use std::time::Instant;

/// One timed macro-scenario entry in the JSON report.
#[derive(Serialize)]
struct ScenarioResult {
    name: String,
    config_hash: String,
    sim_duration_secs: f64,
    n_nodes: usize,
    /// Best-of-`iters` wall clock with the priority cache on.
    wall_clock_secs: f64,
    /// Best-of-`iters` wall clock with the memo off: each ranking
    /// evaluates Eq. 10 afresh; gossip import is unchanged.
    wall_clock_uncached_secs: f64,
    /// `wall_clock_uncached_secs / wall_clock_secs`.
    speedup: f64,
    events_processed: u64,
    events_per_sec: f64,
    contacts_up: u64,
    contacts_per_sec: f64,
    /// Same-instant cache hits (repeated rankings inside one contact).
    cache_hits: u64,
    /// Cross-instant incremental refreshes: only the cheap TTL tail of
    /// Eq. 10 recomputed, everything else reused from the entry.
    cache_incremental: u64,
    /// Full rebuilds (first sight, or an Eq. 10 input changed).
    cache_misses: u64,
    /// `(hits + incremental) / (hits + incremental + misses)`.
    cache_hit_rate: f64,
    /// Process-wide peak RSS after this scenario (monotone high-water
    /// mark — see [`dtn_telemetry::peak_rss_bytes`]).
    peak_rss_bytes: Option<u64>,
    /// Canonical fingerprint JSON of the cached run; the uncached run
    /// must render identically or the harness aborts.
    fingerprint: String,
}

/// One Fig. 4 ablation row: Eq. 13 truncated to `terms` Taylor terms
/// (`0` = the exact closed form) on the buffer-pressure scenario.
#[derive(Serialize)]
struct TaylorAblationResult {
    /// Taylor truncation depth; `0` means exact Eq. 10.
    terms: usize,
    /// Analytic worst-case relative error of the truncated priority
    /// against the exact closed form, over a dense `pr` grid.
    max_rel_err: f64,
    wall_clock_secs: f64,
    delivery_ratio: f64,
    buffer_drops: u64,
}

/// One congestion-section row: a buffer policy on the buffer-pressure
/// scenario — the paper's four baselines plus the two
/// congestion-adaptive variants (occupancy-gated admission and tiered
/// retention).
#[derive(Serialize)]
struct CongestionResult {
    policy: String,
    wall_clock_secs: f64,
    delivery_ratio: f64,
    /// Mean delivery latency in seconds; `null` when no run delivered.
    avg_latency_secs: Option<f64>,
    buffer_drops: u64,
    incoming_rejects: u64,
}

/// Top-level `BENCH_sdsrp.json` schema.
#[derive(Serialize)]
struct BenchReport {
    schema: String,
    quick: bool,
    iters: usize,
    threads_available: usize,
    /// Headline fingerprint matches the committed golden.
    golden_fingerprint_ok: bool,
    scenarios: Vec<ScenarioResult>,
    taylor_ablation: Vec<TaylorAblationResult>,
    congestion: Vec<CongestionResult>,
    peak_rss_bytes: Option<u64>,
}

/// The exact pinned config behind `tests/golden/headline_smoke.json`
/// (keep in sync with `tests/golden_headline.rs`).
fn headline_cfg() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    cfg
}

/// Small buffers + fast generation: drop ranking dominates. 100 kB
/// messages into 1.5 MB buffers give ~15 residents per node, so every
/// overflow ranks a real population instead of the 3 residents the
/// 0.5 MB smoke sizing allowed.
fn buffer_pressure_cfg(quick: bool) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.name = "buffer-pressure".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.n_nodes = 80;
    // The quick variant still needs enough simulated time for the
    // buffers to fill and eviction ranking to dominate, which is where
    // the memo is asked most (and what the CI `speedup > 1.0` gate
    // measures).
    cfg.duration_secs = if quick { 2_400.0 } else { 5_400.0 };
    cfg.gen_interval = (3.0, 5.0);
    cfg.message_size = dtn_core::units::Bytes::new(100_000);
    cfg.buffer_capacity = dtn_core::units::Bytes::new(1_500_000);
    cfg
}

/// Many nodes in the smoke playground: contact churn dominates.
fn contact_dense_cfg(quick: bool) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.name = "contact-dense".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.n_nodes = 120;
    cfg.duration_secs = if quick { 900.0 } else { 3_600.0 };
    cfg
}

/// Runs `cfg` once to completion on a fresh world; returns wall clock,
/// events processed, contact count, cache counters and the fingerprint.
fn run_once(
    cfg: &ScenarioConfig,
    cache: bool,
) -> (
    f64,
    u64,
    u64,
    dtn_buffer::policy::PriorityCacheStats,
    String,
) {
    let mut world = World::build(cfg);
    world.set_priority_cache(cache);
    world.attach_recorder(Recorder::enabled(16));
    let started = Instant::now();
    let events = world.step_until(dtn_core::time::SimTime::from_secs(cfg.duration_secs));
    let wall = started.elapsed().as_secs_f64();
    let totals = world.recorder().totals().clone();
    let stats = world.priority_cache_stats();
    let fp = fingerprint(world.report(), &totals).to_canonical_json();
    (wall, events, totals.contacts_up, stats, fp)
}

/// Benchmarks one scenario: best-of-`iters` cached and uncached runs,
/// asserting their fingerprints are bit-identical.
fn bench_scenario(cfg: &ScenarioConfig, iters: usize) -> ScenarioResult {
    let mut cached_best = f64::INFINITY;
    let mut uncached_best = f64::INFINITY;
    let mut events = 0;
    let mut contacts = 0;
    let mut stats = dtn_buffer::policy::PriorityCacheStats::default();
    let mut fp_cached = String::new();
    for _ in 0..iters {
        let (wall, ev, cu, st, fp) = run_once(cfg, true);
        cached_best = cached_best.min(wall);
        (events, contacts, stats, fp_cached) = (ev, cu, st, fp);
    }
    let mut fp_uncached = String::new();
    for _ in 0..iters {
        let (wall, _, _, _, fp) = run_once(cfg, false);
        uncached_best = uncached_best.min(wall);
        fp_uncached = fp;
    }
    if fp_cached != fp_uncached {
        eprintln!(
            "FATAL: {} fingerprint diverged between cached and uncached paths:\n  cached:   {fp_cached}\n  uncached: {fp_uncached}",
            cfg.name
        );
        std::process::exit(1);
    }
    let config_json = serde_json::to_string(cfg).expect("config serialises");
    eprintln!(
        "{:<16} cached {:7.3}s  uncached {:7.3}s  speedup {:.2}x  ({} events, {} contacts, {:.1}% cache hits)",
        cfg.name,
        cached_best,
        uncached_best,
        uncached_best / cached_best,
        events,
        contacts,
        100.0 * stats.hit_rate(),
    );
    ScenarioResult {
        name: cfg.name.clone(),
        config_hash: hash_config_json(&config_json),
        sim_duration_secs: cfg.duration_secs,
        n_nodes: cfg.n_nodes,
        wall_clock_secs: cached_best,
        wall_clock_uncached_secs: uncached_best,
        speedup: uncached_best / cached_best,
        events_processed: events,
        events_per_sec: events as f64 / cached_best,
        contacts_up: contacts,
        contacts_per_sec: contacts as f64 / cached_best,
        cache_hits: stats.hits,
        cache_incremental: stats.incremental,
        cache_misses: stats.misses,
        cache_hit_rate: stats.hit_rate(),
        peak_rss_bytes: peak_rss_bytes(),
        fingerprint: fp_cached,
    }
}

/// Analytic worst-case relative error of the `k`-term Eq. 13 Taylor
/// priority against the exact Eq. 11 closed form, swept over a dense
/// delivery-probability grid (`pt = 0`, one holder — both scale the
/// two forms identically, so they cancel in the relative error).
fn taylor_max_rel_err(terms: usize) -> f64 {
    use sdsrp_core::priority::PriorityModel;
    let mut worst = 0.0f64;
    for i in 1..1_000 {
        let pr = i as f64 / 1_000.0;
        let exact = PriorityModel::priority_from_probabilities(0.0, pr, 1);
        let approx = PriorityModel::priority_taylor(0.0, pr, 1, terms);
        if exact > 0.0 {
            worst = worst.max((exact - approx).abs() / exact);
        }
    }
    worst
}

/// The Fig. 4 ablation: the exact closed form plus each Taylor depth on
/// the buffer-pressure scenario — analytic error next to measured wall
/// clock and delivery ratio, so the accuracy/compute trade-off lands in
/// the report as data.
fn bench_taylor_ablation(quick: bool) -> Vec<TaylorAblationResult> {
    let depths: &[usize] = if quick {
        &[0, 1, 8]
    } else {
        &[0, 1, 2, 4, 8, 16]
    };
    depths
        .iter()
        .map(|&terms| {
            let mut cfg = buffer_pressure_cfg(quick);
            cfg.policy = cfg.policy.with_taylor_terms((terms > 0).then_some(terms));
            let mut world = World::build(&cfg);
            world.attach_recorder(Recorder::enabled(16));
            let started = Instant::now();
            world.step_until(dtn_core::time::SimTime::from_secs(cfg.duration_secs));
            let wall = started.elapsed().as_secs_f64();
            let report = world.report();
            let max_rel_err = if terms == 0 {
                0.0
            } else {
                taylor_max_rel_err(terms)
            };
            eprintln!(
                "taylor-ablation  k={:<2} ({}): {:7.3}s wall, delivery {:.4}, max rel err {:.2e}",
                terms,
                if terms == 0 { "exact" } else { "taylor" },
                wall,
                report.delivery_ratio(),
                max_rel_err,
            );
            TaylorAblationResult {
                terms,
                max_rel_err,
                wall_clock_secs: wall,
                delivery_ratio: report.delivery_ratio(),
                buffer_drops: report.buffer_drops(),
            }
        })
        .collect()
}

/// The congestion section: every paper baseline plus the two
/// congestion-adaptive variants on the buffer-pressure scenario, where
/// admission throttling actually has something to throttle. One run per
/// policy (the section tracks behaviour, not best-of-N timing noise).
fn bench_congestion(quick: bool) -> Vec<CongestionResult> {
    PolicyKind::paper_and_congestion()
        .into_iter()
        .map(|policy| {
            let mut cfg = buffer_pressure_cfg(quick);
            cfg.policy = policy;
            let started = Instant::now();
            let report = World::build(&cfg).run();
            let wall = started.elapsed().as_secs_f64();
            eprintln!(
                "congestion       {:<16}: {:7.3}s wall, delivery {:.4}, drops {}, rejects {}",
                policy.label(),
                wall,
                report.delivery_ratio(),
                report.buffer_drops(),
                report.incoming_rejects(),
            );
            CongestionResult {
                policy: policy.label().to_string(),
                wall_clock_secs: wall,
                delivery_ratio: report.delivery_ratio(),
                avg_latency_secs: report.avg_latency(),
                buffer_drops: report.buffer_drops(),
                incoming_rejects: report.incoming_rejects(),
            }
        })
        .collect()
}

/// Compares the headline run's canonical fingerprint against the
/// committed golden snapshot.
fn golden_check(headline_fp: &str) -> bool {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/headline_smoke.json");
    match std::fs::read_to_string(&path) {
        Ok(committed) => {
            let ok = committed == headline_fp;
            if !ok {
                eprintln!(
                    "FATAL: headline fingerprint drifted from {}:\n  golden: {committed}\n  bench:  {headline_fp}",
                    path.display()
                );
            }
            ok
        }
        Err(e) => {
            eprintln!("FATAL: cannot read golden snapshot {}: {e}", path.display());
            false
        }
    }
}

fn main() {
    let (quick, out_path, iters) = parse_args(
        "[--quick] [--out FILE] [--iters N]",
        (false, "BENCH_sdsrp.json".to_string(), None),
        |(quick, out_path, iters), flag, args| {
            match flag {
                "--quick" => *quick = true,
                "--out" => *out_path = flag_value(flag, args)?,
                "--iters" => *iters = Some(flag_count(flag, args)? as usize),
                _ => return Ok(false),
            }
            Ok(true)
        },
    );
    let iters = iters.unwrap_or(if quick { 1 } else { 3 });
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());

    let scenarios: Vec<ScenarioResult> = [
        headline_cfg(),
        buffer_pressure_cfg(quick),
        contact_dense_cfg(quick),
    ]
    .iter()
    .map(|cfg| bench_scenario(cfg, iters))
    .collect();

    let golden_fingerprint_ok = golden_check(&scenarios[0].fingerprint);

    // Fig. 4 as data: accuracy vs compute per Taylor depth.
    let taylor_ablation = bench_taylor_ablation(quick);

    // Congestion-adaptive variants vs the paper's four under pressure.
    let congestion = bench_congestion(quick);

    let report = BenchReport {
        schema: "dtn-bench/v7".into(),
        quick,
        iters,
        threads_available,
        golden_fingerprint_ok,
        scenarios,
        taylor_ablation,
        congestion,
        peak_rss_bytes: peak_rss_bytes(),
    };
    let body = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, body).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("bench report written to {out_path}");
    if !golden_fingerprint_ok {
        std::process::exit(1);
    }
}
