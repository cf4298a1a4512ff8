//! Differential regression suite for the SDSRP priority memo cache.
//!
//! The cache (`sdsrp_core::policy`, "Priority memo") is a pure
//! optimisation: its hits must return the exact f64 a recompute would
//! produce, so every observable of a run — the integer
//! `ReportFingerprint` included — must be bit-identical with the cache
//! on (the default) and off (`--no-priority-cache`, which evaluates
//! every ranking afresh). This suite enforces that across the pinned
//! golden scenarios, every evaluator branch (closed form, SDSRP-H,
//! oracle, Taylor) and a seeded batch from the fuzz scenario generator.

use sdsrp::buffer::policy::PriorityCacheStats;
use sdsrp::sim::config::{presets, PolicyKind, RoutingKind, ScenarioConfig};
use sdsrp::sim::replay::fingerprint;
use sdsrp::sim::scenario_gen::random_scenario;
use sdsrp::sim::world::World;
use sdsrp::telemetry::Recorder;

/// Runs `cfg` to completion with the cache toggled and returns the
/// canonical fingerprint rendering plus the cache counters.
fn run_fingerprint(cfg: &ScenarioConfig, cache: bool) -> (String, PriorityCacheStats) {
    let mut world = World::build(cfg);
    world.set_priority_cache(cache);
    world.attach_recorder(Recorder::enabled(16));
    let probe = world.priority_cache_stats();
    assert_eq!(probe.hits + probe.incremental + probe.misses, 0);
    world.step_until(dtn_core::time::SimTime::from_secs(cfg.duration_secs));
    let stats = world.priority_cache_stats();
    let totals = world.recorder().totals().clone();
    let fp = fingerprint(world.report(), &totals).to_canonical_json();
    (fp, stats)
}

/// Checks that `cfg` runs the same with the memo on and off, and
/// returns the memo's counters from the run with it on.
fn assert_cache_invariant(cfg: &ScenarioConfig) -> PriorityCacheStats {
    let (cached, stats) = run_fingerprint(cfg, true);
    let (uncached, uncached_stats) = run_fingerprint(cfg, false);
    assert_eq!(
        cached, uncached,
        "{}: fingerprint diverged between cached and uncached priority paths",
        cfg.name
    );
    // The reference path bypasses the cache entirely: no bucket — hit,
    // incremental or miss — may move.
    assert_eq!(
        uncached_stats.hits + uncached_stats.incremental + uncached_stats.misses,
        0,
        "{}: disabled cache must count nothing",
        cfg.name
    );
    // SDSRP runs should actually exercise the cache, otherwise this
    // suite silently stops testing anything. Time advances between
    // rankings, so the incremental (cross-instant) path must fire too.
    if cfg.policy == PolicyKind::Sdsrp {
        assert!(
            stats.hits > 0,
            "{}: SDSRP run produced no cache hits",
            cfg.name
        );
        assert!(
            stats.incremental > 0,
            "{}: SDSRP run never took the incremental path",
            cfg.name
        );
    }
    stats
}

/// The pinned golden scenario (see `tests/golden_headline.rs`): the
/// cached path must reproduce the committed snapshot, not merely agree
/// with the uncached path.
#[test]
fn golden_headline_is_cache_invariant_and_matches_snapshot() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    assert_cache_invariant(&cfg);

    let (cached, _) = run_fingerprint(&cfg, true);
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/headline_smoke.json");
    let committed = std::fs::read_to_string(&golden).expect("golden snapshot exists");
    assert_eq!(
        cached, committed,
        "cached run drifted from the committed golden snapshot"
    );
}

/// The paper's Table II scenario, shortened to test length.
#[test]
fn paper_preset_is_cache_invariant() {
    let mut cfg = presets::random_waypoint_paper();
    cfg.duration_secs = 1_800.0;
    cfg.seed = 7;
    assert_cache_invariant(&cfg);
}

/// A buffer-pressure variant where eviction ranking (keep_priority on
/// every resident, per admission) dominates — the regime the cache and
/// the lazy eviction heap were built for.
#[test]
fn buffer_pressure_is_cache_invariant() {
    let mut cfg = presets::smoke();
    cfg.name = "pressure-diff".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.n_nodes = 60;
    cfg.duration_secs = 1_500.0;
    cfg.gen_interval = (8.0, 12.0);
    cfg.buffer_capacity = sdsrp::core::units::Bytes::new(1_500_000);
    cfg.seed = 3;
    assert_cache_invariant(&cfg);
}

/// Seeded batch from the fuzz generator: random policies, routings and
/// immunity modes. Non-SDSRP policies have no cache, so this doubles as
/// a check that `set_priority_cache(false)` is harmless on them.
#[test]
fn scenario_gen_batch_is_cache_invariant() {
    for seed in 0..12u64 {
        let cfg = random_scenario(seed);
        assert_cache_invariant(&cfg);
    }
}

/// A couple of explicitly-SDSRP fuzz scenarios so the batch always
/// exercises the cached policy regardless of what the pool draws. A
/// direct-delivery draw is routed by binary Spray-and-Wait instead:
/// direct delivery ranks deliveries only, too few in a short run for
/// the memo to be asked twice.
#[test]
fn scenario_gen_sdsrp_batch_is_cache_invariant() {
    for seed in 0..6u64 {
        let mut cfg = random_scenario(seed);
        cfg.policy = PolicyKind::Sdsrp;
        if cfg.routing == RoutingKind::Direct {
            cfg.routing = RoutingKind::SprayAndWaitBinary;
        }
        cfg.name = format!("fuzz-sdsrp-{seed}");
        assert_cache_invariant(&cfg);
    }
}

/// Fault churn (crashes, blackouts, aborted transfers) exercises the
/// cache's hardest invalidation paths: `on_node_reset` wholesale
/// wipes, gossip records that restart after a crash, and contacts that
/// tear down mid-transfer. The cached and reference paths must still
/// agree bit-for-bit.
#[test]
fn fault_churn_is_cache_invariant() {
    let mut cfg = presets::smoke();
    cfg.name = "churn-diff".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.duration_secs = 1_800.0;
    cfg.seed = 11;
    cfg.faults.crash_rate_per_hour = 2.0;
    cfg.faults.reboot_secs = 60.0;
    cfg.faults.blackout_rate_per_hour = 3.0;
    cfg.faults.blackout_secs = 30.0;
    cfg.faults.transfer_abort_prob = 0.1;
    cfg.validate().unwrap();
    assert_cache_invariant(&cfg);

    // And a couple of generator-drawn plans, so the shape of the churn
    // isn't hand-picked.
    for seed in 0..3u64 {
        let mut cfg = presets::smoke();
        cfg.name = format!("churn-diff-gen-{seed}");
        cfg.policy = PolicyKind::Sdsrp;
        cfg.duration_secs = 1_200.0;
        cfg.seed = 100 + seed;
        cfg.faults = sdsrp::sim::scenario_gen::random_fault_plan(seed);
        assert_cache_invariant(&cfg);
    }
}

/// The two evaluator branches the inputs above never take: SDSRP-H
/// ranks the closed form with each destination's own meeting rate, and
/// the oracle policy ranks on the simulator's true `m_i` and `n_i`
/// instead of Eqs. 14-15. The memo must serve both and change neither.
#[test]
fn per_destination_and_oracle_are_cache_invariant() {
    let mut per_dest = presets::smoke();
    per_dest.name = "sdsrp-h-diff".into();
    per_dest.policy = PolicyKind::SdsrpCustom {
        lambda: sdsrp::sdsrp::LambdaMode::OnlinePerDestination {
            prior: 1.0 / 2000.0,
            min_samples: 5,
        },
        taylor_terms: None,
        reject_dropped: true,
        gossip: true,
    };
    let mut oracle = presets::smoke();
    oracle.name = "oracle-diff".into();
    oracle.policy = PolicyKind::SdsrpOracle {
        lambda: 1.0 / 2000.0,
    };
    oracle.oracle = true;
    for mut cfg in [per_dest, oracle] {
        cfg.duration_secs = 1_800.0;
        cfg.seed = 42;
        cfg.validate().unwrap();
        let stats = assert_cache_invariant(&cfg);
        assert!(
            stats.hits > 0 && stats.incremental > 0,
            "{}: the memo was not used: {stats:?}",
            cfg.name
        );
    }
}

/// The Eq. 13 Taylor fast path is an *approximation*, so it is not
/// expected to match the exact fingerprint — but it must be (a)
/// deterministic run-to-run and (b) cache-invariant like every other
/// mode: the memo may never change what the truncated series computes.
#[test]
fn taylor_mode_is_deterministic_and_cache_invariant() {
    let mut cfg = presets::smoke();
    cfg.name = "taylor-diff".into();
    cfg.policy = PolicyKind::SdsrpCustom {
        lambda: sdsrp::sdsrp::LambdaMode::Online {
            prior: 1.0 / 2000.0,
            min_samples: 5,
        },
        taylor_terms: Some(8),
        reject_dropped: true,
        gossip: true,
    };
    cfg.duration_secs = 1_800.0;
    cfg.seed = 42;
    cfg.validate().unwrap();

    let (first, stats) = run_fingerprint(&cfg, true);
    let (second, _) = run_fingerprint(&cfg, true);
    assert_eq!(first, second, "Taylor run is not deterministic");
    assert!(
        stats.hits + stats.incremental > 0,
        "Taylor run never used the cache"
    );
    assert_cache_invariant(&cfg);
}

/// Ranks `msgs` by `send_priority` under the given priority mode and
/// returns the message ids best-first. λ is pinned via `Oracle` so the
/// two modes see identical inputs.
fn ranking(
    mode: sdsrp::sdsrp::PriorityMode,
    msgs: &[sdsrp::buffer::view::TestMessage],
) -> Vec<u64> {
    use sdsrp::buffer::policy::BufferPolicy;
    let mut policy = sdsrp::sdsrp::Sdsrp::new(
        sdsrp::core::ids::NodeId(99),
        sdsrp::sdsrp::SdsrpConfig {
            n_nodes: 64,
            lambda: sdsrp::sdsrp::LambdaMode::Oracle(1.0 / 2000.0),
            mode,
            reject_dropped: true,
            gossip: true,
        },
    );
    let now = dtn_core::time::SimTime::from_secs(600.0);
    let mut scored: Vec<(u64, f64)> = msgs
        .iter()
        .map(|m| (m.id.0, policy.send_priority(now, &m.view())))
        .collect();
    // Best (highest utility) first; ties broken by id for stability.
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.into_iter().map(|(id, _)| id).collect()
}

/// Counts pairs ordered differently by the two rankings.
fn rank_inversions(a: &[u64], b: &[u64]) -> usize {
    let pos: std::collections::HashMap<u64, usize> =
        b.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut inversions = 0;
    for i in 0..a.len() {
        for j in (i + 1)..a.len() {
            if pos[&a[i]] > pos[&a[j]] {
                inversions += 1;
            }
        }
    }
    inversions
}

/// Fig. 4's qualitative claim, as a regression test: the Taylor
/// truncation converges on the exact Eq. 10 ranking as terms grow. A
/// deep truncation (k = 8) must agree with the exact closed form up to
/// a small rank-inversion tolerance, and must never be further from it
/// than the crudest truncation (k = 1).
#[test]
fn taylor_ranking_converges_to_exact() {
    use sdsrp::buffer::view::TestMessage;
    use sdsrp::sdsrp::PriorityMode;

    // A diverse buffer: spread TTLs, copy counts and (oracle-pinned)
    // seen/holder counts so the priorities span several regimes of
    // Eq. 10 rather than clustering where any truncation looks exact.
    let mut msgs = Vec::new();
    for i in 0..36u64 {
        let mut m = TestMessage::sample(i);
        m.remaining_ttl = dtn_core::time::SimDuration::from_mins(10.0 + 8.0 * i as f64);
        m.copies = 1 + (i % 12) as u32;
        m.initial_copies = 32;
        m.oracle_seen = Some(1 + (i * 7 % 40) as u32);
        m.oracle_holders = Some(1 + (i * 3 % 10) as u32);
        msgs.push(m);
    }

    let exact = ranking(PriorityMode::Exact, &msgs);
    let deep = ranking(PriorityMode::Taylor { terms: 8 }, &msgs);
    let shallow = ranking(PriorityMode::Taylor { terms: 1 }, &msgs);

    let pairs = msgs.len() * (msgs.len() - 1) / 2;
    let deep_inv = rank_inversions(&exact, &deep);
    let shallow_inv = rank_inversions(&exact, &shallow);

    assert!(
        deep_inv <= shallow_inv,
        "k=8 ({deep_inv} inversions) ranked further from exact than k=1 ({shallow_inv})"
    );
    assert!(
        deep_inv * 10 <= pairs,
        "k=8 disagrees with exact on {deep_inv}/{pairs} pairs (> 10% tolerance)"
    );
}
