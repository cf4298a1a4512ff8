//! The ablation tables as data: every row is a section, a label and a
//! scenario, and all rows run as one job list through the shared sweep
//! runner.

use dtn_core::stats::OnlineStats;
use dtn_core::units::Bytes;
use dtn_fleet::cli::SweepRunner;
use dtn_mobility::clustered::ClusteredWaypointConfig;
use dtn_mobility::MobilityConfig;
use dtn_sim::config::{ImmunityMode, PolicyKind, RoutingKind, ScenarioConfig};
use dtn_sim::sweep::{CellJob, CellsOutput, SweepOptions};
use sdsrp_core::{LambdaMode, SdsrpConfig};
use std::collections::HashMap;

/// One row of an ablation table.
pub struct AblationRow {
    /// The section heading the row prints under.
    pub section: &'static str,
    /// The row's variant label.
    pub label: String,
    /// The scenario the row runs at every seed.
    pub cfg: ScenarioConfig,
}

/// The rows of the ten ablation studies over `base`, in print order.
/// The "(paper)" baselines of several sections share one config.
pub fn ablation_rows(base: &ScenarioConfig) -> Vec<AblationRow> {
    let online = SdsrpConfig::paper(base.n_nodes).lambda;
    let sdsrp = |lambda, taylor_terms, reject_dropped, gossip| PolicyKind::SdsrpCustom {
        lambda,
        taylor_terms,
        reject_dropped,
        gossip,
    };
    let paper = sdsrp(online, None, true, true);
    let mut rows = Vec::new();
    let mut row = |section, label: &str, policy, edit: &dyn Fn(&mut ScenarioConfig)| {
        let mut cfg = base.clone();
        cfg.policy = policy;
        edit(&mut cfg);
        let label = label.to_string();
        rows.push(AblationRow {
            section,
            label,
            cfg,
        });
    };
    let keep = &|_: &mut ScenarioConfig| {};

    let s = "1. intermeeting-rate (λ) source";
    row(s, "online (paper)", paper, keep);
    for (label, mean_secs) in [
        ("oracle 1/500s", 500.0),
        ("oracle 1/2000s", 2000.0),
        ("oracle 1/8000s", 8000.0),
    ] {
        let lambda = LambdaMode::Oracle(1.0 / mean_secs);
        row(s, label, sdsrp(lambda, None, true, true), keep);
    }

    let s = "2. dropped-list gossip and receive-reject";
    for (label, gossip, reject) in [
        ("gossip + reject (paper)", true, true),
        ("gossip, no reject", true, false),
        ("no gossip, reject own", false, true),
        ("neither", false, false),
    ] {
        row(s, label, sdsrp(online, None, reject, gossip), keep);
    }

    let s = "3. Eq. 13 Taylor truncation vs exact Eq. 10";
    for (label, terms) in [
        ("exact closed form", None),
        ("k = 8", Some(8)),
        ("k = 3", Some(3)),
        ("k = 1", Some(1)),
    ] {
        row(s, label, sdsrp(online, terms, true, true), keep);
    }

    let s = "4. estimated vs oracle m_i / n_i (GBSD-style upper bound)";
    row(s, "distributed estimation (paper)", PolicyKind::Sdsrp, keep);
    let oracle = PolicyKind::SdsrpOracle {
        lambda: 1.0 / 2000.0,
    };
    row(s, "oracle m_i/n_i", oracle, &|cfg| cfg.oracle = true);

    let s = "5. additional buffer policies";
    for policy in [
        PolicyKind::Sdsrp,
        PolicyKind::Fifo,
        PolicyKind::TtlRatio,
        PolicyKind::CopiesRatio,
        PolicyKind::Mofo,
        PolicyKind::Shli,
        PolicyKind::Lifo,
        PolicyKind::Random,
        PolicyKind::Knapsack,
    ] {
        row(s, policy.label(), policy, keep);
    }

    let s = "6. routing substrate under FIFO and SDSRP buffers";
    let focus = RoutingKind::SprayAndFocus {
        handoff_threshold: 60.0,
    };
    for (rlabel, routing) in [
        ("binary spray", RoutingKind::SprayAndWaitBinary),
        ("source spray", RoutingKind::SprayAndWaitSource),
        ("spray-and-focus", focus),
        ("prophet", RoutingKind::Prophet),
        ("epidemic", RoutingKind::Epidemic),
        ("direct", RoutingKind::Direct),
    ] {
        for policy in [PolicyKind::Fifo, PolicyKind::Sdsrp] {
            let label = format!("{rlabel} + {}", policy.label());
            row(s, &label, policy, &|cfg| cfg.routing = routing);
        }
    }

    // The paper assumes no acknowledgements.
    let s = "7. delivery acknowledgements (extension; paper = none)";
    for (ilabel, immunity) in [
        ("none (paper)", ImmunityMode::None),
        ("antipacket gossip", ImmunityMode::AntipacketGossip),
        ("oracle flood (VACCINE)", ImmunityMode::OracleFlood),
    ] {
        for policy in [PolicyKind::Fifo, PolicyKind::Sdsrp] {
            let label = format!("{ilabel} + {}", policy.label());
            row(s, &label, policy, &|cfg| cfg.immunity = immunity);
        }
    }

    // Knapsack vs greedy TTL ranking.
    let s = "8. heterogeneous message sizes 0.2-1.0 MB (extension)";
    for policy in [
        PolicyKind::Knapsack,
        PolicyKind::TtlRatio,
        PolicyKind::Fifo,
        PolicyKind::Sdsrp,
    ] {
        row(s, policy.label(), policy, &|cfg| {
            cfg.message_size = Bytes::from_mb(0.2);
            cfg.message_size_max = Some(Bytes::from_mb(1.0));
        });
    }

    // Per-destination λ under community mobility, where Eq. 3's
    // single-λ assumption genuinely breaks; FIFO is the reference.
    let s = "9. SDSRP-H: per-destination λ under clustered-community mobility";
    let per_destination = LambdaMode::OnlinePerDestination {
        prior: 1.0 / 2000.0,
        min_samples: 3,
    };
    let sdsrp_h = sdsrp(per_destination, None, true, true);
    for (label, policy) in [
        ("pooled λ (paper)", paper),
        ("per-destination λ (SDSRP-H)", sdsrp_h),
        ("FIFO reference", PolicyKind::Fifo),
    ] {
        row(s, label, policy, &|cfg| {
            let communities = ClusteredWaypointConfig::default_communities();
            cfg.mobility = MobilityConfig::ClusteredWaypoint(communities);
        });
    }

    // The paper's four against occupancy-gated acceptance and tiered
    // retention, with 1.5 MB buffers so the thresholds bite.
    let s = "10. congestion-adaptive variants under buffer pressure (1.5 MB)";
    for policy in PolicyKind::paper_and_congestion() {
        row(s, policy.label(), policy, &|cfg| {
            cfg.buffer_capacity = Bytes::from_mb(1.5);
        });
    }
    rows
}

/// Runs `rows` at every seed through `runner` as one job list with one
/// job per distinct config and seed, so rows that share a config share
/// its runs. Each row's delivery ratio, hop count and overhead ratio
/// are folded over its seeds in seed order; a panicked seed contributes
/// nothing. `Err` means no job ran (a fleet that could not start).
pub fn run_ablation_rows(
    rows: &[AblationRow],
    seeds: &[u64],
    runner: &SweepRunner,
    opts: SweepOptions<'_>,
) -> Result<(Vec<[f64; 3]>, CellsOutput), String> {
    let mut first_job = HashMap::new();
    let mut jobs = Vec::new();
    let firsts: Vec<usize> = rows
        .iter()
        .map(|row| {
            let key = serde_json::to_string(&row.cfg).expect("config serialises");
            *first_job.entry(key).or_insert_with(|| {
                let first = jobs.len();
                for &seed in seeds {
                    let mut cfg = row.cfg.clone();
                    cfg.seed = seed;
                    let policy = cfg.policy.label().to_string();
                    let label = row.label.clone();
                    jobs.push(CellJob { label, policy, cfg });
                }
                first
            })
        })
        .collect();
    let out = runner.run_jobs(jobs, opts)?;
    let means = firsts
        .into_iter()
        .map(|first| {
            let mut stats = [OnlineStats::new(), OnlineStats::new(), OnlineStats::new()];
            for run in out.runs[first..first + seeds.len()].iter().flatten() {
                let m = &run.metrics;
                stats[0].push(m.delivery_ratio);
                stats[1].push(m.avg_hopcount);
                stats[2].push(m.overhead_ratio);
            }
            stats.map(|s| s.mean().unwrap_or(0.0))
        })
        .collect();
    Ok((means, out))
}
