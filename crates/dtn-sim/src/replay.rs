//! Deterministic replay and differential harnesses.
//!
//! A [`dtn_telemetry::RunManifest`] with an embedded config is a
//! complete, self-contained record of one run: [`replay_manifest`]
//! rebuilds the world from it and asserts the re-run reproduces the
//! original manifest bit-for-bit (modulo wall-clock time and ring
//! capacity, which are not part of the simulation). The differential
//! harnesses cross-check the simulator against itself: the same sweep
//! on different thread counts must agree exactly, and different buffer
//! policies on the same scenario must see identical generation and
//! contact streams (policies decide drops, not workload).

use crate::config::{PolicyKind, ScenarioConfig};
use crate::report::Report;
use crate::sweep::{run_sweep, SweepOptions, SweepSpec};
use crate::world::World;
use dtn_core::ids::{NodeId, NodePair};
use dtn_telemetry::{hash_config_json, EventTotals, Recorder, RunManifest};
use dtn_validate::{ReportFingerprint, ValidateConfig};

/// Gauge name whose presence in a manifest's metrics snapshot marks the
/// run as validated (so the replay enables validation too — the
/// validator emits events and metrics that must match).
const VALIDATION_MARKER_GAUGE: &str = "estimator_m_mean_rel_err";

/// Ring capacity used for replay recorders. Only the ring's
/// `overwritten` counter depends on capacity and it is neutralised
/// before diffing, so any value works; this matches the CLI default.
const REPLAY_RING_CAPACITY: usize = 4096;

/// Builds the provenance manifest for a finished run, embedding the
/// canonical config JSON so the manifest alone suffices to replay it.
pub fn manifest_for_run(
    cfg: &ScenarioConfig,
    report: &Report,
    recorder: &Recorder,
    wall_clock_secs: f64,
) -> RunManifest {
    let config_json = serde_json::to_string(cfg).expect("config serialises");
    RunManifest {
        scenario: cfg.name.clone(),
        config_hash: hash_config_json(&config_json),
        config: Some(config_json),
        seed: cfg.seed,
        policy: cfg.policy.label().to_string(),
        routing: format!("{:?}", cfg.routing),
        sim_duration_secs: cfg.duration_secs,
        wall_clock_secs,
        created: report.created(),
        delivered: report.delivered(),
        dropped: report.buffer_drops() + report.incoming_rejects(),
        events: recorder.totals().clone(),
        events_recorded: recorder.totals().total(),
        ring_overwritten: recorder.ring().overwritten(),
        metrics: recorder.metrics().snapshot(),
    }
}

/// Integer-only digest of a run, for golden snapshots and replay
/// comparison. Lives here (not in `dtn-validate`) because the
/// fingerprint is built *from* a [`Report`], which `dtn-validate`
/// cannot depend on.
pub fn fingerprint(report: &Report, totals: &EventTotals) -> ReportFingerprint {
    ReportFingerprint {
        created: report.created(),
        transmissions: report.transmissions(),
        delivered_events: report.delivered_events(),
        delivered_unique: report.delivered(),
        buffer_drops: report.buffer_drops(),
        incoming_rejects: report.incoming_rejects(),
        expirations: report.expirations(),
        aborted_transfers: report.aborted_transfers(),
        refused_receipts: report.refused_receipts(),
        immunity_purges: report.immunity_purges(),
        delivery_ratio_micro: ReportFingerprint::scale(report.delivery_ratio(), 1e6),
        overhead_milli: ReportFingerprint::scale(report.overhead_ratio(), 1e3),
        avg_hopcount_milli: ReportFingerprint::scale(report.avg_hopcount(), 1e3),
        // Zero-delivery runs fingerprint as 0 ms, exactly as the old
        // `0.0` sentinel did — the digest stays bit-identical.
        avg_latency_milli: ReportFingerprint::scale(report.avg_latency().unwrap_or(0.0), 1e3),
        events: totals.clone(),
    }
}

/// Why a manifest could not be replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The manifest predates replay support and carries no config.
    MissingConfig,
    /// The embedded config does not hash to `config_hash` — the
    /// manifest was tampered with or corrupted in transit.
    HashMismatch {
        /// Hash the manifest claims.
        expected: String,
        /// Hash of the config actually embedded.
        actual: String,
    },
    /// The embedded config JSON failed to parse.
    BadConfig(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MissingConfig => {
                write!(f, "manifest has no embedded config (pre-replay manifest?)")
            }
            ReplayError::HashMismatch { expected, actual } => write!(
                f,
                "embedded config hashes to {actual}, manifest claims {expected}"
            ),
            ReplayError::BadConfig(e) => write!(f, "embedded config does not parse: {e}"),
        }
    }
}

/// Result of replaying a manifest.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Manifest the re-run produced (wall clock and ring-overwritten
    /// neutralised to the original's values before diffing).
    pub manifest: RunManifest,
    /// The re-run's report.
    pub report: Report,
    /// True when the re-run reproduced the original exactly.
    pub identical: bool,
    /// `"path: original -> replay"` lines for every differing field.
    pub diff: Vec<String>,
}

/// Re-runs the scenario recorded in `original` and compares the
/// resulting manifest field-by-field. The simulator is deterministic,
/// so on an unmodified build the diff must be empty.
pub fn replay_manifest(original: &RunManifest) -> Result<ReplayOutcome, ReplayError> {
    let config_json = original
        .config
        .as_deref()
        .ok_or(ReplayError::MissingConfig)?;
    let actual = hash_config_json(config_json);
    if actual != original.config_hash {
        return Err(ReplayError::HashMismatch {
            expected: original.config_hash.clone(),
            actual,
        });
    }
    let cfg: ScenarioConfig =
        serde_json::from_str(config_json).map_err(|e| ReplayError::BadConfig(format!("{e:?}")))?;

    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(REPLAY_RING_CAPACITY));
    let was_validated = original
        .metrics
        .gauges
        .iter()
        .any(|g| g.name == VALIDATION_MARKER_GAUGE);
    if was_validated {
        world.enable_validation(ValidateConfig::default());
    }
    let out = world.finish();

    let mut manifest = manifest_for_run(&cfg, &out.report, &out.recorder, 0.0);
    // Wall clock is not simulation state; ring overwrites depend on the
    // original run's ring capacity, which the manifest does not record.
    manifest.wall_clock_secs = original.wall_clock_secs;
    manifest.ring_overwritten = original.ring_overwritten;

    let diff = original.diff(&manifest);
    Ok(ReplayOutcome {
        identical: diff.is_empty(),
        report: out.report,
        diff,
        manifest,
    })
}

/// Runs `spec` on `threads_a` and `threads_b` worker threads and
/// returns one line per panicked run and per differing cell — empty
/// when the sweep is clean and thread-count invariant, as it must be
/// (runs are independent and deterministic; threading only schedules
/// them).
pub fn differential_thread_counts(
    spec: &SweepSpec,
    threads_a: usize,
    threads_b: usize,
) -> Vec<String> {
    let sweep = |threads| {
        let out = run_sweep(
            spec,
            &SweepOptions {
                threads,
                ..SweepOptions::default()
            },
        );
        let errors = out
            .jobs
            .errors
            .iter()
            .map(move |e| format!("{threads} threads: {e}"));
        (out.cells, errors.collect::<Vec<_>>())
    };
    let (a, errors_a) = sweep(threads_a);
    let (b, errors_b) = sweep(threads_b);
    let mut out: Vec<String> = errors_a.into_iter().chain(errors_b).collect();
    if a.len() != b.len() {
        out.push(format!(
            "cell count: {} ({threads_a} threads) vs {} ({threads_b} threads)",
            a.len(),
            b.len()
        ));
        return out;
    }
    for (i, (ca, cb)) in a.iter().zip(b.iter()).enumerate() {
        if ca != cb {
            out.push(format!(
                "cell {i} ({}, {}): {} -> {}",
                ca.axis_label,
                ca.policy,
                serde_json::to_string(ca).unwrap_or_else(|_| "?".into()),
                serde_json::to_string(cb).unwrap_or_else(|_| "?".into()),
            ));
        }
    }
    out
}

/// Runs `cfg` once with `world_threads` intra-run worker threads and
/// returns the run's integer fingerprint. The building block of the
/// thread-count differential battery: the parallel grid query reduces
/// in stable band order, so the fingerprint must be bit-identical at
/// any thread count.
pub fn fingerprint_at_threads(cfg: &ScenarioConfig, world_threads: usize) -> ReportFingerprint {
    let mut world = World::build(cfg);
    world.set_threads(world_threads);
    world.attach_recorder(Recorder::enabled(16));
    let out = world.finish();
    fingerprint(&out.report, out.recorder.totals())
}

/// Runs `cfg` once per entry of `thread_counts` and cross-checks every
/// fingerprint against the first. Returns one line per differing field
/// (prefixed with the offending thread count) — empty when the world is
/// thread-count invariant, as the determinism contract requires.
pub fn differential_world_threads(cfg: &ScenarioConfig, thread_counts: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    let Some((&first, rest)) = thread_counts.split_first() else {
        return out;
    };
    let baseline = fingerprint_at_threads(cfg, first);
    for &threads in rest {
        let fp = fingerprint_at_threads(cfg, threads);
        for line in baseline.diff(&fp) {
            out.push(format!("threads {first} vs {threads}: {line}"));
        }
    }
    out
}

/// Builds `cfg`'s world, passes `history` — `(pair, up)` contact
/// events, in order — through its contact handlers before the first
/// tick, and returns the idle links its rearm walk then visits for
/// `nodes`, in visiting order. Transfers on links whose rearm coincides
/// start in that order, so two histories that leave the same live links
/// must give the same walk, sorted by pair. `history` must be one the
/// tracker could emit: an up only for a pair that is down, a down only
/// for one that is up.
pub fn rearm_walk_after(
    cfg: &ScenarioConfig,
    history: &[(NodePair, bool)],
    nodes: &[NodeId],
) -> Vec<NodePair> {
    World::build(cfg).rearm_walk_after(history, nodes)
}

/// Workload totals that must be identical across buffer policies on the
/// same scenario: message generation and the contact process are driven
/// by seeded RNG streams independent of buffering decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// Policy label the trace came from.
    pub policy: String,
    /// Messages created after warm-up (report counter).
    pub created: u64,
    /// `MessageGenerated` events.
    pub generated: u64,
    /// `ContactUp` events.
    pub contacts_up: u64,
    /// `ContactDown` events.
    pub contacts_down: u64,
}

/// Runs `base` once per policy and cross-checks that every policy saw
/// the same generation and contact streams. Returns one line per
/// disagreement (vs the first policy), empty when the workload is
/// policy-invariant.
pub fn differential_policies(base: &ScenarioConfig, policies: &[PolicyKind]) -> Vec<String> {
    let mut traces = Vec::new();
    for policy in policies {
        let mut cfg = base.clone();
        cfg.policy = *policy;
        let mut world = World::build(&cfg);
        world.attach_recorder(Recorder::enabled(16));
        let out = world.finish();
        let (report, totals) = (out.report, out.recorder.totals());
        traces.push(WorkloadTrace {
            policy: policy.label().to_string(),
            created: report.created(),
            generated: totals.generated,
            contacts_up: totals.contacts_up,
            contacts_down: totals.contacts_down,
        });
    }
    let mut out = Vec::new();
    let Some(first) = traces.first() else {
        return out;
    };
    for t in &traces[1..] {
        for (field, mine, theirs) in [
            ("created", first.created, t.created),
            ("generated", first.generated, t.generated),
            ("contacts_up", first.contacts_up, t.contacts_up),
            ("contacts_down", first.contacts_down, t.contacts_down),
        ] {
            if mine != theirs {
                out.push(format!(
                    "{field}: {mine} ({}) vs {theirs} ({})",
                    first.policy, t.policy
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;

    fn quick_cfg() -> ScenarioConfig {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 900.0;
        cfg
    }

    fn run_with_manifest(cfg: &ScenarioConfig) -> RunManifest {
        let mut world = World::build(cfg);
        world.attach_recorder(Recorder::enabled(REPLAY_RING_CAPACITY));
        let out = world.finish();
        manifest_for_run(cfg, &out.report, &out.recorder, 1.25)
    }

    #[test]
    fn replay_reproduces_original_manifest() {
        let original = run_with_manifest(&quick_cfg());
        let outcome = replay_manifest(&original).unwrap();
        assert!(
            outcome.identical,
            "replay diverged:\n{}",
            outcome.diff.join("\n")
        );
        assert_eq!(outcome.manifest, original);
    }

    #[test]
    fn replay_rejects_missing_and_tampered_config() {
        let mut m = run_with_manifest(&quick_cfg());
        let saved = m.config.clone();
        m.config = None;
        assert!(matches!(
            replay_manifest(&m),
            Err(ReplayError::MissingConfig)
        ));
        m.config = saved.map(|c| c.replace("\"seed\":", "\"seed\": "));
        assert!(matches!(
            replay_manifest(&m),
            Err(ReplayError::HashMismatch { .. })
        ));
    }

    #[test]
    fn replay_detects_a_doctored_outcome() {
        let mut m = run_with_manifest(&quick_cfg());
        m.delivered += 1;
        let outcome = replay_manifest(&m).unwrap();
        assert!(!outcome.identical);
        assert!(outcome.diff.iter().any(|l| l.starts_with("delivered:")));
    }

    #[test]
    fn fingerprint_matches_report_counters() {
        let cfg = quick_cfg();
        let mut world = World::build(&cfg);
        world.attach_recorder(Recorder::enabled(16));
        let out = world.finish();
        let (report, recorder) = (out.report, out.recorder);
        let fp = fingerprint(&report, recorder.totals());
        assert_eq!(fp.created, report.created());
        assert_eq!(fp.delivered_unique, report.delivered());
        assert_eq!(fp.events.generated, recorder.totals().generated);
        // Byte-stable: rendering twice gives identical bytes.
        assert_eq!(fp.to_canonical_json(), fp.to_canonical_json());
    }

    #[test]
    fn policies_share_generation_and_contact_streams() {
        let diffs = differential_policies(&quick_cfg(), &PolicyKind::paper_four());
        assert!(diffs.is_empty(), "workload diverged:\n{}", diffs.join("\n"));
    }
}
