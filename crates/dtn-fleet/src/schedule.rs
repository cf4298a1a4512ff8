//! Longest-job-first dispatch ordering.
//!
//! Sweep cells vary widely in cost (buffer size, node count and
//! duration all scale the event count), and with few workers the
//! tail of a sweep is dominated by whichever long cell was dispatched
//! last. The coordinator therefore orders pending jobs longest-first,
//! estimating each job's cost from the per-cell wall-clock durations a
//! resumed checkpoint restores:
//!
//! 1. mean duration of completed runs with the same axis label and
//!    policy (the same cell, other seeds),
//! 2. else mean duration of completed runs with the same policy,
//! 3. else unknown — scheduled *first* (an unknown job may be the
//!    longest; starting it early can only help the makespan).
//!
//! On a cold run nothing is known, every job ties at "unknown", and the
//! order degrades to the canonical job order — so scheduling never
//! perturbs which cells run, only when, and the output (keyed by config
//! hash) is unaffected.

use dtn_sim::sweep::{CellJob, CellRun};
use std::collections::HashMap;

/// Orders `pending` (indices into `jobs`) for dispatch: longest
/// estimated duration first, unknown-cost jobs before everything, job
/// index as the deterministic tiebreak. `known` are the finished runs
/// whose durations feed the estimates.
pub fn longest_first<'r>(
    jobs: &[CellJob],
    pending: &[usize],
    known: impl IntoIterator<Item = &'r CellRun>,
) -> Vec<usize> {
    // Fold restored durations into (label, policy) and policy means.
    let mut by_cell: HashMap<(String, String), (f64, u32)> = HashMap::new();
    let mut by_policy: HashMap<String, (f64, u32)> = HashMap::new();
    for run in known {
        // NaN-safe: a pre-duration checkpoint line (0.0 or garbage)
        // contributes nothing to the estimates.
        if run.duration_secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            continue;
        }
        let job = match jobs.get(run.index) {
            Some(job) => job,
            None => continue,
        };
        let cell = by_cell
            .entry((job.label.clone(), job.policy.clone()))
            .or_insert((0.0, 0));
        cell.0 += run.duration_secs;
        cell.1 += 1;
        let pol = by_policy.entry(job.policy.clone()).or_insert((0.0, 0));
        pol.0 += run.duration_secs;
        pol.1 += 1;
    }
    let mean = |acc: Option<&(f64, u32)>| acc.map(|(sum, n)| sum / f64::from(*n));

    let mut ordered: Vec<(usize, Option<f64>)> = pending
        .iter()
        .map(|&i| {
            let job = &jobs[i];
            let est = mean(by_cell.get(&(job.label.clone(), job.policy.clone())))
                .or_else(|| mean(by_policy.get(&job.policy)));
            (i, est)
        })
        .collect();
    ordered.sort_by(|(ai, a), (bi, b)| {
        match (a, b) {
            (None, None) => std::cmp::Ordering::Equal,
            (None, Some(_)) => std::cmp::Ordering::Less, // unknown first
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(x), Some(y)) => y.partial_cmp(x).unwrap_or(std::cmp::Ordering::Equal),
        }
        .then(ai.cmp(bi))
    });
    ordered.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::config::presets;
    use dtn_sim::sweep::CellMetrics;
    use dtn_validate::ReportFingerprint;

    fn job(label: &str, policy: &str) -> CellJob {
        CellJob {
            label: label.into(),
            policy: policy.into(),
            cfg: presets::smoke(),
        }
    }

    fn run(index: usize, duration_secs: f64) -> Option<CellRun> {
        Some(CellRun {
            index,
            config_hash: format!("{index:016x}"),
            seed: 1,
            metrics: CellMetrics {
                delivery_ratio: 0.5,
                avg_hopcount: 1.0,
                overhead_ratio: 1.0,
                avg_latency: Some(1.0),
                created: 1.0,
            },
            fingerprint: ReportFingerprint::default(),
            violations: 0,
            duration_secs,
        })
    }

    #[test]
    fn cold_start_keeps_canonical_order() {
        let jobs = vec![job("8", "FIFO"), job("8", "SDSRP"), job("16", "FIFO")];
        assert_eq!(longest_first(&jobs, &[0, 1, 2], []), vec![0, 1, 2]);
    }

    #[test]
    fn restored_durations_put_long_cells_first() {
        // Jobs: (8,FIFO) seeds 1-2 | (8,SDSRP) seeds 1-2; seed 1 of
        // each finished, SDSRP took 4x longer.
        let jobs = vec![
            job("8", "FIFO"),
            job("8", "FIFO"),
            job("8", "SDSRP"),
            job("8", "SDSRP"),
        ];
        let known = [run(0, 1.0), None, run(2, 4.0), None];
        assert_eq!(
            longest_first(&jobs, &[1, 3], known.iter().flatten()),
            vec![3, 1]
        );
    }

    #[test]
    fn unknown_cost_jobs_lead_and_policy_mean_backfills() {
        // "32"/"SDSRP" has no same-cell history but the policy mean
        // (3.0) beats FIFO's (1.0); "32"/"DL" is entirely unknown and
        // goes first.
        let jobs = vec![
            job("8", "FIFO"),
            job("8", "SDSRP"),
            job("32", "SDSRP"),
            job("32", "FIFO"),
            job("32", "DL"),
        ];
        let known = [run(0, 1.0), run(1, 3.0), None, None, None];
        assert_eq!(
            longest_first(&jobs, &[2, 3, 4], known.iter().flatten()),
            vec![4, 2, 3]
        );
    }
}
