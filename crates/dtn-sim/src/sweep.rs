//! Parallel parameter sweeps — the engine behind every Fig. 8 / Fig. 9
//! series.
//!
//! A sweep is `axis points x policies x seeds` independent simulations.
//! Runs are embarrassingly parallel and fully deterministic, so the
//! runner spreads the job list over a `std::thread::scope` pool and
//! averages the per-seed reports.
//!
//! The runner is *hardened*:
//!
//! * Every job executes under [`std::panic::catch_unwind`]. A panicking
//!   cell becomes a structured [`CellError`] (config hash, axis/policy/
//!   seed, panic payload) in the [`SweepOutput`] instead of killing the
//!   scope — all other cells are always returned.
//! * With a [`SweepCheckpoint`] attached, every finished job is
//!   streamed to a JSONL file as a [`CellRun`] keyed by the canonical
//!   config hash ([`dtn_telemetry::hash_config_json`]). Resuming skips
//!   already-completed jobs and reproduces the uninterrupted run
//!   bit-identically (per-run [`ReportFingerprint`]s): the checkpoint
//!   stores the exact integer digest and the exact `f64` metrics
//!   (shortest-roundtrip JSON), so aggregation over restored runs is
//!   byte-for-byte the same as over live ones.
//! * [`SweepSpec::validate`] attaches a `dtn-validate` `Validator` to
//!   every world and folds invariant-violation counts into each
//!   [`SweepCell`] and [`CellRun`].
//!
//! The runner is also *shard-able*: [`materialize_jobs`] turns a spec
//! into the exact job list, [`run_job`] runs a single fully-resolved
//! job, [`SweepLedger`] keeps the per-job books (checkpoint restore,
//! first-wins recording, the final fold) for any runner, and
//! [`aggregate_sweep`] folds an arbitrary [`CellsOutput`] back into the
//! per-`(axis, policy)` cells. `dtn-fleet` builds its distributed
//! coordinator/worker fan-out entirely out of these units, so a fleet
//! sweep aggregates bit-identically to [`run_sweep`].
//!
//! Cells that differ only in what rides on the contacts (policy,
//! buffers, routing, traffic) detect the same contacts. [`run_job`]
//! therefore takes a [`ScheduleCache`]: the first cell of each
//! [`ContactKey`] records its contact events and the later ones replay
//! them, skipping movement and detection. [`run_cells`] keeps one cache
//! per call, and each `dtn-fleet` worker one per process.
//!
//! Checkpoint I/O failures are *structured*, not fatal: a bad checkpoint
//! path degrades the sweep to an uncheckpointed (but complete) run and
//! surfaces a [`CheckpointError`] in the output instead of aborting.

use crate::config::{PolicyKind, ScenarioConfig};
use crate::report::Report;
use crate::world::{ContactKey, ContactSchedule, RunOutput, World};
use dtn_core::stats::OnlineStats;
use dtn_core::units::Bytes;
use dtn_telemetry::{hash_config_json, EventTotals, Recorder, SweepEvent};
use dtn_validate::ReportFingerprint;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The swept parameter — the paper's three x-axes, plus the churn
/// (fault-injection) axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Initial copies `L` (Fig. 8/9 a-c): 16, 20, ..., 64.
    InitialCopies(Vec<u32>),
    /// Buffer size in MB (Fig. 8/9 d-f): 2, 2.5, ..., 5.
    BufferMb(Vec<f64>),
    /// Message generation interval `[lo, hi]` seconds (Fig. 8/9 g-i):
    /// `[10,15]`, `[15,20]`, ..., `[45,50]`.
    GenInterval(Vec<(f64, f64)>),
    /// Per-node crash rate in crashes/hour (churn robustness). Applying
    /// a non-zero rate to a template whose `reboot_secs` is unset (0)
    /// defaults the down window to 60 s so the point still validates.
    CrashRate(Vec<f64>),
    /// Buffer-occupancy threshold for the congestion-adaptive policies:
    /// each point rewrites an `OccupancyGate` or `TieredRetention`
    /// policy's threshold and leaves every other policy unchanged (flat
    /// reference lines).
    OccupancyThreshold(Vec<f64>),
}

impl SweepAxis {
    /// The paper's initial-copies sweep.
    pub fn paper_copies() -> Self {
        SweepAxis::InitialCopies((16..=64).step_by(4).collect())
    }

    /// The paper's buffer-size sweep.
    pub fn paper_buffers() -> Self {
        SweepAxis::BufferMb(vec![2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])
    }

    /// The paper's generation-rate sweep.
    pub fn paper_gen_rates() -> Self {
        SweepAxis::GenInterval(
            (0..8)
                .map(|i| (10.0 + 5.0 * i as f64, 15.0 + 5.0 * i as f64))
                .collect(),
        )
    }

    /// The crash rates of `dtn-scenario --sweep churn`: from no faults
    /// to four crashes per node-hour.
    pub fn churn_rates() -> Self {
        SweepAxis::CrashRate(vec![0.0, 0.5, 1.0, 2.0, 4.0])
    }

    /// The standard congestion-adaptation sweep: from aggressive
    /// throttling at half-full buffers to the permissive limit (a
    /// threshold of 1.0 never triggers, giving the un-throttled
    /// reference point on the same axis).
    pub fn occupancy_thresholds() -> Self {
        SweepAxis::OccupancyThreshold(vec![0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::InitialCopies(v) => v.len(),
            SweepAxis::BufferMb(v) => v.len(),
            SweepAxis::GenInterval(v) => v.len(),
            SweepAxis::CrashRate(v) => v.len(),
            SweepAxis::OccupancyThreshold(v) => v.len(),
        }
    }

    /// True when the axis has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Axis display name.
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::InitialCopies(_) => "initial copies L",
            SweepAxis::BufferMb(_) => "buffer size (MB)",
            SweepAxis::GenInterval(_) => "generation interval (s)",
            SweepAxis::CrashRate(_) => "crash rate (/node-hour)",
            SweepAxis::OccupancyThreshold(_) => "occupancy threshold",
        }
    }

    /// Label of point `i`.
    pub fn label(&self, i: usize) -> String {
        match self {
            SweepAxis::InitialCopies(v) => v[i].to_string(),
            SweepAxis::BufferMb(v) => format!("{}", v[i]),
            SweepAxis::GenInterval(v) => format!("{}-{}", v[i].0, v[i].1),
            SweepAxis::CrashRate(v) => format!("{}", v[i]),
            SweepAxis::OccupancyThreshold(v) => format!("{}", v[i]),
        }
    }

    /// Numeric x value of point `i` (for plotting).
    pub fn value(&self, i: usize) -> f64 {
        match self {
            SweepAxis::InitialCopies(v) => v[i] as f64,
            SweepAxis::BufferMb(v) => v[i],
            SweepAxis::GenInterval(v) => (v[i].0 + v[i].1) / 2.0,
            SweepAxis::CrashRate(v) => v[i],
            SweepAxis::OccupancyThreshold(v) => v[i],
        }
    }

    /// Applies point `i` to a scenario. Called *after* the job's policy
    /// is assigned (see [`materialize_jobs`]), so the policy-rewriting
    /// axis ([`SweepAxis::OccupancyThreshold`]) sees the final policy.
    pub fn apply(&self, cfg: &mut ScenarioConfig, i: usize) {
        match self {
            SweepAxis::InitialCopies(v) => cfg.initial_copies = v[i],
            SweepAxis::BufferMb(v) => cfg.buffer_capacity = Bytes::from_mb(v[i]),
            SweepAxis::GenInterval(v) => cfg.gen_interval = v[i],
            SweepAxis::CrashRate(v) => {
                cfg.faults.crash_rate_per_hour = v[i];
                if v[i] > 0.0 && cfg.faults.reboot_secs <= 0.0 {
                    cfg.faults.reboot_secs = 60.0;
                }
            }
            SweepAxis::OccupancyThreshold(v) => {
                cfg.policy = match cfg.policy {
                    PolicyKind::OccupancyGate { .. } => {
                        PolicyKind::OccupancyGate { threshold: v[i] }
                    }
                    PolicyKind::TieredRetention { tiers, .. } => PolicyKind::TieredRetention {
                        tiers,
                        threshold: v[i],
                    },
                    other => other,
                };
            }
        }
    }
}

/// A `--sweep` axis by name and the policies it compares: the one
/// table `dtn-scenario --sweep` and the figure binaries read.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedSweep {
    /// The `--sweep` value.
    pub name: &'static str,
    /// One of the paper's three Fig. 8/9 sweeps (the paper's four
    /// policies over a Table II axis), which `fig8`/`fig9` run.
    pub paper: bool,
    /// The swept points.
    pub axis: SweepAxis,
    /// The compared policies, in legend order.
    pub policies: Vec<PolicyKind>,
}

impl NamedSweep {
    /// Every named sweep, the paper's three in panel order first.
    /// `quick` cuts each paper axis to three points (the figure
    /// binaries' `--quick`).
    ///
    /// `occupancy` sweeps the congestion threshold of the two
    /// congestion-adaptive presets, with plain Spray and Wait and SDSRP
    /// as flat reference lines; `churn` runs the paper's four and both
    /// presets from no faults to four crashes per node-hour.
    pub fn all(quick: bool) -> [NamedSweep; 5] {
        let paper = |name, full: fn() -> SweepAxis, quick_axis: SweepAxis| NamedSweep {
            name,
            paper: true,
            axis: if quick { quick_axis } else { full() },
            policies: PolicyKind::paper_four().to_vec(),
        };
        [
            paper(
                "copies",
                SweepAxis::paper_copies,
                SweepAxis::InitialCopies(vec![16, 32, 64]),
            ),
            paper(
                "buffer",
                SweepAxis::paper_buffers,
                SweepAxis::BufferMb(vec![2.0, 3.5, 5.0]),
            ),
            paper(
                "genrate",
                SweepAxis::paper_gen_rates,
                SweepAxis::GenInterval(vec![(10.0, 15.0), (25.0, 30.0), (45.0, 50.0)]),
            ),
            NamedSweep {
                name: "occupancy",
                paper: false,
                axis: SweepAxis::occupancy_thresholds(),
                policies: vec![
                    PolicyKind::Fifo,
                    PolicyKind::Sdsrp,
                    PolicyKind::OCC_GATE,
                    PolicyKind::TIERED,
                ],
            },
            NamedSweep {
                name: "churn",
                paper: false,
                axis: SweepAxis::churn_rates(),
                policies: PolicyKind::paper_and_congestion(),
            },
        ]
    }

    /// The sweep called `name`.
    pub fn find(name: &str, quick: bool) -> Option<NamedSweep> {
        NamedSweep::all(quick).into_iter().find(|s| s.name == name)
    }
}

/// A full sweep specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The scenario template (its `policy`, `seed` and the swept field
    /// are overwritten per run).
    pub base: ScenarioConfig,
    /// The x-axis.
    pub axis: SweepAxis,
    /// The strategies to compare.
    pub policies: Vec<PolicyKind>,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Attach a `dtn-validate` `Validator` to every run and fold the
    /// violation counts into the cells.
    #[serde(default)]
    pub validate: bool,
}

/// Averaged metrics for one `(axis point, policy)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Axis point index.
    pub axis_index: usize,
    /// Axis point label (e.g. "2.5" or "25-35").
    pub axis_label: String,
    /// Numeric axis value for plotting.
    pub axis_value: f64,
    /// Policy legend label.
    pub policy: String,
    /// Mean delivery ratio across seeds.
    pub delivery_ratio: f64,
    /// Std-dev of delivery ratio across seeds (0 for one seed).
    pub delivery_ratio_std: f64,
    /// Mean average hopcount.
    pub avg_hopcount: f64,
    /// Mean overhead ratio.
    pub overhead_ratio: f64,
    /// Mean delivery latency in seconds over the cell's runs that
    /// delivered at least one message; `None` when no run did (a cell
    /// with zero deliveries has no latency, not a zero one). Serialises
    /// as `null`; legacy checkpoints carrying the old `0.0` sentinel
    /// deserialize as `Some(0.0)`.
    pub avg_latency: Option<f64>,
    /// Mean generated messages per run.
    pub created: f64,
    /// Seeds aggregated (fewer than requested if some runs panicked).
    pub runs: usize,
    /// Total invariant violations across the cell's runs (0 unless
    /// [`SweepSpec::validate`] was set).
    #[serde(default)]
    pub violations: u64,
    /// Compact fault-plan label of the cell's resolved scenario
    /// (`"none"` for fault-free cells; pre-fault checkpoints
    /// deserialize to an empty string).
    #[serde(default)]
    pub faults: String,
}

/// Live progress of a sweep, reported once per finished run (panicked
/// runs included).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProgress {
    /// Runs finished so far (this one included; restored checkpoint
    /// runs are pre-counted).
    pub completed: usize,
    /// Total runs in the sweep.
    pub total: usize,
    /// Axis label of the finished run.
    pub axis_label: String,
    /// Policy legend label of the finished run.
    pub policy: String,
}

/// One job for the generic cell runner: a label pair for progress
/// reporting plus the fully-resolved scenario.
#[derive(Debug, Clone)]
pub struct CellJob {
    /// Axis label (sweeps) or scenario name (fuzzing).
    pub label: String,
    /// Policy legend label.
    pub policy: String,
    /// The exact configuration to run.
    pub cfg: ScenarioConfig,
}

/// The scalar per-run metrics a sweep aggregates. Stored in checkpoint
/// records as raw `f64`s — JSON rendering is shortest-roundtrip, so a
/// restored run aggregates bit-identically to a live one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Delivery ratio.
    pub delivery_ratio: f64,
    /// Average hopcount over first deliveries.
    pub avg_hopcount: f64,
    /// Overhead ratio.
    pub overhead_ratio: f64,
    /// Average delivery latency in seconds; `None` when the run
    /// delivered nothing.
    pub avg_latency: Option<f64>,
    /// Messages generated after warm-up.
    pub created: f64,
}

impl CellMetrics {
    /// Extracts the aggregation inputs from a run's report.
    pub fn from_report(report: &Report) -> Self {
        CellMetrics {
            delivery_ratio: report.delivery_ratio(),
            avg_hopcount: report.avg_hopcount(),
            overhead_ratio: report.overhead_ratio(),
            avg_latency: report.avg_latency(),
            created: report.created() as f64,
        }
    }
}

/// One finished job — the checkpoint JSONL record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRun {
    /// Position in the materialised job list.
    pub index: usize,
    /// FNV-1a hash of the job's canonical config JSON — the resume key.
    pub config_hash: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Scalar metrics the sweep aggregates.
    pub metrics: CellMetrics,
    /// Integer digest of the run, for bit-identical resume checks.
    pub fingerprint: ReportFingerprint,
    /// Invariant violations observed (0 when validation is off).
    pub violations: u64,
    /// Wall-clock execution time of the run, seconds. Observational
    /// metadata: a restored run keeps the duration it was recorded
    /// with, the fleet coordinator uses it for longest-job-first
    /// scheduling, and it is *excluded* from equality so resumed
    /// outputs still compare bit-identical to uninterrupted ones.
    /// Pre-duration checkpoints deserialize to `0.0`.
    #[serde(default)]
    pub duration_secs: f64,
}

// Manual equality: everything deterministic, minus the wall clock.
impl PartialEq for CellRun {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.config_hash == other.config_hash
            && self.seed == other.seed
            && self.metrics == other.metrics
            && self.fingerprint == other.fingerprint
            && self.violations == other.violations
    }
}

/// A job that panicked: everything needed to triage and replay it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellError {
    /// Position in the materialised job list.
    pub index: usize,
    /// FNV-1a hash of the job's canonical config JSON.
    pub config_hash: String,
    /// Axis label (sweeps) or scenario name (fuzzing).
    pub label: String,
    /// Policy legend label.
    pub policy: String,
    /// RNG seed of the failed run.
    pub seed: u64,
    /// The panic payload, stringified.
    pub panic: String,
    /// The canonical config JSON of the failed job, embedded so the
    /// cell can be replayed directly (`dtn-scenario --config`).
    pub config: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell #{} ({} @ {}, seed {}, config {}) panicked: {}",
            self.index, self.policy, self.label, self.seed, self.config_hash, self.panic
        )
    }
}

/// Checkpoint configuration for a hardened run.
#[derive(Debug, Clone)]
pub struct SweepCheckpoint {
    /// JSONL file finished cells stream to (one [`CellRun`] per line).
    pub path: PathBuf,
    /// Restore completed cells from `path` instead of truncating it.
    pub resume: bool,
}

/// A checkpoint I/O failure, recorded in the output instead of aborting
/// the sweep: the run completes uncheckpointed.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointError {
    /// Path of the checkpoint file that failed.
    pub path: String,
    /// The underlying I/O error, stringified.
    pub error: String,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint {} unavailable ({}); sweep continued uncheckpointed",
            self.path, self.error
        )
    }
}

/// A streaming JSONL checkpoint writer that degrades instead of
/// panicking: the first I/O failure (opening the file or any append)
/// disables it and is kept as a [`CheckpointError`]. Sweep checkpoints
/// and fleet-worker shard files are both written through it.
pub struct CheckpointSink {
    path: PathBuf,
    file: Option<File>,
    error: Option<CheckpointError>,
}

impl CheckpointSink {
    /// Creates (truncating) the file at `path`. An open failure yields
    /// a disabled sink that carries the error.
    pub fn create(path: &Path) -> Self {
        let mut sink = CheckpointSink {
            path: path.to_path_buf(),
            file: None,
            error: None,
        };
        match File::create(path) {
            Ok(file) => sink.file = Some(file),
            Err(e) => sink.fail(&e),
        }
        sink
    }

    /// Appends one finished run as one line in a single unbuffered
    /// write, so the file survives a kill right up to the last finished
    /// job. A write failure disables the sink (the sweep continues
    /// uncheckpointed).
    pub fn append(&mut self, run: &CellRun) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let mut line = serde_json::to_string(run).expect("cell run serialises");
        line.push('\n');
        if let Err(e) = file.write_all(line.as_bytes()) {
            self.fail(&e);
        }
    }

    /// The first I/O error, if the sink ever failed.
    pub fn error(&self) -> Option<&CheckpointError> {
        self.error.as_ref()
    }

    fn fail(&mut self, e: &std::io::Error) {
        self.file = None;
        self.error = Some(CheckpointError {
            path: self.path.display().to_string(),
            error: e.to_string(),
        });
    }
}

/// Restores finished cells for a job list (identified by its canonical
/// config hashes) from a checkpoint file plus any number of extra
/// partial sources (e.g. per-worker shard checkpoints left behind by a
/// killed fleet), then rewrites the main file from the parsed entries
/// and keeps it open for appending.
///
/// The rewrite repairs a torn final line a mid-write kill may have left
/// behind in *any* source, folds every source into the one main file
/// (job-matched entries first, in job order, then leftover entries from
/// other job sets in hash order so the rewrite is deterministic), and
/// guarantees the file ends with a newline before appends begin.
/// Entries for the same config hash are deduplicated (first source
/// wins; the main checkpoint is read first). A hash restores every job
/// that has it, and the rewrite holds it once, at its first job.
///
/// Returns the restored runs, indexed like the job list (reindexed to
/// it), and the sink the rewrite went through. I/O failures never
/// panic: restored entries are still returned (so resume works even
/// from an unwritable file) and the error is recorded in the sink.
fn open_checkpoint(
    ck: &SweepCheckpoint,
    hashes: &[String],
    merge_sources: &[PathBuf],
) -> (Vec<Option<CellRun>>, CheckpointSink) {
    let mut prior: HashMap<String, CellRun> = HashMap::new();
    if ck.resume {
        prior = load_checkpoint(&ck.path);
        for source in merge_sources {
            for (hash, run) in load_checkpoint(source) {
                prior.entry(hash).or_insert(run);
            }
        }
    }
    let restored: Vec<Option<CellRun>> = hashes
        .iter()
        .enumerate()
        .map(|(i, hash)| {
            let mut run = prior.get(hash)?.clone();
            run.index = i;
            Some(run)
        })
        .collect();

    let mut sink = CheckpointSink::create(&ck.path);
    for run in restored.iter().flatten() {
        // Written once, at the first job with the hash.
        if prior.remove(&run.config_hash).is_some() {
            sink.append(run);
        }
    }
    let mut leftovers: Vec<&CellRun> = prior.values().collect();
    leftovers.sort_by(|a, b| a.config_hash.cmp(&b.config_hash));
    for run in leftovers {
        sink.append(run);
    }
    (restored, sink)
}

/// Options for [`run_cells`] / [`run_sweep`].
#[derive(Default)]
pub struct SweepOptions<'a> {
    /// Worker threads; 0 uses the available parallelism.
    pub threads: usize,
    /// Attach a `dtn-validate` `Validator` to every run.
    pub validate: bool,
    /// Stream finished cells to (and optionally resume from) a JSONL
    /// checkpoint file.
    pub checkpoint: Option<SweepCheckpoint>,
    /// Per-run progress callback (called from worker threads).
    pub progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
    /// Structured lifecycle-event callback (called from worker
    /// threads): completions, failures, skips, resumes.
    pub events: Option<&'a (dyn Fn(&SweepEvent) + Sync)>,
    /// Intra-run world threads per job (the parallel tick phases);
    /// 0 or 1 keeps every world serial. Orthogonal to `threads`, which
    /// fans *jobs* out across workers. Fingerprints are thread-count
    /// invariant, so this is purely a wall-clock knob.
    pub world_threads: usize,
    /// The contact schedules the cells share, for callers that run
    /// several sweeps over the same mobility and seeds; `None` gives the
    /// call a cache of its own.
    pub schedules: Option<&'a ScheduleCache>,
}

/// Result of a hardened cell-list run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellsOutput {
    /// Per-job outcome, job-ordered; `None` marks a panicked job (its
    /// [`CellError`] is in `errors`).
    pub runs: Vec<Option<CellRun>>,
    /// The panicked jobs.
    pub errors: Vec<CellError>,
    /// Event totals folded over all successful runs (restored ones
    /// included, so totals match an uninterrupted run).
    pub totals: EventTotals,
    /// Total invariant violations across all successful runs.
    pub violations: u64,
    /// Jobs restored from the checkpoint instead of executed.
    pub resumed: usize,
    /// Jobs executed in this invocation.
    pub executed: usize,
    /// Set when the checkpoint file could not be opened or written; the
    /// run completed, uncheckpointed from that point on.
    pub checkpoint_error: Option<CheckpointError>,
}

/// Result of a hardened sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepOutput {
    /// One aggregated cell per `(axis point, policy)`, axis-major then
    /// policy — always complete, even when some runs panicked.
    pub cells: Vec<SweepCell>,
    /// The per-run outcome the cells were folded from: job-ordered
    /// records, panicked runs, event totals, violations and checkpoint
    /// bookkeeping.
    pub jobs: CellsOutput,
}

/// Runs a sweep: panic isolation, optional per-cell validation
/// ([`SweepSpec::validate`] or [`SweepOptions::validate`]) and optional
/// checkpoint/resume. Returns one cell per `(axis point, policy)`,
/// ordered axis-major then policy.
///
/// A panicking run becomes a [`CellError`] in [`CellsOutput::errors`]
/// and its cell aggregates the remaining seeds; callers that need
/// all-or-nothing results check `errors` themselves.
///
/// # Example
///
/// A miniature Fig. 8-style comparison — two initial-copy points, two
/// policies, one seed — produces one [`SweepCell`] per
/// `(axis point, policy)` pair:
///
/// ```
/// use dtn_sim::config::{presets, PolicyKind};
/// use dtn_sim::sweep::{run_sweep, SweepAxis, SweepOptions, SweepSpec};
///
/// let mut base = presets::smoke();
/// base.n_nodes = 8;
/// base.duration_secs = 120.0;
/// let spec = SweepSpec {
///     base,
///     axis: SweepAxis::InitialCopies(vec![4, 8]),
///     policies: vec![PolicyKind::Fifo, PolicyKind::Sdsrp],
///     seeds: vec![1],
///     validate: false,
/// };
/// let out = run_sweep(&spec, &SweepOptions { threads: 1, ..SweepOptions::default() });
/// assert!(out.jobs.errors.is_empty());
/// assert_eq!(out.cells.len(), 4); // 2 axis points x 2 policies
/// assert!(out
///     .cells
///     .iter()
///     .all(|c| (0.0..=1.0).contains(&c.delivery_ratio)));
/// ```
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions<'_>) -> SweepOutput {
    let out = run_cells(
        materialize_jobs(spec),
        &SweepOptions {
            validate: opts.validate || spec.validate,
            checkpoint: opts.checkpoint.clone(),
            ..*opts
        },
    );
    aggregate_sweep(spec, out)
}

/// Materialises a spec's exact job list: `(axis i, policy j, seed)` ->
/// fully-resolved config, axis-major, then policy, then seed — cell
/// `(ai, pi)` owns jobs `[ (ai*P + pi)*S , +S )`. This is the canonical
/// ordering every runner (in-process and fleet) shards and aggregates
/// by.
///
/// # Panics
/// Panics if the axis, policy list or seed list is empty.
pub fn materialize_jobs(spec: &SweepSpec) -> Vec<CellJob> {
    assert!(!spec.axis.is_empty(), "sweep axis has no points");
    assert!(!spec.policies.is_empty(), "sweep needs at least one policy");
    assert!(!spec.seeds.is_empty(), "sweep needs at least one seed");

    let mut jobs = Vec::new();
    for ai in 0..spec.axis.len() {
        for policy in &spec.policies {
            for &seed in &spec.seeds {
                let mut cfg = spec.base.clone();
                cfg.policy = *policy;
                cfg.seed = seed;
                // Axis after policy: the policy-rewriting axis
                // (OccupancyThreshold) must see the job's final policy;
                // no axis reads the seed, and none of the field-setting
                // axes is affected by the order.
                spec.axis.apply(&mut cfg, ai);
                if matches!(policy, PolicyKind::SdsrpOracle { .. }) {
                    cfg.oracle = true;
                }
                jobs.push(CellJob {
                    label: spec.axis.label(ai),
                    policy: policy.label().to_string(),
                    cfg,
                });
            }
        }
    }
    jobs
}

/// Folds the per-job outcomes of a [`materialize_jobs`] job list back
/// into aggregated `(axis point, policy)` cells. Panicked runs simply
/// contribute nothing: their cell still appears, with fewer `runs`.
pub fn aggregate_sweep(spec: &SweepSpec, out: CellsOutput) -> SweepOutput {
    let n_seeds = spec.seeds.len();
    let n_policies = spec.policies.len();
    let mut agg: Vec<Vec<CellAgg>> = vec![vec![CellAgg::default(); n_policies]; spec.axis.len()];
    for run in out.runs.iter().flatten() {
        let ai = run.index / (n_policies * n_seeds);
        let pi = (run.index / n_seeds) % n_policies;
        let a = &mut agg[ai][pi];
        a.delivery.push(run.metrics.delivery_ratio);
        a.hops.push(run.metrics.avg_hopcount);
        a.overhead.push(run.metrics.overhead_ratio);
        // Zero-delivery runs contribute no latency sample: averaging in
        // the old `0.0` sentinel would drag the cell mean toward zero.
        if let Some(lat) = run.metrics.avg_latency {
            a.latency.push(lat);
        }
        a.created.push(run.metrics.created);
        a.violations += run.violations;
    }

    let mut cells = Vec::with_capacity(spec.axis.len() * n_policies);
    for (ai, row) in agg.into_iter().enumerate() {
        let faults_label = {
            let mut cfg = spec.base.clone();
            spec.axis.apply(&mut cfg, ai);
            cfg.faults.label()
        };
        for (pi, a) in row.into_iter().enumerate() {
            cells.push(SweepCell {
                axis_index: ai,
                axis_label: spec.axis.label(ai),
                axis_value: spec.axis.value(ai),
                policy: spec.policies[pi].label().to_string(),
                delivery_ratio: a.delivery.mean().unwrap_or(0.0),
                delivery_ratio_std: a.delivery.std_dev().unwrap_or(0.0),
                avg_hopcount: a.hops.mean().unwrap_or(0.0),
                overhead_ratio: a.overhead.mean().unwrap_or(0.0),
                avg_latency: a.latency.mean(),
                created: a.created.mean().unwrap_or(0.0),
                runs: a.delivery.count() as usize,
                violations: a.violations,
                faults: faults_label.clone(),
            });
        }
    }
    SweepOutput { cells, jobs: out }
}

/// The per-job books every sweep runner keeps — the in-process
/// [`run_cells`] pool and the `dtn-fleet` coordinator both drive one,
/// and decide only *where* and *when* jobs execute.
///
/// The ledger owns each job's canonical config JSON and hash, restores
/// finished jobs from the checkpoint when it opens, records every job
/// exactly once (first result wins: checkpoint append, event totals,
/// lifecycle events, progress) and folds everything into a
/// [`CellsOutput`] when it finishes.
pub struct SweepLedger<'a> {
    jobs: &'a [CellJob],
    configs: Vec<String>,
    hashes: Vec<String>,
    slots: Vec<Option<Result<CellRun, CellError>>>,
    sink: Option<CheckpointSink>,
    totals: EventTotals,
    resumed: usize,
    completed: usize,
    progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
    events: Option<&'a (dyn Fn(&SweepEvent) + Sync)>,
}

impl<'a> SweepLedger<'a> {
    /// Opens the books for `jobs`: restores finished jobs from
    /// `checkpoint` plus any `merge_sources` (e.g. fleet-worker shards;
    /// the main checkpoint wins ties), emitting `CellSkipped` per
    /// restored job and `CheckpointResumed` on resume. The checkpoint is
    /// then rewritten from everything parsed — repairing a torn final
    /// line in any source — and kept open for appending.
    pub fn open(
        jobs: &'a [CellJob],
        checkpoint: Option<&SweepCheckpoint>,
        merge_sources: &[PathBuf],
        progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
        events: Option<&'a (dyn Fn(&SweepEvent) + Sync)>,
    ) -> Self {
        // Canonical config JSON per job: the replay payload, and
        // (hashed) the checkpoint resume key.
        let configs: Vec<String> = jobs
            .iter()
            .map(|j| serde_json::to_string(&j.cfg).expect("config serialises"))
            .collect();
        let hashes = configs.iter().map(|c| hash_config_json(c)).collect();
        let mut ledger = SweepLedger {
            jobs,
            configs,
            hashes,
            slots: vec![None; jobs.len()],
            sink: None,
            totals: EventTotals::default(),
            resumed: 0,
            completed: 0,
            progress,
            events,
        };
        let Some(ck) = checkpoint else {
            return ledger;
        };
        let (restored, sink) = open_checkpoint(ck, &ledger.hashes, merge_sources);
        for (i, run) in restored.into_iter().enumerate() {
            let Some(run) = run else { continue };
            ledger.totals.absorb(&run.fingerprint.events);
            ledger.emit(SweepEvent::CellSkipped {
                index: i as u64,
                total: jobs.len() as u64,
                config_hash: run.config_hash.clone(),
                label: jobs[i].label.clone(),
                seed: jobs[i].cfg.seed,
            });
            ledger.slots[i] = Some(Ok(run));
            ledger.resumed += 1;
        }
        ledger.completed = ledger.resumed;
        if ck.resume {
            ledger.emit(SweepEvent::CheckpointResumed {
                path: ck.path.display().to_string(),
                cells: ledger.resumed as u64,
            });
        }
        ledger.sink = Some(sink);
        ledger
    }

    fn emit(&self, ev: SweepEvent) {
        if let Some(f) = self.events {
            f(&ev);
        }
    }

    /// Number of jobs.
    pub fn total(&self) -> usize {
        self.jobs.len()
    }

    /// Job `index` of the list the ledger was opened on.
    pub fn job(&self, index: usize) -> &'a CellJob {
        &self.jobs[index]
    }

    /// Canonical config JSON of job `index`.
    pub fn config(&self, index: usize) -> &str {
        &self.configs[index]
    }

    /// Config hash (the checkpoint key) of job `index`.
    pub fn hash(&self, index: usize) -> &str {
        &self.hashes[index]
    }

    /// True once job `index` is recorded (restored, finished or failed).
    pub fn is_done(&self, index: usize) -> bool {
        self.slots[index].is_some()
    }

    /// True once every job is recorded.
    pub fn is_complete(&self) -> bool {
        self.completed == self.total()
    }

    /// Indices of the jobs not recorded yet, in job order.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.total()).filter(|&i| !self.is_done(i)).collect()
    }

    /// The successful runs recorded so far (restored ones included).
    pub fn runs(&self) -> impl Iterator<Item = &CellRun> {
        self.slots
            .iter()
            .flatten()
            .filter_map(|slot| slot.as_ref().ok())
    }

    /// The checkpoint I/O failure so far, if any.
    pub fn checkpoint_error(&self) -> Option<&CheckpointError> {
        self.sink.as_ref().and_then(CheckpointSink::error)
    }

    /// Records job `index`'s outcome: its finished run, or the panic
    /// message (or fleet failure reason) that becomes its [`CellError`].
    /// The first result wins — a later one for the same job is ignored
    /// and `false` is returned.
    pub fn record(&mut self, index: usize, outcome: Result<CellRun, String>) -> bool {
        if self.is_done(index) {
            return false;
        }
        let job = self.job(index);
        let (slot, event) = match outcome {
            Ok(run) => {
                if let Some(sink) = &mut self.sink {
                    sink.append(&run);
                }
                self.totals.absorb(&run.fingerprint.events);
                let event = SweepEvent::CellCompleted {
                    index: index as u64,
                    total: self.total() as u64,
                    config_hash: run.config_hash.clone(),
                    label: job.label.clone(),
                    seed: run.seed,
                    violations: run.violations,
                    duration_ms: (run.duration_secs * 1_000.0) as u64,
                };
                (Ok(run), event)
            }
            Err(panic) => {
                let err = CellError {
                    index,
                    config_hash: self.hashes[index].clone(),
                    label: job.label.clone(),
                    policy: job.policy.clone(),
                    seed: job.cfg.seed,
                    panic,
                    config: self.configs[index].clone(),
                };
                let event = SweepEvent::CellFailed {
                    index: index as u64,
                    total: self.total() as u64,
                    config_hash: err.config_hash.clone(),
                    label: err.label.clone(),
                    seed: err.seed,
                    panic: err.panic.clone(),
                };
                (Err(err), event)
            }
        };
        self.slots[index] = Some(slot);
        self.completed += 1;
        // Callbacks run only once the books are consistent again, so a
        // panicking one cannot leave a job half-recorded.
        self.emit(event);
        if let Some(progress) = self.progress {
            progress(SweepProgress {
                completed: self.completed,
                total: self.total(),
                axis_label: job.label.clone(),
                policy: job.policy.clone(),
            });
        }
        true
    }

    /// Closes the books: folds every job into a [`CellsOutput`] and
    /// emits `CheckpointFailed` if the checkpoint ever failed.
    ///
    /// # Panics
    /// Panics if a job was never recorded.
    pub fn finish(self) -> CellsOutput {
        let checkpoint_error = self.checkpoint_error().cloned();
        if let Some(err) = &checkpoint_error {
            self.emit(SweepEvent::CheckpointFailed {
                path: err.path.clone(),
                error: err.error.clone(),
            });
        }
        let mut runs = Vec::with_capacity(self.total());
        let mut errors = Vec::new();
        let mut violations = 0u64;
        for slot in self.slots {
            match slot.expect("sweep left a job unrecorded") {
                Ok(run) => {
                    violations += run.violations;
                    runs.push(Some(run));
                }
                Err(err) => {
                    errors.push(err);
                    runs.push(None);
                }
            }
        }
        CellsOutput {
            executed: runs.len() - self.resumed,
            runs,
            errors,
            totals: self.totals,
            violations,
            resumed: self.resumed,
            checkpoint_error,
        }
    }
}

/// Runs an arbitrary list of fully-resolved scenarios (the generic core
/// behind [`run_sweep`] and the `dtn-fuzz` bin) with panic isolation
/// and optional validation + checkpoint/resume: a scoped thread pool
/// over one [`SweepLedger`].
pub fn run_cells(jobs: Vec<CellJob>, opts: &SweepOptions<'_>) -> CellsOutput {
    let own = ScheduleCache::default();
    let schedules = opts.schedules.unwrap_or(&own);
    let ledger = SweepLedger::open(
        &jobs,
        opts.checkpoint.as_ref(),
        &[],
        opts.progress,
        opts.events,
    );
    let pending = ledger.pending();
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        opts.threads
    };
    let cursor = AtomicUsize::new(0);
    // Callbacks fire under the lock, after the books are updated. A
    // panicking one poisons it; the other workers carry on (their
    // finished cells still reach the checkpoint) and the scope
    // re-raises the panic once they are done.
    let ledger = Mutex::new(ledger);
    let lock = || ledger.lock().unwrap_or_else(PoisonError::into_inner);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(pending.len()) {
            scope.spawn(|| {
                while let Some(&i) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let hash = lock().hash(i).to_string();
                    let outcome = run_job(
                        i,
                        &jobs[i].cfg,
                        &hash,
                        opts.validate,
                        opts.world_threads,
                        schedules,
                    );
                    lock().record(i, outcome);
                }
            });
        }
    });
    ledger
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .finish()
}

/// Runs job `index` the way every runner (in-process threads,
/// `dtn-fleet` workers) does: [`execute_job`] under `catch_unwind`,
/// timed, sharing contacts through `schedules`. Returns the checkpoint
/// record, or the panic message that becomes the job's [`CellError`] —
/// a failing job never takes its runner down.
pub fn run_job(
    index: usize,
    cfg: &ScenarioConfig,
    config_hash: &str,
    validate: bool,
    world_threads: usize,
    schedules: &ScheduleCache,
) -> Result<CellRun, String> {
    let started = std::time::Instant::now();
    let (metrics, fingerprint, violations) = catch_unwind(AssertUnwindSafe(|| {
        execute_job(cfg, validate, world_threads, schedules)
    }))
    .map_err(|payload| panic_message(payload.as_ref()))?;
    Ok(CellRun {
        index,
        config_hash: config_hash.to_string(),
        seed: cfg.seed,
        metrics,
        fingerprint,
        violations,
        duration_secs: started.elapsed().as_secs_f64(),
    })
}

/// Builds and runs one world with `world_threads` intra-run threads
/// (the parallel tick phases; 0 or 1 keeps it serial), through
/// `schedules`. Returns the aggregation inputs, the run's integer
/// fingerprint, and the invariant-violation count — bit-identical at
/// any `world_threads`, replayed or live.
pub fn execute_job(
    cfg: &ScenarioConfig,
    validate: bool,
    world_threads: usize,
    schedules: &ScheduleCache,
) -> (CellMetrics, ReportFingerprint, u64) {
    let mut world = World::build(cfg);
    world.set_threads(world_threads.max(1));
    // Counting-only telemetry: no ring, no sink.
    world.attach_recorder(Recorder::enabled(0));
    if validate {
        world.enable_validation(dtn_validate::ValidateConfig::default());
    }
    let out = schedules.finish(world);
    let fp = crate::replay::fingerprint(&out.report, out.recorder.totals());
    let violations = out.validation.map_or(0, |v| v.violation_count);
    (CellMetrics::from_report(&out.report), fp, violations)
}

/// Contact schedules shared across the cells of a sweep, one per
/// [`ContactKey`]. The first cell of a key to start records its contact
/// events and publishes them when it finishes without a panic; the
/// cells of that key that start afterwards replay them. Cells that
/// start while the first is still running run live, and so do cells
/// without a key (a fault plan, or contact recording on).
#[derive(Default)]
pub struct ScheduleCache {
    /// `None` while the first cell of the key is still recording.
    slots: Mutex<HashMap<ContactKey, Option<ContactSchedule>>>,
}

impl ScheduleCache {
    /// Runs `world` to the end like [`World::finish`], replaying its
    /// key's schedule when one is published, else recording one if no
    /// other cell of the key is. A replayed run is the live run: same
    /// report, same events in the same order.
    pub fn finish(&self, mut world: World) -> RunOutput {
        let Some(key) = world.contact_key() else {
            return world.finish();
        };
        let published = {
            let mut slots = self.lock();
            match slots.get(&key) {
                Some(schedule) => Some(schedule.clone()),
                None => {
                    slots.insert(key.clone(), None);
                    None
                }
            }
        };
        let recording = published.is_none();
        match published {
            Some(Some(schedule)) => world.replay_schedule(schedule),
            Some(None) => {}
            None => world.record_schedule(),
        }
        let mut out = match catch_unwind(AssertUnwindSafe(|| world.finish())) {
            Ok(out) => out,
            Err(payload) => {
                if recording {
                    // Let a later cell of the key record instead.
                    self.lock().remove(&key);
                }
                resume_unwind(payload)
            }
        };
        if let Some(schedule) = out.schedule.take() {
            self.lock().insert(key, Some(schedule));
        }
        out
    }

    /// Number of published schedules.
    pub fn len(&self) -> usize {
        self.lock().values().flatten().count()
    }

    /// True when no schedule is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<ContactKey, Option<ContactSchedule>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Stringifies a panic payload (the two standard payload types, then a
/// generic fallback).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Loads a checkpoint file into a `config hash -> CellRun` map. Lines
/// that fail to parse are skipped: a process killed mid-write leaves a
/// truncated tail, which resuming must tolerate (that cell simply
/// re-runs). A missing file is an empty checkpoint.
pub fn load_checkpoint(path: &Path) -> HashMap<String, CellRun> {
    let mut map = HashMap::new();
    let Ok(body) = std::fs::read_to_string(path) else {
        return map;
    };
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Ok(run) = serde_json::from_str::<CellRun>(line) {
            map.insert(run.config_hash.clone(), run);
        }
    }
    map
}

#[derive(Clone, Default)]
struct CellAgg {
    delivery: OnlineStats,
    hops: OnlineStats,
    overhead: OnlineStats,
    latency: OnlineStats,
    created: OnlineStats,
    violations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;

    fn quick_spec() -> SweepSpec {
        let mut base = presets::smoke();
        base.duration_secs = 600.0;
        base.n_nodes = 20;
        SweepSpec {
            base,
            axis: SweepAxis::InitialCopies(vec![8, 16]),
            policies: vec![PolicyKind::Fifo, PolicyKind::Sdsrp],
            seeds: vec![1, 2],
            validate: false,
        }
    }

    fn sweep(spec: &SweepSpec, threads: usize) -> SweepOutput {
        run_sweep(
            spec,
            &SweepOptions {
                threads,
                ..SweepOptions::default()
            },
        )
    }

    #[test]
    fn axis_accessors() {
        let a = SweepAxis::paper_copies();
        assert_eq!(a.len(), 13);
        assert_eq!(a.label(0), "16");
        assert_eq!(a.value(12), 64.0);
        let b = SweepAxis::paper_buffers();
        assert_eq!(b.len(), 7);
        assert_eq!(b.label(1), "2.5");
        let g = SweepAxis::paper_gen_rates();
        assert_eq!(g.len(), 8);
        assert_eq!(g.label(0), "10-15");
        assert_eq!(g.label(7), "45-50");
        assert_eq!(g.value(0), 12.5);
        assert!(!a.is_empty());
    }

    #[test]
    fn axis_apply() {
        let mut cfg = presets::smoke();
        SweepAxis::paper_copies().apply(&mut cfg, 2);
        assert_eq!(cfg.initial_copies, 24);
        SweepAxis::paper_buffers().apply(&mut cfg, 0);
        assert_eq!(cfg.buffer_capacity, Bytes::from_mb(2.0));
        SweepAxis::paper_gen_rates().apply(&mut cfg, 3);
        assert_eq!(cfg.gen_interval, (25.0, 30.0));
    }

    #[test]
    fn sweep_runs_and_aggregates() {
        let spec = quick_spec();
        let out = sweep(&spec, 4);
        assert!(out.jobs.errors.is_empty());
        let cells = out.cells;
        assert_eq!(cells.len(), 2 * 2);
        for c in &cells {
            assert_eq!(c.runs, 2);
            assert!(c.created > 0.0);
            assert!((0.0..=1.0).contains(&c.delivery_ratio));
            assert_eq!(c.violations, 0);
        }
        // Ordering: axis-major, then policy.
        assert_eq!(cells[0].axis_label, "8");
        assert_eq!(cells[0].policy, "SprayAndWait");
        assert_eq!(cells[1].policy, "SDSRP");
        assert_eq!(cells[2].axis_label, "16");
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let spec = quick_spec();
        let a = sweep(&spec, 1);
        let b = sweep(&spec, 8);
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.jobs.runs, b.jobs.runs);
    }

    #[test]
    fn observed_sweep_reports_progress_and_totals() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = quick_spec();
        let seen = AtomicUsize::new(0);
        let max_completed = AtomicUsize::new(0);
        let progress = |p: SweepProgress| {
            seen.fetch_add(1, Ordering::Relaxed);
            max_completed.fetch_max(p.completed, Ordering::Relaxed);
            assert_eq!(p.total, 8); // 2 axis points x 2 policies x 2 seeds
            assert!(!p.axis_label.is_empty());
            assert!(!p.policy.is_empty());
        };
        let out = run_sweep(
            &spec,
            &SweepOptions {
                threads: 2,
                progress: Some(&progress),
                ..SweepOptions::default()
            },
        );
        assert_eq!(out.cells.len(), 4);
        assert_eq!(seen.load(Ordering::Relaxed), 8);
        assert_eq!(max_completed.load(Ordering::Relaxed), 8);
        assert!(out.jobs.errors.is_empty());
        assert_eq!(out.jobs.executed, 8);
        assert_eq!(out.jobs.resumed, 0);
        assert_eq!(out.jobs.runs.iter().flatten().count(), 8);
        // The aggregate totals reconcile with the aggregated reports:
        // every counted generation produced one MessageGenerated event.
        let created: f64 = out.cells.iter().map(|c| c.created * c.runs as f64).sum();
        assert_eq!(out.jobs.totals.generated, created.round() as u64);
        assert!(out.jobs.totals.contacts_up > 0);
    }

    #[test]
    fn panicking_cell_is_isolated_and_other_cells_unchanged() {
        // Axis point 1 asks for a negative buffer: every run at that
        // point fails `ScenarioConfig::validate` inside the worker.
        let clean = quick_spec();
        let mut poisoned = clean.clone();
        poisoned.axis = SweepAxis::InitialCopies(vec![8, 16, 0]);

        let good = sweep(&clean, 2);
        let out = sweep(&poisoned, 2);

        // Both seeds of both policies at the poisoned point failed,
        // as structured errors carrying the panic payload.
        assert_eq!(out.jobs.errors.len(), 4);
        for err in &out.jobs.errors {
            assert_eq!(err.label, "0");
            assert!(err.panic.contains("at least one copy"));
            assert_eq!(err.config_hash.len(), 16);
            assert!(err.config.contains("\"initial_copies\":0"));
            assert!(!err.to_string().is_empty());
        }
        // All healthy cells are returned, bit-identical to a sweep
        // that never contained the poisoned point.
        assert_eq!(out.cells.len(), 3 * 2);
        assert_eq!(&out.cells[..4], &good.cells[..]);
        // The poisoned cells still appear, with zero aggregated runs.
        for c in &out.cells[4..] {
            assert_eq!(c.runs, 0);
            assert_eq!(c.axis_label, "0");
        }
        assert_eq!(out.jobs.runs.iter().flatten().count(), 8);
    }

    #[test]
    fn validated_sweep_counts_violations() {
        let mut spec = quick_spec();
        spec.validate = true;
        let out = sweep(&spec, 2);
        assert!(out.jobs.errors.is_empty());
        // A healthy simulator has zero violations; the count is folded
        // into every cell either way.
        assert_eq!(out.jobs.violations, 0);
        assert!(out.cells.iter().all(|c| c.violations == 0));
        assert!(out.jobs.runs.iter().flatten().all(|r| r.violations == 0));
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn empty_policies_rejected() {
        let mut spec = quick_spec();
        spec.policies.clear();
        let _ = sweep(&spec, 1);
    }

    #[test]
    fn bad_checkpoint_path_degrades_instead_of_aborting() {
        // A checkpoint path in a directory that does not exist used to
        // panic the whole sweep; now the sweep completes and surfaces a
        // structured CheckpointError.
        let spec = quick_spec();
        let bad = std::path::PathBuf::from("/nonexistent-dir-sdsrp/ck.jsonl");
        let opts = SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: bad.clone(),
                resume: false,
            }),
            ..SweepOptions::default()
        };
        let out = run_sweep(&spec, &opts);
        assert!(out.jobs.errors.is_empty());
        assert_eq!(out.jobs.executed, 8);
        let err = out.jobs.checkpoint_error.expect("open failure recorded");
        assert_eq!(err.path, bad.display().to_string());
        assert!(!err.error.is_empty());
        assert!(err.to_string().contains("uncheckpointed"));
        // The degraded sweep still produced the same results as a
        // checkpoint-free run.
        let clean = sweep(&spec, 2);
        assert_eq!(out.cells, clean.cells);
    }

    #[test]
    fn bad_checkpoint_path_emits_checkpoint_failed_event() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let spec = quick_spec();
        let seen = AtomicBool::new(false);
        let events = |ev: &SweepEvent| {
            if let SweepEvent::CheckpointFailed { path, error } = ev {
                assert!(path.contains("nonexistent"));
                assert!(!error.is_empty());
                seen.store(true, Ordering::Relaxed);
            }
        };
        let opts = SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: "/nonexistent-dir-sdsrp/ck.jsonl".into(),
                resume: false,
            }),
            events: Some(&events),
            ..SweepOptions::default()
        };
        let _ = run_sweep(&spec, &opts);
        assert!(seen.load(Ordering::Relaxed));
    }

    #[test]
    fn cell_runs_record_wall_clock_durations() {
        let spec = quick_spec();
        let out = sweep(&spec, 2);
        for run in out.jobs.runs.iter().flatten() {
            assert!(run.duration_secs > 0.0, "duration recorded");
        }
        // Durations are observational: two runs of the same cell are
        // equal even though their wall clocks differ.
        let again = sweep(&spec, 1);
        assert_eq!(out.jobs.runs, again.jobs.runs);
        // ...and survive a JSON round trip (serde default tolerates
        // pre-duration checkpoints).
        let run = out.jobs.runs[0].clone().unwrap();
        let json = serde_json::to_string(&run).unwrap();
        assert!(json.contains("duration_secs"));
        let back: CellRun = serde_json::from_str(&json).unwrap();
        assert_eq!(back, run);
        assert_eq!(back.duration_secs, run.duration_secs);
    }

    #[test]
    fn completed_cell_events_carry_durations() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = quick_spec();
        let with_duration = AtomicUsize::new(0);
        let events = |ev: &SweepEvent| {
            if let SweepEvent::CellCompleted { .. } = ev {
                with_duration.fetch_add(1, Ordering::Relaxed);
            }
        };
        let opts = SweepOptions {
            events: Some(&events),
            ..SweepOptions::default()
        };
        let out = run_sweep(&spec, &opts);
        assert_eq!(with_duration.load(Ordering::Relaxed), 8);
        assert!(out.jobs.errors.is_empty());
    }

    #[test]
    fn materialized_jobs_match_hardened_ordering() {
        let spec = quick_spec();
        let jobs = materialize_jobs(&spec);
        assert_eq!(jobs.len(), 8);
        // Axis-major, then policy, then seed.
        assert_eq!(jobs[0].label, "8");
        assert_eq!(jobs[0].policy, "SprayAndWait");
        assert_eq!(jobs[0].cfg.seed, 1);
        assert_eq!(jobs[1].cfg.seed, 2);
        assert_eq!(jobs[2].policy, "SDSRP");
        assert_eq!(jobs[4].label, "16");
        // Aggregating a run_cells output reproduces run_sweep exactly.
        let out = run_cells(jobs, &SweepOptions::default());
        let agg = aggregate_sweep(&spec, out);
        let direct = sweep(&spec, 2);
        assert_eq!(agg.cells, direct.cells);
        assert_eq!(agg.jobs.runs, direct.jobs.runs);
        assert_eq!(agg.jobs.totals, direct.jobs.totals);
    }

    #[test]
    fn ledger_keeps_the_first_result_per_job() {
        let jobs = materialize_jobs(&quick_spec());
        let mut ledger = SweepLedger::open(&jobs, None, &[], None, None);
        assert_eq!(ledger.pending(), (0..8).collect::<Vec<_>>());
        assert!(ledger.record(3, Err("worker lost".into())));
        let schedules = ScheduleCache::default();
        let late = run_job(3, &jobs[3].cfg, ledger.hash(3), false, 1, &schedules);
        assert!(!ledger.record(3, late), "a late result loses to the first");
        assert!(ledger.is_done(3) && !ledger.is_complete());
        for i in ledger.pending() {
            let outcome = run_job(i, &jobs[i].cfg, ledger.hash(i), false, 1, &schedules);
            assert!(ledger.record(i, outcome));
        }
        assert!(ledger.is_complete());
        let out = ledger.finish();
        assert_eq!((out.executed, out.resumed), (8, 0));
        assert_eq!(out.runs.iter().flatten().count(), 7);
        let err = &out.errors[0];
        assert_eq!((err.index, err.panic.as_str()), (3, "worker lost"));
        assert_eq!(err.seed, jobs[3].cfg.seed);
        assert_eq!(err.config_hash, hash_config_json(&err.config));
    }

    #[test]
    fn occupancy_axis_rewrites_only_congestion_policies() {
        let a = SweepAxis::occupancy_thresholds();
        assert_eq!(a.len(), 6);
        assert_eq!(a.name(), "occupancy threshold");
        assert_eq!(a.label(0), "0.5");
        assert_eq!(a.value(5), 1.0);

        // Both congestion-adaptive kinds pick up the point's threshold;
        // TieredRetention keeps its tier count.
        let mut cfg = presets::smoke();
        cfg.policy = PolicyKind::OccupancyGate { threshold: 0.8 };
        a.apply(&mut cfg, 0);
        assert_eq!(cfg.policy, PolicyKind::OccupancyGate { threshold: 0.5 });
        cfg.policy = PolicyKind::TieredRetention {
            tiers: 4,
            threshold: 0.9,
        };
        a.apply(&mut cfg, 2);
        assert_eq!(
            cfg.policy,
            PolicyKind::TieredRetention {
                tiers: 4,
                threshold: 0.7,
            }
        );
        // Non-congestion policies pass through intact (reference rows).
        cfg.policy = PolicyKind::Sdsrp;
        a.apply(&mut cfg, 1);
        assert_eq!(cfg.policy, PolicyKind::Sdsrp);
        cfg.validate().unwrap();
    }

    #[test]
    fn crash_rate_axis_accessors_and_apply() {
        let a = SweepAxis::churn_rates();
        assert_eq!(a.len(), 5);
        assert_eq!(a.name(), "crash rate (/node-hour)");
        assert_eq!(a.label(1), "0.5");
        assert_eq!(a.value(4), 4.0);
        let mut cfg = presets::smoke();
        a.apply(&mut cfg, 0);
        assert!(cfg.faults.is_empty(), "rate 0 keeps the plan empty");
        a.apply(&mut cfg, 2);
        assert_eq!(cfg.faults.crash_rate_per_hour, 1.0);
        assert_eq!(cfg.faults.reboot_secs, 60.0, "unset down window defaults");
        cfg.validate().unwrap();
        // An explicit template down window is respected.
        let mut cfg = presets::smoke();
        cfg.faults.reboot_secs = 120.0;
        a.apply(&mut cfg, 2);
        assert_eq!(cfg.faults.reboot_secs, 120.0);
    }

    #[test]
    fn validated_churn_sweep_holds_invariants_and_labels_faults() {
        // The acceptance sweep: crashes and blackouts injected at every
        // non-zero axis point, full validation on — the fault ledger
        // must keep every invariant green.
        let mut spec = quick_spec();
        spec.base.faults.blackout_rate_per_hour = 4.0;
        spec.base.faults.blackout_secs = 30.0;
        spec.axis = SweepAxis::CrashRate(vec![0.0, 2.0, 6.0]);
        spec.validate = true;
        let out = sweep(&spec, 4);
        assert!(out.jobs.errors.is_empty(), "{:?}", out.jobs.errors);
        assert_eq!(out.jobs.violations, 0, "churn broke an invariant");
        assert_eq!(out.cells.len(), 3 * 2);
        assert!(out.cells[0].faults.contains("blackout=4/h+30s"));
        assert!(!out.cells[0].faults.contains("crash="));
        assert!(out.cells[2].faults.contains("crash=2/h+60s"));
        // Faults actually fired: the injected-fault events show up in
        // the folded totals.
        assert!(out.jobs.totals.node_crashes > 0);
        assert!(out.jobs.totals.blackouts > 0);
    }
}
