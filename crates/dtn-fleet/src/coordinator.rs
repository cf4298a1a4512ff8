//! The fleet coordinator: shards a job list across workers and folds
//! the results into the exact [`CellsOutput`] a single-process
//! [`dtn_sim::sweep::run_cells`] would produce. The per-job books
//! (checkpoint restore, first-wins recording, the final fold) live in
//! the shared [`SweepLedger`]; this module only supervises.
//!
//! Supervision model:
//!
//! * Every worker envelope refreshes its liveness clock; workers emit
//!   heartbeats from a side thread, so silence longer than
//!   [`FleetOptions::worker_timeout_secs`] means the process is wedged
//!   (not merely busy) and it is torn down.
//! * A cell in flight longer than [`FleetOptions::cell_timeout_secs`]
//!   tears its worker down too — a hung cell keeps heartbeating, and
//!   only this timeout can reclaim it.
//! * A torn-down worker's in-flight cell is re-dispatched at the front
//!   of the queue, at most [`FleetOptions::max_cell_retries`] times;
//!   exhaustion degrades the cell to a structured `CellError` (the
//!   sweep completes without it, exactly like an in-process panic).
//! * Worker slots are respawned with fresh uids, at most
//!   [`FleetOptions::max_worker_restarts`] times each. Late messages
//!   from a torn-down incarnation are recognised by their retired uid:
//!   completed results are still accepted (determinism makes them
//!   interchangeable with a retry's), everything else is dropped.
//! * If every worker is dead and respawns are exhausted, remaining
//!   cells fail structurally instead of hanging the sweep.

use crate::merge::{discover_shards, remove_shards, shard_path};
use crate::protocol::{CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
use crate::schedule::longest_first;
use crate::subprocess::{Envelope, FleetError, SubprocessTransport, SubprocessWorker};
use dtn_sim::sweep::{CellJob, CellRun, CellsOutput, SweepCheckpoint, SweepLedger, SweepProgress};
use dtn_telemetry::SweepEvent;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Knobs of a fleet run.
pub struct FleetOptions<'a> {
    /// Worker slots to spawn (clamped to the pending-job count; 0 is
    /// treated as 1).
    pub workers: usize,
    /// Attach a `dtn-validate` validator to every cell.
    pub validate: bool,
    /// Main checkpoint: finished cells stream to it, resume restores
    /// from it *plus* any per-worker shard files found next to it. Each
    /// worker streams its own cells to a shard named after this path.
    pub checkpoint: Option<SweepCheckpoint>,
    /// Tear a worker down when a single cell runs longer than this
    /// (seconds; 0 disables — a genuinely hung cell then hangs its
    /// worker slot forever, though heartbeats keep the slot "alive").
    pub cell_timeout_secs: f64,
    /// Tear a worker down after this much silence (seconds; 0
    /// disables). Heartbeats default to 0.5 s, so this bounds wedged-
    /// process detection, not cell length.
    pub worker_timeout_secs: f64,
    /// Re-dispatches allowed per cell after worker losses.
    pub max_cell_retries: u32,
    /// Respawns allowed per worker slot.
    pub max_worker_restarts: u32,
    /// Per-cell progress callback (coordinator thread).
    pub progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
    /// Structured lifecycle-event callback (coordinator thread).
    pub events: Option<&'a (dyn Fn(&SweepEvent) + Sync)>,
}

impl Default for FleetOptions<'_> {
    fn default() -> Self {
        FleetOptions {
            workers: 1,
            validate: false,
            checkpoint: None,
            cell_timeout_secs: 0.0,
            worker_timeout_secs: 30.0,
            max_cell_retries: 2,
            max_worker_restarts: 8,
            progress: None,
            events: None,
        }
    }
}

/// Per-slot utilization numbers for [`FleetStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Worker slot index (stable across respawns).
    pub worker: usize,
    /// Last known OS pid (0 when unknown).
    pub pid: u64,
    /// Cells this slot completed, across all its incarnations.
    pub cells_completed: usize,
    /// Seconds the slot had a cell in flight, across all its
    /// incarnations.
    pub busy_secs: f64,
    /// `busy_secs` over the fleet's wall clock (0..=1).
    pub utilization: f64,
    /// Times this slot was respawned.
    pub restarts: u32,
}

/// What the fleet did, beyond the sweep output itself.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Worker slots spawned.
    pub workers: usize,
    /// Cells handed to workers (re-dispatches included).
    pub dispatched: u64,
    /// Cells re-dispatched after a worker loss.
    pub retries: u64,
    /// Worker incarnations torn down (timeouts, exits, pipe failures).
    pub workers_lost: u64,
    /// Respawns across all slots.
    pub worker_restarts: u64,
    /// Wall-clock span of the fleet run, seconds.
    pub wall_clock_secs: f64,
    /// Per-slot utilization.
    pub per_worker: Vec<WorkerUtilization>,
}

/// The one-line summary `fleet: N workers (subprocess), D dispatched, R
/// retries, L lost, X.Xs wall` that sweep front ends print and harnesses
/// parse.
impl std::fmt::Display for FleetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet: {} workers (subprocess), {} dispatched, {} retries, {} lost, {:.1}s wall",
            self.workers, self.dispatched, self.retries, self.workers_lost, self.wall_clock_secs
        )
    }
}

/// Result of [`run_fleet`].
#[derive(Debug)]
pub struct FleetRun {
    /// Per-job outcomes, identical in shape (and, for completed cells,
    /// bit-identical in content) to an in-process `run_cells`.
    pub output: CellsOutput,
    /// Distribution-layer accounting.
    pub stats: FleetStats,
}

struct WorkerSlot {
    /// The live worker; `None` once it is lost or when its spawn failed.
    handle: Option<SubprocessWorker>,
    uid: u64,
    pid: u64,
    assigned: Option<usize>,
    assigned_at: Instant,
    last_seen: Instant,
    restarts: u32,
    cells_completed: usize,
    busy_secs: f64,
}

impl WorkerSlot {
    fn new(handle: Option<SubprocessWorker>, uid: u64, restarts: u32) -> Self {
        WorkerSlot {
            pid: handle.as_ref().map_or(0, |h| h.pid),
            handle,
            uid,
            assigned: None,
            assigned_at: Instant::now(),
            last_seen: Instant::now(),
            restarts,
            cells_completed: 0,
            busy_secs: 0.0,
        }
    }

    fn alive(&self) -> bool {
        self.handle.is_some()
    }
}

struct Fleet<'a, 'b> {
    ledger: SweepLedger<'a>,
    opts: &'a FleetOptions<'b>,
    transport: &'a SubprocessTransport,
    inbox_tx: Sender<(u64, Envelope)>,
    workers: Vec<WorkerSlot>,
    uid_to_slot: HashMap<u64, usize>,
    next_uid: u64,
    pending: VecDeque<usize>,
    attempts: Vec<u32>,
    retries_left: Vec<u32>,
    dispatched: u64,
    retries: u64,
    workers_lost: u64,
    worker_restarts: u64,
}

impl Fleet<'_, '_> {
    fn emit(&self, ev: SweepEvent) {
        if let Some(f) = self.opts.events {
            f(&ev);
        }
    }

    fn spawn_slot(&mut self, slot: usize, restarts: u32) -> bool {
        let uid = self.next_uid;
        self.next_uid += 1;
        // Shard names derive from the spawn uid. Uids are never reused
        // within a run, so a respawn gets a fresh shard and the dead
        // incarnation's file survives untouched as crash insurance;
        // merge-on-resume discovers *all* shards regardless of
        // numbering, and the coordinator removes them once consumed.
        let shard = self
            .opts
            .checkpoint
            .as_ref()
            .map(|ck| shard_path(&ck.path, uid as usize));
        match self
            .transport
            .spawn(uid, shard.as_deref(), self.inbox_tx.clone())
        {
            Ok(handle) => {
                let mut worker = WorkerSlot::new(Some(handle), uid, restarts);
                if let Some(old) = self.workers.get(slot) {
                    // A respawn keeps the slot's tallies.
                    worker.cells_completed = old.cells_completed;
                    worker.busy_secs = old.busy_secs;
                }
                self.emit(SweepEvent::WorkerSpawned {
                    worker: slot as u64,
                    pid: worker.pid,
                    restarts: u64::from(restarts),
                });
                self.uid_to_slot.insert(uid, slot);
                if slot == self.workers.len() {
                    self.workers.push(worker);
                } else {
                    self.workers[slot] = worker;
                }
                true
            }
            Err(e) => {
                self.emit(SweepEvent::WorkerLost {
                    worker: slot as u64,
                    reason: format!("spawn failed: {}", e.message),
                });
                if slot == self.workers.len() {
                    // Keep slot indices dense: a never-alive slot still
                    // occupies its position (as a dead placeholder).
                    self.workers.push(WorkerSlot::new(None, uid, restarts));
                }
                false
            }
        }
    }

    /// Hands the next pending job (if any) to live, idle slot `w`.
    fn dispatch_to(&mut self, w: usize) {
        while self.workers[w].assigned.is_none() {
            let Some(handle) = self.workers[w].handle.as_mut() else {
                return;
            };
            let Some(idx) = self.pending.pop_front() else {
                return;
            };
            if self.ledger.is_done(idx) {
                continue; // a late result already filled this cell
            }
            let msg = CoordinatorMsg::Assign {
                index: idx,
                config_hash: self.ledger.hash(idx).to_string(),
                config: self.ledger.config(idx).to_string(),
                validate: self.opts.validate,
            };
            if let Err(e) = handle.send(&msg) {
                self.pending.push_front(idx);
                self.worker_lost(w, format!("assign failed: {}", e.message), true);
                return;
            }
            let retry = self.attempts[idx];
            self.attempts[idx] += 1;
            self.dispatched += 1;
            self.workers[w].assigned = Some(idx);
            self.workers[w].assigned_at = Instant::now();
            self.emit(SweepEvent::CellDispatched {
                index: idx as u64,
                total: self.ledger.total() as u64,
                config_hash: self.ledger.hash(idx).to_string(),
                worker: w as u64,
                retry: u64::from(retry),
            });
            return;
        }
    }

    /// Dispatches to every idle live worker (idempotent).
    fn pump(&mut self) {
        for w in 0..self.workers.len() {
            if self.workers[w].alive() && self.workers[w].assigned.is_none() {
                self.dispatch_to(w);
            }
        }
    }

    /// Tears slot `w` down, requeues (or fails) its in-flight cell, and
    /// respawns the slot when work remains and the budget allows.
    fn worker_lost(&mut self, w: usize, reason: String, respawn: bool) {
        let Some(handle) = self.workers[w].handle.take() else {
            return;
        };
        self.workers_lost += 1;
        self.workers[w].busy_secs += self.workers[w]
            .assigned
            .map(|_| self.workers[w].assigned_at.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        handle.kill();
        self.emit(SweepEvent::WorkerLost {
            worker: w as u64,
            reason: reason.clone(),
        });
        if let Some(idx) = self.workers[w].assigned.take() {
            if !self.ledger.is_done(idx) {
                if self.retries_left[idx] > 0 {
                    self.retries_left[idx] -= 1;
                    self.retries += 1;
                    self.pending.push_front(idx);
                } else {
                    self.record(
                        idx,
                        Err(format!(
                            "fleet worker lost ({reason}); retry budget exhausted"
                        )),
                    );
                }
            }
        }
        let restarts = self.workers[w].restarts;
        if respawn
            && !self.pending.is_empty()
            && restarts < self.opts.max_worker_restarts
            && self.spawn_slot(w, restarts + 1)
        {
            self.worker_restarts += 1;
            self.dispatch_to(w);
        }
    }

    /// Records job `idx` in the ledger (first result wins).
    fn record(&mut self, idx: usize, outcome: Result<CellRun, String>) {
        if self.ledger.record(idx, outcome) {
            // A late duplicate still queued for retry must not re-run.
            self.pending.retain(|&i| i != idx);
        }
    }

    /// True when `uid` is the live incarnation of its slot.
    fn is_current(&self, uid: u64) -> Option<usize> {
        let &slot = self.uid_to_slot.get(&uid)?;
        (self.workers[slot].uid == uid && self.workers[slot].alive()).then_some(slot)
    }

    /// True when `(index, config_hash)` names a job of this sweep.
    fn is_job(&self, index: usize, config_hash: &str) -> bool {
        index < self.ledger.total() && self.ledger.hash(index) == config_hash
    }

    /// Frees slot `w` after it answered for job `idx`, then hands it
    /// the next job.
    fn finished(&mut self, w: usize, idx: usize, completed: bool) {
        if self.workers[w].assigned == Some(idx) {
            self.workers[w].assigned = None;
            self.workers[w].busy_secs += self.workers[w].assigned_at.elapsed().as_secs_f64();
            if completed {
                self.workers[w].cells_completed += 1;
            }
        }
        self.dispatch_to(w);
    }

    fn handle_envelope(&mut self, uid: u64, envelope: Envelope) {
        let current = self.is_current(uid);
        if let Some(w) = current {
            self.workers[w].last_seen = Instant::now();
        }
        match envelope {
            Envelope::Msg(WorkerMsg::Hello { pid, protocol, .. }) => {
                if let Some(w) = current {
                    self.workers[w].pid = pid;
                    if protocol != PROTOCOL_VERSION {
                        self.worker_lost(
                            w,
                            format!(
                                "protocol mismatch (worker speaks v{protocol}, \
                                 coordinator v{PROTOCOL_VERSION})"
                            ),
                            false, // a respawn would mismatch again
                        );
                    }
                }
            }
            Envelope::Msg(WorkerMsg::Heartbeat) => {
                // Liveness already refreshed above.
            }
            Envelope::Msg(WorkerMsg::Done { run }) => {
                let idx = run.index;
                // Paranoia gate: the record must be for the cell we
                // think it is (guards against a worker replying out of
                // band after a coordinator restart).
                if self.is_job(idx, &run.config_hash) {
                    self.record(idx, Ok(run));
                }
                if let Some(w) = current {
                    self.finished(w, idx, true);
                }
            }
            Envelope::Msg(WorkerMsg::Failed {
                index,
                config_hash,
                panic,
            }) => {
                // A cell panic is deterministic — retrying would panic
                // again, so degrade to a CellError exactly like the
                // in-process runner.
                if self.is_job(index, &config_hash) {
                    self.record(index, Err(panic));
                }
                if let Some(w) = current {
                    self.finished(w, index, false);
                }
            }
            Envelope::Gone => {
                if let Some(w) = current {
                    self.worker_lost(w, "worker stream closed".to_string(), true);
                }
            }
        }
    }

    /// Clock-driven supervision: cell timeouts and heartbeat silence.
    fn tick(&mut self) {
        for w in 0..self.workers.len() {
            if !self.workers[w].alive() {
                continue;
            }
            if self.workers[w].assigned.is_some()
                && self.opts.cell_timeout_secs > 0.0
                && self.workers[w].assigned_at.elapsed().as_secs_f64() > self.opts.cell_timeout_secs
            {
                self.worker_lost(
                    w,
                    format!(
                        "cell timeout: in flight {:.1}s > {:.1}s",
                        self.workers[w].assigned_at.elapsed().as_secs_f64(),
                        self.opts.cell_timeout_secs
                    ),
                    true,
                );
                continue;
            }
            if self.opts.worker_timeout_secs > 0.0
                && self.workers[w].last_seen.elapsed().as_secs_f64() > self.opts.worker_timeout_secs
            {
                self.worker_lost(
                    w,
                    format!("heartbeat silence > {:.1}s", self.opts.worker_timeout_secs),
                    true,
                );
            }
        }
        self.pump();
    }

    /// When no worker is left to run them, pending cells fail
    /// structurally instead of hanging the sweep.
    fn fail_stranded(&mut self) {
        if self.workers.iter().any(WorkerSlot::alive) {
            return;
        }
        while let Some(idx) = self.pending.pop_front() {
            self.record(
                idx,
                Err("fleet stranded: all workers dead and respawn budget exhausted".to_string()),
            );
        }
    }
}

/// Runs an arbitrary job list on a worker fleet. The distributed
/// counterpart of [`dtn_sim::sweep::run_cells`]: same outputs for the
/// same jobs, with cells executed in worker processes instead of a
/// local thread pool.
pub fn run_fleet(
    jobs: &[CellJob],
    transport: &SubprocessTransport,
    opts: &FleetOptions<'_>,
) -> Result<FleetRun, FleetError> {
    let started = Instant::now();
    let total = jobs.len();

    // Restore the main checkpoint plus any shard files a killed fleet
    // left behind, *before* any worker can truncate its shard.
    let shards = match &opts.checkpoint {
        Some(ck) if ck.resume => discover_shards(&ck.path),
        _ => Vec::new(),
    };
    let ledger = SweepLedger::open(
        jobs,
        opts.checkpoint.as_ref(),
        &shards,
        opts.progress,
        opts.events,
    );
    if ledger.checkpoint_error().is_none() {
        // Everything the shards held is folded into the main file now;
        // stale shards must not shadow future runs.
        remove_shards(&shards);
    }

    // Longest-job-first over the cells still to run, estimated from
    // restored durations (canonical order on a cold start).
    let pending = longest_first(jobs, &ledger.pending(), ledger.runs()).into();

    let (inbox_tx, inbox_rx) = channel::<(u64, Envelope)>();
    let mut fleet = Fleet {
        ledger,
        opts,
        transport,
        inbox_tx,
        workers: Vec::new(),
        uid_to_slot: HashMap::new(),
        next_uid: 0,
        pending,
        attempts: vec![0; total],
        retries_left: vec![opts.max_cell_retries; total],
        dispatched: 0,
        retries: 0,
        workers_lost: 0,
        worker_restarts: 0,
    };

    let n_workers = opts.workers.max(1).min(fleet.pending.len().max(1));
    if !fleet.pending.is_empty() {
        for slot in 0..n_workers {
            fleet.spawn_slot(slot, 0);
        }
        if !fleet.workers.iter().any(WorkerSlot::alive) {
            return Err(FleetError::new(
                "no worker could be spawned (transport subprocess)",
            ));
        }
        fleet.pump();

        let tick = Duration::from_millis(50);
        while !fleet.ledger.is_complete() {
            match inbox_rx.recv_timeout(tick) {
                Ok((uid, envelope)) => fleet.handle_envelope(uid, envelope),
                Err(RecvTimeoutError::Timeout) => fleet.tick(),
                Err(RecvTimeoutError::Disconnected) => break, // unreachable: we hold a sender
            }
            fleet.fail_stranded();
        }

        // Drain: ask every live worker to exit before reaping any, so
        // the workers wind down together and each reap finds its worker
        // gone or nearly so.
        let mut handles: Vec<_> = fleet
            .workers
            .iter_mut()
            .filter_map(|w| w.handle.take())
            .collect();
        for handle in &mut handles {
            let _ = handle.send(&CoordinatorMsg::Shutdown);
        }
        for handle in handles {
            handle.kill();
        }
    }

    let wall_clock_secs = started.elapsed().as_secs_f64();
    let per_worker: Vec<WorkerUtilization> = fleet
        .workers
        .iter()
        .enumerate()
        .map(|(w, slot)| WorkerUtilization {
            worker: w,
            pid: slot.pid,
            cells_completed: slot.cells_completed,
            busy_secs: slot.busy_secs,
            utilization: if wall_clock_secs > 0.0 {
                (slot.busy_secs / wall_clock_secs).clamp(0.0, 1.0)
            } else {
                0.0
            },
            restarts: slot.restarts,
        })
        .collect();
    let output = fleet.ledger.finish();
    if let (None, Some(ck)) = (&output.checkpoint_error, &opts.checkpoint) {
        // Every completed cell is in the main checkpoint; this run's
        // shards are consumed crash insurance.
        remove_shards(&discover_shards(&ck.path));
    }

    Ok(FleetRun {
        output,
        stats: FleetStats {
            workers: fleet.workers.len(),
            dispatched: fleet.dispatched,
            retries: fleet.retries,
            workers_lost: fleet.workers_lost,
            worker_restarts: fleet.worker_restarts,
            wall_clock_secs,
            per_worker,
        },
    })
}
