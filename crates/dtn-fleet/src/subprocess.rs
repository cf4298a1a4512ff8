//! How the coordinator reaches its workers: one `dtn-fleet-worker` child
//! process per worker slot, length-prefixed frames over its
//! stdin/stdout.
//!
//! The coordinator reads a single mpsc channel of `(worker uid,
//! Envelope)` pairs. Each spawn attaches a reader pump that forwards the
//! child's stdout frames into that channel as `Envelope::Msg`s and
//! delivers a final `Envelope::Gone` at EOF or on a framing error
//! (stray stdout output breaks the framing, so it costs the worker,
//! never a cell). Stderr is inherited, so worker panic traces land in
//! the operator's terminal/CI log.

use crate::protocol::{read_frame, write_frame, CoordinatorMsg, WorkerMsg};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::Sender;
use std::time::Duration;

/// What a worker's receive pump delivers to the coordinator channel.
// The size skew mirrors `WorkerMsg` (a boxed `Done` would tax every
// result frame to slim down transient liveness frames).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Envelope {
    /// A parsed protocol message from the worker.
    Msg(WorkerMsg),
    /// The worker's stdout ended or broke (process exit, pipe closed,
    /// framing violation). Always the last envelope of its worker.
    Gone,
}

/// A fleet-level failure: the coordinator could not run the sweep at
/// all (as opposed to per-cell failures, which are `CellError`s in the
/// output). Worker deaths are *not* fleet errors — they are retried,
/// and exhaustion degrades to per-cell errors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetError {
    /// What failed.
    pub message: String,
    /// The worker binary a failed spawn attempted to execute, when the
    /// failure was a spawn. Triage ("is the path wrong, or the binary
    /// broken?") needs this without rerunning under strace.
    pub worker_bin: Option<PathBuf>,
    /// Full argv of the failed spawn attempt (excluding argv\[0\]).
    pub argv: Vec<String>,
}

impl FleetError {
    /// Convenience constructor.
    pub fn new(message: impl Into<String>) -> Self {
        FleetError {
            message: message.into(),
            ..FleetError::default()
        }
    }

    /// A spawn failure, carrying the attempted binary path and argv so
    /// the error is actionable as printed.
    pub fn spawn_failure(
        message: impl Into<String>,
        worker_bin: impl Into<PathBuf>,
        argv: Vec<String>,
    ) -> Self {
        FleetError {
            message: message.into(),
            worker_bin: Some(worker_bin.into()),
            argv,
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet error: {}", self.message)?;
        if let Some(bin) = &self.worker_bin {
            write!(f, " (worker-bin: {}", bin.display())?;
            if !self.argv.is_empty() {
                write!(f, ", argv: {:?}", self.argv)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl std::error::Error for FleetError {}

/// Finds the worker binary: the `DTN_FLEET_WORKER` environment variable
/// (absolute override, e.g. in tests and CI), then a `dtn-fleet-worker`
/// sibling of the current executable, then one directory up (cargo
/// puts integration-test binaries in `target/<profile>/deps/`).
pub fn locate_worker() -> Result<PathBuf, FleetError> {
    if let Ok(path) = std::env::var("DTN_FLEET_WORKER") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(FleetError::new(format!(
            "DTN_FLEET_WORKER points at {}, which does not exist",
            path.display()
        )));
    }
    let exe = std::env::current_exe()
        .map_err(|e| FleetError::new(format!("cannot locate current executable: {e}")))?;
    let name = format!("dtn-fleet-worker{}", std::env::consts::EXE_SUFFIX);
    let mut dirs: Vec<&Path> = Vec::new();
    if let Some(dir) = exe.parent() {
        dirs.push(dir);
        if let Some(up) = dir.parent() {
            dirs.push(up);
        }
    }
    for dir in &dirs {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(FleetError::new(format!(
        "cannot find {name} next to {} (set DTN_FLEET_WORKER or `cargo build -p dtn-fleet`)",
        exe.display()
    )))
}

/// The worker command a fleet spawns once per worker slot.
///
/// ```no_run
/// use dtn_fleet::{locate_worker, run_fleet, FleetOptions, SubprocessTransport};
/// use dtn_sim::sweep::{aggregate_sweep, materialize_jobs};
/// # fn spec() -> dtn_sim::sweep::SweepSpec { unimplemented!() }
///
/// let spec = spec();
/// let transport = SubprocessTransport::new(locate_worker()?);
/// let fleet = run_fleet(
///     &materialize_jobs(&spec),
///     &transport,
///     &FleetOptions { workers: 4, ..FleetOptions::default() },
/// )?;
/// assert_eq!(fleet.stats.workers, 4);
/// let out = aggregate_sweep(&spec, fleet.output);
/// assert!(out.jobs.errors.is_empty());
/// # Ok::<(), dtn_fleet::FleetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubprocessTransport {
    /// Path of the worker binary.
    pub worker_bin: PathBuf,
    /// Extra CLI arguments appended to every worker (test fault hooks).
    pub extra_args: Vec<String>,
}

impl SubprocessTransport {
    /// A transport with default knobs for `worker_bin`.
    pub fn new(worker_bin: PathBuf) -> Self {
        SubprocessTransport {
            worker_bin,
            extra_args: Vec::new(),
        }
    }

    /// Spawns one worker that streams its finished cells to `shard`.
    /// `uid` is a coordinator-unique id echoed on every envelope the
    /// worker's pump sends to `inbox` — respawns get fresh uids, so late
    /// messages from a torn-down worker are recognisable (and its
    /// results still accepted) instead of being misattributed to its
    /// replacement.
    pub(crate) fn spawn(
        &self,
        uid: u64,
        shard: Option<&Path>,
        inbox: Sender<(u64, Envelope)>,
    ) -> Result<SubprocessWorker, FleetError> {
        let mut argv: Vec<String> = Vec::new();
        if let Some(shard) = shard {
            argv.push("--shard".into());
            argv.push(shard.display().to_string());
        }
        argv.extend(self.extra_args.iter().cloned());
        let mut cmd = Command::new(&self.worker_bin);
        cmd.args(&argv)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| {
            FleetError::spawn_failure(format!("spawn worker: {e}"), &self.worker_bin, argv.clone())
        })?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let pid = u64::from(child.id());

        let reader = BufReader::new(stdout);
        std::thread::Builder::new()
            .name(format!("dtn-fleet-pump-{uid}"))
            .spawn(move || pump(uid, reader, &inbox))
            .map_err(|e| FleetError::new(format!("spawn reader thread: {e}")))?;

        Ok(SubprocessWorker {
            child,
            stdin: Some(stdin),
            pid,
        })
    }
}

/// Forwards every frame on `reader` to `inbox` as an [`Envelope::Msg`]
/// tagged with `uid`, until EOF or the first framing error ends the
/// stream with [`Envelope::Gone`]. A well-framed message of an unknown
/// kind is skipped. Also stops when the coordinator drops its inbox.
fn pump(uid: u64, mut reader: impl BufRead, inbox: &Sender<(u64, Envelope)>) {
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        let Ok(msg) = serde_json::from_str(&frame) else {
            continue; // well-framed but unknown: skip
        };
        if inbox.send((uid, Envelope::Msg(msg))).is_err() {
            return; // coordinator gone
        }
    }
    let _ = inbox.send((uid, Envelope::Gone));
}

/// A live worker process the coordinator sends assignments to.
/// Receiving is push-based: its pump feeds the coordinator inbox.
pub(crate) struct SubprocessWorker {
    child: Child,
    stdin: Option<ChildStdin>,
    /// OS process id of the child.
    pub(crate) pid: u64,
}

impl SubprocessWorker {
    /// Sends one coordinator message. An error means the worker is
    /// unreachable (the coordinator treats it as lost).
    pub(crate) fn send(&mut self, msg: &CoordinatorMsg) -> Result<(), FleetError> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| FleetError::new("worker stdin already closed"))?;
        write_frame(stdin, &msg.to_line()).map_err(|e| FleetError::new(format!("worker pipe: {e}")))
    }

    /// Tears the worker down, on loss and at shutdown.
    pub(crate) fn kill(mut self) {
        // Closing stdin asks the worker to drain and exit (EOF ==
        // shutdown); give it a short grace period, then hard-kill. The
        // grace period keeps clean shutdowns signal-free while a
        // wedged worker (hung cell) still dies promptly.
        self.stdin = None;
        for _ in 0..20 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for SubprocessWorker {
    fn drop(&mut self) {
        // Reap unconditionally — a leaked child would outlive the
        // sweep and keep burning CPU on a cell nobody will collect.
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn pump_delivers_frames_then_gone_at_the_first_framing_error() {
        let hello = WorkerMsg::Hello {
            pid: 5,
            protocol: crate::PROTOCOL_VERSION,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &hello.to_line()).unwrap();
        write_frame(&mut wire, "{\"Evolved\":{}}").unwrap(); // unknown kind: skipped
        wire.extend_from_slice(b"garbage\n");
        write_frame(&mut wire, &WorkerMsg::Heartbeat.to_line()).unwrap();

        let (tx, rx) = channel();
        pump(3, std::io::Cursor::new(wire), &tx);
        drop(tx);
        let got: Vec<(u64, Envelope)> = rx.iter().collect();
        assert_eq!(
            got,
            vec![(3, Envelope::Msg(hello)), (3, Envelope::Gone)],
            "nothing after the garbage reaches the coordinator"
        );
    }
}
