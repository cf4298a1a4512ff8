//! Transport abstraction: how the coordinator spawns workers and
//! exchanges [`crate::protocol`] messages with them.
//!
//! The coordinator never touches processes, pipes or sockets directly —
//! it drives [`Transport`] / [`WorkerHandle`] trait objects and reads a
//! single mpsc channel of `(worker uid, Envelope)` pairs. That keeps
//! every supervision policy (heartbeats, timeouts, retries, respawn)
//! identical across the subprocess and TCP backends, which also share
//! one reader pump from a byte stream to that channel.

use crate::protocol::{read_frame, CoordinatorMsg, WorkerMsg};
use std::io::BufRead;
use std::sync::mpsc::Sender;

/// What a worker's receive pump delivers to the coordinator channel.
// The size skew mirrors `WorkerMsg` (a boxed `Done` would tax every
// result frame to slim down transient liveness frames).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// A parsed protocol message from the worker.
    Msg(WorkerMsg),
    /// The worker's stream ended or broke (process exit, pipe or socket
    /// closed, read timeout, framing violation). Always the last
    /// envelope of its worker.
    Gone,
}

/// Spawns the reader pump of one worker: a thread that forwards every
/// frame on `reader` to `inbox` as an [`Envelope::Msg`] tagged with
/// `uid`, until EOF or the first framing error ends the stream with
/// [`Envelope::Gone`]. A well-framed message of an unknown kind is
/// skipped. The pump also stops when the coordinator drops its inbox.
pub(crate) fn spawn_pump(
    name: String,
    uid: u64,
    reader: impl BufRead + Send + 'static,
    inbox: Sender<(u64, Envelope)>,
) -> Result<(), FleetError> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || pump(uid, reader, &inbox))
        .map(drop)
        .map_err(|e| FleetError::new(format!("spawn reader thread: {e}")))
}

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

/// A live worker the coordinator can send assignments to. Receiving is
/// push-based: the transport pumps every inbound message into the
/// channel handed to [`Transport::spawn`].
pub trait WorkerHandle: Send {
    /// Sends one coordinator message. An error means the worker is
    /// unreachable (the coordinator treats it as lost).
    fn send(&mut self, msg: &CoordinatorMsg) -> Result<(), FleetError>;
    /// OS process id, 0 when the backend has none.
    fn pid(&self) -> u64;
    /// Tears the worker down (kill the process / close the socket).
    /// Idempotent; called on loss, shutdown and drop.
    fn kill(&mut self);
}

/// A worker-spawning backend.
pub trait Transport {
    /// Spawns one worker. `uid` is a coordinator-unique id echoed on
    /// every envelope the worker's pump sends to `inbox` — respawns get
    /// fresh uids, so late messages from a torn-down worker are
    /// recognisable (and its results still accepted) instead of being
    /// misattributed to its replacement.
    fn spawn(
        &self,
        uid: u64,
        inbox: Sender<(u64, Envelope)>,
    ) -> Result<Box<dyn WorkerHandle>, FleetError>;
    /// Stable backend label for stats and logs.
    fn label(&self) -> &'static str;
    /// Number of workers the backend has ready to join beyond those
    /// already spawned — e.g. authenticated TCP connections queued by
    /// the listener. The coordinator polls this to revive dead worker
    /// slots when a late worker arrives mid-sweep. Backends that only
    /// create workers on demand (subprocess) report 0.
    fn waiting_workers(&self) -> usize {
        0
    }
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
    pub worker_bin: Option<std::path::PathBuf>,
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
        worker_bin: impl Into<std::path::PathBuf>,
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

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::new(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use std::sync::mpsc::channel;

    #[test]
    fn pump_delivers_frames_then_gone_at_the_first_framing_error() {
        let hello = WorkerMsg::Hello {
            pid: 5,
            protocol: crate::PROTOCOL_VERSION,
            token: None,
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
