//! The coordinator/worker wire protocol.
//!
//! Messages are externally-tagged serde enums, one single-line JSON
//! value per frame, carried over a worker's stdin/stdout in a
//! length-prefixed framing: `<decimal byte length>\n<json>\n` (see
//! [`write_frame`] / [`read_frame`]).
//!
//! A well-framed message of an unknown kind is skipped by both sides,
//! so the protocol can grow without flag-day upgrades. A framing
//! violation is a broken stream (worker loss), not a frame to skip — a
//! peer that cannot frame correctly cannot be trusted to resynchronise.
//!
//! [`PROTOCOL_VERSION`] in the worker's `Hello` guards against
//! genuinely incompatible pairings: the coordinator tears down a worker
//! that speaks another version and does not respawn it.
//!
//! Each [`CoordinatorMsg::Assign`] carries its cell's canonical config
//! JSON, so a worker holds no state between assignments beyond its
//! contact-schedule cache.

use std::io::{BufRead, Read, Write};

use dtn_sim::sweep::CellRun;
use serde::{Deserialize, Serialize};

/// Version tag carried in [`WorkerMsg::Hello`]. Bump on breaking frame
/// changes; the coordinator refuses workers that disagree.
///
/// v2: `Hello` gained the optional auth `token`.
/// v3: `Assign` carries the cell's config; a worker sends only `Hello`,
/// `Heartbeat`, `Done` and `Failed`.
/// The handshake refusal and `Hello`'s `token` were later removed
/// without a bump: unknown fields are ignored, so a v3 `Hello` that
/// still carries a `token` parses.
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on a single frame's payload, enforced by
/// [`read_frame`]. Generous — the largest real frame is an `Assign`
/// with its config or a `Done` with a full fingerprint, both well under a
/// megabyte — while still refusing absurd lengths from a corrupt or
/// hostile peer before allocating.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Upper bound on a frame's length header, enforced by [`read_frame`]
/// before the length is parsed: 20 digits (any `u64`) plus `\r\n`.
/// Without it a worker that never sends a newline could grow the header
/// without bound.
const MAX_HEADER_LEN: u64 = 22;

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordinatorMsg {
    /// Run one cell.
    Assign {
        /// Position in the materialised job list.
        index: usize,
        /// FNV-1a hash of `config` — the cell identity and resume key.
        config_hash: String,
        /// Canonical config JSON of the cell.
        config: String,
        /// Attach a `dtn-validate` validator to the run.
        validate: bool,
    },
    /// Drain and exit cleanly.
    Shutdown,
}

/// Worker → coordinator messages.
// `Done` dwarfs the liveness variants, but boxing `CellRun` would put
// an indirection on every result frame to save bytes on heartbeats that
// exist for microseconds — not worth it on this traffic volume.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerMsg {
    /// First frame after spawn: liveness + version handshake.
    Hello {
        /// OS process id of the worker.
        pid: u64,
        /// [`PROTOCOL_VERSION`] the worker speaks.
        protocol: u32,
    },
    /// Periodic liveness signal, emitted from a side thread so it keeps
    /// flowing while a cell executes.
    Heartbeat,
    /// A cell finished; `run` is the exact checkpoint record.
    Done {
        /// The finished cell, bit-identical to what an in-process
        /// runner would record.
        run: CellRun,
    },
    /// A cell panicked inside the worker (the worker itself survives
    /// and can take further assignments).
    Failed {
        /// Job index of the failed cell.
        index: usize,
        /// Config hash of the failed cell.
        config_hash: String,
        /// The panic payload, stringified.
        panic: String,
    },
}

impl WorkerMsg {
    /// One frame payload: single-line JSON (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("worker message serialises")
    }
}

impl CoordinatorMsg {
    /// One frame payload: single-line JSON (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("coordinator message serialises")
    }
}

/// Write one length-prefixed frame: `<decimal len>\n<payload>\n`.
///
/// The payload is a single JSON line (no trailing newline); the length
/// counts payload bytes only. The frame goes out in one write and is
/// flushed, so it is on the wire when this returns.
pub fn write_frame<W: Write>(w: &mut W, line: &str) -> std::io::Result<()> {
    let frame = format!("{}\n{line}\n", line.len());
    w.write_all(frame.as_bytes())?;
    w.flush()
}

/// Read one length-prefixed frame written by [`write_frame`].
///
/// Returns `Ok(None)` on clean EOF at a frame boundary. Anything
/// malformed — an over-long or unterminated length header, a
/// non-numeric length, a length above [`MAX_FRAME_LEN`], truncation
/// mid-frame, a missing `\n` terminator, or invalid UTF-8 — is an
/// [`std::io::ErrorKind::InvalidData`] error: the stream is broken,
/// not a frame to skip.
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut header = String::new();
    if r.by_ref().take(MAX_HEADER_LEN).read_line(&mut header)? == 0 {
        return Ok(None); // clean EOF between frames
    }
    if !header.ends_with('\n') {
        return Err(bad_frame(format!(
            "frame length header {header:?} is unterminated or over {MAX_HEADER_LEN} bytes"
        )));
    }
    let len: usize = header
        .trim_end_matches('\n')
        .trim_end_matches('\r')
        .parse()
        .map_err(|_| bad_frame(format!("invalid frame length {header:?}")))?;
    if len > MAX_FRAME_LEN {
        return Err(bad_frame(format!(
            "frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
        )));
    }
    let mut payload = vec![0u8; len + 1];
    r.read_exact(&mut payload)
        .map_err(|e| bad_frame(format!("truncated frame ({len} bytes expected): {e}")))?;
    if payload.pop() != Some(b'\n') {
        return Err(bad_frame("frame missing trailing newline".into()));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| bad_frame("frame payload is not UTF-8".into()))
}

fn bad_frame(why: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::sweep::CellMetrics;
    use dtn_validate::ReportFingerprint;

    #[test]
    fn assign_round_trips_through_json() {
        let msg = CoordinatorMsg::Assign {
            index: 7,
            config_hash: "deadbeefdeadbeef".into(),
            config: "{\"name\":\"smoke\"}".into(),
            validate: true,
        };
        let line = msg.to_line();
        assert!(!line.contains('\n'), "frames must be single lines");
        let back: CoordinatorMsg = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, msg);
    }

    #[test]
    fn hello_round_trips_and_ignores_a_token() {
        let msg = WorkerMsg::Hello {
            pid: 9,
            protocol: PROTOCOL_VERSION,
        };
        let back: WorkerMsg = serde_json::from_str(&msg.to_line()).expect("parse");
        assert_eq!(back, msg);
        // A v3 worker built before the token was removed still sends it.
        let with_token = "{\"Hello\":{\"pid\":9,\"protocol\":3,\"token\":\"sesame\"}}";
        assert_eq!(
            serde_json::from_str::<WorkerMsg>(with_token).expect("parse"),
            msg
        );
    }

    #[test]
    fn done_round_trips_with_exact_floats() {
        let run = CellRun {
            index: 3,
            config_hash: "0123456789abcdef".into(),
            seed: 9,
            metrics: CellMetrics {
                delivery_ratio: 0.1 + 0.2, // deliberately non-representable
                avg_hopcount: 2.25,
                overhead_ratio: 13.5,
                avg_latency: Some(1234.0625),
                created: 96.0,
            },
            fingerprint: ReportFingerprint::default(),
            violations: 0,
            duration_secs: 1.5,
        };
        let line = WorkerMsg::Done { run: run.clone() }.to_line();
        let back: WorkerMsg = serde_json::from_str(&line).expect("parse");
        match back {
            WorkerMsg::Done { run: r } => {
                assert_eq!(r, run);
                // Equality excludes duration; check it explicitly.
                assert_eq!(r.duration_secs, 1.5);
                // Bit-exact float round trip, not just approximate.
                assert_eq!(r.metrics.delivery_ratio.to_bits(), (0.1f64 + 0.2).to_bits());
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn unknown_variants_are_rejected_not_misparsed() {
        assert!(serde_json::from_str::<WorkerMsg>("{\"Evolved\":{\"x\":1}}").is_err());
        assert!(serde_json::from_str::<CoordinatorMsg>("garbage").is_err());
    }

    #[test]
    fn shutdown_is_a_bare_tag() {
        let line = CoordinatorMsg::Shutdown.to_line();
        let back: CoordinatorMsg = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, CoordinatorMsg::Shutdown);
    }

    #[test]
    fn frames_round_trip_through_length_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "línea").unwrap(); // multi-byte UTF-8
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("línea"));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn malformed_frames_are_errors_not_skips() {
        for wire in [
            "not-a-number\n{}\n",                   // garbage length
            "5\nab\n",                              // truncated payload
            "2\nabX",                               // wrong terminator
            "999999999999999999\n",                 // absurd length
            "123456789012345678901234567890\n{}\n", // over-long header
            "12",                                   // header cut off by EOF
        ] {
            let mut r = std::io::Cursor::new(wire.as_bytes().to_vec());
            let err = read_frame(&mut r).expect_err(wire);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{wire}");
        }
    }
}
