//! Mobility traces: record, serialise, load and replay.
//!
//! This is the code path a *real* CRAWDAD conversion would use: a plain
//! text format of timestamped waypoints per node, loaded into
//! [`MobilityTrace`] and replayed through [`TraceMobility`] with linear
//! interpolation between samples. Our EPFL substitute writes the same
//! format, so swapping in genuine GPS data is a pure data change.
//!
//! ## Format
//!
//! One sample per line, whitespace-separated:
//!
//! ```text
//! # comment lines and blanks are ignored
//! <node_id> <time_secs> <x_m> <y_m>
//! ```
//!
//! Samples may arrive in any order; they are sorted per node on load.

use crate::model::{just_before, Leg, Mobility};
use dtn_core::geometry::Point2;
use dtn_core::time::SimTime;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// An in-memory mobility trace: per-node timestamped waypoints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MobilityTrace {
    /// `samples[node][k] = (time, position)`, sorted by time per node.
    samples: Vec<Vec<(SimTime, Point2)>>,
}

/// Errors raised while parsing a trace.
#[derive(Debug, PartialEq)]
pub enum TraceError {
    /// A line did not have exactly four numeric fields.
    Malformed {
        /// Source file, when parsing came through [`MobilityTrace::load`].
        /// `None` for in-memory readers.
        path: Option<String>,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A node has duplicate timestamps (ambiguous position).
    DuplicateTimestamp {
        /// The offending node.
        node: usize,
        /// The duplicated time, seconds.
        time: f64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed { path, line, reason } => match path {
                Some(p) => write!(f, "trace {p}:{line}: {reason}"),
                None => write!(f, "trace line {line}: {reason}"),
            },
            TraceError::DuplicateTimestamp { node, time } => {
                write!(f, "node {node} has duplicate timestamp {time}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl TraceError {
    /// Attaches a source-file path to a [`TraceError::Malformed`] so the
    /// message names the offending file (`trace PATH:LINE: reason`).
    /// Other variants pass through unchanged.
    fn with_path(self, p: &Path) -> TraceError {
        match self {
            TraceError::Malformed { line, reason, .. } => TraceError::Malformed {
                path: Some(p.display().to_string()),
                line,
                reason,
            },
            other => other,
        }
    }
}

impl MobilityTrace {
    /// An empty trace with `n_nodes` nodes.
    pub fn with_nodes(n_nodes: usize) -> Self {
        MobilityTrace {
            samples: vec![Vec::new(); n_nodes],
        }
    }

    /// Appends a sample (kept unsorted until [`finish`](Self::finish) or
    /// load-time sorting).
    pub fn push(&mut self, node: usize, t: SimTime, p: Point2) {
        if node >= self.samples.len() {
            self.samples.resize(node + 1, Vec::new());
        }
        self.samples[node].push((t, p));
    }

    /// Sorts samples per node and validates there are no duplicate
    /// timestamps.
    pub fn finish(mut self) -> Result<Self, TraceError> {
        for (node, s) in self.samples.iter_mut().enumerate() {
            s.sort_by_key(|&(t, _)| t);
            for w in s.windows(2) {
                if w[0].0 == w[1].0 {
                    return Err(TraceError::DuplicateTimestamp {
                        node,
                        time: w[0].0.as_secs(),
                    });
                }
            }
        }
        Ok(self)
    }

    /// Number of nodes (including nodes with zero samples).
    pub fn node_count(&self) -> usize {
        self.samples.len()
    }

    /// Samples of one node.
    pub fn node_samples(&self, node: usize) -> &[(SimTime, Point2)] {
        &self.samples[node]
    }

    /// Total samples across all nodes.
    pub fn sample_count(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Parses the text format (see module docs).
    pub fn parse<R: Read>(reader: R) -> Result<Self, TraceError> {
        let mut trace = MobilityTrace::default();
        let buf = BufReader::new(reader);
        for (lineno, line) in buf.lines().enumerate() {
            let line = line.map_err(|e| TraceError::Malformed {
                path: None,
                line: lineno + 1,
                reason: format!("io error: {e}"),
            })?;
            let text = line.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = text.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(TraceError::Malformed {
                    path: None,
                    line: lineno + 1,
                    reason: format!("expected 4 fields, got {}", fields.len()),
                });
            }
            let parse_f64 = |s: &str, what: &str| -> Result<f64, TraceError> {
                s.parse::<f64>().map_err(|_| TraceError::Malformed {
                    path: None,
                    line: lineno + 1,
                    reason: format!("bad {what}: {s:?}"),
                })
            };
            let node = fields[0]
                .parse::<usize>()
                .map_err(|_| TraceError::Malformed {
                    path: None,
                    line: lineno + 1,
                    reason: format!("bad node id: {:?}", fields[0]),
                })?;
            let t = parse_f64(fields[1], "time")?;
            if t < 0.0 || !t.is_finite() {
                return Err(TraceError::Malformed {
                    path: None,
                    line: lineno + 1,
                    reason: format!("time must be finite and non-negative, got {t}"),
                });
            }
            let x = parse_f64(fields[2], "x")?;
            let y = parse_f64(fields[3], "y")?;
            trace.push(node, SimTime::from_secs(t), Point2::new(x, y));
        }
        trace.finish()
    }

    /// Loads from a file path. Parse errors are annotated with the path
    /// so the message reads `trace PATH:LINE: reason`.
    pub fn load(path: &Path) -> Result<Self, Box<dyn std::error::Error>> {
        let file = std::fs::File::open(path)?;
        Ok(Self::parse(file).map_err(|e| e.with_path(path))?)
    }

    /// Serialises to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# node time_s x_m y_m\n");
        for (node, samples) in self.samples.iter().enumerate() {
            for &(t, p) in samples {
                let _ = writeln!(out, "{} {} {} {}", node, t.as_secs(), p.x, p.y);
            }
        }
        out
    }

    /// Writes the text format to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Records a trace by sampling `models` every `step` seconds over
    /// `[0, duration]` (inclusive of both ends).
    pub fn record(models: &mut [Box<dyn Mobility>], duration: SimTime, step: f64) -> MobilityTrace {
        assert!(step > 0.0, "sampling step must be positive");
        let mut trace = MobilityTrace::with_nodes(models.len());
        let steps = (duration.as_secs() / step).floor() as u64;
        for k in 0..=steps {
            let t = SimTime::from_secs(k as f64 * step);
            for (node, m) in models.iter_mut().enumerate() {
                trace.push(node, t, m.position_at(t));
            }
        }
        trace
    }

    /// Builds one replay handle per node. Nodes without samples sit at
    /// the origin.
    pub fn replay(&self) -> Vec<TraceMobility> {
        (0..self.node_count())
            .map(|n| TraceMobility::new(self.samples[n].clone()))
            .collect()
    }
}

/// Replays one node's waypoints with linear interpolation; the node holds
/// its first/last sampled position outside the sampled window (taxis that
/// log off stay parked — same convention as ONE's `ExternalMovement`).
#[derive(Debug, Clone)]
pub struct TraceMobility {
    samples: Vec<(SimTime, Point2)>,
    /// Cursor remembering the last bracketing index (queries are
    /// monotone, so replay is O(1) amortised).
    cursor: usize,
}

impl TraceMobility {
    /// Builds a replay from samples.
    ///
    /// Unlike the file-load path (which routes through
    /// [`MobilityTrace::finish`] and *rejects* duplicate timestamps),
    /// in-memory construction accepts whatever the caller assembled:
    /// the samples are sorted and adjacent duplicate timestamps are
    /// collapsed (last sample at a timestamp wins), so every
    /// construction path yields a well-formed, strictly-increasing
    /// timeline and [`position_at`](Mobility::position_at) can never
    /// divide by a zero-width segment.
    pub fn new(mut samples: Vec<(SimTime, Point2)>) -> Self {
        samples.sort_by_key(|&(t, _)| t);
        samples.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                // `dedup_by` keeps `prev` and discards `next`; the later
                // push should win, so copy its position over first.
                prev.1 = next.1;
                true
            } else {
                false
            }
        });
        TraceMobility { samples, cursor: 0 }
    }
}

impl Mobility for TraceMobility {
    /// Holds the first sample up to its instant and the last one from
    /// its instant on. In between, the segment ending at a sample covers
    /// the open interval up to that sample; at an interior sample
    /// instant the node sits on the segment ending there at `f = 1`,
    /// which need not round to the sample itself, so that instant gets a
    /// leg of its own.
    fn leg_at(&mut self, t: SimTime) -> Leg {
        if self.samples.is_empty() {
            return Leg::hold(Point2::default(), SimTime::INFINITY);
        }
        let (first, last) = (self.samples[0], self.samples[self.samples.len() - 1]);
        if t <= first.0 {
            return Leg::hold(first.1, first.0);
        }
        if t >= last.0 {
            return Leg::hold(last.1, SimTime::INFINITY);
        }
        // Advance the cursor to the bracketing segment.
        while self.samples[self.cursor + 1].0 < t {
            self.cursor += 1;
        }
        // Queries are documented monotone, but be tolerant of a rewind.
        while self.cursor > 0 && self.samples[self.cursor].0 > t {
            self.cursor -= 1;
        }
        let (t0, p0) = self.samples[self.cursor];
        let (t1, p1) = self.samples[self.cursor + 1];
        // Belt and braces: the constructor collapses duplicate
        // timestamps, but a zero-width segment must still never produce
        // a NaN lerp factor (NaN positions silently poison the spatial
        // grid and every contact decision after it).
        let width = (t1 - t0).as_secs();
        if width <= 0.0 {
            return Leg::hold(p0, t);
        }
        if t == t1 {
            return Leg::hold(p0.lerp(p1, (t - t0).as_secs() / width), t);
        }
        Leg {
            from: p0,
            to: p1,
            depart: t0,
            arrive: t1,
            pause_end: just_before(t1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_waypoint::{RandomWaypointConfig, RandomWaypointPlanner};
    use crate::LegMover;
    use dtn_core::rng::{streams, substream_rng};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn roundtrip_text() {
        let mut trace = MobilityTrace::with_nodes(2);
        trace.push(0, t(0.0), Point2::new(1.0, 2.0));
        trace.push(0, t(10.0), Point2::new(3.0, 4.0));
        trace.push(1, t(5.0), Point2::new(-1.5, 0.25));
        let trace = trace.finish().unwrap();
        let text = trace.to_text();
        let parsed = MobilityTrace::parse(text.as_bytes()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn duplicate_timestamps_in_memory_do_not_produce_nan() {
        // Regression: the duplicate-timestamp guard only ran on the
        // file-load path; `TraceMobility::new` accepted equal adjacent
        // timestamps and the lerp divided by (t1 - t0) == 0, yielding
        // NaN positions that silently poisoned the spatial grid.
        let mut m = TraceMobility::new(vec![
            (t(0.0), Point2::new(0.0, 0.0)),
            (t(10.0), Point2::new(100.0, 0.0)),
            (t(10.0), Point2::new(200.0, 0.0)),
            (t(20.0), Point2::new(300.0, 0.0)),
        ]);
        for s in 0..=40 {
            let p = m.position_at(t(s as f64 * 0.5));
            assert!(
                p.x.is_finite() && p.y.is_finite(),
                "NaN/inf position at t={}: ({}, {})",
                s as f64 * 0.5,
                p.x,
                p.y
            );
        }
        // The later push at the duplicated timestamp wins.
        assert_eq!(m.position_at(t(10.0)).x, 200.0);
        // Interpolation continues cleanly past the collapsed sample.
        assert_eq!(m.position_at(t(15.0)).x, 250.0);
    }

    #[test]
    fn unsorted_in_memory_samples_are_sorted_on_construction() {
        let mut m = TraceMobility::new(vec![
            (t(20.0), Point2::new(20.0, 0.0)),
            (t(0.0), Point2::new(0.0, 0.0)),
            (t(10.0), Point2::new(10.0, 0.0)),
        ]);
        assert_eq!(m.position_at(t(5.0)).x, 5.0);
        assert_eq!(m.position_at(t(15.0)).x, 15.0);
    }

    #[test]
    fn all_duplicate_timestamps_collapse_to_one_sample() {
        let mut m = TraceMobility::new(vec![
            (t(5.0), Point2::new(1.0, 1.0)),
            (t(5.0), Point2::new(2.0, 2.0)),
            (t(5.0), Point2::new(3.0, 3.0)),
        ]);
        for s in [0.0, 5.0, 50.0] {
            let p = m.position_at(t(s));
            assert_eq!((p.x, p.y), (3.0, 3.0));
        }
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = "# header\n\n0 0 1 2\n  # another\n0 10 3 4\n";
        let trace = MobilityTrace::parse(text.as_bytes()).unwrap();
        assert_eq!(trace.sample_count(), 2);
    }

    #[test]
    fn parse_rejects_malformed() {
        let err = MobilityTrace::parse("0 1 2".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 1, .. }));
        let err = MobilityTrace::parse("x 1 2 3".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }));
        let err = MobilityTrace::parse("0 -5 2 3".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }));
        let err = MobilityTrace::parse("0 nan 2 3".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }));
    }

    #[test]
    fn malformed_error_names_the_file_on_load() {
        let dir = std::env::temp_dir().join("sdsrp_trace_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.trace");
        std::fs::write(&path, "0 1 2\n").unwrap();
        let err = MobilityTrace::load(&path).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("bad.trace:1:"),
            "expected path and line in {text:?}"
        );
        assert!(text.contains("expected 4 fields"), "got {text:?}");

        // In-memory parsing keeps the path-free wording.
        let err = MobilityTrace::parse("0 1 2".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { path: None, .. }));
        assert!(err.to_string().starts_with("trace line 1:"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_rejects_duplicate_timestamps() {
        let err = MobilityTrace::parse("0 5 1 1\n0 5 2 2\n".as_bytes()).unwrap_err();
        assert_eq!(err, TraceError::DuplicateTimestamp { node: 0, time: 5.0 });
    }

    #[test]
    fn unsorted_input_is_sorted_on_finish() {
        let text = "0 10 1 0\n0 0 0 0\n";
        let trace = MobilityTrace::parse(text.as_bytes()).unwrap();
        let s = trace.node_samples(0);
        assert!(s[0].0 < s[1].0);
    }

    #[test]
    fn replay_interpolates_and_clamps() {
        let mut trace = MobilityTrace::with_nodes(1);
        trace.push(0, t(10.0), Point2::new(0.0, 0.0));
        trace.push(0, t(20.0), Point2::new(10.0, 0.0));
        trace.push(0, t(30.0), Point2::new(10.0, 10.0));
        let trace = trace.finish().unwrap();
        let mut replay = trace.replay().remove(0);
        assert_eq!(replay.position_at(t(0.0)), Point2::new(0.0, 0.0)); // clamp front
        assert_eq!(replay.position_at(t(15.0)), Point2::new(5.0, 0.0));
        assert_eq!(replay.position_at(t(25.0)), Point2::new(10.0, 5.0));
        assert_eq!(replay.position_at(t(99.0)), Point2::new(10.0, 10.0)); // clamp back
    }

    #[test]
    fn replay_handles_empty_node() {
        let trace = MobilityTrace::with_nodes(1);
        let trace = trace.finish().unwrap();
        let mut replay = trace.replay().remove(0);
        assert_eq!(replay.position_at(t(5.0)), Point2::default());
    }

    #[test]
    fn recorded_trace_matches_model_at_sample_points() {
        let cfg = RandomWaypointConfig::paper();
        let make = |sub| -> Box<dyn Mobility> {
            Box::new(LegMover::new(
                RandomWaypointPlanner::new(cfg),
                substream_rng(11, streams::MOBILITY, sub),
            ))
        };
        let mut models: Vec<Box<dyn Mobility>> = vec![make(0), make(1)];
        let trace = MobilityTrace::record(&mut models, t(600.0), 30.0);
        assert_eq!(trace.node_count(), 2);
        assert_eq!(trace.sample_count(), 2 * 21);

        // Fresh copies of the same models must agree with the replay at
        // the sampled instants.
        let mut fresh: Vec<Box<dyn Mobility>> = vec![make(0), make(1)];
        let mut replays = trace.replay();
        for k in 0..=20 {
            let tt = t(k as f64 * 30.0);
            for i in 0..2 {
                let a = fresh[i].position_at(tt);
                let b = replays[i].position_at(tt);
                assert!(a.distance(b) < 1e-9, "node {i} diverged at {tt:?}");
            }
        }
    }
}
