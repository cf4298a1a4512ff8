//! Per-run provenance: what ran, with which configuration, and what
//! came out.
//!
//! A [`RunManifest`] is written next to any event export so results can
//! be tied back to the exact configuration (via a content hash), seed
//! and policy that produced them, and so two runs can be compared
//! field-by-field with [`RunManifest::diff`].

use crate::event::EventTotals;
use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// FNV-1a 64-bit hash of a canonical config JSON string, rendered as 16
/// lowercase hex digits. Stable across runs and platforms.
pub fn hash_config_json(json: &str) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in json.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

/// Provenance and outcome summary for one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Human-readable scenario label (preset or config file name).
    pub scenario: String,
    /// FNV-1a hash of the canonical config JSON.
    pub config_hash: String,
    /// The canonical config JSON itself, embedded so a manifest alone
    /// is enough to re-run (deterministically replay) the scenario.
    /// Absent in manifests written before replay support existed.
    #[serde(default)]
    pub config: Option<String>,
    /// RNG seed the run used.
    pub seed: u64,
    /// Buffer-management policy name.
    pub policy: String,
    /// Routing protocol name.
    pub routing: String,
    /// Simulated duration, seconds.
    pub sim_duration_secs: f64,
    /// Wall-clock duration of the run, seconds.
    pub wall_clock_secs: f64,
    /// Messages created (post-warmup), from the report.
    pub created: u64,
    /// Unique messages delivered, from the report.
    pub delivered: u64,
    /// Buffer drops + incoming rejects, from the report.
    pub dropped: u64,
    /// Per-kind event totals from the recorder.
    pub events: EventTotals,
    /// Total events recorded (sum over `events`).
    pub events_recorded: u64,
    /// Events that fell off the in-memory ring.
    pub ring_overwritten: u64,
    /// Frozen metrics registry contents.
    pub metrics: MetricsSnapshot,
}

impl RunManifest {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialises")
    }

    /// Field-by-field comparison with another manifest. Returns one
    /// `"path: mine -> theirs"` line per differing leaf, in a stable
    /// order; empty when the manifests are identical.
    pub fn diff(&self, other: &RunManifest) -> Vec<String> {
        diff_json(&serde_json::to_value(self), &serde_json::to_value(other))
    }
}

/// Structural diff of two JSON values: one `"path: mine -> theirs"`
/// line per differing leaf, objects walked in `mine`'s key order, then
/// keys only `theirs` has; array elements are addressed as `path[i]`.
/// Empty when the values are equal.
pub fn diff_json(mine: &Value, theirs: &Value) -> Vec<String> {
    let mut out = Vec::new();
    diff_value("", mine, theirs, &mut out);
    out
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "?".into())
}

fn diff_value(path: &str, a: &Value, b: &Value, out: &mut Vec<String>) {
    let join = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match (a, b) {
        (Value::Object(ka), Value::Object(kb)) => {
            for (key, va) in ka.iter() {
                match kb.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                    Some(vb) => diff_value(&join(key), va, vb, out),
                    None => out.push(format!("{}: {} -> (absent)", join(key), render(va))),
                }
            }
            for (key, vb) in kb.iter() {
                if !ka.iter().any(|(k, _)| k == key) {
                    out.push(format!("{}: (absent) -> {}", join(key), render(vb)));
                }
            }
        }
        (Value::Array(xa), Value::Array(xb)) => {
            let shared = xa.len().min(xb.len());
            for (i, (va, vb)) in xa.iter().zip(xb.iter()).enumerate() {
                diff_value(&format!("{path}[{i}]"), va, vb, out);
            }
            for (i, va) in xa.iter().enumerate().skip(shared) {
                out.push(format!("{path}[{i}]: {} -> (absent)", render(va)));
            }
            for (i, vb) in xb.iter().enumerate().skip(shared) {
                out.push(format!("{path}[{i}]: (absent) -> {}", render(vb)));
            }
        }
        _ if a != b => out.push(format!("{path}: {} -> {}", render(a), render(b))),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            scenario: "smoke".into(),
            config_hash: hash_config_json("{\"n\":1}"),
            config: Some("{\"n\":1}".into()),
            seed: 42,
            policy: "sdsrp".into(),
            routing: "spray_and_wait".into(),
            sim_duration_secs: 600.0,
            wall_clock_secs: 0.5,
            created: 10,
            delivered: 7,
            dropped: 3,
            events: EventTotals::default(),
            events_recorded: 0,
            ring_overwritten: 0,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = hash_config_json("{\"n\":1}");
        assert_eq!(a, hash_config_json("{\"n\":1}"));
        assert_ne!(a, hash_config_json("{\"n\":2}"));
        assert_eq!(a.len(), 16);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
        // Known FNV-1a 64 vector.
        assert_eq!(hash_config_json(""), "cbf29ce484222325");
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let back: RunManifest = serde_json::from_str(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn diff_reports_changed_leaves_only() {
        let a = sample();
        assert!(a.diff(&a).is_empty());
        let mut b = sample();
        b.seed = 43;
        b.delivered = 8;
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|l| l == "seed: 42 -> 43"));
        assert!(d.iter().any(|l| l == "delivered: 7 -> 8"));
    }

    #[test]
    fn config_field_defaults_when_absent() {
        let mut m = sample();
        m.config = None;
        let json = m.to_json();
        // A pre-replay manifest has no "config" key at all; it must
        // still parse, defaulting to None.
        let stripped: String = json
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"config\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back: RunManifest = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.config, None);
        assert_eq!(back.seed, m.seed);
    }

    #[test]
    fn diff_descends_into_event_totals() {
        let a = sample();
        let mut b = sample();
        b.events.delivered = 5;
        let d = a.diff(&b);
        assert_eq!(d, vec!["events.delivered: 0 -> 5".to_string()]);
    }
}
