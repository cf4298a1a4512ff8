//! Integer-only run fingerprints for bit-identical replay comparison
//! and golden-snapshot tests.
//!
//! Every field is a `u64` (ratios are scaled to micro/milli units), so
//! the canonical JSON rendering is byte-stable across platforms — no
//! float formatting in the committed snapshot, and `Eq` holds.

use dtn_telemetry::EventTotals;
use serde::{Deserialize, Serialize};

/// A deterministic digest of one simulation run: the report's counters
/// and derived metrics (fixed-point scaled), plus the per-kind event
/// totals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportFingerprint {
    /// Messages created after warm-up.
    pub created: u64,
    /// Copy transmissions (replications + handoffs).
    pub transmissions: u64,
    /// Delivery events, duplicates included.
    pub delivered_events: u64,
    /// Unique messages delivered.
    pub delivered_unique: u64,
    /// Residents evicted by buffer management.
    pub buffer_drops: u64,
    /// Incoming messages refused admission.
    pub incoming_rejects: u64,
    /// Buffered copies purged by TTL expiry.
    pub expirations: u64,
    /// Transfers aborted mid-flight.
    pub aborted_transfers: u64,
    /// Receipts refused via the dropped list.
    pub refused_receipts: u64,
    /// Copies purged by immunity mechanisms.
    pub immunity_purges: u64,
    /// Delivery ratio scaled by 1e6 and truncated.
    pub delivery_ratio_micro: u64,
    /// Overhead ratio scaled by 1e3 and truncated.
    pub overhead_milli: u64,
    /// Average delivered hop count scaled by 1e3 and truncated.
    pub avg_hopcount_milli: u64,
    /// Average delivery latency (seconds) scaled by 1e3 and truncated.
    pub avg_latency_milli: u64,
    /// Per-kind structured-event totals.
    pub events: EventTotals,
}

impl ReportFingerprint {
    /// Scales a non-negative float metric to fixed point, truncating.
    pub fn scale(value: f64, factor: f64) -> u64 {
        if value.is_finite() && value > 0.0 {
            (value * factor) as u64
        } else {
            0
        }
    }

    /// Canonical pretty-JSON rendering — the byte-stable form used for
    /// committed golden snapshots. Field order is the declaration
    /// order, values are integers only.
    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("fingerprint serialises");
        s.push('\n');
        s
    }

    /// Parses a canonical rendering back.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad fingerprint JSON: {e:?}"))
    }

    /// Field-level differences vs `other` as `"path: mine -> theirs"`
    /// lines; empty when the fingerprints are identical.
    pub fn diff(&self, other: &ReportFingerprint) -> Vec<String> {
        dtn_telemetry::diff_json(&serde_json::to_value(self), &serde_json::to_value(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReportFingerprint {
        ReportFingerprint {
            created: 100,
            transmissions: 850,
            delivered_events: 60,
            delivered_unique: 55,
            buffer_drops: 30,
            incoming_rejects: 12,
            expirations: 8,
            aborted_transfers: 3,
            refused_receipts: 5,
            immunity_purges: 0,
            delivery_ratio_micro: 550_000,
            overhead_milli: 14_454,
            avg_hopcount_milli: 2_340,
            avg_latency_milli: 812_500,
            events: EventTotals {
                generated: 100,
                replicated: 850,
                delivered: 60,
                delivered_first: 55,
                ..EventTotals::default()
            },
        }
    }

    #[test]
    fn canonical_json_roundtrips_byte_identically() {
        let fp = sample();
        let json = fp.to_canonical_json();
        let back = ReportFingerprint::from_json(&json).unwrap();
        assert_eq!(back, fp);
        assert_eq!(back.to_canonical_json(), json);
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn scale_truncates_and_guards() {
        assert_eq!(ReportFingerprint::scale(0.5534, 1e6), 553_400);
        assert_eq!(ReportFingerprint::scale(0.0, 1e3), 0);
        assert_eq!(ReportFingerprint::scale(f64::NAN, 1e3), 0);
        assert_eq!(ReportFingerprint::scale(-1.0, 1e3), 0);
    }

    #[test]
    fn diff_pinpoints_changed_fields() {
        let a = sample();
        let mut b = sample();
        assert!(a.diff(&b).is_empty());
        b.delivered_unique = 54;
        b.events.replicated = 851;
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert!(d
            .iter()
            .any(|l| l.starts_with("delivered_unique: 55 -> 54")));
        assert!(d
            .iter()
            .any(|l| l.starts_with("events.replicated: 850 -> 851")));
    }
}
