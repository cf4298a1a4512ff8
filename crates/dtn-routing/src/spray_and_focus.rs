//! Spray-and-Focus (Spyropoulos et al., PerCom-W 2007) — extension.
//!
//! The paper's related work \[18\]: identical spray phase, but instead of
//! passively waiting, a single-token copy is *handed off* (moved, not
//! copied) to relays with fresher information about the destination.
//! Utility is the classic last-encounter timer: node `u` forwards to `v`
//! when `v` saw the destination more recently than `u` by at least
//! `handoff_threshold` seconds.
//!
//! Encounter timers are exchanged as gossip at contact setup, exactly
//! like SDSRP's dropped lists, so the whole protocol stays distributed.

use crate::protocol::{RoutingCtx, RoutingProtocol, TransferKind};
use dtn_core::ids::NodeId;
use dtn_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Gossip payload: the sender's last-encounter table.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EncounterGossip {
    // Ordered so the exported bytes are canonical: a HashMap here
    // would serialise in per-instance random order, making the gossip
    // payload bytes (world-state inputs) depend on hasher state.
    last_seen: BTreeMap<NodeId, f64>,
}

/// The Spray-and-Focus protocol state for one node.
#[derive(Debug, Clone)]
pub struct SprayAndFocus {
    /// When this node last met each peer.
    last_seen: HashMap<NodeId, SimTime>,
    /// The encounter table most recently gossiped by each peer.
    peer_tables: HashMap<NodeId, BTreeMap<NodeId, f64>>,
    /// Minimum freshness advantage (seconds) required to hand off.
    handoff_threshold: f64,
}

impl SprayAndFocus {
    /// Creates the protocol with the given focus-handoff threshold
    /// (seconds of last-encounter advantage the relay must have).
    pub fn new(handoff_threshold: f64) -> Self {
        assert!(
            handoff_threshold >= 0.0,
            "handoff threshold must be non-negative"
        );
        SprayAndFocus {
            last_seen: HashMap::new(),
            peer_tables: HashMap::new(),
            handoff_threshold,
        }
    }

    /// This node's last encounter with `node`, if any.
    pub fn last_seen(&self, node: NodeId) -> Option<SimTime> {
        self.last_seen.get(&node).copied()
    }

    fn peer_last_seen(&self, peer: NodeId, dest: NodeId) -> Option<f64> {
        self.peer_tables.get(&peer)?.get(&dest).copied()
    }

    /// The focus rule: should a single-token copy move to `peer`?
    fn should_handoff(&self, peer: NodeId, dest: NodeId) -> bool {
        let Some(peer_saw) = self.peer_last_seen(peer, dest) else {
            return false; // peer knows nothing about the destination
        };
        match self.last_seen.get(&dest) {
            // Peer must be fresher by the threshold.
            Some(mine) => peer_saw >= mine.as_secs() + self.handoff_threshold,
            // We have never met the destination: any knowledge wins.
            None => true,
        }
    }
}

impl RoutingProtocol for SprayAndFocus {
    fn name(&self) -> &'static str {
        "SprayAndFocus"
    }

    fn relay(
        &self,
        ctx: &RoutingCtx,
        _source: NodeId,
        destination: NodeId,
        copies: u32,
    ) -> Option<TransferKind> {
        if copies > 1 {
            // Spray phase: binary split, as in Spray-and-Wait.
            return Some(TransferKind::Replicate {
                sender_keeps: copies - copies / 2,
                receiver_gets: copies / 2,
            });
        }
        // Focus phase: utility-based handoff.
        self.should_handoff(ctx.peer, destination)
            .then_some(TransferKind::Handoff)
    }

    fn on_contact_up(&mut self, now: SimTime, peer: NodeId) {
        self.last_seen.insert(peer, now);
    }

    fn on_contact_down(&mut self, now: SimTime, peer: NodeId) {
        // The *end* of a contact is the most recent sighting.
        self.last_seen.insert(peer, now);
        // The peer's table snapshot is stale once they leave.
        self.peer_tables.remove(&peer);
    }

    fn export_gossip(&mut self, _now: SimTime) -> Option<Vec<u8>> {
        if self.last_seen.is_empty() {
            return None;
        }
        let payload = EncounterGossip {
            last_seen: self
                .last_seen
                .iter()
                .map(|(&n, &t)| (n, t.as_secs()))
                .collect(),
        };
        Some(serde_json::to_vec(&payload).expect("encounter table serialises"))
    }

    fn import_gossip(&mut self, _now: SimTime, peer: NodeId, bytes: &[u8]) {
        if let Ok(g) = serde_json::from_slice::<EncounterGossip>(bytes) {
            self.peer_tables.insert(peer, g.last_seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ctx(peer: u32, now: f64) -> RoutingCtx {
        RoutingCtx {
            me: NodeId(0),
            peer: NodeId(peer),
            now: t(now),
        }
    }

    /// How `p` relays a single-token copy bound for node 9 to node 2.
    fn focus(p: &SprayAndFocus, now: f64) -> Option<TransferKind> {
        p.relay(&ctx(2, now), NodeId(0), NodeId(9), 1)
    }

    #[test]
    fn spray_phase_matches_spray_and_wait() {
        let p = SprayAndFocus::new(60.0);
        assert_eq!(
            p.relay(&ctx(2, 0.0), NodeId(0), NodeId(9), 8),
            Some(TransferKind::Replicate {
                sender_keeps: 4,
                receiver_gets: 4
            })
        );
    }

    #[test]
    fn focus_handoff_requires_fresher_peer() {
        let mut me = SprayAndFocus::new(60.0);
        let mut relay = SprayAndFocus::new(60.0);
        // I met the destination (node 9) at t = 100; the relay met it at
        // t = 500.
        me.on_contact_up(t(100.0), NodeId(9));
        me.on_contact_down(t(110.0), NodeId(9));
        relay.on_contact_up(t(500.0), NodeId(9));
        relay.on_contact_down(t(510.0), NodeId(9));
        // Contact me <-> relay at t = 600 with gossip exchange.
        me.on_contact_up(t(600.0), NodeId(2));
        let payload = relay.export_gossip(t(600.0)).unwrap();
        me.import_gossip(t(600.0), NodeId(2), &payload);

        assert_eq!(focus(&me, 600.0), Some(TransferKind::Handoff));
    }

    #[test]
    fn no_handoff_to_stale_peer() {
        let mut me = SprayAndFocus::new(60.0);
        let mut relay = SprayAndFocus::new(60.0);
        me.on_contact_down(t(500.0), NodeId(9));
        relay.on_contact_down(t(100.0), NodeId(9));
        me.on_contact_up(t(600.0), NodeId(2));
        let payload = relay.export_gossip(t(600.0)).unwrap();
        me.import_gossip(t(600.0), NodeId(2), &payload);
        assert_eq!(focus(&me, 600.0), None);
    }

    #[test]
    fn threshold_blocks_marginal_advantage() {
        let mut me = SprayAndFocus::new(60.0);
        let mut relay = SprayAndFocus::new(60.0);
        me.on_contact_down(t(100.0), NodeId(9));
        relay.on_contact_down(t(130.0), NodeId(9)); // only 30 s fresher
        me.on_contact_up(t(600.0), NodeId(2));
        let payload = relay.export_gossip(t(600.0)).unwrap();
        me.import_gossip(t(600.0), NodeId(2), &payload);
        assert_eq!(focus(&me, 600.0), None);
    }

    #[test]
    fn handoff_when_i_never_met_destination() {
        let mut me = SprayAndFocus::new(60.0);
        let mut relay = SprayAndFocus::new(60.0);
        relay.on_contact_down(t(400.0), NodeId(9));
        me.on_contact_up(t(600.0), NodeId(2));
        let payload = relay.export_gossip(t(600.0)).unwrap();
        me.import_gossip(t(600.0), NodeId(2), &payload);
        assert_eq!(focus(&me, 600.0), Some(TransferKind::Handoff));
    }

    #[test]
    fn no_gossip_no_handoff() {
        let me = SprayAndFocus::new(60.0);
        assert_eq!(focus(&me, 600.0), None);
    }

    #[test]
    fn contact_down_clears_peer_snapshot() {
        let mut me = SprayAndFocus::new(0.0);
        let mut relay = SprayAndFocus::new(0.0);
        relay.on_contact_down(t(400.0), NodeId(9));
        let payload = relay.export_gossip(t(600.0)).unwrap();
        me.import_gossip(t(600.0), NodeId(2), &payload);
        assert!(me.should_handoff(NodeId(2), NodeId(9)));
        me.on_contact_down(t(700.0), NodeId(2));
        assert!(!me.should_handoff(NodeId(2), NodeId(9)));
    }

    #[test]
    fn empty_table_exports_nothing() {
        let mut p = SprayAndFocus::new(0.0);
        assert_eq!(p.export_gossip(t(0.0)), None);
    }
}
