//! PRoPHET — Probabilistic Routing Protocol using History of Encounters
//! and Transitivity (Lindgren, Doria & Schelén, 2003). Extension beyond
//! the paper: the adaptive-spray related work the paper cites (\[19\],
//! \[20\]) builds on exactly this delivery-predictability metric, so a
//! faithful PRoPHET rounds out the routing substrate.
//!
//! Every node maintains delivery predictabilities `P(this, x) ∈ [0, 1]`:
//!
//! * **Direct update** on meeting `b`:
//!   `P(a,b) <- P(a,b) + (1 - P(a,b)) * P_INIT`.
//! * **Aging** with elapsed time:
//!   `P(a,x) <- P(a,x) * γ^(Δt)` (γ per second).
//! * **Transitivity** via the freshly met peer's gossiped table:
//!   `P(a,c) <- max(P(a,c), P(a,b) * P(b,c) * β)`.
//!
//! Forwarding: replicate a message to the peer when the peer's
//! predictability for the destination exceeds ours (copies are not
//! token-limited; the receiver starts a fresh single-token copy, like
//! Epidemic but selective).

use crate::protocol::{RoutingCtx, RoutingProtocol, TransferKind};
use dtn_core::ids::NodeId;
use dtn_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// PRoPHET constants (defaults from the original paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProphetConfig {
    /// Predictability boost on a direct encounter (`P_INIT`).
    pub p_init: f64,
    /// Transitivity damping (`β`).
    pub beta: f64,
    /// Aging base per second (`γ`); 1.0 disables aging.
    pub gamma: f64,
}

impl Default for ProphetConfig {
    fn default() -> Self {
        ProphetConfig {
            p_init: 0.75,
            beta: 0.25,
            // The original paper uses γ = 0.98 per time unit; with
            // seconds as the unit that decays far too fast for
            // multi-hour DTN scenarios, so the default here halves
            // predictability roughly every 20 min.
            gamma: 0.9994,
        }
    }
}

impl ProphetConfig {
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.p_init),
            "P_INIT must be a probability"
        );
        assert!((0.0..=1.0).contains(&self.beta), "beta must be in [0,1]");
        assert!(
            self.gamma > 0.0 && self.gamma <= 1.0,
            "gamma must be in (0,1]"
        );
    }
}

/// Gossip payload: the sender's aged predictability table.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ProphetGossip {
    // Ordered for canonical payload bytes (see EncounterGossip).
    table: BTreeMap<NodeId, f64>,
}

/// The PRoPHET protocol state for one node.
#[derive(Debug, Clone)]
pub struct Prophet {
    cfg: ProphetConfig,
    /// Delivery predictabilities for every known node.
    table: HashMap<NodeId, f64>,
    /// Last time `table` was aged.
    last_aged: SimTime,
    /// Most recent gossiped table per currently-connected peer.
    peer_tables: HashMap<NodeId, BTreeMap<NodeId, f64>>,
}

impl Prophet {
    /// Creates the protocol with the given constants.
    pub fn new(cfg: ProphetConfig) -> Self {
        cfg.validate();
        Prophet {
            cfg,
            table: HashMap::new(),
            last_aged: SimTime::ZERO,
            peer_tables: HashMap::new(),
        }
    }

    /// Ages all predictabilities to `now`.
    fn age(&mut self, now: SimTime) {
        let dt = (now - self.last_aged).as_secs();
        if dt <= 0.0 {
            return;
        }
        if self.cfg.gamma < 1.0 {
            let factor = self.cfg.gamma.powf(dt);
            for p in self.table.values_mut() {
                *p *= factor;
            }
            self.table.retain(|_, p| *p > 1e-6);
        }
        self.last_aged = now;
    }

    /// This node's current predictability for `dest`.
    pub fn predictability(&self, dest: NodeId) -> f64 {
        self.table.get(&dest).copied().unwrap_or(0.0)
    }

    fn peer_predictability(&self, peer: NodeId, dest: NodeId) -> f64 {
        self.peer_tables
            .get(&peer)
            .and_then(|t| t.get(&dest))
            .copied()
            .unwrap_or(0.0)
    }
}

impl RoutingProtocol for Prophet {
    fn name(&self) -> &'static str {
        "PRoPHET"
    }

    fn relay(
        &self,
        ctx: &RoutingCtx,
        _source: NodeId,
        destination: NodeId,
        copies: u32,
    ) -> Option<TransferKind> {
        let mine = self.predictability(destination);
        let theirs = self.peer_predictability(ctx.peer, destination);
        (theirs > mine).then_some(TransferKind::Replicate {
            sender_keeps: copies,
            receiver_gets: 1,
        })
    }

    fn on_contact_up(&mut self, now: SimTime, peer: NodeId) {
        self.age(now);
        let p = self.table.entry(peer).or_insert(0.0);
        *p += (1.0 - *p) * self.cfg.p_init;
    }

    fn on_contact_down(&mut self, _now: SimTime, peer: NodeId) {
        self.peer_tables.remove(&peer);
    }

    fn export_gossip(&mut self, now: SimTime) -> Option<Vec<u8>> {
        self.age(now);
        if self.table.is_empty() {
            return None;
        }
        let payload = ProphetGossip {
            table: self.table.iter().map(|(&n, &p)| (n, p)).collect(),
        };
        Some(serde_json::to_vec(&payload).expect("prophet table serialises"))
    }

    fn import_gossip(&mut self, now: SimTime, peer: NodeId, bytes: &[u8]) {
        let Ok(g) = serde_json::from_slice::<ProphetGossip>(bytes) else {
            return;
        };
        self.age(now);
        // Transitivity through the peer we are talking to.
        let p_ab = self.predictability(peer);
        for (&c, &p_bc) in &g.table {
            let via = p_ab * p_bc * self.cfg.beta;
            let entry = self.table.entry(c).or_insert(0.0);
            if via > *entry {
                *entry = via;
            }
        }
        self.peer_tables.insert(peer, g.table);
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

    #[test]
    fn direct_encounters_raise_predictability() {
        let mut p = Prophet::new(ProphetConfig::default());
        assert_eq!(p.predictability(NodeId(5)), 0.0);
        p.on_contact_up(t(10.0), NodeId(5));
        assert!((p.predictability(NodeId(5)) - 0.75).abs() < 1e-12);
        p.on_contact_up(t(20.0), NodeId(5));
        // 0.75 aged for 10 s then boosted: strictly above 0.75.
        assert!(p.predictability(NodeId(5)) > 0.75);
        assert!(p.predictability(NodeId(5)) < 1.0);
    }

    #[test]
    fn predictability_ages() {
        let cfg = ProphetConfig {
            gamma: 0.99, // fast decay for the test
            ..Default::default()
        };
        let mut p = Prophet::new(cfg);
        p.on_contact_up(t(0.0), NodeId(5));
        let before = p.predictability(NodeId(5));
        p.age(t(100.0));
        let after = p.predictability(NodeId(5));
        assert!(after < before * 0.5, "aging too weak: {before} -> {after}");
    }

    #[test]
    fn transitivity_via_gossip() {
        let mut a = Prophet::new(ProphetConfig::default());
        let mut b = Prophet::new(ProphetConfig::default());
        // b knows the destination 9 well.
        b.on_contact_up(t(0.0), NodeId(9));
        // a meets b.
        a.on_contact_up(t(10.0), NodeId(1));
        let payload = b.export_gossip(t(10.0)).unwrap();
        a.import_gossip(t(10.0), NodeId(1), &payload);
        // P(a,9) >= P(a,b) * P(b,9) * beta = 0.75 * ~0.75 * 0.25.
        let p = a.predictability(NodeId(9));
        assert!(p > 0.13, "transitivity too weak: {p}");
        assert!(p < 0.75);
    }

    #[test]
    fn forwards_only_to_better_relays() {
        let mut me = Prophet::new(ProphetConfig::default());
        let mut relay = Prophet::new(ProphetConfig::default());
        relay.on_contact_up(t(0.0), NodeId(9)); // relay knows dest
        me.on_contact_up(t(10.0), NodeId(2)); // me meets relay
        let payload = relay.export_gossip(t(10.0)).unwrap();
        me.import_gossip(t(10.0), NodeId(2), &payload);

        assert_eq!(
            me.relay(&ctx(2, 10.0), NodeId(0), NodeId(9), 1),
            Some(TransferKind::Replicate {
                sender_keeps: 1,
                receiver_gets: 1
            })
        );
        // A peer with no knowledge is not a better relay.
        let mut me2 = Prophet::new(ProphetConfig::default());
        me2.on_contact_up(t(10.0), NodeId(2));
        assert_eq!(me2.relay(&ctx(2, 10.0), NodeId(0), NodeId(9), 1), None);
    }

    #[test]
    fn malformed_gossip_is_ignored() {
        let mut p = Prophet::new(ProphetConfig::default());
        p.import_gossip(t(0.0), NodeId(1), b"not json at all");
        assert_eq!(p.predictability(NodeId(1)), 0.0);
    }

    #[test]
    fn contact_down_clears_peer_table() {
        let mut me = Prophet::new(ProphetConfig::default());
        let mut relay = Prophet::new(ProphetConfig::default());
        relay.on_contact_up(t(0.0), NodeId(9));
        me.on_contact_up(t(10.0), NodeId(2));
        let payload = relay.export_gossip(t(10.0)).unwrap();
        me.import_gossip(t(10.0), NodeId(2), &payload);
        assert!(me.peer_predictability(NodeId(2), NodeId(9)) > 0.0);
        me.on_contact_down(t(20.0), NodeId(2));
        assert_eq!(me.peer_predictability(NodeId(2), NodeId(9)), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_config_rejected() {
        let _ = Prophet::new(ProphetConfig {
            p_init: 1.5,
            ..Default::default()
        });
    }
}
