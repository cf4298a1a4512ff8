//! Contact up/down handlers: link state, control-plane gossip, and the
//! antipacket exchange. Dispatched from the contact phase (and from
//! fault injection, which forces contacts down through the same path).

use super::*;
use dtn_buffer::policy::BufferPolicy;
use sdsrp_core::{GossipTally, Sdsrp};

impl World {
    /// Runs `detect` for a batch of contact events (the tracker
    /// guarantees Down before Up, in sorted-pair order), records them in
    /// the contact trace, dispatches each to its handler and marks both
    /// endpoints for the next rearm phase. The contact phase and fault
    /// injection both land here.
    pub(super) fn dispatch_contacts(
        &mut self,
        detect: impl FnOnce(&mut Self, &mut Vec<ContactEvent>),
    ) {
        let mut events = std::mem::take(&mut self.scratch_events);
        events.clear();
        detect(self, &mut events);
        for ev in &events {
            if let Some(trace) = self.contact_trace.as_mut() {
                trace.record(*ev);
            }
            let pair = ev.pair();
            match *ev {
                ContactEvent::Down { .. } => self.on_contact_down(pair),
                ContactEvent::Up { .. } => self.on_contact_up(pair),
            }
            self.woken.extend([pair.lo(), pair.hi()]);
        }
        self.scratch_events = events;
    }

    pub(super) fn on_contact_up(&mut self, pair: NodePair) {
        self.links.insert(pair, LinkState::default());
        self.adjacency[pair.lo().index()].push(pair.hi());
        self.adjacency[pair.hi().index()].push(pair.lo());
        let now = self.now;
        let t = now.as_secs();
        let (lo, hi) = (pair.lo().0, pair.hi().0);
        self.recorder
            .record(|| SimEvent::ContactUp { t, a: lo, b: hi });
        let (a, b) = two_nodes(&mut self.nodes, pair.lo(), pair.hi());
        a.policy.on_contact_up(now, b.id);
        b.policy.on_contact_up(now, a.id);
        a.routing.on_contact_up(now, b.id);
        b.routing.on_contact_up(now, a.id);
        if let (Some(v), Some(truth)) = (self.validator.as_mut(), self.truth.as_ref()) {
            // The validator audits each side's whole record set, as it
            // stands before the exchange.
            for node in [&mut *a, &mut *b] {
                if let Some(bytes) = node.policy.export_gossip(now) {
                    v.on_gossip_export(truth, now, node.id, &bytes);
                }
            }
        }
        let gossip = exchange_policy_gossip(a, b, now);
        if let Some(m) = &self.metrics {
            let metrics = self.recorder.metrics_mut();
            metrics.inc(m.gossip_summary_bytes, gossip.summary_bytes);
            metrics.inc(m.gossip_payload_bytes, gossip.payload_bytes);
        }
        let ra = a.routing.export_gossip(now);
        let rb = b.routing.export_gossip(now);
        // Both routing exports come before either import, like the
        // policy gossip. A node's policy and routing share no state.
        for (node, from, adopted, routing) in [
            (&mut *a, pair.hi(), gossip.adopted[0], rb),
            (&mut *b, pair.lo(), gossip.adopted[1], ra),
        ] {
            if adopted > 0 {
                self.recorder.record(|| SimEvent::GossipMerged {
                    t,
                    node: node.id.0,
                    from: from.0,
                    records: adopted as u64,
                });
            }
            if let Some(bytes) = routing {
                node.routing.import_gossip(now, from, &bytes);
            }
        }
        if self.cfg.immunity == ImmunityMode::AntipacketGossip {
            // Antipacket exchange: union the acknowledged-id sets, then
            // purge newly-learned dead copies on both sides.
            let from_b: Vec<MessageId> = b.acked.difference(&a.acked).copied().collect();
            let from_a: Vec<MessageId> = a.acked.difference(&b.acked).copied().collect();
            a.acked.extend(from_b);
            b.acked.extend(from_a);
            self.purge_acked(pair.lo());
            self.purge_acked(pair.hi());
        }
        self.try_start_transfer(pair);
    }

    pub(super) fn on_contact_down(&mut self, pair: NodePair) {
        if let Some(state) = self.links.remove(&pair) {
            if state.in_flight.is_some() {
                self.report.on_aborted_transfer();
            }
            for (node, peer) in [(pair.lo(), pair.hi()), (pair.hi(), pair.lo())] {
                let peers = &mut self.adjacency[node.index()];
                let at = peers.iter().position(|&p| p == peer);
                peers.swap_remove(at.expect("a live link is in both peer lists"));
            }
        }
        let now = self.now;
        let t = now.as_secs();
        let (lo, hi) = (pair.lo().0, pair.hi().0);
        self.recorder
            .record(|| SimEvent::ContactDown { t, a: lo, b: hi });
        let (a, b) = two_nodes(&mut self.nodes, pair.lo(), pair.hi());
        a.policy.on_contact_down(now, b.id);
        b.policy.on_contact_down(now, a.id);
        a.routing.on_contact_down(now, b.id);
        b.routing.on_contact_down(now, a.id);
    }
}

/// Buffer-policy gossip (dropped lists), both ways. Two SDSRP policies
/// whose lists share the world's store exchange in place
/// ([`Sdsrp::exchange_gossip`]), counting the summaries and suffix
/// answers a radio would send. Any other pair — a wrapped policy, or
/// lists of different stores — hands each side's whole
/// [`export_gossip`](BufferPolicy::export_gossip) to the other's
/// [`import_gossip`](BufferPolicy::import_gossip), both exports before
/// either import, so neither side sees the other's merged state; it
/// sends no summary. Returns the bytes on the wire and the records each
/// side adopted.
fn exchange_policy_gossip(a: &mut Node, b: &mut Node, now: SimTime) -> GossipTally {
    if let (Some(pa), Some(pb)) = (as_sdsrp(&mut *a.policy), as_sdsrp(&mut *b.policy)) {
        if let Some(tally) = Sdsrp::exchange_gossip(pa, pb) {
            return tally;
        }
    }
    let ga = a.policy.export_gossip(now);
    let gb = b.policy.export_gossip(now);
    let len = |g: &Option<Vec<u8>>| g.as_ref().map_or(0, |g| g.len() as u64);
    let import =
        |node: &mut Node, g: Option<Vec<u8>>| g.map_or(0, |g| node.policy.import_gossip(now, &g));
    GossipTally {
        summary_bytes: 0,
        payload_bytes: len(&ga) + len(&gb),
        adopted: [import(a, gb), import(b, ga)],
    }
}

fn as_sdsrp(policy: &mut dyn BufferPolicy) -> Option<&mut Sdsrp> {
    policy.as_any_mut()?.downcast_mut()
}
