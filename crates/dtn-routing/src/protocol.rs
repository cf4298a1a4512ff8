//! The routing-protocol abstraction.

use dtn_core::ids::NodeId;
use dtn_core::time::SimTime;

/// How a message moves across one contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// The peer *is* the destination: transfer the payload; the receiver
    /// registers a delivery. The sender keeps its copy (the paper uses
    /// no ACK/immunity mechanism). The simulator chooses this itself; no
    /// router's [`RoutingProtocol::relay`] returns it.
    Delivery,
    /// Copy the message; afterwards the sender holds `sender_keeps`
    /// tokens and the receiver `receiver_gets`. A binary spray sets
    /// `⌈C/2⌉ / ⌊C/2⌋`, Epidemic `C / 1`.
    Replicate {
        /// Tokens the sender retains.
        sender_keeps: u32,
        /// Tokens handed to the receiver.
        receiver_gets: u32,
    },
    /// Move the message: the receiver takes all tokens and the sender
    /// deletes its copy (Spray-and-Focus's focus phase).
    Handoff,
}

/// Per-decision context.
#[derive(Debug, Clone, Copy)]
pub struct RoutingCtx {
    /// The sending node.
    pub me: NodeId,
    /// The peer on the other side of the contact.
    pub peer: NodeId,
    /// Decision time.
    pub now: SimTime,
}

/// A DTN routing protocol: the relay rule for one copy plus optional
/// distributed state maintained through contact hooks and gossip.
///
/// The simulator applies the rules every router shares before it asks:
/// a copy is delivered when the peer is its destination, and nothing is
/// sent to a peer that buffers the message, was delivered it or holds
/// its antipacket. A router answers only for the rest.
///
/// One instance exists per node (protocols may keep per-node state such
/// as last-encounter timers).
pub trait RoutingProtocol: Send {
    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// How may a copy of the message from `source` to `destination`,
    /// holding `copies` tokens at `ctx.me`, move to `ctx.peer`? The peer
    /// is not the destination and neither holds nor knows the message.
    /// `None` keeps the copy where it is.
    fn relay(
        &self,
        ctx: &RoutingCtx,
        source: NodeId,
        destination: NodeId,
        copies: u32,
    ) -> Option<TransferKind>;

    /// Contact-up hook (update last-encounter timers and the like).
    fn on_contact_up(&mut self, _now: SimTime, _peer: NodeId) {}

    /// Contact-down hook.
    fn on_contact_down(&mut self, _now: SimTime, _peer: NodeId) {}

    /// Control-plane payload offered to a newly met peer (e.g.
    /// Spray-and-Focus encounter timers).
    fn export_gossip(&mut self, _now: SimTime) -> Option<Vec<u8>> {
        None
    }

    /// Ingests a peer's gossip. `peer` identifies the sender.
    fn import_gossip(&mut self, _now: SimTime, _peer: NodeId, _bytes: &[u8]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectDelivery;
    use crate::epidemic::Epidemic;
    use crate::prophet::{Prophet, ProphetConfig};
    use crate::spray_and_focus::SprayAndFocus;
    use crate::SprayAndWait;

    /// Delivery is the simulator's rule: whatever a router knows, its
    /// relay answer is a replication, a handoff or nothing.
    #[test]
    fn no_router_returns_delivery() {
        let now = SimTime::from_secs(100.0);
        // Stateful routers that have met the destination (node 9) and
        // heard from a peer (node 2) that met it more recently.
        let mut prophet = Prophet::new(ProphetConfig::default());
        let mut focus = SprayAndFocus::new(0.0);
        let mut peer_prophet = Prophet::new(ProphetConfig::default());
        let mut peer_focus = SprayAndFocus::new(0.0);
        peer_prophet.on_contact_up(SimTime::from_secs(50.0), NodeId(9));
        peer_focus.on_contact_down(SimTime::from_secs(50.0), NodeId(9));
        focus.on_contact_down(SimTime::from_secs(10.0), NodeId(9));
        let bytes = peer_prophet.export_gossip(now).unwrap();
        prophet.import_gossip(now, NodeId(2), &bytes);
        let bytes = peer_focus.export_gossip(now).unwrap();
        focus.import_gossip(now, NodeId(2), &bytes);
        let routers: [&dyn RoutingProtocol; 6] = [
            &SprayAndWait::binary(),
            &SprayAndWait::source(),
            &Epidemic,
            &DirectDelivery,
            &prophet,
            &focus,
        ];
        let mut relayed = 0;
        for router in routers {
            for (me, peer) in [(0, 2), (3, 2), (0, 9), (3, 9)] {
                let ctx = RoutingCtx {
                    me: NodeId(me),
                    peer: NodeId(peer),
                    now,
                };
                for copies in [1, 2, 16] {
                    let kind = router.relay(&ctx, NodeId(0), NodeId(9), copies);
                    assert_ne!(kind, Some(TransferKind::Delivery), "{}", router.name());
                    relayed += usize::from(kind.is_some());
                }
            }
        }
        assert!(relayed > 0);
    }
}
