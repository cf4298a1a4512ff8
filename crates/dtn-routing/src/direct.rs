//! Direct delivery: the source holds its message until it meets the
//! destination. Zero overhead, minimal delivery ratio — the floor every
//! multi-copy scheme is measured against.

use crate::protocol::{RoutingCtx, RoutingProtocol, TransferKind};
use dtn_core::ids::NodeId;

/// The direct-delivery protocol (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectDelivery;

impl RoutingProtocol for DirectDelivery {
    fn name(&self) -> &'static str {
        "DirectDelivery"
    }

    /// Never relays: only the destination receives.
    fn relay(&self, _: &RoutingCtx, _: NodeId, _: NodeId, _: u32) -> Option<TransferKind> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::time::SimTime;

    #[test]
    fn never_relays() {
        let p = DirectDelivery;
        for (me, peer) in [(0, 3), (3, 0), (4, 5)] {
            let ctx = RoutingCtx {
                me: NodeId(me),
                peer: NodeId(peer),
                now: SimTime::ZERO,
            };
            for copies in [1, 2, 32] {
                assert_eq!(p.relay(&ctx, NodeId(0), NodeId(9), copies), None);
            }
        }
    }
}
