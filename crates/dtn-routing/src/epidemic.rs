//! Epidemic routing (Vahdat & Becker, 2000): replicate every message to
//! every node that lacks it. Maximal delivery ratio with unconstrained
//! resources; the congestion baseline the paper's introduction motivates
//! Spray-and-Wait against.

use crate::protocol::{RoutingCtx, RoutingProtocol, TransferKind};
use dtn_core::ids::NodeId;

/// The Epidemic protocol (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct Epidemic;

impl RoutingProtocol for Epidemic {
    fn name(&self) -> &'static str {
        "Epidemic"
    }

    fn relay(&self, _: &RoutingCtx, _: NodeId, _: NodeId, copies: u32) -> Option<TransferKind> {
        // Copies are not token-limited: the sender's count is untouched
        // and the receiver starts its own single-token copy.
        Some(TransferKind::Replicate {
            sender_keeps: copies,
            receiver_gets: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::time::SimTime;

    #[test]
    fn replicates_to_any_relay() {
        let p = Epidemic;
        let ctx = RoutingCtx {
            me: NodeId(0),
            peer: NodeId(3),
            now: SimTime::ZERO,
        };
        for copies in [1, 5] {
            assert_eq!(
                p.relay(&ctx, NodeId(0), NodeId(9), copies),
                Some(TransferKind::Replicate {
                    sender_keeps: copies,
                    receiver_gets: 1
                })
            );
        }
    }
}
