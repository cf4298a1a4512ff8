//! Spray-and-Wait (Spyropoulos et al., WDTN 2005) — the paper's router.
//!
//! Every message starts with `L` copy tokens at its source.
//!
//! * **Spray phase** (`C_i > 1`): on meeting a node without the message,
//!   hand over tokens. *Binary* mode gives `⌊C_i/2⌋` and keeps
//!   `⌈C_i/2⌉`; *source* mode gives exactly one token and only lets the
//!   source spray.
//! * **Wait phase** (`C_i = 1`): hold the message; it moves only when
//!   the simulator delivers it to the destination ("direct
//!   transmission").
//!
//! The binary-spray timestamps the SDSRP estimator consumes (Eq. 15) are
//! appended by the simulator whenever a `Replicate` decided here
//! completes.

use crate::protocol::{RoutingCtx, RoutingProtocol, TransferKind};
use dtn_core::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Token-distribution flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SprayMode {
    /// Binary spray: split tokens in half at every spray (the paper's
    /// setting; optimal for homogeneous mobility per the original
    /// Spray-and-Wait analysis).
    Binary,
    /// Source spray: only the source distributes, one token at a time.
    Source,
}

/// The Spray-and-Wait protocol state for one node.
#[derive(Debug, Clone, Copy)]
pub struct SprayAndWait {
    mode: SprayMode,
}

impl SprayAndWait {
    /// Binary spray-and-wait (the paper's configuration).
    pub fn binary() -> Self {
        SprayAndWait {
            mode: SprayMode::Binary,
        }
    }

    /// Source spray-and-wait.
    pub fn source() -> Self {
        SprayAndWait {
            mode: SprayMode::Source,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> SprayMode {
        self.mode
    }
}

impl RoutingProtocol for SprayAndWait {
    fn name(&self) -> &'static str {
        match self.mode {
            SprayMode::Binary => "SprayAndWait(binary)",
            SprayMode::Source => "SprayAndWait(source)",
        }
    }

    fn relay(
        &self,
        ctx: &RoutingCtx,
        source: NodeId,
        _destination: NodeId,
        copies: u32,
    ) -> Option<TransferKind> {
        if copies <= 1 {
            // Wait phase: direct transmission only.
            return None;
        }
        match self.mode {
            SprayMode::Binary => Some(TransferKind::Replicate {
                sender_keeps: copies - copies / 2, // ceil
                receiver_gets: copies / 2,         // floor
            }),
            SprayMode::Source => (source == ctx.me).then_some(TransferKind::Replicate {
                sender_keeps: copies - 1,
                receiver_gets: 1,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::time::SimTime;

    fn ctx(me: u32, peer: u32) -> RoutingCtx {
        RoutingCtx {
            me: NodeId(me),
            peer: NodeId(peer),
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn binary_splits_tokens_floor_ceil() {
        let p = SprayAndWait::binary();
        for (c, keep, give) in [(16u32, 8u32, 8u32), (7, 4, 3), (2, 1, 1), (3, 2, 1)] {
            assert_eq!(
                p.relay(&ctx(0, 1), NodeId(0), NodeId(9), c),
                Some(TransferKind::Replicate {
                    sender_keeps: keep,
                    receiver_gets: give
                }),
                "C = {c}"
            );
        }
    }

    #[test]
    fn wait_phase_never_relays() {
        for p in [SprayAndWait::binary(), SprayAndWait::source()] {
            // One token, even at the source: wait for the destination.
            assert_eq!(p.relay(&ctx(0, 1), NodeId(0), NodeId(9), 1), None);
            assert_eq!(p.relay(&ctx(3, 1), NodeId(0), NodeId(9), 1), None);
        }
    }

    #[test]
    fn binary_relays_spray_too() {
        // A relay holding several tokens splits them like the source.
        let p = SprayAndWait::binary();
        assert_eq!(
            p.relay(&ctx(3, 1), NodeId(0), NodeId(9), 4),
            Some(TransferKind::Replicate {
                sender_keeps: 2,
                receiver_gets: 2
            })
        );
    }

    #[test]
    fn source_mode_only_source_sprays() {
        let p = SprayAndWait::source();
        // At the source: give exactly one token.
        assert_eq!(
            p.relay(&ctx(0, 1), NodeId(0), NodeId(9), 8),
            Some(TransferKind::Replicate {
                sender_keeps: 7,
                receiver_gets: 1
            })
        );
        // At a relay (me != source): wait phase regardless of tokens.
        assert_eq!(p.relay(&ctx(3, 1), NodeId(0), NodeId(9), 8), None);
    }

    #[test]
    fn names() {
        assert_eq!(SprayAndWait::binary().name(), "SprayAndWait(binary)");
        assert_eq!(SprayAndWait::source().name(), "SprayAndWait(source)");
        assert_eq!(SprayAndWait::binary().mode(), SprayMode::Binary);
    }
}
