//! Ground-truth state per message, maintained from the world's event
//! hooks. It is the one place the simulator keeps the true `m_i`/`n_i`:
//! the oracle ablation ranks on them, and the validator judges the
//! distributed estimators and its full-state sweeps against them.

use dtn_core::ids::{MessageId, NodeId};
use std::collections::HashSet;

/// Everything the simulator truly knows about one message: the
/// quantities SDSRP can only estimate (`m_i`, `n_i`, `d_i`), plus the
/// token ledger backing the copy-conservation check.
#[derive(Debug, Clone)]
pub struct MessageTruth {
    /// Source node.
    pub source: NodeId,
    /// Initial copy tokens `C`.
    pub initial_copies: u32,
    /// Absolute expiry instant, seconds.
    pub expires_at: f64,
    /// Nodes other than the source that have ever received the message
    /// (replication, handoff or delivery) — the true `m_i`.
    pub seen: HashSet<NodeId>,
    /// Buffers currently holding a copy — the true `n_i`, maintained
    /// from the insert/remove hooks (double-entry against the sweep).
    pub holders: u32,
    /// Copy tokens destroyed so far (evictions, rejections, expiry,
    /// immunity purges, crash wipes). Live tokens + destroyed must equal
    /// `C` under a token-conserving routing protocol.
    pub destroyed: u64,
    /// Nodes that made an own-drop decision (eviction or incoming
    /// rejection) for this message — the true `d_i` a perfectly
    /// gossiped dropped-list could report.
    pub droppers: HashSet<NodeId>,
    /// Whether the destination has received the message.
    pub delivered: bool,
}

impl MessageTruth {
    /// Fresh truth for a message generated at `source` with `c` tokens.
    pub fn new(source: NodeId, c: u32, expires_at: f64) -> Self {
        MessageTruth {
            source,
            initial_copies: c,
            expires_at,
            seen: HashSet::new(),
            holders: 0,
            destroyed: 0,
            droppers: HashSet::new(),
            delivered: false,
        }
    }

    /// The true `m_i`: distinct non-source nodes that received a copy.
    pub fn true_m(&self) -> u32 {
        self.seen.len() as u32
    }

    /// The true `d_i`: distinct nodes that dropped the message.
    pub fn true_d(&self) -> u32 {
        self.droppers.len() as u32
    }

    /// A copy left a buffer, taking `tokens` with it.
    fn remove(&mut self, tokens: u32) {
        self.holders = self.holders.saturating_sub(1);
        self.destroyed += u64::from(tokens);
    }
}

/// The run's [`MessageTruth`] per message, indexed by dense message
/// id (read it as a slice). The world calls one hook per state
/// transition; nothing else writes it.
#[derive(Debug, Clone, Default)]
pub struct TruthLedger {
    pub(crate) messages: Vec<MessageTruth>,
}

impl std::ops::Deref for TruthLedger {
    type Target = [MessageTruth];

    fn deref(&self) -> &[MessageTruth] {
        &self.messages
    }
}

impl TruthLedger {
    /// The true `(m_i, n_i)` of `msg` — what the oracle ablation feeds
    /// Eq. 10 in place of the Eq. 14/15 estimates.
    pub fn oracle_counts(&self, msg: MessageId) -> (u32, u32) {
        let t = &self.messages[msg.index()];
        (t.true_m(), t.holders)
    }

    /// A message was generated. Ids must arrive dense and in order.
    pub fn on_generated(&mut self, msg: MessageId, source: NodeId, copies: u32, expires_at: f64) {
        assert_eq!(
            msg.index(),
            self.messages.len(),
            "the truth ledger must exist before the first generation"
        );
        self.messages
            .push(MessageTruth::new(source, copies, expires_at));
    }

    /// A copy entered a buffer (generation, replication or handoff).
    pub fn on_inserted(&mut self, msg: MessageId, node: NodeId) {
        let t = &mut self.messages[msg.index()];
        t.holders += 1;
        if node != t.source {
            t.seen.insert(node);
        }
    }

    /// A resident copy was evicted by a drop decision.
    pub fn on_evicted(&mut self, msg: MessageId, node: NodeId, tokens: u32) {
        let t = &mut self.messages[msg.index()];
        t.remove(tokens);
        t.droppers.insert(node);
    }

    /// An incoming copy was refused admission (its tokens die with it).
    pub fn on_rejected_incoming(&mut self, msg: MessageId, node: NodeId, tokens: u32) {
        let t = &mut self.messages[msg.index()];
        t.destroyed += u64::from(tokens);
        t.droppers.insert(node);
    }

    /// A buffered copy was destroyed without a drop decision: TTL
    /// expiry, an immunity purge or an injected crash wipe. It must NOT
    /// enter `droppers` — a gossiped dropped-list claiming this drop
    /// would be an overcount. The tokens are charged to `destroyed`, so
    /// copy conservation holds modulo the validator's fault ledger.
    pub fn on_destroyed(&mut self, msg: MessageId, tokens: u32) {
        self.messages[msg.index()].remove(tokens);
    }

    /// A copy left its sender's buffer for a handoff (tokens travel
    /// with it; the receiving side reports admission or rejection).
    pub fn on_handoff_out(&mut self, msg: MessageId) {
        self.messages[msg.index()].remove(0);
    }

    /// The destination received the message.
    pub fn on_delivered(&mut self, msg: MessageId, dst: NodeId) {
        let t = &mut self.messages[msg.index()];
        t.seen.insert(dst);
        t.delivered = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_clean() {
        let t = MessageTruth::new(NodeId(3), 16, 1800.0);
        assert_eq!(t.true_m(), 0);
        assert_eq!(t.true_d(), 0);
        assert_eq!(t.holders, 0);
        assert_eq!(t.destroyed, 0);
        assert!(!t.delivered);
    }

    #[test]
    fn seen_and_droppers_deduplicate() {
        let mut t = MessageTruth::new(NodeId(0), 8, 600.0);
        t.seen.insert(NodeId(1));
        t.seen.insert(NodeId(1));
        t.droppers.insert(NodeId(2));
        t.droppers.insert(NodeId(2));
        assert_eq!(t.true_m(), 1);
        assert_eq!(t.true_d(), 1);
    }

    /// The oracle counts follow the hooks: the source's own copy is a
    /// holder but not a receipt, a delivery is a receipt but not a
    /// holder, and only drop decisions make a node a dropper.
    #[test]
    fn hooks_maintain_oracle_counts() {
        let (msg, src) = (MessageId(0), NodeId(0));
        let mut ledger = TruthLedger::default();
        ledger.on_generated(msg, src, 8, 600.0);
        ledger.on_inserted(msg, src);
        assert_eq!(ledger.oracle_counts(msg), (0, 1));
        ledger.on_inserted(msg, NodeId(1));
        ledger.on_inserted(msg, NodeId(2));
        assert_eq!(ledger.oracle_counts(msg), (2, 3));
        ledger.on_evicted(msg, NodeId(1), 2);
        ledger.on_destroyed(msg, 2);
        ledger.on_handoff_out(msg);
        ledger.on_rejected_incoming(msg, NodeId(3), 4);
        ledger.on_delivered(msg, NodeId(4));
        let t = &ledger[0];
        assert_eq!(ledger.oracle_counts(msg), (3, 0));
        assert_eq!(t.destroyed, 8);
        assert_eq!(t.true_d(), 2);
        assert!(t.delivered);
    }
}
