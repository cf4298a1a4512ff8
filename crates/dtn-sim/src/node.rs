//! A simulated node: buffer + buffer policy + routing protocol.

use crate::message::{BufferedCopy, Message};
use dtn_buffer::policy::BufferPolicy;
use dtn_buffer::view::MessageView;
use dtn_core::ids::{IdSet, MessageId, NodeId};
use dtn_core::time::SimTime;
use dtn_core::units::Bytes;
use dtn_routing::protocol::RoutingProtocol;

/// A node's buffered copies: a `Vec` kept sorted by message id, so
/// every walk is in ascending id order and a lookup is a binary search.
/// Buffers hold tens of copies, where shifting on insert and remove
/// costs less than a tree's pointer chasing on every walk.
#[derive(Debug, Default)]
pub struct Buffer {
    copies: Vec<BufferedCopy>,
}

impl Buffer {
    fn find(&self, msg: MessageId) -> Result<usize, usize> {
        self.copies.binary_search_by_key(&msg, |c| c.msg)
    }

    /// Number of buffered copies.
    pub fn len(&self) -> usize {
        self.copies.len()
    }

    /// Whether no copy is buffered.
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }

    /// Whether a copy of `msg` is buffered.
    pub fn contains(&self, msg: MessageId) -> bool {
        self.find(msg).is_ok()
    }

    /// The copy of `msg`, if buffered.
    pub fn get(&self, msg: MessageId) -> Option<&BufferedCopy> {
        self.find(msg).ok().map(|i| &self.copies[i])
    }

    /// The copy of `msg`, mutably, if buffered.
    pub fn get_mut(&mut self, msg: MessageId) -> Option<&mut BufferedCopy> {
        self.find(msg).ok().map(|i| &mut self.copies[i])
    }

    /// Inserts `copy` at its id's place; returns `false` (and drops the
    /// copy, leaving the buffer as it was) when a copy of that message
    /// is already buffered.
    pub fn insert(&mut self, copy: BufferedCopy) -> bool {
        match self.find(copy.msg) {
            Ok(_) => false,
            Err(i) => {
                self.copies.insert(i, copy);
                true
            }
        }
    }

    /// Removes and returns the copy of `msg`, if buffered.
    pub fn remove(&mut self, msg: MessageId) -> Option<BufferedCopy> {
        self.find(msg).ok().map(|i| self.copies.remove(i))
    }

    /// The copies in ascending id order.
    pub fn iter(&self) -> std::slice::Iter<'_, BufferedCopy> {
        self.copies.iter()
    }

    /// The buffered ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.copies.iter().map(|c| c.msg)
    }

    /// How many buffered copies have an id below `end`: they are the
    /// first ones in [`Self::iter`].
    pub fn count_below(&self, end: MessageId) -> usize {
        self.copies.partition_point(|c| c.msg < end)
    }
}

/// One DTN node's complete state.
pub struct Node {
    /// The node id.
    pub id: NodeId,
    /// Buffered copies; every walk is in ascending id order.
    pub buffer: Buffer,
    /// Bytes currently buffered.
    pub used: Bytes,
    /// Buffer capacity.
    pub capacity: Bytes,
    /// The buffer-management strategy.
    pub policy: Box<dyn BufferPolicy>,
    /// The routing protocol.
    pub routing: Box<dyn RoutingProtocol>,
    /// Messages this node has received *as destination* (used to refuse
    /// duplicate deliveries; ONE behaves the same).
    pub delivered: IdSet<MessageId>,
    /// Acknowledged message ids this node knows about (antipackets;
    /// only populated under `ImmunityMode::AntipacketGossip`).
    pub acked: IdSet<MessageId>,
}

impl Node {
    /// Creates an empty node.
    pub fn new(
        id: NodeId,
        capacity: Bytes,
        policy: Box<dyn BufferPolicy>,
        routing: Box<dyn RoutingProtocol>,
    ) -> Self {
        Node {
            id,
            buffer: Buffer::default(),
            used: Bytes::ZERO,
            capacity,
            policy,
            routing,
            delivered: IdSet::default(),
            acked: IdSet::default(),
        }
    }

    /// Free buffer space.
    pub fn free(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    /// Whether the node currently buffers `msg`.
    pub fn has(&self, msg: MessageId) -> bool {
        self.buffer.contains(msg)
    }

    /// Inserts a copy whose size the caller has already cleared through
    /// admission control.
    ///
    /// # Panics
    /// Panics if the copy does not fit or a copy already exists — both
    /// indicate a world-logic bug.
    pub fn insert_copy(&mut self, copy: BufferedCopy, size: Bytes) {
        assert!(
            self.used + size <= self.capacity,
            "{:?}: insert would overflow buffer",
            self.id
        );
        assert!(
            self.buffer.insert(copy),
            "{:?}: duplicate copy inserted",
            self.id
        );
        self.used += size;
    }

    /// Removes a copy, returning it.
    ///
    /// # Panics
    /// Panics if the copy is absent.
    pub fn remove_copy(&mut self, msg: MessageId, size: Bytes) -> BufferedCopy {
        let copy = self
            .buffer
            .remove(msg)
            .unwrap_or_else(|| panic!("{:?}: removing absent copy {msg:?}", self.id));
        self.used -= size;
        copy
    }

    /// Number of buffered messages.
    pub fn buffered_count(&self) -> usize {
        self.buffer.len()
    }
}

/// Builds the policy-facing view of one buffered copy.
///
/// `oracle` carries perfect `(m_i, n_i)` when the scenario runs in
/// oracle mode.
pub fn make_view<'a>(
    msg: &Message,
    copy: &'a BufferedCopy,
    now: SimTime,
    oracle: Option<(u32, u32)>,
) -> MessageView<'a> {
    MessageView {
        id: msg.id,
        size: msg.size,
        source: msg.source,
        destination: msg.destination,
        created: msg.created,
        received: copy.received,
        initial_ttl: msg.ttl,
        remaining_ttl: msg.remaining_ttl(now),
        copies: copy.copies,
        initial_copies: msg.initial_copies,
        hops: copy.hops,
        forward_count: copy.forward_count,
        spray_times: &copy.spray_times,
        oracle_seen: oracle.map(|(m, _)| m),
        oracle_holders: oracle.map(|(_, n)| n),
    }
}

/// Borrows two distinct nodes mutably.
///
/// # Panics
/// Panics if `a == b`.
pub fn two_nodes(nodes: &mut [Node], a: NodeId, b: NodeId) -> (&mut Node, &mut Node) {
    assert_ne!(a, b, "cannot borrow the same node twice");
    let (ai, bi) = (a.index(), b.index());
    if ai < bi {
        let (lo, hi) = nodes.split_at_mut(bi);
        (&mut lo[ai], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(ai);
        (&mut hi[0], &mut lo[bi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_buffer::fifo::Fifo;
    use dtn_core::time::SimDuration;
    use dtn_routing::SprayAndWait;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn node(id: u32) -> Node {
        Node::new(
            NodeId(id),
            Bytes::from_mb(2.5),
            Box::new(Fifo),
            Box::new(SprayAndWait::binary()),
        )
    }

    fn msg(id: u64) -> Message {
        Message {
            id: MessageId(id),
            source: NodeId(0),
            destination: NodeId(1),
            size: Bytes::from_mb(0.5),
            created: SimTime::ZERO,
            ttl: SimDuration::from_mins(300.0),
            initial_copies: 16,
        }
    }

    #[test]
    fn buffer_accounting() {
        let mut n = node(0);
        let m = msg(1);
        assert_eq!(n.free(), Bytes::from_mb(2.5));
        n.insert_copy(BufferedCopy::at_source(&m), m.size);
        assert!(n.has(MessageId(1)));
        assert_eq!(n.used, Bytes::from_mb(0.5));
        assert_eq!(n.buffered_count(), 1);
        let c = n.remove_copy(MessageId(1), m.size);
        assert_eq!(c.copies, 16);
        assert_eq!(n.used, Bytes::ZERO);
        assert!(!n.has(MessageId(1)));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overfill_panics() {
        let mut n = node(0);
        for i in 0..6 {
            let m = msg(i);
            n.insert_copy(BufferedCopy::at_source(&m), m.size);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate copy")]
    fn duplicate_insert_panics() {
        let mut n = node(0);
        let m = msg(1);
        n.insert_copy(BufferedCopy::at_source(&m), m.size);
        n.insert_copy(BufferedCopy::at_source(&m), m.size);
    }

    #[test]
    #[should_panic(expected = "absent copy")]
    fn removing_an_absent_copy_panics() {
        let mut n = node(0);
        let m = msg(1);
        n.insert_copy(BufferedCopy::at_source(&m), m.size);
        n.remove_copy(MessageId(2), m.size);
    }

    proptest! {
        /// The sorted `Vec` behaves as the `BTreeMap` keyed by id it
        /// replaced: after every insert, remove, token edit and expiry
        /// prefix query, the two hold the same copies and walk them in
        /// the same ascending order.
        #[test]
        fn buffer_matches_an_ordered_map(
            ops in prop::collection::vec((0u8..4, 0u64..24, 1u32..64), 1..200),
        ) {
            let mut buffer = Buffer::default();
            let mut model: BTreeMap<MessageId, BufferedCopy> = BTreeMap::new();
            for (op, id, tokens) in ops {
                let id = MessageId(id);
                match op {
                    0 => {
                        let mut copy = BufferedCopy::at_source(&msg(id.0));
                        copy.copies = tokens;
                        let fresh = !model.contains_key(&id);
                        if fresh {
                            model.insert(id, copy.clone());
                        }
                        prop_assert_eq!(buffer.insert(copy), fresh);
                    }
                    1 => {
                        let copies = |c: Option<BufferedCopy>| c.map(|c| c.copies);
                        prop_assert_eq!(copies(buffer.remove(id)), copies(model.remove(&id)));
                    }
                    2 => {
                        if let Some(c) = buffer.get_mut(id) {
                            c.copies = tokens;
                        }
                        if let Some(c) = model.get_mut(&id) {
                            c.copies = tokens;
                        }
                    }
                    _ => prop_assert_eq!(buffer.count_below(id), model.range(..id).count()),
                }
                prop_assert_eq!(buffer.len(), model.len());
                prop_assert_eq!(buffer.is_empty(), model.is_empty());
                for probe in (0..24).map(MessageId) {
                    prop_assert_eq!(buffer.contains(probe), model.contains_key(&probe));
                    prop_assert_eq!(buffer.get(probe), model.get(&probe));
                }
                prop_assert!(buffer.iter().eq(model.values()));
                prop_assert!(buffer.ids().eq(model.keys().copied()));
            }
        }
    }

    #[test]
    fn view_construction() {
        let m = msg(1);
        let mut copy = BufferedCopy::at_source(&m);
        copy.spray_times.push(SimTime::from_secs(5.0));
        let now = SimTime::from_secs(600.0);
        let v = make_view(&m, &copy, now, Some((7, 4)));
        assert_eq!(v.remaining_ttl.as_secs(), 300.0 * 60.0 - 600.0);
        assert_eq!(v.copies, 16);
        assert_eq!(v.oracle_seen, Some(7));
        assert_eq!(v.oracle_holders, Some(4));
        assert_eq!(v.spray_times.len(), 1);
        let v2 = make_view(&m, &copy, now, None);
        assert_eq!(v2.oracle_seen, None);
    }

    #[test]
    fn two_nodes_split() {
        let mut nodes: Vec<Node> = (0..4).map(node).collect();
        let (a, b) = two_nodes(&mut nodes, NodeId(3), NodeId(1));
        assert_eq!(a.id, NodeId(3));
        assert_eq!(b.id, NodeId(1));
        let (x, y) = two_nodes(&mut nodes, NodeId(0), NodeId(2));
        assert_eq!(x.id, NodeId(0));
        assert_eq!(y.id, NodeId(2));
    }

    #[test]
    #[should_panic(expected = "same node")]
    fn two_nodes_rejects_same() {
        let mut nodes: Vec<Node> = (0..2).map(node).collect();
        let _ = two_nodes(&mut nodes, NodeId(1), NodeId(1));
    }
}
