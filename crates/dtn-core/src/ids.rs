//! Typed identifiers for nodes and messages.
//!
//! Newtypes prevent the classic "passed a message index where a node index
//! was expected" bug and document intent in signatures. Both ids are dense
//! and start at zero so they double as `Vec` indices.
//!
//! [`IdMap`] and [`IdSet`] are the `HashMap` and `HashSet` for maps and
//! sets keyed by these ids that sit on hot paths, hashed with
//! [`IdHasher`] instead of SipHash.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher (the Fx hash) for integer ids: one multiply
/// per word where SipHash spends about twenty rounds. The keys are the
/// simulator's own counters, so SipHash's resistance to chosen keys buys
/// nothing. Wherever a map or set hashed with it is iterated, the result
/// is collected into another set or sorted, so the hash cannot leak into
/// an output.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }
}

/// A `HashMap` keyed by an id and hashed with [`IdHasher`]. Build one
/// with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids hashed with [`IdHasher`]. Build one with
/// `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Identifier of a mobile node. Dense, zero-based: usable as a `Vec` index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a message (unique per generated message, shared by all of
/// its copies). Dense, zero-based in generation order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub u64);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over the first `n` node ids, `0..n`.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> + Clone {
        (0..n as u32).map(NodeId)
    }
}

impl MessageId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u64> for MessageId {
    fn from(v: u64) -> Self {
        MessageId(v)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// An unordered pair of distinct nodes, normalised so `(a, b)` and
/// `(b, a)` compare equal. Used as a key for contact bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodePair {
    lo: NodeId,
    hi: NodeId,
}

impl NodePair {
    /// Builds a normalised pair.
    ///
    /// # Panics
    /// Panics if `a == b`: a node never contacts itself.
    #[inline]
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "NodePair requires distinct nodes");
        if a < b {
            NodePair { lo: a, hi: b }
        } else {
            NodePair { lo: b, hi: a }
        }
    }

    /// The smaller id.
    #[inline]
    pub fn lo(self) -> NodeId {
        self.lo
    }

    /// The larger id.
    #[inline]
    pub fn hi(self) -> NodeId {
        self.hi
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    /// Panics if `node` is not an endpoint of the pair.
    #[inline]
    pub fn peer_of(self, node: NodeId) -> NodeId {
        if node == self.lo {
            self.hi
        } else if node == self.hi {
            self.lo
        } else {
            panic!("{node} is not part of {self:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_pair_normalises() {
        let p1 = NodePair::new(NodeId(3), NodeId(7));
        let p2 = NodePair::new(NodeId(7), NodeId(3));
        assert_eq!(p1, p2);
        assert_eq!(p1.lo(), NodeId(3));
        assert_eq!(p1.hi(), NodeId(7));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn node_pair_rejects_self_pair() {
        let _ = NodePair::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn peer_of() {
        let p = NodePair::new(NodeId(2), NodeId(9));
        assert_eq!(p.peer_of(NodeId(2)), NodeId(9));
        assert_eq!(p.peer_of(NodeId(9)), NodeId(2));
    }

    #[test]
    #[should_panic]
    fn peer_of_foreign_node_panics() {
        let p = NodePair::new(NodeId(2), NodeId(9));
        let _ = p.peer_of(NodeId(4));
    }

    #[test]
    fn ids_index_and_iterate() {
        assert_eq!(NodeId(4).index(), 4);
        assert_eq!(MessageId(11).index(), 11);
        let all: Vec<_> = NodeId::all(3).collect();
        assert_eq!(all, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn pairs_hash_consistently() {
        let mut set = HashSet::new();
        set.insert(NodePair::new(NodeId(1), NodeId(2)));
        assert!(set.contains(&NodePair::new(NodeId(2), NodeId(1))));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(MessageId(8).to_string(), "M8");
    }
}
