//! The gossiped dropped-message records — paper Fig. 5.
//!
//! Every node maintains one record per *origin node*: the set of messages
//! that origin has dropped, stamped with a record time. On contact the
//! two nodes exchange records and keep, per origin, the one with the
//! **newest record time** ("only the source node can modify the record
//! time, which happens if and only if a new drop action occurs in its
//! buffer"). Summing over records gives `d_i`, the network-wide drop
//! count of message `i` (input to Eq. 14); and "nodes reject receiving
//! the message already in their dropped lists", which prevents a dropped
//! copy from being counted twice.
//!
//! A record's message ids are a sorted, duplicate-free `Vec` — the same
//! order the wire format carries them in, so encoding is a slice walk
//! and a membership test is a binary search. Records only grow by a few
//! ids between contacts, so adopting a newer version of one is a single
//! merge-walk of the old and new ids that touches the per-message
//! occurrence index (O(1) `drop_count`/`anyone_dropped`) only for the
//! ids that entered or left: the cost is the symmetric difference, not
//! the record size. The wire encoding (see
//! [`DroppedList::encode_records`] for the deterministic binary format)
//! is memoised between mutations. Every mutator keeps both derived
//! caches exactly in sync with the records.

use dtn_core::ids::{MessageId, NodeId};
use dtn_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// Leading magic of the binary gossip payload (see
/// [`DroppedList::encode_records`]).
const GOSSIP_MAGIC: &[u8; 4] = b"DLG1";

/// One origin's dropped-message record (a row of Fig. 5's structure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DroppedRecord {
    /// Messages this origin has dropped, sorted ascending and free of
    /// duplicates (the wire order). [`DroppedList`] keeps its own
    /// records in this form and sorts any hand-built record it merges.
    pub dropped: Vec<MessageId>,
    /// When the origin last modified the record.
    pub record_time: SimTime,
}

/// A node's view of everyone's dropped lists.
///
/// `records` is the authoritative Fig. 5 state; `counts` and `encoded`
/// are derived caches kept exactly in sync by every mutator, so the hot
/// per-contact queries ([`drop_count`](Self::drop_count),
/// [`anyone_dropped`](Self::anyone_dropped)) cost O(1) and an export
/// between mutations re-serialises nothing.
#[derive(Debug, Clone)]
pub struct DroppedList {
    /// The node that owns (and may modify) the `own` record.
    owner: NodeId,
    /// Records per origin node, `owner`'s own record included.
    records: BTreeMap<NodeId, DroppedRecord>,
    /// Derived: per message, the number of origins whose record lists it
    /// (`d_i` of Eq. 14). Absent key means zero.
    counts: HashMap<MessageId, u32>,
    /// Derived: memoised gossip encoding of `records`, cleared by any
    /// mutation that changes them.
    encoded: Option<Vec<u8>>,
}

/// Equality is over the authoritative state only; the derived caches
/// (`counts`, `encoded`) are reconstructible and never observable.
impl PartialEq for DroppedList {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner && self.records == other.records
    }
}

/// Wire-format cursor helpers shared by the decoder, the validator and
/// the streaming merge.
fn take<'a>(cur: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if cur.len() < n {
        return None;
    }
    let (head, rest) = cur.split_at(n);
    *cur = rest;
    Some(head)
}

fn u32_at(cur: &mut &[u8]) -> Option<u32> {
    take(cur, 4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

fn u64_at(cur: &mut &[u8]) -> Option<u64> {
    take(cur, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn count_inc(counts: &mut HashMap<MessageId, u32>, msg: MessageId) {
    *counts.entry(msg).or_insert(0) += 1;
}

fn count_dec(counts: &mut HashMap<MessageId, u32>, msg: MessageId) {
    if let Some(c) = counts.get_mut(&msg) {
        *c -= 1;
        if *c == 0 {
            counts.remove(&msg);
        }
    }
}

/// Whether `ids` is strictly increasing (sorted and duplicate-free).
fn strictly_increasing(ids: &[MessageId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Brings decoded ids into record form. Honest payloads are already
/// strictly increasing, so this is a check; a hand-crafted one is
/// sorted and its duplicates collapse.
fn normalise(ids: &mut Vec<MessageId>) {
    if !strictly_increasing(ids) {
        ids.sort_unstable();
        ids.dedup();
    }
}

impl DroppedList {
    /// An empty list owned by `owner`.
    pub fn new(owner: NodeId) -> Self {
        DroppedList {
            owner,
            records: BTreeMap::new(),
            counts: HashMap::new(),
            encoded: None,
        }
    }

    /// Registers that the owner dropped `msg` at `now` (Fig. 5: the
    /// record time moves *if and only if* a new drop action occurs).
    ///
    /// A re-drop of a message already in the owner's record is a no-op:
    /// bumping the time anyway would make every peer's newest-wins merge
    /// re-adopt an unchanged record — a network-wide gossip-adoption and
    /// cache-invalidation storm carrying zero information.
    pub fn record_own_drop(&mut self, now: SimTime, msg: MessageId) {
        let rec = self
            .records
            .entry(self.owner)
            .or_insert_with(|| DroppedRecord {
                dropped: Vec::new(),
                record_time: now,
            });
        if let Err(pos) = rec.dropped.binary_search(&msg) {
            rec.dropped.insert(pos, msg);
            count_inc(&mut self.counts, msg);
            rec.record_time = now;
            self.encoded = None;
        }
    }

    /// Wipes all records (own and adopted) and the derived caches,
    /// keeping the owner. Models the owner losing its dropped-list state
    /// in a crash: the rebooted node starts gossiping from scratch.
    pub fn clear(&mut self) {
        self.records.clear();
        self.counts.clear();
        self.encoded = None;
    }

    /// Merges a peer's records: per origin, the record with the newest
    /// record time wins; the owner's own record is never overwritten by
    /// hearsay. Returns the number of records adopted from the peer.
    pub fn merge(&mut self, peer_records: &BTreeMap<NodeId, DroppedRecord>) -> usize {
        self.merge_inner(peer_records, None)
    }

    /// [`merge`](Self::merge) that additionally reports, into `changed`,
    /// every message id whose `d_i` count moved: per adopted record, in
    /// ascending order, the symmetric difference of its old and new
    /// membership (every entry, for an origin seen for the first time).
    /// Lets callers invalidate per-message derived state (priority
    /// memos) surgically instead of wholesale. Ids may repeat across
    /// adopted records; `changed` is appended to, not cleared.
    pub fn merge_tracking(
        &mut self,
        peer_records: &BTreeMap<NodeId, DroppedRecord>,
        changed: &mut Vec<MessageId>,
    ) -> usize {
        self.merge_inner(peer_records, Some(changed))
    }

    fn merge_inner(
        &mut self,
        peer_records: &BTreeMap<NodeId, DroppedRecord>,
        mut changed: Option<&mut Vec<MessageId>>,
    ) -> usize {
        let mut adopted = 0;
        let mut scratch = Vec::new();
        for (&origin, rec) in peer_records {
            if !self.wins(origin, rec.record_time) {
                continue;
            }
            // Records are public, so a hand-built one may be unsorted.
            let ids = if strictly_increasing(&rec.dropped) {
                &rec.dropped
            } else {
                scratch.clone_from(&rec.dropped);
                normalise(&mut scratch);
                &scratch
            };
            self.adopt(origin, rec.record_time, ids, changed.as_deref_mut());
            adopted += 1;
        }
        adopted
    }

    /// Whether a peer's record for `origin` stamped `record_time` beats
    /// what this list holds: never for the owner's own record, else
    /// strictly newer than ours (or ours absent).
    fn wins(&self, origin: NodeId, record_time: SimTime) -> bool {
        origin != self.owner
            && self
                .records
                .get(&origin)
                .is_none_or(|mine| mine.record_time < record_time)
    }

    /// Replaces `origin`'s record (or creates it) with `ids`, which must
    /// be strictly increasing, stamped `record_time`.
    ///
    /// One merge-walk over the old and new ids touches `counts` — and
    /// reports into `changed` — only the ids in their symmetric
    /// difference, in ascending order. The record's `Vec` is then
    /// overwritten in place with exact capacity: records are long-lived
    /// and numerous, so amortised doubling would cost resident memory.
    fn adopt(
        &mut self,
        origin: NodeId,
        record_time: SimTime,
        ids: &[MessageId],
        mut changed: Option<&mut Vec<MessageId>>,
    ) {
        debug_assert!(strictly_increasing(ids), "adopt needs record-form ids");
        let rec = self.records.entry(origin).or_insert_with(|| DroppedRecord {
            dropped: Vec::new(),
            record_time,
        });
        let (old, new) = (&rec.dropped, ids);
        let (mut i, mut j) = (0, 0);
        loop {
            let step = match (old.get(i), new.get(j)) {
                (None, None) => break,
                (Some(a), Some(b)) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
            };
            let moved = match step {
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    continue;
                }
                Ordering::Less => {
                    let gone = old[i];
                    i += 1;
                    count_dec(&mut self.counts, gone);
                    gone
                }
                Ordering::Greater => {
                    let added = new[j];
                    j += 1;
                    count_inc(&mut self.counts, added);
                    added
                }
            };
            if let Some(changed) = changed.as_deref_mut() {
                changed.push(moved);
            }
        }
        rec.dropped.clear();
        rec.dropped.reserve_exact(ids.len());
        rec.dropped.extend_from_slice(ids);
        rec.record_time = record_time;
        self.encoded = None;
    }

    /// `d_i`: how many distinct nodes are known to have dropped `msg`.
    /// O(1) via the maintained per-message index.
    pub fn drop_count(&self, msg: MessageId) -> u32 {
        self.counts.get(&msg).copied().unwrap_or(0)
    }

    /// Whether any known record lists `msg` (the paper's receive-reject
    /// test). O(1) via the maintained per-message index.
    pub fn anyone_dropped(&self, msg: MessageId) -> bool {
        self.counts.contains_key(&msg)
    }

    /// Whether the owner itself dropped `msg`.
    pub fn own_dropped(&self, msg: MessageId) -> bool {
        self.records
            .get(&self.owner)
            .is_some_and(|r| r.dropped.binary_search(&msg).is_ok())
    }

    /// The raw records (for gossip serialisation).
    pub fn records(&self) -> &BTreeMap<NodeId, DroppedRecord> {
        &self.records
    }

    /// Number of origins with a record.
    pub fn origin_count(&self) -> usize {
        self.records.len()
    }

    /// Total dropped-message entries across all records (diagnostic —
    /// the paper assumes this stays negligible next to message sizes).
    pub fn entry_count(&self) -> usize {
        self.records.values().map(|r| r.dropped.len()).sum()
    }

    /// Forgets messages for which `expired(msg)` returns true (entries
    /// about TTL-expired messages can never matter again). Records left
    /// empty are removed; record times are untouched, matching the
    /// "only drops modify record time" rule.
    pub fn prune(&mut self, mut expired: impl FnMut(MessageId) -> bool) {
        let counts = &mut self.counts;
        let mut removed = false;
        for rec in self.records.values_mut() {
            rec.dropped.retain(|&m| {
                if expired(m) {
                    count_dec(counts, m);
                    removed = true;
                    false
                } else {
                    true
                }
            });
        }
        self.records.retain(|_, r| !r.dropped.is_empty());
        if removed {
            self.encoded = None;
        }
    }

    /// Serialises records for the contact gossip payload
    /// ([`encode_records`](Self::encode_records)). The encoding is
    /// memoised until the next drop, adoption or prune; re-encoding is a
    /// walk over the records' id slices. Each call returns its own copy
    /// of the payload, because the policy interface hands out an owned
    /// buffer.
    pub fn to_gossip_bytes(&mut self) -> Vec<u8> {
        let records = &self.records;
        self.encoded
            .get_or_insert_with(|| Self::encode_records(records))
            .clone()
    }

    /// Merges a gossip payload produced by
    /// [`to_gossip_bytes`](Self::to_gossip_bytes); malformed payloads are
    /// ignored (a real radio would checksum, but robustness over panic
    /// here). Returns the number of records adopted.
    ///
    /// The merge streams over the wire bytes directly. A first pass
    /// validates the whole payload, so a malformation found halfway
    /// through cannot leave a partial merge behind. The second pass
    /// compares each record's time in place; only a winner of the
    /// newest-wins rule has its ids decoded, into one buffer reused
    /// across the payload, and is then adopted at the cost of its
    /// difference from the record it replaces. A payload whose origins are not strictly increasing
    /// (never produced by [`encode_records`](Self::encode_records)) goes
    /// through [`decode_records`](Self::decode_records) and
    /// [`merge`](Self::merge) instead, which keep the last occurrence of
    /// a duplicate origin.
    pub fn merge_gossip_bytes(&mut self, bytes: &[u8]) -> usize {
        self.merge_gossip_bytes_inner(bytes, None)
    }

    /// [`merge_gossip_bytes`](Self::merge_gossip_bytes) with
    /// [`merge_tracking`](Self::merge_tracking)'s change reporting.
    pub fn merge_gossip_bytes_tracking(
        &mut self,
        bytes: &[u8],
        changed: &mut Vec<MessageId>,
    ) -> usize {
        self.merge_gossip_bytes_inner(bytes, Some(changed))
    }

    fn merge_gossip_bytes_inner(
        &mut self,
        bytes: &[u8],
        mut changed: Option<&mut Vec<MessageId>>,
    ) -> usize {
        // Pass 1: validate the whole payload without allocating, so a
        // malformation found halfway through cannot leave a partial
        // merge behind (decode-then-merge was all-or-nothing too).
        let Some(sorted) = Self::validate_gossip(bytes) else {
            return 0;
        };
        if !sorted {
            // `encode_records` emits strictly increasing origins; a
            // payload that doesn't is hand-crafted. Fall back to the
            // map-building path so duplicate origins keep
            // `decode_records`' last-occurrence-wins semantics.
            return match Self::decode_records(bytes) {
                Some(records) => self.merge_inner(&records, changed),
                None => 0,
            };
        }
        // Pass 2: stream the records; decode and adopt only the winners.
        let mut cur = &bytes[4..];
        let n_records = u32_at(&mut cur).expect("validated");
        let mut adopted = 0;
        let mut ids = Vec::new();
        for _ in 0..n_records {
            let origin = NodeId(u32_at(&mut cur).expect("validated"));
            let record_time =
                SimTime::from_secs(f64::from_bits(u64_at(&mut cur).expect("validated")));
            let n_msgs = u32_at(&mut cur).expect("validated") as usize;
            let raw = take(&mut cur, n_msgs * 8).expect("validated");
            if !self.wins(origin, record_time) {
                continue;
            }
            ids.clear();
            ids.extend(
                raw.chunks_exact(8)
                    .map(|b| MessageId(u64::from_le_bytes(b.try_into().expect("8 bytes")))),
            );
            normalise(&mut ids);
            self.adopt(origin, record_time, &ids, changed.as_deref_mut());
            adopted += 1;
        }
        adopted
    }

    /// Structure-checks a gossip payload without allocating. Returns
    /// `None` on any malformation [`decode_records`](Self::decode_records)
    /// would reject, otherwise whether the origin ids are strictly
    /// increasing (what `encode_records` always emits).
    fn validate_gossip(bytes: &[u8]) -> Option<bool> {
        let mut cur = bytes;
        if take(&mut cur, 4)? != GOSSIP_MAGIC {
            return None;
        }
        let n_records = u32_at(&mut cur)?;
        let mut sorted = true;
        let mut prev: Option<u32> = None;
        for _ in 0..n_records {
            let origin = u32_at(&mut cur)?;
            if prev.is_some_and(|p| p >= origin) {
                sorted = false;
            }
            prev = Some(origin);
            let secs = f64::from_bits(u64_at(&mut cur)?);
            if !secs.is_finite() || secs < 0.0 {
                return None;
            }
            let n_msgs = u32_at(&mut cur)? as usize;
            take(&mut cur, n_msgs.checked_mul(8)?)?;
        }
        if cur.is_empty() {
            Some(sorted)
        } else {
            None
        }
    }

    /// Encodes a records map into the compact gossip wire format:
    /// magic `"DLG1"`, a little-endian `u32` record count, then per
    /// record the `u32` origin id, the `u64` bit pattern of its record
    /// time, a `u32` entry count and that many `u64` message ids.
    ///
    /// Origins come out in `BTreeMap` order and each record's ids in
    /// their sorted record order, so equal maps encode to byte-identical
    /// payloads regardless of insertion history — required for
    /// deterministic replay of recorded gossip.
    pub fn encode_records(records: &BTreeMap<NodeId, DroppedRecord>) -> Vec<u8> {
        let entries: usize = records.values().map(|r| r.dropped.len()).sum();
        let mut out = Vec::with_capacity(8 + records.len() * 16 + entries * 8);
        out.extend_from_slice(GOSSIP_MAGIC);
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (origin, rec) in records {
            out.extend_from_slice(&origin.0.to_le_bytes());
            out.extend_from_slice(&rec.record_time.as_secs().to_bits().to_le_bytes());
            out.extend_from_slice(&(rec.dropped.len() as u32).to_le_bytes());
            let start = out.len();
            out.resize(start + rec.dropped.len() * 8, 0);
            for (slot, m) in out[start..].chunks_exact_mut(8).zip(&rec.dropped) {
                slot.copy_from_slice(&m.0.to_le_bytes());
            }
        }
        out
    }

    /// Decodes an [`encode_records`](Self::encode_records) payload.
    /// Returns `None` on any malformation — wrong magic, truncation,
    /// trailing bytes, or a non-finite/negative record time. Each
    /// record's ids come back sorted with duplicates collapsed, and a
    /// repeated origin keeps its last occurrence.
    pub fn decode_records(bytes: &[u8]) -> Option<BTreeMap<NodeId, DroppedRecord>> {
        let mut cur = bytes;
        if take(&mut cur, 4)? != GOSSIP_MAGIC {
            return None;
        }
        let n_records = u32_at(&mut cur)?;
        let mut records = BTreeMap::new();
        for _ in 0..n_records {
            let origin = NodeId(u32_at(&mut cur)?);
            let secs = f64::from_bits(u64_at(&mut cur)?);
            if !secs.is_finite() || secs < 0.0 {
                return None;
            }
            let record_time = SimTime::from_secs(secs);
            let n_msgs = u32_at(&mut cur)? as usize;
            let raw = take(&mut cur, n_msgs.checked_mul(8)?)?;
            let mut dropped: Vec<MessageId> = raw
                .chunks_exact(8)
                .map(|b| MessageId(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
                .collect();
            normalise(&mut dropped);
            records.insert(
                origin,
                DroppedRecord {
                    dropped,
                    record_time,
                },
            );
        }
        if !cur.is_empty() {
            return None;
        }
        Some(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn own_drops_are_recorded() {
        let mut dl = DroppedList::new(NodeId(3));
        assert!(!dl.own_dropped(MessageId(1)));
        dl.record_own_drop(t(10.0), MessageId(1));
        dl.record_own_drop(t(12.0), MessageId(2));
        assert!(dl.own_dropped(MessageId(1)));
        assert_eq!(dl.drop_count(MessageId(1)), 1);
        assert_eq!(dl.entry_count(), 2);
        assert_eq!(dl.origin_count(), 1);
        assert_eq!(dl.records()[&NodeId(3)].record_time, t(12.0));
    }

    #[test]
    fn redrop_of_known_message_does_not_bump_record_time() {
        // Fig. 5: the record time moves iff a new drop action occurs. A
        // re-drop of an already-recorded message must leave the record
        // (and its memoised encoding) untouched.
        let mut dl = DroppedList::new(NodeId(3));
        dl.record_own_drop(t(10.0), MessageId(1));
        let encoded = dl.to_gossip_bytes();
        dl.record_own_drop(t(50.0), MessageId(1));
        assert_eq!(dl.records()[&NodeId(3)].record_time, t(10.0));
        assert_eq!(dl.drop_count(MessageId(1)), 1);
        assert_eq!(
            dl.to_gossip_bytes(),
            encoded,
            "no-op re-drop must not re-encode"
        );
        // A genuinely new drop still bumps the time.
        dl.record_own_drop(t(60.0), MessageId(2));
        assert_eq!(dl.records()[&NodeId(3)].record_time, t(60.0));
    }

    #[test]
    fn redrop_does_not_cause_merge_storm() {
        // Regression: node A drops message 1 once, gossips it to B, then
        // "re-drops" the same message (e.g. it re-admitted and re-evicted
        // the copy). Before the fix the re-drop bumped A's record time,
        // so A's next export looked newer than B's copy and B adopted an
        // informationally identical record — and so on across the whole
        // network, every re-drop, forever.
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        a.record_own_drop(t(5.0), MessageId(1));
        assert_eq!(b.merge_gossip_bytes(&a.to_gossip_bytes()), 1);

        for k in 0..10 {
            a.record_own_drop(t(10.0 + k as f64), MessageId(1));
            assert_eq!(
                b.merge_gossip_bytes(&a.to_gossip_bytes()),
                0,
                "no-op re-drop #{k} forced a gossip adoption"
            );
        }
        assert_eq!(b.drop_count(MessageId(1)), 1);
    }

    #[test]
    fn clear_wipes_records_and_caches() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        b.record_own_drop(t(2.0), MessageId(9));
        a.record_own_drop(t(1.0), MessageId(1));
        a.merge(b.records());
        assert_eq!(a.origin_count(), 2);
        a.clear();
        assert_eq!(a.origin_count(), 0);
        assert_eq!(a.entry_count(), 0);
        assert_eq!(a.drop_count(MessageId(1)), 0);
        assert!(!a.anyone_dropped(MessageId(9)));
        // The cleared list still works: drops re-record, merges re-adopt.
        a.record_own_drop(t(20.0), MessageId(1));
        assert!(a.own_dropped(MessageId(1)));
        assert_eq!(a.merge(b.records()), 1);
    }

    #[test]
    fn merge_keeps_newest_record_per_origin() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        b.record_own_drop(t(5.0), MessageId(10));
        a.merge(b.records());
        assert!(a.anyone_dropped(MessageId(10)));

        // b updates its record later; the merge replaces a's stale copy.
        b.record_own_drop(t(9.0), MessageId(11));
        a.merge(b.records());
        assert_eq!(a.drop_count(MessageId(11)), 1);

        // A stale version of b's record (record_time 5) must NOT clobber
        // the newer one a already has (record_time 9).
        let mut stale = BTreeMap::new();
        stale.insert(
            NodeId(1),
            DroppedRecord {
                dropped: vec![MessageId(10)],
                record_time: t(5.0),
            },
        );
        a.merge(&stale);
        assert!(a.anyone_dropped(MessageId(11)), "stale record clobbered");
    }

    #[test]
    fn merge_never_overwrites_own_record() {
        let mut a = DroppedList::new(NodeId(0));
        a.record_own_drop(t(1.0), MessageId(1));
        let mut forged = BTreeMap::new();
        forged.insert(
            NodeId(0),
            DroppedRecord {
                dropped: vec![MessageId(99)],
                record_time: t(100.0),
            },
        );
        a.merge(&forged);
        assert!(!a.anyone_dropped(MessageId(99)));
        assert!(a.own_dropped(MessageId(1)));
    }

    #[test]
    fn drop_count_sums_across_origins() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        let mut c = DroppedList::new(NodeId(2));
        a.record_own_drop(t(1.0), MessageId(7));
        b.record_own_drop(t(2.0), MessageId(7));
        c.merge(a.records());
        c.merge(b.records());
        assert_eq!(c.drop_count(MessageId(7)), 2);
        assert_eq!(c.drop_count(MessageId(8)), 0);
    }

    #[test]
    fn transitive_gossip_propagates() {
        // a -> b -> c without a and c ever meeting.
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        let mut c = DroppedList::new(NodeId(2));
        a.record_own_drop(t(1.0), MessageId(5));
        b.merge(a.records());
        c.merge(b.records());
        assert!(c.anyone_dropped(MessageId(5)));
    }

    #[test]
    fn gossip_bytes_roundtrip() {
        let mut a = DroppedList::new(NodeId(0));
        a.record_own_drop(t(3.0), MessageId(4));
        let bytes = a.to_gossip_bytes();
        let mut b = DroppedList::new(NodeId(1));
        b.merge_gossip_bytes(&bytes);
        assert!(b.anyone_dropped(MessageId(4)));
        // Garbage is ignored.
        b.merge_gossip_bytes(b"definitely not json");
        assert_eq!(b.drop_count(MessageId(4)), 1);
    }

    #[test]
    fn merge_adopts_same_timestamp_records_from_two_sources() {
        // Two distinct origins whose records carry the *same* record
        // time must both be adopted — the newest-wins rule compares per
        // origin, never across origins.
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        let mut c = DroppedList::new(NodeId(2));
        b.record_own_drop(t(7.0), MessageId(10));
        c.record_own_drop(t(7.0), MessageId(11));
        assert_eq!(a.merge(b.records()), 1);
        assert_eq!(a.merge(c.records()), 1);
        assert!(a.anyone_dropped(MessageId(10)));
        assert!(a.anyone_dropped(MessageId(11)));

        // An equal-timestamp copy of an origin we already know is a tie:
        // ours is kept and nothing counts as adopted.
        assert_eq!(a.merge(b.records()), 0);
    }

    #[test]
    fn merge_counts_zero_for_forged_self_records() {
        let mut a = DroppedList::new(NodeId(0));
        let mut forged = BTreeMap::new();
        forged.insert(
            NodeId(0),
            DroppedRecord {
                dropped: vec![MessageId(99)],
                record_time: t(100.0),
            },
        );
        assert_eq!(a.merge(&forged), 0);
        assert!(!a.anyone_dropped(MessageId(99)));
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        b.record_own_drop(t(4.0), MessageId(6));
        b.record_own_drop(t(5.0), MessageId(7));
        let payload = b.to_gossip_bytes();
        assert_eq!(a.merge_gossip_bytes(&payload), 1);
        let snapshot = a.clone();
        // Re-merging the identical payload adopts nothing and changes
        // nothing.
        assert_eq!(a.merge_gossip_bytes(&payload), 0);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn merge_tracking_reports_exactly_the_moved_counts() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        b.record_own_drop(t(4.0), MessageId(6));
        b.record_own_drop(t(5.0), MessageId(7));

        // Fresh record: every entry is reported.
        let mut changed = Vec::new();
        assert_eq!(
            a.merge_gossip_bytes_tracking(&b.to_gossip_bytes(), &mut changed),
            1
        );
        changed.sort_unstable();
        assert_eq!(changed, vec![MessageId(6), MessageId(7)]);

        // Idempotent re-merge: nothing adopted, nothing reported.
        changed.clear();
        assert_eq!(
            a.merge_gossip_bytes_tracking(&b.to_gossip_bytes(), &mut changed),
            0
        );
        assert_eq!(changed, Vec::new());

        // Replacement: only the symmetric difference is reported (6 and
        // 7 persist in b's record, 8 is new).
        b.record_own_drop(t(9.0), MessageId(8));
        changed.clear();
        assert_eq!(
            a.merge_gossip_bytes_tracking(&b.to_gossip_bytes(), &mut changed),
            1
        );
        assert_eq!(changed, vec![MessageId(8)]);
        assert_eq!(a.drop_count(MessageId(6)), 1);
        assert_eq!(a.drop_count(MessageId(8)), 1);

        // An entry pruned on the peer side is reported once the record
        // is re-adopted: its d_i here drops back.
        let mut c = DroppedList::new(NodeId(2));
        c.merge_gossip_bytes(&b.to_gossip_bytes());
        b.prune(|m| m == MessageId(6));
        b.record_own_drop(t(20.0), MessageId(9));
        changed.clear();
        assert_eq!(
            c.merge_gossip_bytes_tracking(&b.to_gossip_bytes(), &mut changed),
            1
        );
        changed.sort_unstable();
        assert_eq!(changed, vec![MessageId(6), MessageId(9)]);
        assert_eq!(c.drop_count(MessageId(6)), 0);
        assert_eq!(c.drop_count(MessageId(9)), 1);
    }

    /// Recomputes `d_i` by brute force and checks the maintained index
    /// against it for every message the list has ever heard about.
    fn assert_counts_consistent(dl: &DroppedList, msgs: impl IntoIterator<Item = u64>) {
        for id in msgs {
            let m = MessageId(id);
            let brute = dl
                .records()
                .values()
                .filter(|r| r.dropped.contains(&m))
                .count() as u32;
            assert_eq!(dl.drop_count(m), brute, "index drifted for {m:?}");
            assert_eq!(dl.anyone_dropped(m), brute > 0, "index drifted for {m:?}");
        }
    }

    #[test]
    fn counts_index_survives_merge_replacement_and_prune() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        a.record_own_drop(t(1.0), MessageId(1));
        a.record_own_drop(t(1.0), MessageId(1)); // re-drop: no double count
        b.record_own_drop(t(2.0), MessageId(1));
        b.record_own_drop(t(3.0), MessageId(2));
        a.merge(b.records());
        assert_counts_consistent(&a, 1..=3);
        assert_eq!(a.drop_count(MessageId(1)), 2);

        // b revises its record: message 2 pruned away, message 3 added.
        // The replacing merge must retire the old record's entries.
        b.prune(|m| m == MessageId(2));
        b.record_own_drop(t(9.0), MessageId(3));
        a.merge(b.records());
        assert_counts_consistent(&a, 1..=3);
        assert_eq!(a.drop_count(MessageId(2)), 0);

        a.prune(|m| m == MessageId(1));
        assert_counts_consistent(&a, 1..=3);
        assert!(!a.anyone_dropped(MessageId(1)));
    }

    #[test]
    fn gossip_encoding_is_deterministic_and_memoised() {
        let mut a = DroppedList::new(NodeId(0));
        a.record_own_drop(t(3.0), MessageId(4));
        a.record_own_drop(t(5.0), MessageId(2));
        let first = a.to_gossip_bytes();
        assert_eq!(first, a.to_gossip_bytes(), "memoised bytes differ");

        // A fresh list with the same records encodes identically
        // (sorted record order, not insertion order).
        let mut b = DroppedList::new(NodeId(1));
        b.merge_gossip_bytes(&first);
        b.record_own_drop(t(7.0), MessageId(9));
        let mut c = DroppedList::new(NodeId(2));
        c.merge_gossip_bytes(&b.to_gossip_bytes());
        assert_eq!(
            DroppedList::encode_records(b.records()),
            DroppedList::encode_records(c.records())
        );

        // Roundtrip is lossless, including record times.
        let decoded = DroppedList::decode_records(&first).unwrap();
        assert_eq!(&decoded, a.records());

        // Truncated and trailing-garbage payloads are rejected whole.
        assert_eq!(DroppedList::decode_records(&first[..first.len() - 1]), None);
        let mut padded = first.clone();
        padded.push(0);
        assert_eq!(DroppedList::decode_records(&padded), None);
    }

    #[test]
    fn prune_removes_expired_entries() {
        let mut a = DroppedList::new(NodeId(0));
        a.record_own_drop(t(1.0), MessageId(1));
        a.record_own_drop(t(2.0), MessageId(2));
        let mut b = DroppedList::new(NodeId(1));
        b.record_own_drop(t(3.0), MessageId(1));
        a.merge(b.records());
        a.prune(|m| m == MessageId(1));
        assert!(!a.anyone_dropped(MessageId(1)));
        assert!(a.anyone_dropped(MessageId(2)));
        // b's record only contained message 1 -> whole record removed.
        assert_eq!(a.origin_count(), 1);
    }
}
