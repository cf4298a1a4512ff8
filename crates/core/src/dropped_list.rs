//! The gossiped dropped-message records — paper Fig. 5.
//!
//! Every node maintains one record per *origin node*: the messages that
//! origin has dropped, stamped with a record time. On contact the two
//! nodes exchange records and keep, per origin, the one with the
//! **newest record time** ("only the source node can modify the record
//! time, which happens if and only if a new drop action occurs in its
//! buffer"). Summing over records gives `d_i`, the network-wide drop
//! count of message `i` (input to Eq. 14); and "nodes reject receiving
//! the message already in their dropped lists", which prevents a dropped
//! copy from being counted twice.
//!
//! A record's message ids are its origin's *drop-order log*: each new
//! drop appends one id, and only a crash wipe ([`DroppedList::clear`])
//! removes any. A log therefore lives for one *epoch*, from the origin's
//! first drop after a wipe (the record's `epoch_start`) to the next
//! wipe, and every version of it that gossip spreads is a prefix of the
//! origin's current log.
//!
//! Storage is flat. The records sit in one `Vec` sorted by origin, so
//! the merge, the delta export and the summary walk them in step with a
//! payload or summary, which list origins in the same order; a new
//! origin is one sorted insert. A log grows by a quarter of its length
//! (at least 4 ids) whenever it runs out of room, so appends cost
//! amortised O(1). `d_i` lives in a paged index: pages of 256 `u32`
//! counts, one per block of consecutive ids, found by `id >> 8` in a
//! small hashed map. World ids are dense catalog indices, so a run
//! touches few pages, and any id, a forged one included, costs at most
//! one page. That keeps `drop_count`/`anyone_dropped` O(1); every
//! mutator keeps the index exactly in sync with the records, and the
//! full wire encoding is memoised between mutations.
//!
//! A contact need not ship the whole list. Each side first sends a
//! *summary vector* ([`DroppedList::to_summary_bytes`]): per record the
//! origin, its record time `T_p` and its length `len_p`. The other
//! answers with a *delta* ([`DroppedList::delta_gossip_bytes`]) holding,
//! for each record the summarised list would adopt (`T_p < T`), either
//! the *suffix* `log[len_p..]` or the whole record. The suffix is sent
//! when `epoch_start < T_p` (strictly) and `len_p <= len`. That test is
//! safe because every version of an older epoch was stamped at or
//! before the wipe that ended it, so never after the new `epoch_start`:
//! `T_p > epoch_start` means the peer holds a prefix of this very log. A
//! crash and a drop at the same instant leave `T_p == epoch_start` and
//! fall back to the whole record. The receiver appends a suffix and
//! touches the index for exactly the appended ids, so a merge costs the
//! ids that move, not the record length. Merging a delta adopts what merging the full payload would:
//! the same records, the same `d_i` changes, the same count. This is the
//! summary-vector anti-entropy of epidemic routing (Vahdat & Becker,
//! 2000), cut down to single ids by the logs' prefix structure.
//!
//! Wire layouts; integers are little-endian and times are the `u64` bit
//! patterns of their `f64` seconds:
//!
//! * summary: `"DLS2"`, `u32` owner, `u32` count, then per record in
//!   origin order `u32` origin, `u64` record time and `u32` length — 16
//!   bytes per origin;
//! * gossip payload, full or delta: `"DLG2"`, `u32` count, then per
//!   entry in origin order `u32` origin, `u64` record time, `u64` epoch
//!   start, `u32` base, `u32` id count and that many `u64` ids in log
//!   order. Base 0 is a whole record, which replaces the receiver's;
//!   base `k > 0` is a suffix, appended to the receiver's record, which
//!   must hold exactly `k` ids of the same epoch, else the whole payload
//!   is malformed.

use dtn_core::ids::{IdMap, MessageId, NodeId};
use dtn_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Leading magic of the binary gossip payload.
const GOSSIP_MAGIC: &[u8; 4] = b"DLG2";

/// Leading magic of the summary vector.
const SUMMARY_MAGIC: &[u8; 4] = b"DLS2";

/// Wire size of one summary entry: `u32` origin, `u64` record-time bits,
/// `u32` record length.
const SUMMARY_ENTRY: usize = 16;

/// Wire size of a gossip entry's header: `u32` origin, `u64` record
/// time, `u64` epoch start, `u32` base, `u32` id count.
const ENTRY_HEADER: usize = 28;

/// One origin's dropped-message record (a row of Fig. 5's structure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DroppedRecord {
    /// Messages this origin has dropped since `epoch_start`, in drop
    /// order. An honest record lists each id once.
    pub dropped: Vec<MessageId>,
    /// When the origin last modified the record.
    pub record_time: SimTime,
    /// When the origin made the first drop of this log: its first drop
    /// since it last lost its list.
    pub epoch_start: SimTime,
}

/// One origin's entry in a decoded gossip payload.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipEntry {
    /// 0 when `record` is the whole record. Otherwise `record.dropped`
    /// is a suffix that continues the receiver's record, which must hold
    /// exactly `base` ids of the same epoch.
    pub base: usize,
    /// The record's time and epoch, with the whole log or the suffix.
    pub record: DroppedRecord,
}

/// A node's view of everyone's dropped lists.
///
/// `records` is the authoritative Fig. 5 state; `counts` and `encoded`
/// are derived caches kept exactly in sync by every mutator, so the hot
/// per-contact queries ([`drop_count`](Self::drop_count),
/// [`anyone_dropped`](Self::anyone_dropped)) cost O(1) and a full
/// export between mutations re-serialises nothing.
#[derive(Debug, Clone)]
pub struct DroppedList {
    /// The node that owns (and may modify) the `own` record.
    owner: NodeId,
    /// One record per origin node, `owner`'s own record included, in
    /// strictly increasing origin order.
    records: Vec<(NodeId, DroppedRecord)>,
    /// Derived: per message, the number of record entries listing it
    /// (`d_i` of Eq. 14, since an honest record lists an id once).
    counts: DropCounts,
    /// Derived: memoised full gossip encoding of `records`, cleared by
    /// any mutation that changes them.
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

/// A wire time: finite and non-negative, else `None`.
fn time_at(cur: &mut &[u8]) -> Option<SimTime> {
    let secs = f64::from_bits(u64_at(cur)?);
    (secs.is_finite() && secs >= 0.0).then(|| SimTime::from_secs(secs))
}

/// Low id bits that pick a count within its page.
const PAGE_BITS: u32 = 8;

/// Counts per page of the `d_i` index.
const PAGE: usize = 1 << PAGE_BITS;

/// The `d_i` index: per message id, how many record entries list it.
/// Counts sit in pages of [`PAGE`] consecutive ids, allocated on the
/// first count of any of their ids and kept until [`clear`](Self::clear).
#[derive(Debug, Clone, Default)]
struct DropCounts {
    /// Page number (`id >> PAGE_BITS`) to its position in `pages`.
    index: IdMap<u64, u32>,
    pages: Vec<[u32; PAGE]>,
}

impl DropCounts {
    /// Where `msg`'s count sits within its page.
    fn slot(msg: MessageId) -> usize {
        msg.0 as usize & (PAGE - 1)
    }

    fn get(&self, msg: MessageId) -> u32 {
        self.index
            .get(&(msg.0 >> PAGE_BITS))
            .map_or(0, |&p| self.pages[p as usize][Self::slot(msg)])
    }

    /// Position of page `number` in `pages`, allocating it zeroed if
    /// absent.
    fn page(&mut self, number: u64) -> usize {
        let pages = &mut self.pages;
        *self.index.entry(number).or_insert_with(|| {
            pages.push([0; PAGE]);
            (pages.len() - 1) as u32
        }) as usize
    }

    /// Counts one more listing of each of `ids`. Consecutive ids of one
    /// page share a single page lookup.
    fn add(&mut self, ids: &[MessageId]) {
        let mut last: Option<(u64, usize)> = None;
        for &id in ids {
            let number = id.0 >> PAGE_BITS;
            let page = match last {
                Some((n, page)) if n == number => page,
                _ => self.page(number),
            };
            last = Some((number, page));
            self.pages[page][Self::slot(id)] += 1;
        }
    }

    /// Counts one listing fewer of `msg`, which some record listed.
    fn remove(&mut self, msg: MessageId) {
        let page = self.index[&(msg.0 >> PAGE_BITS)] as usize;
        self.pages[page][Self::slot(msg)] -= 1;
    }

    fn clear(&mut self) {
        self.index.clear();
        self.pages.clear();
    }
}

/// The least a log grows by when it runs out of room (see [`reserve`]).
const MIN_GROWTH: usize = 4;

/// Makes room for `extra` more ids in a log. When it has too little, it
/// grows by a quarter of its length, by [`MIN_GROWTH`], or by `extra`,
/// whichever is most, so appends cost amortised O(1) while a long-lived
/// log carries at most a quarter of slack.
fn reserve(log: &mut Vec<MessageId>, extra: usize) {
    if log.capacity() - log.len() < extra {
        log.reserve_exact(extra.max(log.len() / 4).max(MIN_GROWTH));
    }
}

/// One gossip entry as it sits on the wire: the header fields and the
/// ids' raw bytes.
struct WireEntry<'a> {
    origin: NodeId,
    record_time: SimTime,
    epoch_start: SimTime,
    base: usize,
    raw: &'a [u8],
}

impl<'a> WireEntry<'a> {
    /// Reads the next entry, or `None` on truncation or a time that is
    /// not finite and non-negative, or an epoch that starts after the
    /// record time.
    fn read(cur: &mut &'a [u8]) -> Option<Self> {
        let origin = NodeId(u32_at(cur)?);
        let record_time = time_at(cur)?;
        let epoch_start = time_at(cur)?;
        if epoch_start > record_time {
            return None;
        }
        let base = u32_at(cur)? as usize;
        let n_ids = u32_at(cur)? as usize;
        let raw = take(cur, n_ids.checked_mul(8)?)?;
        Some(WireEntry {
            origin,
            record_time,
            epoch_start,
            base,
            raw,
        })
    }

    fn ids(&self) -> impl ExactSizeIterator<Item = MessageId> + Clone + 'a {
        self.raw
            .chunks_exact(8)
            .map(|b| MessageId(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
    }
}

/// A structure-checked summary vector, read in place: the summarised
/// list's owner and its `(origin, record_time, length)` entries, origins
/// strictly increasing.
struct Summary<'a> {
    owner: NodeId,
    /// The entries' wire bytes, [`SUMMARY_ENTRY`] each.
    wire: &'a [u8],
}

impl<'a> Summary<'a> {
    /// Checks a [`DroppedList::to_summary_bytes`] payload without
    /// allocating. `None` on any malformation: wrong magic, truncation,
    /// trailing bytes, origins not strictly increasing, or a record time
    /// that is not finite and non-negative.
    fn parse(bytes: &'a [u8]) -> Option<Self> {
        let mut cur = bytes;
        if take(&mut cur, 4)? != SUMMARY_MAGIC {
            return None;
        }
        let owner = NodeId(u32_at(&mut cur)?);
        let n_entries = u32_at(&mut cur)? as usize;
        if cur.len() != n_entries.checked_mul(SUMMARY_ENTRY)? {
            return None;
        }
        let summary = Summary { owner, wire: cur };
        let mut prev: Option<u32> = None;
        for (origin, secs, _) in summary.entries() {
            if prev.is_some_and(|p| p >= origin) || !secs.is_finite() || secs < 0.0 {
                return None;
            }
            prev = Some(origin);
        }
        Some(summary)
    }

    /// The `(origin id, record-time seconds, length)` entries in wire
    /// order.
    fn entries(&self) -> impl Iterator<Item = (u32, f64, usize)> + 'a {
        self.wire.chunks_exact(SUMMARY_ENTRY).map(|mut e| {
            let origin = u32_at(&mut e).expect("4 bytes");
            let time = f64::from_bits(u64_at(&mut e).expect("8 bytes"));
            (origin, time, u32_at(&mut e).expect("4 bytes") as usize)
        })
    }
}

impl DroppedList {
    /// An empty list owned by `owner`.
    pub fn new(owner: NodeId) -> Self {
        DroppedList {
            owner,
            records: Vec::new(),
            counts: DropCounts::default(),
            encoded: None,
        }
    }

    /// Where `origin`'s record sits in `records`: `Ok` if held, else
    /// `Err` with the position that keeps the origins sorted.
    fn find(&self, origin: NodeId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&origin, |&(o, _)| o)
    }

    /// Advances the cursor `at` past every record whose origin is below
    /// `origin` and returns the record there if it is `origin`'s. A walk
    /// that seeks strictly increasing origins visits each record once.
    fn seek(&self, at: &mut usize, origin: NodeId) -> Option<&DroppedRecord> {
        while self.records.get(*at).is_some_and(|&(o, _)| o < origin) {
            *at += 1;
        }
        self.records
            .get(*at)
            .filter(|&&(o, _)| o == origin)
            .map(|(_, rec)| rec)
    }

    /// The index of `origin`'s record, inserted empty (stamped `time`)
    /// where `slot` says when absent.
    fn open(&mut self, slot: Result<usize, usize>, origin: NodeId, time: SimTime) -> usize {
        slot.unwrap_or_else(|at| {
            let rec = DroppedRecord {
                dropped: Vec::new(),
                record_time: time,
                epoch_start: time,
            };
            self.records.insert(at, (origin, rec));
            at
        })
    }

    /// Registers that the owner dropped `msg` at `now` (Fig. 5: the
    /// record time moves *if and only if* a new drop action occurs).
    /// Times must not go backwards between wipes.
    ///
    /// A re-drop of a message already in the owner's record is a no-op:
    /// bumping the time anyway would make every peer's newest-wins merge
    /// re-adopt an unchanged record — a network-wide gossip-adoption
    /// storm carrying zero information.
    pub fn record_own_drop(&mut self, now: SimTime, msg: MessageId) {
        if self.own_dropped(msg) {
            return;
        }
        let at = self.open(self.find(self.owner), self.owner, now);
        let rec = &mut self.records[at].1;
        reserve(&mut rec.dropped, 1);
        rec.dropped.push(msg);
        rec.record_time = now;
        self.counts.add(&[msg]);
        self.encoded = None;
    }

    /// Wipes all records (own and adopted) and the derived caches,
    /// keeping the owner. Models the owner losing its dropped-list state
    /// in a crash: the rebooted node starts gossiping from scratch, and
    /// its next drop opens a new epoch of its own record.
    pub fn clear(&mut self) {
        self.records.clear();
        self.counts.clear();
        self.encoded = None;
    }

    /// Whether a peer's record for `origin` stamped `record_time` beats
    /// `held`, what this list holds for it: never for the owner's own
    /// record, else strictly newer than ours (or ours absent).
    fn wins(&self, origin: NodeId, held: Option<&DroppedRecord>, record_time: SimTime) -> bool {
        origin != self.owner && held.is_none_or(|mine| mine.record_time < record_time)
    }

    /// Whether an entry with this `base` can be adopted onto `held`, the
    /// record held for its origin: a whole record always can, a suffix
    /// only onto a held record of exactly `base` ids and the same epoch.
    fn fits(held: Option<&DroppedRecord>, base: usize, epoch_start: SimTime) -> bool {
        base == 0 || held.is_some_and(|r| r.dropped.len() == base && r.epoch_start == epoch_start)
    }

    /// Adopts, into `records[at]`, its origin's record stamped
    /// `record_time` of the epoch started at `epoch_start`: `ids`
    /// continue the held record when `base > 0` (which
    /// [`fits`](Self::fits) checked), else they are the whole record.
    ///
    /// A suffix, and a whole record that extends the held one, are
    /// decoded straight onto the held log and cost the appended ids
    /// only: each is counted. Any other whole record (its origin crashed
    /// since) replaces the held one: the held ids are uncounted and the
    /// new ones counted.
    fn adopt(
        &mut self,
        at: usize,
        record_time: SimTime,
        epoch_start: SimTime,
        base: usize,
        ids: impl ExactSizeIterator<Item = MessageId> + Clone,
    ) {
        let DroppedList {
            records, counts, ..
        } = self;
        let rec = &mut records[at].1;
        let held = rec.dropped.len();
        let extends =
            base > 0 || (ids.len() >= held && ids.clone().zip(&rec.dropped).all(|(a, &b)| a == b));
        let start = if extends {
            let skip = if base > 0 { 0 } else { held };
            reserve(&mut rec.dropped, ids.len() - skip);
            rec.dropped.extend(ids.skip(skip));
            held
        } else {
            for old in std::mem::replace(&mut rec.dropped, ids.collect()) {
                counts.remove(old);
            }
            0
        };
        counts.add(&rec.dropped[start..]);
        rec.record_time = record_time;
        rec.epoch_start = epoch_start;
        self.encoded = None;
    }

    /// `d_i`: how many distinct nodes are known to have dropped `msg`
    /// (the record entries listing it; an honest record lists an id
    /// once). O(1) via the maintained per-message index.
    pub fn drop_count(&self, msg: MessageId) -> u32 {
        self.counts.get(msg)
    }

    /// Whether any known record lists `msg` (the paper's receive-reject
    /// test). O(1) via the maintained per-message index.
    pub fn anyone_dropped(&self, msg: MessageId) -> bool {
        self.drop_count(msg) > 0
    }

    /// Whether the owner itself dropped `msg`: a scan of the owner's
    /// log, made only when some record lists `msg` at all.
    pub fn own_dropped(&self, msg: MessageId) -> bool {
        self.anyone_dropped(msg)
            && self
                .record(self.owner)
                .is_some_and(|r| r.dropped.contains(&msg))
    }

    /// The raw records, one per origin in strictly increasing origin
    /// order (the order the wire formats list them in).
    pub fn records(&self) -> &[(NodeId, DroppedRecord)] {
        &self.records
    }

    /// `origin`'s record, if this list holds one.
    pub fn record(&self, origin: NodeId) -> Option<&DroppedRecord> {
        self.find(origin).ok().map(|at| &self.records[at].1)
    }

    /// Number of origins with a record.
    pub fn origin_count(&self) -> usize {
        self.records.len()
    }

    /// Total dropped-message entries across all records (diagnostic —
    /// the paper assumes this stays negligible next to message sizes).
    pub fn entry_count(&self) -> usize {
        self.records.iter().map(|(_, r)| r.dropped.len()).sum()
    }

    /// Serialises every record whole for the contact gossip payload
    /// ([`encode_records`](Self::encode_records)). The encoding is
    /// memoised until the next drop, adoption or wipe. Each call returns
    /// its own copy of the payload, because the policy interface hands
    /// out an owned buffer.
    pub fn to_gossip_bytes(&mut self) -> Vec<u8> {
        let records = &self.records;
        self.encoded
            .get_or_insert_with(|| Self::encode_records(records))
            .clone()
    }

    /// The summary vector a peer needs to send this list only what it
    /// lacks (the `"DLS2"` layout of the module docs): the owner, then
    /// each record's origin, record time and length. Sixteen bytes per
    /// origin, whatever the records hold.
    pub fn to_summary_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.records.len() * SUMMARY_ENTRY);
        out.extend_from_slice(SUMMARY_MAGIC);
        out.extend_from_slice(&self.owner.0.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for (origin, rec) in &self.records {
            out.extend_from_slice(&origin.0.to_le_bytes());
            out.extend_from_slice(&rec.record_time.as_secs().to_bits().to_le_bytes());
            out.extend_from_slice(&(rec.dropped.len() as u32).to_le_bytes());
        }
        out
    }

    /// The gossip payload for the peer whose summary vector
    /// ([`to_summary_bytes`](Self::to_summary_bytes)) is `peer_summary`:
    /// an entry for each record that peer's newest-wins merge would
    /// adopt — never the peer's own origin, and otherwise those it lacks
    /// or holds with an older record time. Each is the suffix the peer
    /// lacks when the epoch rule of the module docs allows, else the
    /// whole record. Merging it adopts exactly what merging
    /// [`to_gossip_bytes`](Self::to_gossip_bytes) would. A malformed
    /// summary gets the full payload.
    pub fn delta_gossip_bytes(&mut self, peer_summary: &[u8]) -> Vec<u8> {
        let Some(peer) = Summary::parse(peer_summary) else {
            return self.to_gossip_bytes();
        };
        // Records and summary entries both ascend by origin, so one walk
        // over the two finds what the peer holds of each record.
        let mut held = peer.entries().peekable();
        let entries: Vec<_> = self
            .records
            .iter()
            .filter_map(|(origin, rec)| {
                while held.next_if(|&(o, _, _)| o < origin.0).is_some() {}
                let theirs = held.next_if(|&(o, _, _)| o == origin.0);
                if *origin == peer.owner {
                    return None;
                }
                let base = match theirs {
                    None => 0,
                    Some((_, secs, _)) if secs >= rec.record_time.as_secs() => return None,
                    Some((_, secs, len)) => {
                        let prefix = rec.epoch_start.as_secs() < secs && len <= rec.dropped.len();
                        if prefix {
                            len
                        } else {
                            0
                        }
                    }
                };
                Some((origin, rec, base))
            })
            .collect();
        Self::encode(entries.into_iter())
    }

    /// Merges a gossip payload produced by
    /// [`to_gossip_bytes`](Self::to_gossip_bytes) or
    /// [`delta_gossip_bytes`](Self::delta_gossip_bytes): per origin, the
    /// entry with the newest record time wins, and the owner's own
    /// record is never overwritten by hearsay. Malformed payloads are
    /// ignored (a real radio would checksum, but robustness over panic
    /// here). Returns the number of records adopted.
    ///
    /// The merge streams over the wire bytes directly. A first pass
    /// validates the whole payload — structure, origins strictly
    /// increasing (as this type always emits them), and that every
    /// winning suffix continues the record it extends — so a
    /// malformation found halfway through cannot leave a partial merge
    /// behind. The second pass walks the payload in step with the
    /// records, compares each entry's time in place, and decodes only a
    /// winner's ids, straight onto the record that adopts them.
    pub fn merge_gossip_bytes(&mut self, bytes: &[u8]) -> usize {
        if self.check_gossip(bytes).is_none() {
            return 0;
        }
        let mut cur = &bytes[8..];
        let (mut at, mut adopted) = (0, 0);
        while !cur.is_empty() {
            let e = WireEntry::read(&mut cur).expect("validated");
            let held = self.seek(&mut at, e.origin);
            if !self.wins(e.origin, held, e.record_time) {
                continue;
            }
            let slot = if held.is_some() { Ok(at) } else { Err(at) };
            let at = self.open(slot, e.origin, e.record_time);
            self.adopt(at, e.record_time, e.epoch_start, e.base, e.ids());
            adopted += 1;
        }
        adopted
    }

    /// Checks a gossip payload without allocating. `None` on any
    /// malformation [`decode_gossip`](Self::decode_gossip) would reject,
    /// on origins that are not strictly increasing, and on a winning
    /// suffix that does not fit the record it extends. The records are
    /// walked in step with the entries.
    fn check_gossip(&self, bytes: &[u8]) -> Option<()> {
        let mut cur = bytes;
        if take(&mut cur, 4)? != GOSSIP_MAGIC {
            return None;
        }
        let n_entries = u32_at(&mut cur)?;
        let mut prev: Option<NodeId> = None;
        let mut at = 0;
        for _ in 0..n_entries {
            let e = WireEntry::read(&mut cur)?;
            if prev.is_some_and(|p| p >= e.origin) {
                return None;
            }
            prev = Some(e.origin);
            if e.base > 0 {
                let held = self.seek(&mut at, e.origin);
                if self.wins(e.origin, held, e.record_time)
                    && !Self::fits(held, e.base, e.epoch_start)
                {
                    return None;
                }
            }
        }
        cur.is_empty().then_some(())
    }

    /// Encodes records whole, the form of
    /// [`to_gossip_bytes`](Self::to_gossip_bytes) (the `"DLG2"` layout of
    /// the module docs, every base 0). `records` must be in strictly
    /// increasing origin order, as [`records`](Self::records) is; each
    /// record's ids come out in log order, so equal lists encode to
    /// byte-identical payloads — required for deterministic replay of
    /// recorded gossip.
    pub fn encode_records(records: &[(NodeId, DroppedRecord)]) -> Vec<u8> {
        Self::encode(records.iter().map(|(origin, rec)| (origin, rec, 0)))
    }

    /// Encodes the `(origin, record, base)` entries `entries` yields, in
    /// that order: each record's ids from `base` on. Walks them twice:
    /// once to size the payload exactly, once to write it.
    fn encode<'a>(
        entries: impl Iterator<Item = (&'a NodeId, &'a DroppedRecord, usize)> + Clone,
    ) -> Vec<u8> {
        let (n_entries, n_ids) = entries.clone().fold((0, 0), |(n, k), (_, r, base)| {
            (n + 1, k + r.dropped.len() - base)
        });
        let mut out = Vec::with_capacity(8 + n_entries * ENTRY_HEADER + n_ids * 8);
        out.extend_from_slice(GOSSIP_MAGIC);
        out.extend_from_slice(&(n_entries as u32).to_le_bytes());
        for (origin, rec, base) in entries {
            let ids = &rec.dropped[base..];
            out.extend_from_slice(&origin.0.to_le_bytes());
            out.extend_from_slice(&rec.record_time.as_secs().to_bits().to_le_bytes());
            out.extend_from_slice(&rec.epoch_start.as_secs().to_bits().to_le_bytes());
            out.extend_from_slice(&(base as u32).to_le_bytes());
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            let start = out.len();
            out.resize(start + ids.len() * 8, 0);
            for (slot, m) in out[start..].chunks_exact_mut(8).zip(ids) {
                slot.copy_from_slice(&m.0.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a gossip payload, full or delta. Returns `None` on any
    /// structural malformation — wrong magic, truncation, trailing
    /// bytes, a record time that is not finite and non-negative, or an
    /// epoch that starts after its record time. Ids come back in wire
    /// order, and a repeated origin keeps its last occurrence. Whether a
    /// suffix fits, and whether the origins are sorted, is the
    /// receiver's business ([`merge_gossip_bytes`](Self::merge_gossip_bytes)).
    pub fn decode_gossip(bytes: &[u8]) -> Option<BTreeMap<NodeId, GossipEntry>> {
        let mut cur = bytes;
        if take(&mut cur, 4)? != GOSSIP_MAGIC {
            return None;
        }
        let n_entries = u32_at(&mut cur)?;
        let mut entries = BTreeMap::new();
        for _ in 0..n_entries {
            let e = WireEntry::read(&mut cur)?;
            let record = DroppedRecord {
                dropped: e.ids().collect(),
                record_time: e.record_time,
                epoch_start: e.epoch_start,
            };
            entries.insert(
                e.origin,
                GossipEntry {
                    base: e.base,
                    record,
                },
            );
        }
        cur.is_empty().then_some(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Full gossip from `from` to `to`; returns the adoption count.
    fn gossip(from: &mut DroppedList, to: &mut DroppedList) -> usize {
        to.merge_gossip_bytes(&from.to_gossip_bytes())
    }

    /// A whole-record payload for one hand-built record.
    fn forged(origin: u32, ids: &[u64], time: f64) -> Vec<u8> {
        let record = DroppedRecord {
            dropped: ids.iter().copied().map(MessageId).collect(),
            record_time: t(time),
            epoch_start: t(time),
        };
        DroppedList::encode_records(&[(NodeId(origin), record)])
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
        let own = dl.record(NodeId(3)).unwrap();
        assert_eq!((own.record_time, own.epoch_start), (t(12.0), t(10.0)));
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
        assert_eq!(dl.record(NodeId(3)).unwrap().record_time, t(10.0));
        assert_eq!(dl.drop_count(MessageId(1)), 1);
        assert_eq!(
            dl.to_gossip_bytes(),
            encoded,
            "no-op re-drop must not re-encode"
        );
        // A genuinely new drop still bumps the time.
        dl.record_own_drop(t(60.0), MessageId(2));
        assert_eq!(dl.record(NodeId(3)).unwrap().record_time, t(60.0));
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
        assert_eq!(gossip(&mut a, &mut b), 1);

        for k in 0..10 {
            a.record_own_drop(t(10.0 + k as f64), MessageId(1));
            assert_eq!(
                gossip(&mut a, &mut b),
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
        gossip(&mut b, &mut a);
        assert_eq!(a.origin_count(), 2);
        a.clear();
        assert_eq!(a.origin_count(), 0);
        assert_eq!(a.entry_count(), 0);
        assert_eq!(a.drop_count(MessageId(1)), 0);
        assert!(!a.anyone_dropped(MessageId(9)));
        // The cleared list still works: drops re-record, merges re-adopt.
        a.record_own_drop(t(20.0), MessageId(1));
        assert!(a.own_dropped(MessageId(1)));
        assert_eq!(a.record(NodeId(0)).unwrap().epoch_start, t(20.0));
        assert_eq!(gossip(&mut b, &mut a), 1);
    }

    #[test]
    fn merge_keeps_newest_record_per_origin() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        b.record_own_drop(t(5.0), MessageId(10));
        gossip(&mut b, &mut a);
        assert!(a.anyone_dropped(MessageId(10)));

        // b updates its record later; the merge replaces a's stale copy.
        b.record_own_drop(t(9.0), MessageId(11));
        gossip(&mut b, &mut a);
        assert_eq!(a.drop_count(MessageId(11)), 1);

        // A stale version of b's record (record_time 5) must NOT clobber
        // the newer one a already has (record_time 9).
        assert_eq!(a.merge_gossip_bytes(&forged(1, &[10], 5.0)), 0);
        assert!(a.anyone_dropped(MessageId(11)), "stale record clobbered");
    }

    #[test]
    fn merge_never_overwrites_own_record() {
        let mut a = DroppedList::new(NodeId(0));
        a.record_own_drop(t(1.0), MessageId(1));
        assert_eq!(a.merge_gossip_bytes(&forged(0, &[99], 100.0)), 0);
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
        gossip(&mut a, &mut c);
        gossip(&mut b, &mut c);
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
        gossip(&mut a, &mut b);
        gossip(&mut b, &mut c);
        assert!(c.anyone_dropped(MessageId(5)));
    }

    #[test]
    fn gossip_bytes_roundtrip() {
        let mut a = DroppedList::new(NodeId(0));
        a.record_own_drop(t(3.0), MessageId(4));
        let mut b = DroppedList::new(NodeId(1));
        gossip(&mut a, &mut b);
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
        assert_eq!(gossip(&mut b, &mut a), 1);
        assert_eq!(gossip(&mut c, &mut a), 1);
        assert!(a.anyone_dropped(MessageId(10)));
        assert!(a.anyone_dropped(MessageId(11)));

        // An equal-timestamp copy of an origin we already know is a tie:
        // ours is kept and nothing counts as adopted.
        assert_eq!(gossip(&mut b, &mut a), 0);
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
    fn merge_moves_exactly_the_adopted_counts() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        b.record_own_drop(t(4.0), MessageId(7));
        b.record_own_drop(t(5.0), MessageId(6));
        let counts = |l: &DroppedList| [6, 7, 8, 9].map(|id| l.drop_count(MessageId(id)));

        // Fresh record: every entry is counted.
        assert_eq!(gossip(&mut b, &mut a), 1);
        assert_eq!(counts(&a), [1, 1, 0, 0]);

        // Idempotent re-merge: nothing adopted, nothing moves.
        assert_eq!(gossip(&mut b, &mut a), 0);
        assert_eq!(counts(&a), [1, 1, 0, 0]);

        // Extension: only the appended id is counted (7 and 6 persist
        // in b's record, 8 is new).
        b.record_own_drop(t(9.0), MessageId(8));
        assert_eq!(gossip(&mut b, &mut a), 1);
        assert_eq!(counts(&a), [1, 1, 1, 0]);

        // An entry the peer lost in a crash is uncounted once its new
        // record is adopted: its d_i here drops back.
        let mut c = DroppedList::new(NodeId(2));
        gossip(&mut b, &mut c);
        b.clear();
        b.record_own_drop(t(20.0), MessageId(9));
        b.record_own_drop(t(20.0), MessageId(7));
        b.record_own_drop(t(20.0), MessageId(8));
        assert_eq!(gossip(&mut b, &mut c), 1);
        assert_eq!(counts(&c), [0, 1, 1, 1]);
    }

    #[test]
    fn deltas_carry_suffixes_within_an_epoch_and_whole_records_across() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        for (k, id) in [5, 3, 8].into_iter().enumerate() {
            a.record_own_drop(t(1.0 + k as f64), MessageId(id));
        }
        gossip(&mut a, &mut b);
        a.record_own_drop(t(10.0), MessageId(4));

        // b holds the first three ids: only the fourth travels.
        let delta = a.delta_gossip_bytes(&b.to_summary_bytes());
        assert_eq!(delta.len(), 8 + ENTRY_HEADER + 8);
        let sent = DroppedList::decode_gossip(&delta).unwrap();
        assert_eq!(sent[&NodeId(0)].base, 3);
        assert_eq!(sent[&NodeId(0)].record.dropped, vec![MessageId(4)]);
        assert_eq!(b.merge_gossip_bytes(&delta), 1);
        assert_eq!(b.drop_count(MessageId(4)), 1);
        assert_eq!(b.record(NodeId(0)).unwrap(), a.record(NodeId(0)).unwrap());

        // a crashes and drops again: b's copy is of the old epoch, so the
        // whole new record goes out and the old ids retire.
        a.clear();
        a.record_own_drop(t(20.0), MessageId(3));
        let sent =
            DroppedList::decode_gossip(&a.delta_gossip_bytes(&b.to_summary_bytes())).unwrap();
        assert_eq!(sent[&NodeId(0)].base, 0);
        let delta = a.delta_gossip_bytes(&b.to_summary_bytes());
        assert_eq!(b.merge_gossip_bytes(&delta), 1);
        assert_eq!(b.record(NodeId(0)).unwrap(), a.record(NodeId(0)).unwrap());
        for (id, count) in [(3, 1), (4, 0), (5, 0), (8, 0)] {
            assert_eq!(b.drop_count(MessageId(id)), count, "{id}");
        }
    }

    #[test]
    fn same_instant_crash_and_drop_falls_back_to_the_whole_record() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        a.record_own_drop(t(5.0), MessageId(1));
        gossip(&mut a, &mut b);
        // Crash and drop at t = 5, then drop again: b's record time 5 is
        // not after the new epoch's start (also 5).
        a.clear();
        a.record_own_drop(t(5.0), MessageId(2));
        a.record_own_drop(t(6.0), MessageId(3));
        let delta = a.delta_gossip_bytes(&b.to_summary_bytes());
        assert_eq!(
            DroppedList::decode_gossip(&delta).unwrap()[&NodeId(0)].base,
            0
        );
        assert_eq!(b.merge_gossip_bytes(&delta), 1);
        assert_eq!(b.record(NodeId(0)).unwrap(), a.record(NodeId(0)).unwrap());
        assert_eq!(b.drop_count(MessageId(1)), 0);
    }

    #[test]
    fn a_suffix_that_does_not_fit_makes_the_payload_malformed() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        let mut c = DroppedList::new(NodeId(2));
        let mut shorter = DroppedList::new(NodeId(3));
        let mut other_epoch = DroppedList::new(NodeId(4));
        a.record_own_drop(t(1.0), MessageId(1));
        gossip(&mut a, &mut shorter);
        a.record_own_drop(t(2.0), MessageId(2));
        gossip(&mut a, &mut b);
        a.record_own_drop(t(3.0), MessageId(3));
        c.record_own_drop(t(3.0), MessageId(7));
        gossip(&mut c, &mut a);
        other_epoch.merge_gossip_bytes(&forged(0, &[1, 2], 2.5));

        // Cut for b: a's own record as a suffix past b's two ids, and
        // c's record whole.
        let delta = a.delta_gossip_bytes(&b.to_summary_bytes());
        let entries = DroppedList::decode_gossip(&delta).unwrap();
        assert_eq!((entries[&NodeId(0)].base, entries[&NodeId(2)].base), (2, 0));
        // A list holding a's record at another length, of another epoch
        // or not at all adopts nothing, not even c's whole record.
        for mut receiver in [shorter, other_epoch, DroppedList::new(NodeId(5))] {
            let before = receiver.clone();
            assert_eq!(receiver.merge_gossip_bytes(&delta), 0);
            assert_eq!(receiver, before);
            assert_eq!(receiver.drop_count(MessageId(7)), 0);
        }
        assert_eq!(b.merge_gossip_bytes(&delta), 2);
        assert_eq!(b.records(), a.records());
    }

    /// Recomputes `d_i` by brute force and checks the maintained index
    /// against it for every message the list has ever heard about.
    fn assert_counts_consistent(dl: &DroppedList, msgs: impl IntoIterator<Item = u64>) {
        for id in msgs {
            let m = MessageId(id);
            let brute = dl
                .records()
                .iter()
                .flat_map(|(_, r)| &r.dropped)
                .filter(|&&d| d == m)
                .count() as u32;
            assert_eq!(dl.drop_count(m), brute, "index drifted for {m:?}");
            assert_eq!(dl.anyone_dropped(m), brute > 0, "index drifted for {m:?}");
        }
    }

    #[test]
    fn counts_index_survives_merge_replacement_and_wipe() {
        let mut a = DroppedList::new(NodeId(0));
        let mut b = DroppedList::new(NodeId(1));
        a.record_own_drop(t(1.0), MessageId(1));
        a.record_own_drop(t(1.0), MessageId(1)); // re-drop: no double count
        b.record_own_drop(t(2.0), MessageId(1));
        b.record_own_drop(t(3.0), MessageId(2));
        gossip(&mut b, &mut a);
        assert_counts_consistent(&a, 1..=3);
        assert_eq!(a.drop_count(MessageId(1)), 2);

        // b crashes and starts a new record: message 2 is gone, message
        // 3 added. The replacing merge must retire the old record's
        // entries.
        b.clear();
        b.record_own_drop(t(9.0), MessageId(1));
        b.record_own_drop(t(9.0), MessageId(3));
        gossip(&mut b, &mut a);
        assert_counts_consistent(&a, 1..=3);
        assert_eq!(a.drop_count(MessageId(2)), 0);

        // A forged record listing an id twice is counted as it lists it,
        // and retired the same way.
        a.merge_gossip_bytes(&forged(4, &[3, 1, 3], 30.0));
        assert_counts_consistent(&a, 1..=3);
        a.merge_gossip_bytes(&forged(4, &[2], 31.0));
        assert_counts_consistent(&a, 1..=3);

        a.clear();
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

        // A list that learned the same records another way encodes
        // identically.
        let mut b = DroppedList::new(NodeId(1));
        b.merge_gossip_bytes(&first);
        b.record_own_drop(t(7.0), MessageId(9));
        let mut c = DroppedList::new(NodeId(2));
        let mut d = DroppedList::new(NodeId(3));
        gossip(&mut b, &mut c);
        let delta = b.delta_gossip_bytes(&d.to_summary_bytes());
        d.merge_gossip_bytes(&delta);
        assert_eq!(
            DroppedList::encode_records(c.records()),
            DroppedList::encode_records(d.records())
        );

        // Roundtrip is lossless, including record times and epochs.
        let decoded = DroppedList::decode_gossip(&first).unwrap();
        assert_eq!(&decoded[&NodeId(0)].record, a.record(NodeId(0)).unwrap());

        // Truncated and trailing-garbage payloads are rejected whole.
        assert_eq!(DroppedList::decode_gossip(&first[..first.len() - 1]), None);
        let mut padded = first.clone();
        padded.push(0);
        assert_eq!(DroppedList::decode_gossip(&padded), None);
    }

    #[test]
    fn ids_across_pages_and_at_the_extremes_count_once() {
        let ids = [0, 255, 256, 1 << 40, u64::MAX];
        let mut a = DroppedList::new(NodeId(0));
        assert_eq!(a.merge_gossip_bytes(&forged(1, &ids, 5.0)), 1);
        for id in ids {
            assert_eq!(a.drop_count(MessageId(id)), 1, "{id}");
            assert!(a.anyone_dropped(MessageId(id)), "{id}");
        }
        // Neighbours in the same pages are untouched.
        for id in [1, 254, 257, (1 << 40) + 1, u64::MAX - 1] {
            assert!(!a.anyone_dropped(MessageId(id)), "{id}");
        }
        assert_counts_consistent(&a, ids);
        a.clear();
        for id in ids {
            assert_eq!(a.drop_count(MessageId(id)), 0, "{id}");
            assert!(!a.anyone_dropped(MessageId(id)), "{id}");
        }
        // The wiped list counts afresh.
        a.record_own_drop(t(9.0), MessageId(u64::MAX));
        assert_eq!(a.drop_count(MessageId(u64::MAX)), 1);
    }
}
