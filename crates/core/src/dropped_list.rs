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
//! ## Storage: one store, many views
//!
//! The ids live in a [`DropLogs`] store, never in a list. A world keeps
//! one store that all its nodes' lists share ([`DroppedList::sharing`]);
//! a list built alone ([`DroppedList::new`]) gets a private one. Since
//! every record a node holds is a prefix of its origin's epoch log, a
//! list keeps per origin only a *view* — the log, a length and the
//! record's two times — in one `Vec` sorted by origin, so each drop is
//! stored once per world however many nodes have heard of it. Logs are
//! append-only: a view's ids never change under it. A view that must
//! hold ids its log does not continue with (a forged or otherwise
//! diverging record) gets a copy of its prefix to extend, and a log no
//! view points at any more is freed.
//!
//! `d_i` stays per list, in a paged index: pages of 256 `u32` counts,
//! one per block of consecutive ids, found by `id >> 8` in a small
//! hashed map. World ids are dense catalog indices, so a run touches few
//! pages, and any id, a forged one included, costs at most one page.
//! That keeps [`drop_count`](DroppedList::drop_count) and
//! [`anyone_dropped`](DroppedList::anyone_dropped) O(1) and lock-free on
//! the ranking and admission paths, which call them far more often than
//! gossip changes a view; walking each message's drop positions against
//! the views on every query would cost more than the exchange saves.
//! Every mutator keeps the index exactly in sync with the views.
//!
//! ## Exchange
//!
//! Two lists of one store exchange in place
//! ([`DroppedList::merge_from`]). The receiver's views act as its
//! *summary*: per record the origin, its record time `T_p` and its
//! length `len_p`. The sender plans, for each record the receiver's
//! newest-wins merge would adopt (`T_p < T`), either the *suffix*
//! `log[len_p..]` or the whole record, and the receiver points its views
//! at the sender's logs. The suffix is planned when `epoch_start < T_p`
//! (strictly) and `len_p <= len`. That test is safe because every
//! version of an older epoch was stamped at or before the wipe that
//! ended it, so never after the new `epoch_start`: `T_p > epoch_start`
//! means the receiver holds a prefix of this very log. A crash and a
//! drop at the same instant leave `T_p == epoch_start` and fall back to
//! the whole record. The receiver extends its view and counts exactly
//! the ids it gains, so a merge costs the ids that move, not the record
//! length, and it adopts what merging the sender's whole list would: the
//! same records, the same `d_i` changes, the same count. This is the
//! summary-vector anti-entropy of epidemic routing (Vahdat & Becker,
//! 2000), cut down to single ids by the logs' prefix structure.
//!
//! Lists of different stores — a policy wrapped so that the simulator
//! cannot reach its list, or lists built alone — exchange whole lists as
//! bytes ([`DroppedList::to_gossip_bytes`] into
//! [`DroppedList::merge_gossip_bytes`]), the reference the in-store
//! exchange must match.
//!
//! Wire layouts; integers are little-endian and times are the `u64` bit
//! patterns of their `f64` seconds:
//!
//! * summary, a size model only (no code encodes it): `"DLS2"`, `u32`
//!   owner, `u32` count, then per record `u32` origin, `u64` record time
//!   and `u32` length — 16 bytes per origin
//!   ([`summary_len`](DroppedList::summary_len));
//! * gossip payload: `"DLG2"`, `u32` count, then per entry in origin
//!   order `u32` origin, `u64` record time, `u64` epoch start, `u32`
//!   base, `u32` id count and that many `u64` ids in log order. Base 0 is
//!   a whole record, which replaces the receiver's; base `k > 0` is a
//!   suffix, appended to the receiver's record, which must hold exactly
//!   `k` ids of the same epoch, else the whole payload is malformed. A
//!   list encodes every record whole ([`to_gossip_bytes`]); the in-store
//!   exchange counts the bytes its planned suffixes would take in this
//!   layout.
//!
//! [`to_gossip_bytes`]: DroppedList::to_gossip_bytes

use dtn_core::ids::{IdMap, MessageId, NodeId};
use dtn_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Leading magic of the binary gossip payload.
const GOSSIP_MAGIC: &[u8; 4] = b"DLG2";

/// Modelled size of a summary's header: magic, `u32` owner, `u32`
/// count.
const SUMMARY_HEADER: usize = 12;

/// Modelled size of one summary entry: `u32` origin, `u64` record-time
/// bits, `u32` record length.
const SUMMARY_ENTRY: usize = 16;

/// Wire size of a gossip payload's header: magic, `u32` count.
const GOSSIP_HEADER: usize = 8;

/// Wire size of a gossip entry's header: `u32` origin, `u64` record
/// time, `u64` epoch start, `u32` base, `u32` id count.
const ENTRY_HEADER: usize = 28;

/// One origin's dropped-message record (a row of Fig. 5's structure), as
/// the wire carries it.
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

/// The `log` of a view that holds no ids.
const NO_LOG: u32 = u32::MAX;

/// Drop logs, each stored once, that the [`DroppedList`]s sharing the
/// store point into (see the module docs).
#[derive(Debug, Default)]
pub struct DropLogs {
    /// The logs, by number. A freed number holds an empty vector.
    logs: Vec<Vec<MessageId>>,
    /// Per log, how many views point at it.
    refs: Vec<u32>,
    /// Numbers of freed logs, for reuse.
    free: Vec<u32>,
    /// Reusable list of the entries an in-store merge plans.
    plan: Vec<(View, usize)>,
}

/// A store as its lists share it.
pub type SharedDropLogs = Arc<Mutex<DropLogs>>;

/// Locks `store`. A list never panics while it holds the lock with its
/// views half updated, so a poisoned lock still guards a sound store.
fn lock(store: &SharedDropLogs) -> MutexGuard<'_, DropLogs> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DropLogs {
    /// A new, empty store for lists to share.
    pub fn shared() -> SharedDropLogs {
        SharedDropLogs::default()
    }

    /// Ids held over every live log (diagnostic): in a world's store,
    /// each own drop once, however many lists have heard of it.
    pub fn id_count(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }

    fn ids(&self, log: u32) -> &[MessageId] {
        if log == NO_LOG {
            &[]
        } else {
            &self.logs[log as usize]
        }
    }

    /// Whether logs `a` and `b` begin with the same `n` ids; both hold
    /// at least `n`.
    fn same_prefix(&self, a: u32, b: u32, n: usize) -> bool {
        a == b || self.ids(a)[..n] == self.ids(b)[..n]
    }

    /// A new log holding `ids`, with no view on it yet.
    fn push(&mut self, ids: Vec<MessageId>) -> u32 {
        match self.free.pop() {
            Some(log) => {
                self.logs[log as usize] = ids;
                log
            }
            None => {
                self.logs.push(ids);
                self.refs.push(0);
                (self.logs.len() - 1) as u32
            }
        }
    }

    fn retain(&mut self, log: u32) {
        if log != NO_LOG {
            self.refs[log as usize] += 1;
        }
    }

    /// One view fewer on `log`; the last one frees it.
    fn release(&mut self, log: u32) {
        if log == NO_LOG {
            return;
        }
        let refs = &mut self.refs[log as usize];
        *refs -= 1;
        if *refs == 0 {
            self.logs[log as usize] = Vec::new();
            self.free.push(log);
        }
    }

    /// Moves `view` from its log onto `log`.
    fn repoint(&mut self, view: &mut View, log: u32) {
        self.retain(log);
        self.release(view.log);
        view.log = log;
    }

    /// Appends `tail` to `view`'s ids. When the view ends its log, the
    /// log grows; when the log already continues with `tail`, only the
    /// view's length does; otherwise the view moves to a copy of its
    /// ids, which then grows.
    fn extend(&mut self, view: &mut View, tail: impl ExactSizeIterator<Item = MessageId> + Clone) {
        let len = view.len as usize;
        let ids = self.ids(view.log);
        if ids.len() > len {
            let rest = &ids[len..];
            if rest.len() >= tail.len() && tail.clone().zip(rest).all(|(a, &b)| a == b) {
                view.len += tail.len() as u32;
                return;
            }
        }
        if view.log == NO_LOG || ids.len() > len {
            let copy = ids[..len].to_vec();
            let copy = self.push(copy);
            self.repoint(view, copy);
        }
        let log = &mut self.logs[view.log as usize];
        reserve(log, tail.len());
        log.extend(tail);
        view.len = log.len() as u32;
    }
}

/// A list's record of one origin: the first `len` ids of log `log`.
#[derive(Debug, Clone, Copy)]
struct View {
    origin: NodeId,
    log: u32,
    len: u32,
    record_time: SimTime,
    epoch_start: SimTime,
}

/// One gossip entry, from the wire or from a view in the receiver's
/// store.
#[derive(Debug, Clone, Copy)]
struct Entry<'a> {
    origin: NodeId,
    record_time: SimTime,
    epoch_start: SimTime,
    base: usize,
    ids: Ids<'a>,
}

/// Where an [`Entry`]'s ids are.
#[derive(Debug, Clone, Copy)]
enum Ids<'a> {
    /// The raw `u64` ids on the wire: the suffix after `base`, or the
    /// whole record.
    Wire(&'a [u8]),
    /// The sender's record is `log[..len]` of the receiver's store; the
    /// entry carries its ids from `base` on.
    Log { log: u32, len: usize },
}

/// The ids of a wire entry's raw bytes.
fn wire_ids(raw: &[u8]) -> impl ExactSizeIterator<Item = MessageId> + Clone + '_ {
    raw.chunks_exact(8)
        .map(|b| MessageId(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
}

/// Wire-format cursor helpers shared by the decoders.
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

impl<'a> Entry<'a> {
    /// Reads the next wire entry, or `None` on truncation or a time that
    /// is not finite and non-negative, or an epoch that starts after the
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
        Some(Entry {
            origin,
            record_time,
            epoch_start,
            base,
            ids: Ids::Wire(raw),
        })
    }
}

/// The entries of a structure-checked gossip payload, in wire order.
#[derive(Clone)]
struct WireEntries<'a> {
    cur: &'a [u8],
}

impl<'a> WireEntries<'a> {
    /// Checks a `"DLG2"` payload's structure without allocating: `None`
    /// on a wrong magic, truncation, trailing bytes, or an entry
    /// [`Entry::read`] rejects.
    fn parse(bytes: &'a [u8]) -> Option<Self> {
        let mut cur = bytes;
        if take(&mut cur, 4)? != GOSSIP_MAGIC {
            return None;
        }
        let n_entries = u32_at(&mut cur)?;
        let entries = WireEntries { cur };
        for _ in 0..n_entries {
            Entry::read(&mut cur)?;
        }
        cur.is_empty().then_some(entries)
    }
}

impl<'a> Iterator for WireEntries<'a> {
    type Item = Entry<'a>;

    fn next(&mut self) -> Option<Entry<'a>> {
        if self.cur.is_empty() {
            return None;
        }
        Some(Entry::read(&mut self.cur).expect("checked by parse"))
    }
}

/// Low id bits that pick a count within its page.
const PAGE_BITS: u32 = 8;

/// Counts per page of the `d_i` index.
const PAGE: usize = 1 << PAGE_BITS;

/// The `d_i` index: per message id, how many records list it. Counts
/// sit in pages of [`PAGE`] consecutive ids, allocated on the first
/// count of any of their ids and kept until [`clear`](Self::clear).
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

    /// Counts one listing fewer of each of `ids`, which some record
    /// listed.
    fn remove(&mut self, ids: &[MessageId]) {
        for &id in ids {
            let page = self.index[&(id.0 >> PAGE_BITS)] as usize;
            self.pages[page][Self::slot(id)] -= 1;
        }
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

/// Encodes `(origin, record time, epoch start, ids)` records whole, in
/// the order given: the `"DLG2"` layout of the module docs, every base 0.
/// Walks them twice: once to size the payload exactly, once to write it.
fn encode<'a>(
    records: impl Iterator<Item = (NodeId, SimTime, SimTime, &'a [MessageId])> + Clone,
) -> Vec<u8> {
    let (n_entries, n_ids) = records
        .clone()
        .fold((0, 0), |(n, k), (.., ids)| (n + 1, k + ids.len()));
    let mut out = Vec::with_capacity(GOSSIP_HEADER + n_entries * ENTRY_HEADER + n_ids * 8);
    out.extend_from_slice(GOSSIP_MAGIC);
    out.extend_from_slice(&(n_entries as u32).to_le_bytes());
    for (origin, record_time, epoch_start, ids) in records {
        out.extend_from_slice(&origin.0.to_le_bytes());
        out.extend_from_slice(&record_time.as_secs().to_bits().to_le_bytes());
        out.extend_from_slice(&epoch_start.as_secs().to_bits().to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        let start = out.len();
        out.resize(start + ids.len() * 8, 0);
        for (slot, m) in out[start..].chunks_exact_mut(8).zip(ids) {
            slot.copy_from_slice(&m.0.to_le_bytes());
        }
    }
    out
}

/// A node's view of everyone's dropped lists: per origin a view into
/// the store, and the `d_i` index over them.
///
/// The views are the authoritative Fig. 5 state; `counts` and `encoded`
/// are derived caches kept exactly in sync by every mutator, so the hot
/// per-contact queries ([`drop_count`](Self::drop_count),
/// [`anyone_dropped`](Self::anyone_dropped)) cost O(1) and a full
/// export between mutations re-serialises nothing.
pub struct DroppedList {
    /// The node that owns (and may modify) the `own` record.
    owner: NodeId,
    /// Where the views' ids are.
    store: SharedDropLogs,
    /// One view per origin node, `owner`'s own record included, in
    /// strictly increasing origin order.
    views: Vec<View>,
    /// Derived: per message, the number of records listing it (`d_i` of
    /// Eq. 14, since an honest record lists an id once).
    counts: DropCounts,
    /// Derived: memoised full gossip encoding, cleared by any mutation
    /// that changes the views.
    encoded: Option<Vec<u8>>,
}

/// A clone shares the store and points at the same logs.
impl Clone for DroppedList {
    fn clone(&self) -> Self {
        let mut logs = lock(&self.store);
        for view in &self.views {
            logs.retain(view.log);
        }
        DroppedList {
            owner: self.owner,
            store: Arc::clone(&self.store),
            views: self.views.clone(),
            counts: self.counts.clone(),
            encoded: self.encoded.clone(),
        }
    }
}

impl Drop for DroppedList {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Equality is over the records: the owner and each origin's ids and
/// times, wherever they are stored.
impl PartialEq for DroppedList {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner && self.records() == other.records()
    }
}

impl std::fmt::Debug for DroppedList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DroppedList")
            .field("owner", &self.owner)
            .field("records", &self.records())
            .finish()
    }
}

impl DroppedList {
    /// An empty list owned by `owner`, in a store of its own.
    pub fn new(owner: NodeId) -> Self {
        Self::sharing(owner, &DropLogs::shared())
    }

    /// An empty list owned by `owner`, in `store`.
    pub fn sharing(owner: NodeId, store: &SharedDropLogs) -> Self {
        DroppedList {
            owner,
            store: Arc::clone(store),
            views: Vec::new(),
            counts: DropCounts::default(),
            encoded: None,
        }
    }

    /// Whether this list and `other` live in one store, and so can
    /// exchange through [`merge_from`](Self::merge_from).
    pub fn shares_store(&self, other: &DroppedList) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    /// Where `origin`'s view sits in `views`: `Ok` if held, else `Err`
    /// with the position that keeps the origins sorted.
    fn find(&self, origin: NodeId) -> Result<usize, usize> {
        self.views.binary_search_by_key(&origin, |v| v.origin)
    }

    /// Advances the cursor `at` past every view whose origin is below
    /// `origin` and returns the view there if it is `origin`'s. A walk
    /// that seeks strictly increasing origins visits each view once.
    fn seek(&self, at: &mut usize, origin: NodeId) -> Option<&View> {
        while self.views.get(*at).is_some_and(|v| v.origin < origin) {
            *at += 1;
        }
        self.views.get(*at).filter(|v| v.origin == origin)
    }

    /// The index of `origin`'s view, inserted empty (stamped `time`)
    /// where `slot` says when absent.
    fn open(&mut self, slot: Result<usize, usize>, origin: NodeId, time: SimTime) -> usize {
        slot.unwrap_or_else(|at| {
            let view = View {
                origin,
                log: NO_LOG,
                len: 0,
                record_time: time,
                epoch_start: time,
            };
            self.views.insert(at, view);
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
        let store = Arc::clone(&self.store);
        let mut logs = lock(&store);
        if self.own_dropped_in(&logs, msg) {
            return;
        }
        let at = self.open(self.find(self.owner), self.owner, now);
        let view = &mut self.views[at];
        logs.extend(view, std::iter::once(msg));
        view.record_time = now;
        self.counts.add(&[msg]);
        self.encoded = None;
    }

    /// Wipes all records (own and adopted) and the derived caches,
    /// keeping the owner. Models the owner losing its dropped-list state
    /// in a crash: the rebooted node starts gossiping from scratch, and
    /// its next drop opens a new epoch of its own record.
    pub fn clear(&mut self) {
        if !self.views.is_empty() {
            let mut logs = lock(&self.store);
            for view in self.views.drain(..) {
                logs.release(view.log);
            }
        }
        self.counts.clear();
        self.encoded = None;
    }

    /// Whether a peer's record for `origin` stamped `record_time` beats
    /// `held`, what this list holds for it: never for the owner's own
    /// record, else strictly newer than ours (or ours absent).
    fn wins(&self, origin: NodeId, held: Option<&View>, record_time: SimTime) -> bool {
        origin != self.owner && held.is_none_or(|mine| mine.record_time < record_time)
    }

    /// Whether an entry with this `base` can be adopted onto `held`, the
    /// view held for its origin: a whole record always can, a suffix
    /// only onto a view of exactly `base` ids and the same epoch.
    fn fits(held: Option<&View>, base: usize, epoch_start: SimTime) -> bool {
        base == 0 || held.is_some_and(|v| v.len as usize == base && v.epoch_start == epoch_start)
    }

    /// Merges `entries` into this list: per origin, the entry with the
    /// newest record time wins, and the owner's own record is never
    /// overwritten by hearsay. A first pass checks that the origins
    /// strictly increase and that every winning suffix fits the view it
    /// extends, and adopts nothing if not, so a malformation found
    /// halfway through cannot leave a partial merge behind. The second
    /// pass walks the entries in step with the views and adopts the
    /// winners. Returns the number of records adopted.
    fn merge<'a>(
        &mut self,
        logs: &mut DropLogs,
        entries: impl Iterator<Item = Entry<'a>> + Clone,
    ) -> usize {
        let (mut prev, mut at) = (None, 0);
        for e in entries.clone() {
            if prev.is_some_and(|p| p >= e.origin) {
                return 0;
            }
            prev = Some(e.origin);
            if e.base > 0 {
                let held = self.seek(&mut at, e.origin);
                if self.wins(e.origin, held, e.record_time)
                    && !Self::fits(held, e.base, e.epoch_start)
                {
                    return 0;
                }
            }
        }
        let (mut at, mut adopted) = (0, 0);
        for e in entries {
            let held = self.seek(&mut at, e.origin);
            if !self.wins(e.origin, held, e.record_time) {
                continue;
            }
            let slot = if held.is_some() { Ok(at) } else { Err(at) };
            let at = self.open(slot, e.origin, e.record_time);
            self.adopt(logs, at, e);
            adopted += 1;
        }
        if adopted > 0 {
            self.encoded = None;
        }
        adopted
    }

    /// Adopts entry `e` into `views[at]`, the view of its origin, which
    /// [`merge`](Self::merge) found it beats.
    ///
    /// A suffix, and a whole record that begins with the held ids, keep
    /// them and count only the ids they add; any other whole record (its
    /// origin crashed since) replaces them: the held ids are uncounted
    /// and the new ones counted. An entry from a view of this store
    /// costs no copy when its log begins with the ids kept, which is
    /// always so for the in-store exchange of honest lists.
    fn adopt(&mut self, logs: &mut DropLogs, at: usize, e: Entry<'_>) {
        let DroppedList { views, counts, .. } = self;
        let view = &mut views[at];
        let held = view.len as usize;
        let extends = e.base > 0
            || match e.ids {
                Ids::Wire(raw) => {
                    raw.len() / 8 >= held
                        && wire_ids(raw).zip(logs.ids(view.log)).all(|(a, &b)| a == b)
                }
                Ids::Log { log, len } => len >= held && logs.same_prefix(view.log, log, held),
            };
        let keep = if extends { held } else { 0 };
        if !extends {
            counts.remove(&logs.ids(view.log)[..held]);
        }
        match e.ids {
            Ids::Log { log, len } if logs.same_prefix(view.log, log, keep) => {
                logs.repoint(view, log);
                view.len = len as u32;
            }
            Ids::Log { log, len } => {
                let tail = logs.ids(log)[e.base..len].to_vec();
                logs.extend(view, tail.into_iter());
            }
            Ids::Wire(raw) if extends => {
                let skip = if e.base > 0 { 0 } else { held };
                logs.extend(view, wire_ids(raw).skip(skip));
            }
            Ids::Wire(raw) => {
                let log = logs.push(wire_ids(raw).collect());
                logs.repoint(view, log);
                view.len = (raw.len() / 8) as u32;
            }
        }
        counts.add(&logs.ids(view.log)[keep..view.len as usize]);
        view.record_time = e.record_time;
        view.epoch_start = e.epoch_start;
    }

    /// `d_i`: how many distinct nodes are known to have dropped `msg`
    /// (the records listing it; an honest record lists an id once).
    /// O(1) via the maintained per-message index.
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
        self.anyone_dropped(msg) && self.own_dropped_in(&lock(&self.store), msg)
    }

    fn own_dropped_in(&self, logs: &DropLogs, msg: MessageId) -> bool {
        self.anyone_dropped(msg)
            && self.find(self.owner).is_ok_and(|at| {
                let own = &self.views[at];
                logs.ids(own.log)[..own.len as usize].contains(&msg)
            })
    }

    /// The records, materialised from the store: one per origin in
    /// strictly increasing origin order (the order the wire formats list
    /// them in).
    pub fn records(&self) -> Vec<(NodeId, DroppedRecord)> {
        let logs = lock(&self.store);
        self.views
            .iter()
            .map(|v| (v.origin, Self::materialise(&logs, v)))
            .collect()
    }

    /// `origin`'s record, if this list holds one.
    pub fn record(&self, origin: NodeId) -> Option<DroppedRecord> {
        let at = self.find(origin).ok()?;
        Some(Self::materialise(&lock(&self.store), &self.views[at]))
    }

    fn materialise(logs: &DropLogs, view: &View) -> DroppedRecord {
        DroppedRecord {
            dropped: logs.ids(view.log)[..view.len as usize].to_vec(),
            record_time: view.record_time,
            epoch_start: view.epoch_start,
        }
    }

    /// Number of origins with a record.
    pub fn origin_count(&self) -> usize {
        self.views.len()
    }

    /// Total dropped-message entries across all records (diagnostic —
    /// the paper assumes this stays negligible next to message sizes).
    pub fn entry_count(&self) -> usize {
        self.views.iter().map(|v| v.len as usize).sum()
    }

    /// Bytes this list's summary vector would take on the wire (the
    /// `"DLS2"` size model of the module docs).
    pub fn summary_len(&self) -> usize {
        SUMMARY_HEADER + self.views.len() * SUMMARY_ENTRY
    }

    /// Bytes of this list's full gossip payload
    /// ([`to_gossip_bytes`](Self::to_gossip_bytes)).
    pub fn gossip_len(&self) -> usize {
        GOSSIP_HEADER + self.views.len() * ENTRY_HEADER + self.entry_count() * 8
    }

    /// What this list answers `receiver`'s summary with: for each view
    /// the receiver's newest-wins merge would adopt — never the
    /// receiver's own origin, and otherwise those it lacks or holds with
    /// an older record time — the view and the base to send it from. The
    /// base is the receiver's length when the epoch rule of the module
    /// docs says it holds a prefix of the same log, else 0.
    fn plan<'s>(&'s self, receiver: &'s DroppedList) -> impl Iterator<Item = (View, usize)> + 's {
        let mut held = receiver.views.iter().peekable();
        self.views.iter().filter_map(move |v| {
            while held.next_if(|h| h.origin < v.origin).is_some() {}
            let theirs = held.next_if(|h| h.origin == v.origin);
            if v.origin == receiver.owner {
                return None;
            }
            let base = match theirs {
                None => 0,
                Some(h) if h.record_time >= v.record_time => return None,
                Some(h) if v.epoch_start < h.record_time && h.len <= v.len => h.len as usize,
                Some(_) => 0,
            };
            Some((*v, base))
        })
    }

    /// Serialises every record whole for the contact gossip payload
    /// (the `"DLG2"` layout of the module docs, every base 0). The
    /// encoding is memoised until the next drop, adoption or wipe. Each
    /// call returns its own copy of the payload, because the policy
    /// interface hands out an owned buffer.
    pub fn to_gossip_bytes(&mut self) -> Vec<u8> {
        let DroppedList {
            store,
            views,
            encoded,
            ..
        } = self;
        encoded
            .get_or_insert_with(|| {
                let logs = lock(store);
                encode(views.iter().map(|v| {
                    let ids = &logs.ids(v.log)[..v.len as usize];
                    (v.origin, v.record_time, v.epoch_start, ids)
                }))
            })
            .clone()
    }

    /// Merges a `"DLG2"` gossip payload, whole records as
    /// [`to_gossip_bytes`](Self::to_gossip_bytes) makes them or suffixes
    /// (see the module docs): per origin, the entry with the newest
    /// record time wins, and the owner's own record is never overwritten
    /// by hearsay. Malformed payloads — structurally, with origins not
    /// strictly increasing, or with a winning suffix that does not fit
    /// the record it extends — are ignored whole (a real radio would
    /// checksum, but robustness over panic here). Returns the number of
    /// records adopted.
    pub fn merge_gossip_bytes(&mut self, bytes: &[u8]) -> usize {
        let Some(entries) = WireEntries::parse(bytes) else {
            return 0;
        };
        let store = Arc::clone(&self.store);
        let mut logs = lock(&store);
        self.merge(&mut logs, entries)
    }

    /// The in-store exchange: merges what `sender` answers to this
    /// list's summary, planned from the two lists' views and read from
    /// the store they share, with nothing encoded. Adopts exactly what
    /// merging `sender`'s whole list
    /// ([`to_gossip_bytes`](Self::to_gossip_bytes)) would. Returns the
    /// records adopted and the bytes the answer's suffixes and whole
    /// records would take in the `"DLG2"` layout.
    ///
    /// # Panics
    /// Panics when the two lists live in different stores.
    pub fn merge_from(&mut self, sender: &DroppedList) -> (usize, usize) {
        assert!(
            self.shares_store(sender),
            "an in-store merge needs lists of one store"
        );
        let mut logs = lock(&sender.store);
        let mut plan = std::mem::take(&mut logs.plan);
        plan.clear();
        plan.extend(sender.plan(self));
        let bytes = GOSSIP_HEADER
            + plan
                .iter()
                .map(|&(v, base)| ENTRY_HEADER + 8 * (v.len as usize - base))
                .sum::<usize>();
        let entries = plan.iter().map(|&(v, base)| Entry {
            origin: v.origin,
            record_time: v.record_time,
            epoch_start: v.epoch_start,
            base,
            ids: Ids::Log {
                log: v.log,
                len: v.len as usize,
            },
        });
        let adopted = self.merge(&mut logs, entries);
        logs.plan = plan;
        (adopted, bytes)
    }

    /// Encodes records whole, the form of
    /// [`to_gossip_bytes`](Self::to_gossip_bytes) (the `"DLG2"` layout of
    /// the module docs, every base 0). `records` must be in strictly
    /// increasing origin order, as [`records`](Self::records) is; each
    /// record's ids come out in log order, so equal lists encode to
    /// byte-identical payloads — required for deterministic replay of
    /// recorded gossip.
    pub fn encode_records(records: &[(NodeId, DroppedRecord)]) -> Vec<u8> {
        encode(
            records
                .iter()
                .map(|(origin, rec)| (*origin, rec.record_time, rec.epoch_start, &rec.dropped[..])),
        )
    }

    /// Decodes a gossip payload, whole records or suffixes. Returns
    /// `None` on any structural malformation — wrong magic, truncation,
    /// trailing bytes, a record time that is not finite and
    /// non-negative, or an epoch that starts after its record time. Ids
    /// come back in wire order, and a repeated origin keeps its last
    /// occurrence. Whether a suffix fits, and whether the origins are
    /// sorted, is the receiver's business ([`merge_gossip_bytes`](Self::merge_gossip_bytes)).
    pub fn decode_gossip(bytes: &[u8]) -> Option<BTreeMap<NodeId, GossipEntry>> {
        let entries = WireEntries::parse(bytes)?;
        Some(
            entries
                .map(|e| {
                    let Ids::Wire(raw) = e.ids else {
                        unreachable!("wire entries carry wire ids")
                    };
                    let record = DroppedRecord {
                        dropped: wire_ids(raw).collect(),
                        record_time: e.record_time,
                        epoch_start: e.epoch_start,
                    };
                    (
                        e.origin,
                        GossipEntry {
                            base: e.base,
                            record,
                        },
                    )
                })
                .collect(),
        )
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

    /// A hand-encoded `"DLG2"` payload of `(origin, record time, epoch
    /// start, base, ids)` entries, in the order given.
    fn payload(entries: &[(u32, f64, f64, u32, &[u64])]) -> Vec<u8> {
        let mut out = GOSSIP_MAGIC.to_vec();
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for &(origin, time, epoch, base, ids) in entries {
            out.extend_from_slice(&origin.to_le_bytes());
            out.extend_from_slice(&time.to_bits().to_le_bytes());
            out.extend_from_slice(&epoch.to_bits().to_le_bytes());
            out.extend_from_slice(&base.to_le_bytes());
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out
    }

    /// The bytes an in-store answer of one entry carrying `ids` ids
    /// takes on the wire.
    fn one_entry(ids: usize) -> usize {
        GOSSIP_HEADER + ENTRY_HEADER + 8 * ids
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
        let store = DropLogs::shared();
        let mut a = DroppedList::sharing(NodeId(0), &store);
        let mut b = DroppedList::sharing(NodeId(1), &store);
        for (k, id) in [5, 3, 8].into_iter().enumerate() {
            a.record_own_drop(t(1.0 + k as f64), MessageId(id));
        }
        assert_eq!(b.merge_from(&a), (1, one_entry(3)));
        a.record_own_drop(t(10.0), MessageId(4));

        // b holds the first three ids: only the fourth travels.
        assert_eq!(b.merge_from(&a), (1, one_entry(1)));
        assert_eq!(b.drop_count(MessageId(4)), 1);
        assert_eq!(b.record(NodeId(0)), a.record(NodeId(0)));

        // a crashes and drops five more: b's four ids are of the old
        // epoch, so the whole new record goes out, not a one-id suffix
        // past them, and the old ids retire.
        a.clear();
        for (k, id) in [3, 6, 7, 9, 11].into_iter().enumerate() {
            a.record_own_drop(t(20.0 + k as f64), MessageId(id));
        }
        assert_eq!(b.merge_from(&a), (1, one_entry(5)));
        assert_eq!(b.record(NodeId(0)), a.record(NodeId(0)));
        for (id, count) in [(3, 1), (4, 0), (5, 0), (6, 1), (8, 0), (11, 1)] {
            assert_eq!(b.drop_count(MessageId(id)), count, "{id}");
        }
    }

    #[test]
    fn same_instant_crash_and_drop_falls_back_to_the_whole_record() {
        let store = DropLogs::shared();
        let mut a = DroppedList::sharing(NodeId(0), &store);
        let mut b = DroppedList::sharing(NodeId(1), &store);
        a.record_own_drop(t(5.0), MessageId(1));
        b.merge_from(&a);
        // Crash and drop at t = 5, then drop again: b's record time 5 is
        // not after the new epoch's start (also 5), so both ids go out.
        a.clear();
        a.record_own_drop(t(5.0), MessageId(2));
        a.record_own_drop(t(6.0), MessageId(3));
        assert_eq!(b.merge_from(&a), (1, one_entry(2)));
        assert_eq!(b.record(NodeId(0)), a.record(NodeId(0)));
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

        // The answer to b: a's own record as a suffix past b's two ids,
        // and c's record whole.
        let delta = payload(&[(0, 3.0, 1.0, 2, &[3]), (2, 3.0, 3.0, 0, &[7])]);
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
        let store = DropLogs::shared();
        let mut b = DroppedList::sharing(NodeId(1), &store);
        b.merge_gossip_bytes(&first);
        b.record_own_drop(t(7.0), MessageId(9));
        let mut c = DroppedList::new(NodeId(2));
        let mut d = DroppedList::sharing(NodeId(3), &store);
        gossip(&mut b, &mut c);
        d.merge_from(&b);
        assert_eq!(
            DroppedList::encode_records(&c.records()),
            DroppedList::encode_records(&d.records())
        );

        // Roundtrip is lossless, including record times and epochs.
        let decoded = DroppedList::decode_gossip(&first).unwrap();
        assert_eq!(decoded[&NodeId(0)].record, a.record(NodeId(0)).unwrap());

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

    #[test]
    fn in_store_merges_point_at_the_senders_log() {
        let store = DropLogs::shared();
        let mut a = DroppedList::sharing(NodeId(0), &store);
        let mut b = DroppedList::sharing(NodeId(1), &store);
        let mut c = DroppedList::sharing(NodeId(2), &store);
        for (k, id) in [5, 3, 8].into_iter().enumerate() {
            a.record_own_drop(t(1.0 + k as f64), MessageId(id));
        }
        // b lacks a's record: the whole record, as long as a's full
        // payload, and no id is copied.
        assert_eq!(b.merge_from(&a), (1, a.to_gossip_bytes().len()));
        assert_eq!(b.records(), a.records());
        assert_eq!(b.drop_count(MessageId(3)), 1);
        assert_eq!(b.entry_count(), 3);
        assert_eq!(store.lock().unwrap().id_count(), 3);

        // One more drop travels as a one-id suffix; relayed through b it
        // reaches c, and a holds nothing newer of b's or c's.
        a.record_own_drop(t(10.0), MessageId(4));
        assert_eq!(b.merge_from(&a), (1, one_entry(1)));
        assert_eq!(c.merge_from(&b), (1, one_entry(4)));
        assert_eq!(a.merge_from(&c), (0, GOSSIP_HEADER));
        assert_eq!(c.record(NodeId(0)), a.record(NodeId(0)));
        assert_eq!(c.drop_count(MessageId(4)), 1);
        assert_eq!(store.lock().unwrap().id_count(), 4);

        // A crash retires the old epoch: its log is freed once no list
        // points at it.
        a.clear();
        a.record_own_drop(t(20.0), MessageId(9));
        assert_eq!(b.merge_from(&a), (1, one_entry(1)));
        assert_eq!(store.lock().unwrap().id_count(), 5);
        assert_eq!(c.merge_from(&b), (1, one_entry(1)));
        assert_eq!(store.lock().unwrap().id_count(), 1);
        for (id, count) in [(3, 0), (4, 0), (9, 1)] {
            assert_eq!(c.drop_count(MessageId(id)), count, "{id}");
        }
    }

    #[test]
    fn diverging_ids_move_a_view_to_a_copy_and_leave_the_log_alone() {
        let store = DropLogs::shared();
        let mut a = DroppedList::sharing(NodeId(0), &store);
        let mut b = DroppedList::sharing(NodeId(1), &store);
        a.record_own_drop(t(1.0), MessageId(1));
        a.record_own_drop(t(2.0), MessageId(2));
        b.merge_from(&a);
        // A forged suffix of a's record reaches b over the wire: b's view
        // is at the end of a's log, so the log grows under b...
        assert_eq!(
            b.merge_gossip_bytes(&payload(&[(0, 3.0, 1.0, 2, &[66])])),
            1
        );
        assert_eq!(
            b.record(NodeId(0)).unwrap().dropped,
            [1, 2, 66].map(MessageId)
        );
        // ...but a's own next drop does not follow it: a moves to a copy,
        // and neither list sees the other's third id.
        a.record_own_drop(t(4.0), MessageId(3));
        assert_eq!(
            a.record(NodeId(0)).unwrap().dropped,
            [1, 2, 3].map(MessageId)
        );
        assert_eq!(
            b.record(NodeId(0)).unwrap().dropped,
            [1, 2, 66].map(MessageId)
        );
        assert!(!a.anyone_dropped(MessageId(66)));
        // The epoch rule trusts b's three ids, as the wire would: b gets
        // an empty suffix stamped with a's time and keeps its hearsay id.
        let mut via_bytes = b.clone();
        assert_eq!(
            via_bytes.merge_gossip_bytes(&payload(&[(0, 4.0, 1.0, 3, &[])])),
            1
        );
        assert_eq!(b.merge_from(&a), (1, one_entry(0)));
        assert_eq!(b, via_bytes);
        assert_eq!(
            b.record(NodeId(0)).unwrap().dropped,
            [1, 2, 66].map(MessageId)
        );
        // A list that never heard the forgery points at a's copy.
        let mut c = DroppedList::sharing(NodeId(2), &store);
        assert_eq!(c.merge_from(&a).0, 1);
        assert_eq!(c.records(), a.records());
        assert_eq!(store.lock().unwrap().id_count(), 6);
    }
}
