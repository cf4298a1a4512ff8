//! Micro-bench: one contact's dropped-list gossip on a list the size the
//! small-buffer regime grows — 80 origins with ~400 dropped ids each.
//! Between two contacts a peer typically lacks one new drop of one
//! origin, so these cases time what a contact costs when little changed:
//!
//! * `import_one_id_changed` — merge a full payload whose changing
//!   record is one id longer than the held one (what a peer that sends
//!   no summary gets);
//! * `import_then_export` — the same adoption followed by the full
//!   export of the next such contact, which re-encodes the whole list;
//! * `merge_many_short_suffixes` — a Fig. 8 SDSRP cell's import as
//!   bytes: a list of 100 origins adopts a payload of 21 suffixes of 3-4
//!   ids each, so the cost per entry, not per id, dominates;
//! * `in_store_one_new_drop/N` — a list of 80 records of N ids gains one
//!   own drop and a peer of the same store merges the one-id suffix, at
//!   N = 400 and N = 4 000: the per-contact cost of the exchange a world
//!   runs, which plans from the two lists' views and moves the peer's,
//!   with nothing encoded or copied;
//! * `in_store_many_short_suffixes` — the 21-suffix import of
//!   `merge_many_short_suffixes`, between lists of one store.
//!
//! Each round the changing record grows by one id; every N rounds the
//! lists are restored to their starting state, so the changing record
//! stays between N and 2N ids and the restore costs about the same per
//! round at any N. New drops take dense ids just above the setup's, as
//! the simulator's catalog indices are.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtn_core::ids::{MessageId, NodeId};
use dtn_core::time::SimTime;
use sdsrp_core::dropped_list::{DropLogs, DroppedList, DroppedRecord, SharedDropLogs};
use std::hint::black_box;

const ORIGINS: u32 = 80;
const IDS_PER_RECORD: u64 = 400;
/// The origin whose record changes between contacts: the last, so that
/// its entry ends a full payload and grows by an append.
const CHANGING: u32 = ORIGINS;
/// Origins of the short-suffix case, and the records each of its
/// imports extends.
const SHORT_ORIGINS: u32 = 100;
const SHORT_SUFFIXES: usize = 21;
/// Precomputed imports of the short-suffix case, replayed in a cycle.
const SHORT_ROUNDS: usize = 400;

/// First id of the drops the rounds add to `ids`-long records: just
/// above every id [`own_drops`] uses.
fn new_ids(ids: u64) -> u64 {
    100 * ids
}

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs as f64)
}

/// Origin `o`'s own list after dropping `ids` messages, one a second,
/// overlapping with the other origins on a shared id range as nodes
/// dropping the same popular messages do.
fn own_drops(o: u32, ids: u64) -> DroppedList {
    own_drops_in(o, ids, &DropLogs::shared())
}

/// [`own_drops`] with the list in `store`.
fn own_drops_in(o: u32, ids: u64, store: &SharedDropLogs) -> DroppedList {
    let mut list = DroppedList::sharing(NodeId(o), store);
    for k in 0..ids {
        list.record_own_drop(
            t(k + 1),
            MessageId((u64::from(o) * 7_919 + k * 53) % (100 * ids)),
        );
    }
    list
}

/// The changing origin's own view after hearing every other origin's
/// `ids`-long record.
fn long_history(ids: u64) -> DroppedList {
    let mut list = own_drops(CHANGING, ids);
    for o in 1..ORIGINS {
        list.merge_gossip_bytes(&own_drops(o, ids).to_gossip_bytes());
    }
    list
}

/// [`long_history`] in `store`, heard through in-store merges.
fn long_history_in(ids: u64, store: &SharedDropLogs) -> DroppedList {
    let mut list = own_drops_in(CHANGING, ids, store);
    for o in 1..ORIGINS {
        list.merge_from(&own_drops_in(o, ids, store));
    }
    list
}

/// A list owned by `owner` in `from`'s store that holds everything
/// `from` holds.
fn in_store_copy_of(from: &DroppedList, owner: u32, store: &SharedDropLogs) -> DroppedList {
    let mut list = DroppedList::sharing(NodeId(owner), store);
    list.merge_from(from);
    list
}

/// A list owned by `owner` that holds everything `from` holds.
fn copy_of(from: &mut DroppedList, owner: u32) -> DroppedList {
    let mut list = DroppedList::new(NodeId(owner));
    list.merge_gossip_bytes(&from.to_gossip_bytes());
    list
}

/// A full payload of the `IDS_PER_RECORD` history that grows in place:
/// each round appends one new id to the changing (last) record and
/// stamps it newer, and a restore cuts it back to its starting length.
struct GrowingPayload {
    bytes: Vec<u8>,
    start_len: usize,
    /// Offsets of the changing entry's record time and id count.
    time_at: usize,
    count_at: usize,
}

impl GrowingPayload {
    fn new(list: &mut DroppedList) -> Self {
        let bytes = list.to_gossip_bytes();
        // The last entry's header ends with its epoch start (8 bytes),
        // base and count (4 each) before its ids.
        let count_at = bytes.len() - 8 * IDS_PER_RECORD as usize - 4;
        GrowingPayload {
            start_len: bytes.len(),
            time_at: count_at - 20,
            count_at,
            bytes,
        }
    }

    fn grow(&mut self, round: u64) -> &[u8] {
        let count = u32::from_le_bytes(self.bytes[self.count_at..][..4].try_into().unwrap());
        self.bytes[self.count_at..][..4].copy_from_slice(&(count + 1).to_le_bytes());
        let time = (IDS_PER_RECORD + round) as f64;
        self.bytes[self.time_at..][..8].copy_from_slice(&time.to_bits().to_le_bytes());
        self.bytes
            .extend_from_slice(&(new_ids(IDS_PER_RECORD) + round).to_le_bytes());
        &self.bytes
    }

    fn restore(&mut self) {
        self.bytes.truncate(self.start_len);
        let count = IDS_PER_RECORD as u32;
        self.bytes[self.count_at..][..4].copy_from_slice(&count.to_le_bytes());
    }
}

/// A `"DLG2"` payload of suffix entries in the order given: each
/// origin's record from `base` ids on.
fn suffix_payload(entries: &[(NodeId, DroppedRecord, usize)]) -> Vec<u8> {
    let mut out = b"DLG2".to_vec();
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (origin, rec, base) in entries {
        let ids = &rec.dropped[*base..];
        out.extend_from_slice(&origin.0.to_le_bytes());
        out.extend_from_slice(&rec.record_time.as_secs().to_bits().to_le_bytes());
        out.extend_from_slice(&rec.epoch_start.as_secs().to_bits().to_le_bytes());
        out.extend_from_slice(&(*base as u32).to_le_bytes());
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            out.extend_from_slice(&id.0.to_le_bytes());
        }
    }
    out
}

/// One import of the short-suffix case: the relay as it then stands, the
/// payload of the suffixes a receiver one round behind lacks, and the
/// first and the last of the new ids that payload carries.
type Round = (DroppedList, Vec<u8>, [MessageId; 2]);

/// Two receivers that hold `SHORT_ORIGINS` records of `IDS_PER_RECORD`
/// ids — one in the relay's store, one in a store of its own — and
/// `SHORT_ROUNDS` imports for them in order. Each round
/// `SHORT_SUFFIXES` origins, taken in a rotation, drop 3 or 4 new ids,
/// which a relay that heard them sends as suffixes.
fn short_suffix_rounds() -> (DroppedList, DroppedList, Vec<Round>) {
    let store = DropLogs::shared();
    let mut origins: Vec<_> = (1..=SHORT_ORIGINS)
        .map(|o| own_drops_in(o, IDS_PER_RECORD, &store))
        .collect();
    let mut relay = DroppedList::sharing(NodeId(SHORT_ORIGINS + 1), &store);
    for origin in &origins {
        relay.merge_from(origin);
    }
    let in_store = in_store_copy_of(&relay, 0, &store);
    let receiver = copy_of(&mut relay, 0);
    let mut next_id = new_ids(IDS_PER_RECORD);
    let rounds = (0..SHORT_ROUNDS)
        .map(|round| {
            let now = t(IDS_PER_RECORD + 1 + round as u64);
            let first = MessageId(next_id);
            let mut suffixes = Vec::with_capacity(SHORT_SUFFIXES);
            for k in 0..SHORT_SUFFIXES {
                let at = (round * SHORT_SUFFIXES + k) % SHORT_ORIGINS as usize;
                let (id, origin) = (NodeId(at as u32 + 1), &mut origins[at]);
                let base = origin.entry_count();
                for _ in 0..3 + (round + k) % 2 {
                    origin.record_own_drop(now, MessageId(next_id));
                    next_id += 1;
                }
                relay.merge_from(origin);
                suffixes.push((id, origin.record(id).unwrap(), base));
            }
            suffixes.sort_by_key(|&(id, ..)| id);
            let payload = suffix_payload(&suffixes);
            (relay.clone(), payload, [first, MessageId(next_id - 1)])
        })
        .collect();
    (in_store, receiver, rounds)
}

fn bench_dropped_list(c: &mut Criterion) {
    let mut g = c.benchmark_group("dropped_list");
    let mut history = long_history(IDS_PER_RECORD);
    let pristine = copy_of(&mut history, 0);

    g.bench_function("import_one_id_changed", |b| {
        let mut payload = GrowingPayload::new(&mut history);
        let mut receiver = pristine.clone();
        let mut round = 0;
        b.iter(|| {
            round += 1;
            if round % IDS_PER_RECORD == 0 {
                payload.restore();
                receiver.clone_from(&pristine);
            }
            let adopted = receiver.merge_gossip_bytes(payload.grow(round));
            let new_id = MessageId(new_ids(IDS_PER_RECORD) + round);
            assert_eq!((adopted, receiver.drop_count(new_id)), (1, 1));
            black_box(adopted)
        })
    });

    g.bench_function("import_then_export", |b| {
        let mut payload = GrowingPayload::new(&mut history);
        let mut receiver = pristine.clone();
        let mut round = 0;
        b.iter(|| {
            round += 1;
            if round % IDS_PER_RECORD == 0 {
                payload.restore();
                receiver.clone_from(&pristine);
            }
            assert_eq!(receiver.merge_gossip_bytes(payload.grow(round)), 1);
            black_box(receiver.to_gossip_bytes())
        })
    });

    let (in_store, bytes_receiver, rounds) = short_suffix_rounds();
    g.bench_function("merge_many_short_suffixes", |b| {
        let mut receiver = bytes_receiver.clone();
        let mut round = 0;
        b.iter(|| {
            if round == rounds.len() {
                receiver.clone_from(&bytes_receiver);
                round = 0;
            }
            let (_, payload, [first, last]) = &rounds[round];
            round += 1;
            let adopted = receiver.merge_gossip_bytes(payload);
            let counts = (receiver.drop_count(*first), receiver.drop_count(*last));
            assert_eq!((adopted, counts), (SHORT_SUFFIXES, (1, 1)));
            black_box(adopted)
        })
    });

    for ids in [IDS_PER_RECORD, 10 * IDS_PER_RECORD] {
        g.bench_function(BenchmarkId::new("in_store_one_new_drop", ids), |b| {
            let store = DropLogs::shared();
            let pristine_list = long_history_in(ids, &store);
            let pristine_peer = in_store_copy_of(&pristine_list, ORIGINS + 1, &store);
            let (mut list, mut peer) = (pristine_list.clone(), pristine_peer.clone());
            let mut round = 0;
            b.iter(|| {
                round += 1;
                if round % ids == 0 {
                    list.clone_from(&pristine_list);
                    peer.clone_from(&pristine_peer);
                }
                let new_id = MessageId(new_ids(ids) + round);
                list.record_own_drop(t(ids + round), new_id);
                let (adopted, bytes) = peer.merge_from(&list);
                assert_eq!((adopted, peer.drop_count(new_id)), (1, 1));
                black_box(bytes)
            })
        });
    }

    g.bench_function("in_store_many_short_suffixes", |b| {
        let mut receiver = in_store.clone();
        let mut round = 0;
        b.iter(|| {
            if round == rounds.len() {
                receiver.clone_from(&in_store);
                round = 0;
            }
            let (relay, payload, [first, last]) = &rounds[round];
            round += 1;
            let (adopted, bytes) = receiver.merge_from(relay);
            let counts = (receiver.drop_count(*first), receiver.drop_count(*last));
            assert_eq!(
                (adopted, bytes, counts),
                (SHORT_SUFFIXES, payload.len(), (1, 1))
            );
            black_box(adopted)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_dropped_list);
criterion_main!(benches);
