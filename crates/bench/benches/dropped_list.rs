//! Micro-bench: one contact's dropped-list gossip on a list the size the
//! small-buffer regime grows — 80 origins with ~400 dropped ids each.
//! Between two contacts a peer's payload typically differs from what the
//! receiver holds in one record by one id, so these cases time what a
//! contact costs when little changed:
//!
//! * `import_one_id_changed` — merge a payload in which one record is
//!   newer and differs from the held one by a single id;
//! * `import_then_export` — the same adoption followed by the export
//!   the next contact makes, which re-encodes the whole list;
//! * `summary_then_delta` — the same adoption followed by what the next
//!   contact does instead: a peer behind on that one record sends its
//!   summary vector, gets a delta of the one record and merges it.

use criterion::{criterion_group, criterion_main, Criterion};
use dtn_core::ids::{MessageId, NodeId};
use dtn_core::time::SimTime;
use sdsrp_core::dropped_list::{DroppedList, DroppedRecord};
use std::collections::BTreeMap;
use std::hint::black_box;

const ORIGINS: u32 = 80;
const IDS_PER_RECORD: u64 = 400;
/// The origin whose record changes between contacts.
const CHANGING: u32 = ORIGINS / 2;

/// Records for `ORIGINS` origins (none of them the receiver, node 0),
/// overlapping on a shared id range as nodes dropping the same popular
/// messages do. `extra` adds one id to the changing origin's record.
fn records(extra: bool) -> BTreeMap<NodeId, DroppedRecord> {
    (1..=ORIGINS)
        .map(|o| {
            let mut dropped: Vec<MessageId> = (0..IDS_PER_RECORD)
                .map(|k| MessageId((u64::from(o) * 7_919 + k * 53) % 40_000))
                .collect();
            if extra && o == CHANGING {
                dropped.push(MessageId(40_001));
            }
            dropped.sort_unstable();
            dropped.dedup();
            let record = DroppedRecord {
                dropped,
                record_time: SimTime::from_secs(f64::from(o)),
            };
            (NodeId(o), record)
        })
        .collect()
}

/// Byte offset of `origin`'s record time in a `DLG1` payload.
fn time_offset(payload: &[u8], origin: u32) -> usize {
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
    let mut at = 8;
    loop {
        if u32_at(at) == origin {
            return at + 4;
        }
        at += 16 + 8 * u32_at(at + 12) as usize;
    }
}

/// A receiver that already holds every record, plus the two payloads
/// (changing record without / with its extra id) and the offset of the
/// changing record's time in each.
fn setup() -> (DroppedList, [(Vec<u8>, usize); 2]) {
    let mut receiver = DroppedList::new(NodeId(0));
    receiver.merge(&records(false));
    let payloads = [false, true].map(|extra| {
        let bytes = DroppedList::encode_records(&records(extra));
        let at = time_offset(&bytes, CHANGING);
        (bytes, at)
    });
    (receiver, payloads)
}

/// Stamps the changing record with a fresh time so it wins the
/// newest-wins rule, alternating between the two payloads so the held
/// record gains and loses the extra id on alternate calls.
fn next_payload<'a>(payloads: &'a mut [(Vec<u8>, usize); 2], round: &mut u64) -> &'a [u8] {
    *round += 1;
    let (bytes, at) = &mut payloads[(*round % 2) as usize];
    let time = 1_000.0 + *round as f64;
    bytes[*at..*at + 8].copy_from_slice(&time.to_bits().to_le_bytes());
    bytes
}

fn bench_dropped_list(c: &mut Criterion) {
    let mut g = c.benchmark_group("dropped_list");

    g.bench_function("import_one_id_changed", |b| {
        let (mut receiver, mut payloads) = setup();
        let mut changed = Vec::new();
        let mut round = 0;
        b.iter(|| {
            changed.clear();
            let payload = next_payload(&mut payloads, &mut round);
            let adopted = receiver.merge_gossip_bytes_tracking(payload, &mut changed);
            assert_eq!((adopted, changed.len()), (1, 1));
            black_box(adopted)
        })
    });

    g.bench_function("import_then_export", |b| {
        let (mut receiver, mut payloads) = setup();
        let mut round = 0;
        b.iter(|| {
            let payload = next_payload(&mut payloads, &mut round);
            assert_eq!(receiver.merge_gossip_bytes(payload), 1);
            black_box(receiver.to_gossip_bytes())
        })
    });

    g.bench_function("summary_then_delta", |b| {
        let (mut receiver, mut payloads) = setup();
        let mut peer = DroppedList::new(NodeId(ORIGINS + 1));
        peer.merge(&records(false));
        let mut round = 0;
        b.iter(|| {
            let payload = next_payload(&mut payloads, &mut round);
            assert_eq!(receiver.merge_gossip_bytes(payload), 1);
            let delta = receiver.delta_gossip_bytes(&peer.to_summary_bytes());
            assert_eq!(peer.merge_gossip_bytes(&delta), 1);
            black_box(delta)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_dropped_list);
criterion_main!(benches);
