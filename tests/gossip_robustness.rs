//! Failure injection: control-plane gossip arrives over a lossy radio,
//! so every `import_gossip` implementation must shrug off arbitrary
//! bytes — malformed, truncated, or adversarial — without panicking and
//! without corrupting local state. The dropped list itself is also
//! checked step by step against a plain set model, and the in-store
//! exchange against the whole-list exchange, both on single lists and on
//! whole runs.

use proptest::prelude::*;
use sdsrp::buffer::policy::BufferPolicy;
use sdsrp::core::ids::{MessageId, NodeId};
use sdsrp::core::time::SimTime;
use sdsrp::routing::prophet::{Prophet, ProphetConfig};
use sdsrp::routing::protocol::RoutingProtocol;
use sdsrp::routing::spray_and_focus::SprayAndFocus;
use sdsrp::sdsrp::dropped_list::{DropLogs, DroppedList};
use sdsrp::sdsrp::{Sdsrp, SdsrpConfig};
use sdsrp::sim::config::{presets, FaultPlan, PolicyKind, ScenarioConfig};
use sdsrp::sim::replay::fingerprint;
use sdsrp::sim::scenario_gen::random_scenario;
use sdsrp::sim::world::World;
use sdsrp::telemetry::{DropReason, EventSink, EventTotals, Recorder, SimEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn sdsrp_survives_garbage_gossip(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut p = Sdsrp::new(NodeId(0), SdsrpConfig::paper(50));
        p.on_drop(t(1.0), MessageId(7));
        p.import_gossip(t(2.0), &bytes);
        // Own records stay intact.
        prop_assert!(p.dropped_list().own_dropped(MessageId(7)));
        prop_assert!(!p.accepts(t(3.0), MessageId(7)));
    }

    #[test]
    fn prophet_survives_garbage_gossip(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut p = Prophet::new(ProphetConfig::default());
        p.on_contact_up(t(1.0), NodeId(3));
        let before = p.predictability(NodeId(3));
        p.import_gossip(t(1.0), NodeId(3), &bytes);
        // Aging between identical timestamps is a no-op, and garbage
        // must not invent predictability for unknown nodes.
        prop_assert!((p.predictability(NodeId(3)) - before).abs() < 1e-9);
        prop_assert_eq!(p.predictability(NodeId(42)), 0.0);
    }

    #[test]
    fn spray_and_focus_survives_garbage_gossip(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut p = SprayAndFocus::new(60.0);
        p.on_contact_up(t(1.0), NodeId(3));
        p.import_gossip(t(1.0), NodeId(3), &bytes);
        prop_assert_eq!(p.last_seen(NodeId(3)), Some(t(1.0)));
    }

    /// Truncations of *valid* payloads are the realistic corruption:
    /// make sure a prefix of a real SDSRP gossip blob never panics.
    #[test]
    fn sdsrp_survives_truncated_valid_gossip(cut in 0usize..200) {
        let mut a = Sdsrp::new(NodeId(0), SdsrpConfig::paper(50));
        for i in 0..5 {
            a.on_drop(t(i as f64), MessageId(i));
        }
        let payload = a.export_gossip(t(10.0)).expect("has records");
        let cut = cut.min(payload.len());
        let mut b = Sdsrp::new(NodeId(1), SdsrpConfig::paper(50));
        b.import_gossip(t(11.0), &payload[..cut]);
        // Only the complete payload may (and must) transfer knowledge.
        if cut == payload.len() {
            prop_assert!(!b.accepts(t(12.0), MessageId(0)));
        }
    }
}

#[test]
fn cross_policy_gossip_is_harmless() {
    // A Spray-and-Focus node receiving an SDSRP dropped list (protocol
    // confusion) must ignore it; and vice versa.
    let mut sdsrp = Sdsrp::new(NodeId(0), SdsrpConfig::paper(50));
    sdsrp.on_drop(t(1.0), MessageId(1));
    let dropped_payload = sdsrp.export_gossip(t(2.0)).unwrap();

    let mut focus = SprayAndFocus::new(60.0);
    focus.on_contact_down(t(3.0), NodeId(9));
    let focus_payload = focus.export_gossip(t(3.0)).unwrap();

    focus.import_gossip(t(4.0), NodeId(0), &dropped_payload);
    sdsrp.import_gossip(t(4.0), &focus_payload);

    assert_eq!(focus.last_seen(NodeId(9)), Some(t(3.0)));
    assert!(sdsrp.dropped_list().own_dropped(MessageId(1)));
}

/// Plain reference model of one node's dropped list: per origin, the
/// record time and the set of dropped ids.
type Model = BTreeMap<NodeId, (SimTime, BTreeSet<MessageId>)>;

const MODEL_NODES: u32 = 4;

/// The message ids the model draws from: a small range, then clusters
/// at the drop-count index's page boundaries (pages of 256 ids), far out
/// at 2^40 and at the top of the id space.
const MODEL_IDS: [u64; 24] = [
    0,
    1,
    2,
    3,
    4,
    5,
    6,
    255,
    256,
    257,
    511,
    512,
    513,
    (1 << 40) - 1,
    1 << 40,
    (1 << 40) + 1,
    (1 << 40) + 256,
    u64::MAX - 256,
    u64::MAX - 255,
    u64::MAX - 254,
    u64::MAX - 3,
    u64::MAX - 2,
    u64::MAX - 1,
    u64::MAX,
];
const MODEL_MSGS: usize = MODEL_IDS.len();

/// Newest-wins merge of `src` into `dst` on the model; returns the
/// adoption count.
fn model_merge(dst_owner: NodeId, dst: &mut Model, src: &Model) -> usize {
    let mut adopted = 0;
    for (&origin, (time, ids)) in src {
        if origin == dst_owner || dst.get(&origin).is_some_and(|(mine, _)| mine >= time) {
            continue;
        }
        dst.insert(origin, (*time, ids.clone()));
        adopted += 1;
    }
    adopted
}

/// `list`'s records as the model sees them: record times and id sets.
fn as_model(list: &DroppedList) -> Model {
    list.records()
        .iter()
        .map(|(origin, rec)| {
            (
                *origin,
                (rec.record_time, rec.dropped.iter().copied().collect()),
            )
        })
        .collect()
}

/// The bytes `sender`'s answer to the summary of `receiver` (owned by
/// `owner`) takes on the wire: for each record the receiver's merge
/// would adopt, a suffix past the receiver's ids when the receiver's
/// record time is after the record's epoch start and its record is no
/// longer, else the whole record. A planned suffix must continue the
/// receiver's ids.
fn answer_bytes(sender: &DroppedList, owner: NodeId, receiver: &DroppedList) -> usize {
    let mut bytes = 8;
    for (origin, rec) in sender.records() {
        let held = receiver.record(origin);
        if origin == owner
            || held
                .as_ref()
                .is_some_and(|h| h.record_time >= rec.record_time)
        {
            continue;
        }
        let base = match held {
            Some(h) if rec.epoch_start < h.record_time && h.dropped.len() <= rec.dropped.len() => {
                assert_eq!(h.dropped[..], rec.dropped[..h.dropped.len()], "{origin:?}");
                h.dropped.len()
            }
            _ => 0,
        };
        bytes += 28 + 8 * (rec.dropped.len() - base);
    }
    bytes
}

/// Every derived answer of `list` against brute force over `model`.
fn check_against_model(
    owner: NodeId,
    list: &mut DroppedList,
    model: &Model,
) -> Result<(), TestCaseError> {
    for id in MODEL_IDS {
        let m = MessageId(id);
        let brute = model.values().filter(|(_, ids)| ids.contains(&m)).count() as u32;
        prop_assert_eq!(list.drop_count(m), brute);
        prop_assert_eq!(list.anyone_dropped(m), brute > 0);
        let own = model.get(&owner).is_some_and(|(_, ids)| ids.contains(&m));
        prop_assert_eq!(list.own_dropped(m), own);
    }
    prop_assert_eq!(list.origin_count(), model.len());
    prop_assert_eq!(&as_model(list), model);
    // The full payload carries every record whole, faithfully, and each
    // log lists its ids once.
    let full = DroppedList::decode_gossip(&list.to_gossip_bytes()).expect("well-formed");
    for (origin, entry) in &full {
        prop_assert_eq!(entry.base, 0);
        prop_assert_eq!(Some(entry.record.clone()), list.record(*origin));
        prop_assert_eq!(entry.record.dropped.len(), model[origin].1.len());
    }
    prop_assert_eq!(full.len(), model.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random own drops (re-drops included), whole-list merges, in-store
    /// merges when the lists share one store, and crash wipes with and
    /// without a drop after the reboot over several lists, each step
    /// checked against a `BTreeMap<NodeId, BTreeSet<MessageId>>` model.
    /// Time stands still on some steps, so equal record times and a
    /// crash and drop at the instant of an older version come up too.
    #[test]
    fn dropped_list_matches_set_model(
        ops in prop::collection::vec((0u8..10, 0..MODEL_NODES, 0..MODEL_NODES, 0..MODEL_MSGS, 0u8..2), 1..80),
        shared in any::<bool>(),
    ) {
        let store = DropLogs::shared();
        let mut lists: Vec<DroppedList> = (0..MODEL_NODES)
            .map(|n| if shared { DroppedList::sharing(NodeId(n), &store) } else { DroppedList::new(NodeId(n)) })
            .collect();
        let mut models: Vec<Model> = vec![Model::new(); MODEL_NODES as usize];
        let mut now = 0.0;
        for (kind, a, b, msg, flag) in ops {
            now += f64::from(flag);
            let (a, b) = (a as usize, b as usize);
            let (m, t_now) = (MessageId(MODEL_IDS[msg]), t(now));
            match kind {
                0..=2 => {
                    lists[a].record_own_drop(t_now, m);
                    let rec = models[a].entry(NodeId(a as u32)).or_insert((t_now, BTreeSet::new()));
                    if rec.1.insert(m) {
                        rec.0 = t_now;
                    }
                }
                5 | 9 if shared => {
                    // Gossip from a to b in the store both share: b's
                    // views are its summary, a answers with the suffixes
                    // and records b lacks, and no bytes move. It adopts
                    // what the whole list would, and counts the bytes the
                    // epoch rule's plan takes.
                    let mut via_full = lists[b].clone();
                    let want = via_full.merge_gossip_bytes(&lists[a].to_gossip_bytes());
                    let size = answer_bytes(&lists[a], NodeId(b as u32), &lists[b]);
                    let sender = lists[a].clone();
                    prop_assert_eq!(lists[b].merge_from(&sender), (want, size));
                    prop_assert_eq!(&lists[b], &via_full);
                    prop_assert_eq!(lists[b].to_gossip_bytes(), via_full.to_gossip_bytes());
                    let src = models[a].clone();
                    prop_assert_eq!(want, model_merge(NodeId(b as u32), &mut models[b], &src));
                }
                3..=5 => {
                    // Gossip from a to b, the whole list.
                    let payload = lists[a].to_gossip_bytes();
                    let adopted = lists[b].merge_gossip_bytes(&payload);
                    let src = models[a].clone();
                    prop_assert_eq!(adopted, model_merge(NodeId(b as u32), &mut models[b], &src));
                }
                6 | 7 => {
                    // A crash and a first drop after the reboot: the own
                    // record restarts at one id, so peers that adopt it
                    // must retire the ids it lost.
                    lists[a].clear();
                    lists[a].record_own_drop(t_now, m);
                    models[a].clear();
                    models[a].insert(NodeId(a as u32), (t_now, BTreeSet::from([m])));
                }
                _ => {
                    lists[a].clear();
                    models[a].clear();
                }
            }
            for (n, (list, model)) in lists.iter_mut().zip(&models).enumerate() {
                check_against_model(NodeId(n as u32), list, model)?;
            }
        }
        // A log lives as long as some list points at it.
        drop(lists);
        prop_assert!(store.lock().unwrap().id_count() == 0, "a dropped list leaked its logs");
    }
}

/// A peer that holds origin 0's record (dropping `ids` in order, one a
/// second from t = 1) at `held` ids, and a hand-encoded delta for it:
/// the suffix past those ids, then a whole record of origin 2, so every
/// delta carries one suffix and one whole record.
fn delta_setup(ids: &[u64], held: usize) -> (DroppedList, Vec<u8>) {
    let mut origin = DroppedList::new(NodeId(0));
    let mut peer = DroppedList::new(NodeId(1));
    for (k, &id) in ids.iter().enumerate().take(held) {
        origin.record_own_drop(t(1.0 + k as f64), MessageId(id));
    }
    peer.merge_gossip_bytes(&origin.to_gossip_bytes());
    let newest = ids.len() as f64;
    let delta = payload(&[
        (0, newest, 1.0, held as u32, &ids[held..]),
        (2, 0.5, 0.5, 0, &[99]),
    ]);
    (peer, delta)
}

/// Merging `bytes` into `list` adopts nothing and changes nothing.
fn rejects(list: &DroppedList, bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut merged = list.clone();
    prop_assert_eq!(merged.merge_gossip_bytes(bytes), 0);
    prop_assert_eq!(&merged, list);
    for id in [0, 99] {
        prop_assert_eq!(
            merged.drop_count(MessageId(id)),
            list.drop_count(MessageId(id))
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Malformed deltas — truncated, with a wrong magic, with a suffix
    /// whose base is not the receiver's record length, or with their
    /// two entries swapped so the origins are not increasing — adopt
    /// nothing and leave the receiver as it was. The intact delta is
    /// adopted whole.
    #[test]
    fn malformed_deltas_adopt_nothing(
        n_ids in 3usize..12,
        held in 2usize..12,
        cut in 0usize..400,
        byte in 0usize..4,
        base in 0u32..16,
    ) {
        let held = held.min(n_ids - 1);
        let ids: Vec<u64> = (0..n_ids as u64).map(|k| (k * 7) % 13).collect();
        let (peer, delta) = delta_setup(&ids, held);
        let entries = DroppedList::decode_gossip(&delta).expect("well-formed");
        prop_assert_eq!(entries[&NodeId(0)].base, held);
        prop_assert_eq!(entries[&NodeId(2)].base, 0);

        rejects(&peer, &delta[..cut % delta.len()])?;
        let mut bad_magic = delta.clone();
        bad_magic[byte] ^= 0x20;
        rejects(&peer, &bad_magic)?;
        // Origin 0's entry comes first: its base sits after the count,
        // the origin and the two times.
        let at = 8 + 4 + 8 + 8;
        prop_assert_eq!(u32::from_le_bytes(delta[at..at + 4].try_into().unwrap()) as usize, held);
        if base as usize != held {
            let mut rebased = delta.clone();
            rebased[at..at + 4].copy_from_slice(&base.to_le_bytes());
            if base == 0 {
                // Base 0 is a whole record: the truncated log replaces
                // the peer's, which is well-formed.
                let mut whole = peer.clone();
                prop_assert_eq!(whole.merge_gossip_bytes(&rebased), 2);
            } else {
                rejects(&peer, &rebased)?;
            }
        }
        // Origin 2's whole record ends the payload; moving it before
        // origin 0's suffix keeps every entry intact.
        // Each entry's header is 28 bytes; origin 2's carries one id.
        let second = delta.len() - (28 + 8);
        let mut swapped = delta[..8].to_vec();
        swapped.extend_from_slice(&delta[second..]);
        swapped.extend_from_slice(&delta[8..second]);
        prop_assert_eq!(DroppedList::decode_gossip(&swapped), Some(entries));
        rejects(&peer, &swapped)?;
        let mut peer = peer;
        prop_assert_eq!(peer.merge_gossip_bytes(&delta), 2);
        prop_assert_eq!(peer.record(NodeId(0)).unwrap().dropped.len(), n_ids);
    }
}

/// What one run of [`exchange_run`] shows.
struct Exchange {
    fingerprint: String,
    totals: EventTotals,
    summary_bytes: u64,
    payload_bytes: u64,
}

/// How a run's nodes exchange dropped lists.
#[derive(Clone, Copy)]
enum Transport {
    /// [`World::build`]: every list in the world's store, exchanged in
    /// place.
    InStore,
    /// Each list in a store of its own: whole lists as bytes.
    Bytes,
}

/// Runs `cfg` to its end with its dropped lists exchanged by `transport`.
fn exchange_run(cfg: &ScenarioConfig, transport: Transport) -> Exchange {
    let (n, seed, policy) = (cfg.n_nodes, cfg.seed, cfg.policy);
    let mut world = match transport {
        Transport::InStore => World::build(cfg),
        Transport::Bytes => World::build_with_policies(cfg, &mut |id| policy.build(id, n, seed)),
    };
    world.attach_recorder(Recorder::enabled(16));
    let out = world.finish();
    let counters = out.recorder.metrics().snapshot().counters;
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    Exchange {
        fingerprint: fingerprint(&out.report, out.recorder.totals()).to_canonical_json(),
        totals: out.recorder.totals().clone(),
        summary_bytes: counter("gossip_summary_bytes"),
        payload_bytes: counter("gossip_payload_bytes"),
    }
}

/// Runs `cfg` with each transport and demands the same run, no summary
/// and no more bytes on the wire from the in-store exchange than from
/// the whole lists. Returns the in-store run and the whole-list run's
/// payload bytes.
fn assert_delta_matches_full(cfg: &ScenarioConfig) -> (Exchange, u64) {
    let in_store = exchange_run(cfg, Transport::InStore);
    let whole = exchange_run(cfg, Transport::Bytes);
    assert_eq!(
        in_store.fingerprint, whole.fingerprint,
        "{}: the transport changed the run",
        cfg.name
    );
    assert_eq!(in_store.totals, whole.totals, "{}", cfg.name);
    assert_eq!(
        whole.summary_bytes, 0,
        "{}: the whole-list exchange sent a summary",
        cfg.name
    );
    assert!(
        in_store.payload_bytes <= whole.payload_bytes,
        "{}: a delta outweighed the full list",
        cfg.name
    );
    (in_store, whole.payload_bytes)
}

#[test]
fn delta_exchange_reproduces_the_golden_headline() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    let (delta, full) = assert_delta_matches_full(&cfg);
    assert!(delta.payload_bytes < full, "no gossip was trimmed");
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/headline_smoke.json");
    let committed = std::fs::read_to_string(golden).expect("golden snapshot exists");
    assert_eq!(delta.fingerprint, committed);
}

#[test]
fn delta_exchange_reproduces_the_pressure_workload() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/workloads/pressure.json");
    let body = std::fs::read_to_string(path).expect("pressure workload exists");
    let mut cfg: ScenarioConfig = serde_json::from_str(&body).expect("workload parses");
    cfg.duration_secs = 3_600.0;
    let (delta, full) = assert_delta_matches_full(&cfg);
    // The bytes a real node's summaries and suffix deltas would take,
    // counted by the in-store exchange from lengths: about 9 % of the
    // full lists' 128.5 MB.
    assert_eq!(
        (delta.summary_bytes, delta.payload_bytes),
        (4_969_184, 6_600_156)
    );
    let sent = delta.summary_bytes + delta.payload_bytes;
    assert!(
        sent * 8 < full,
        "summaries and deltas should cut the bytes at least eightfold: {sent} vs {full}"
    );
}

/// Collects the distinct `(node, message)` pairs of the run's own drops:
/// evictions and refusals on arrival.
struct OwnDrops(Arc<Mutex<BTreeSet<(u32, u64)>>>);

impl EventSink for OwnDrops {
    fn on_event(&mut self, ev: &SimEvent) -> std::io::Result<()> {
        if let SimEvent::Dropped {
            node, msg, reason, ..
        } = *ev
        {
            if matches!(reason, DropReason::Evicted | DropReason::RejectedIncoming) {
                self.0.lock().unwrap().insert((node, msg));
            }
        }
        Ok(())
    }
}

/// Each own drop is stored once per world, not once per node that heard
/// of it: with no crash, the world's store holds exactly the distinct
/// own drops, while gossip spreads them over the 80 nodes.
#[test]
fn the_world_stores_each_own_drop_once() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/workloads/pressure.json");
    let body = std::fs::read_to_string(path).expect("pressure workload exists");
    let mut cfg: ScenarioConfig = serde_json::from_str(&body).expect("workload parses");
    cfg.duration_secs = 1_800.0;
    let drops = Arc::new(Mutex::new(BTreeSet::new()));
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(0).with_sink(Box::new(OwnDrops(Arc::clone(&drops)))));
    world.step_until(SimTime::from_secs(cfg.duration_secs));
    let own = drops.lock().unwrap().len();
    assert!(own > 1_000, "too few drops to tell: {own}");
    assert_eq!(world.dropped_list_ids(), Some(own));
    let wrapped = World::build_with_policies(&cfg, &mut |id| cfg.policy.build(id, 80, cfg.seed));
    assert_eq!(wrapped.dropped_list_ids(), None);
}

/// Crashes wipe a node's dropped list while its peers still hold its
/// old own record: the rebooted node's summary lacks its own origin,
/// yet no delta may hand that stale record back.
#[test]
fn delta_exchange_survives_crash_reboots() {
    let mut cfg = presets::smoke();
    cfg.name = "crash-delta".into();
    cfg.n_nodes = 20;
    cfg.duration_secs = 1_800.0;
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 5;
    cfg.faults = FaultPlan {
        crash_rate_per_hour: 3.0,
        reboot_secs: 60.0,
        blackout_rate_per_hour: 4.0,
        blackout_secs: 30.0,
        transfer_abort_prob: 0.05,
        clock_skew_max_secs: 10.0,
    };
    let (delta, full) = assert_delta_matches_full(&cfg);
    assert!(delta.totals.node_crashes > 0, "no crash fired");
    assert!(delta.payload_bytes < full, "no gossip was trimmed");
}

#[test]
fn delta_exchange_reproduces_random_scenarios() {
    for seed in 0..4u64 {
        let mut cfg = random_scenario(seed);
        cfg.policy = PolicyKind::Sdsrp;
        cfg.name = format!("fuzz-delta-{seed}");
        assert_delta_matches_full(&cfg);
    }
}

/// A `"DLG2"` payload of `(origin, record time, epoch start, base, ids)`
/// entries, in the order given.
fn payload(entries: &[(u32, f64, f64, u32, &[u64])]) -> Vec<u8> {
    let mut out = b"DLG2".to_vec();
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

#[test]
fn repeated_ids_count_per_listing_and_unsorted_origins_are_rejected() {
    // Origin 2's whole record lists ids twice, and origin 5's suffix
    // repeats one.
    let entries: [(u32, f64, f64, u32, &[u64]); 3] = [
        (2, 40.0, 40.0, 0, &[9, 3, 5, 3, 9, 1]),
        (4, 41.0, 41.0, 0, &[7]),
        (5, 42.0, 12.0, 1, &[6, 6]),
    ];
    // The receiver already holds an older record for origin 2, which the
    // adoption replaces, and one id of origin 5's record, which the
    // suffix continues; origin 4 is new.
    let mut receiver = DroppedList::new(NodeId(0));
    let mut older = DroppedList::new(NodeId(2));
    older.record_own_drop(t(10.0), MessageId(3));
    older.record_own_drop(t(11.0), MessageId(8));
    receiver.merge_gossip_bytes(&older.to_gossip_bytes());
    let mut five = DroppedList::new(NodeId(5));
    five.record_own_drop(t(12.0), MessageId(2));
    receiver.merge_gossip_bytes(&five.to_gossip_bytes());

    // Listed in increasing origin order, every record is adopted and
    // keeps its ids as sent; the index counts each listing.
    let mut merged = receiver.clone();
    assert_eq!(merged.merge_gossip_bytes(&payload(&entries)), 3);
    assert_eq!(
        merged.record(NodeId(2)).unwrap().dropped,
        [9, 3, 5, 3, 9, 1].map(MessageId).to_vec()
    );
    assert_eq!(
        merged.record(NodeId(5)).unwrap().dropped,
        [2, 6, 6].map(MessageId).to_vec()
    );
    let want = [0, 1, 1, 2, 0, 1, 2, 1, 0, 2, 0, 0];
    for (id, &count) in want.iter().enumerate() {
        assert_eq!(merged.drop_count(MessageId(id as u64)), count, "{id}");
    }

    // The same entries with origins 4 and 5 swapped: nothing is
    // adopted, not even the records that come before the swap.
    let unsorted = payload(&[entries[0], entries[2], entries[1]]);
    assert!(DroppedList::decode_gossip(&unsorted).is_some());
    let mut rejected = receiver.clone();
    assert_eq!(rejected.merge_gossip_bytes(&unsorted), 0);
    assert_eq!(rejected, receiver);
    for id in 0..12 {
        let m = MessageId(id);
        assert_eq!(rejected.drop_count(m), receiver.drop_count(m), "{m:?}");
    }
}
