//! Failure injection: control-plane gossip arrives over a lossy radio,
//! so every `import_gossip` implementation must shrug off arbitrary
//! bytes — malformed, truncated, or adversarial — without panicking and
//! without corrupting local state. The dropped list itself is also
//! checked step by step against a plain set model.

use proptest::prelude::*;
use sdsrp::buffer::policy::BufferPolicy;
use sdsrp::core::ids::{MessageId, NodeId};
use sdsrp::core::time::SimTime;
use sdsrp::routing::prophet::{Prophet, ProphetConfig};
use sdsrp::routing::protocol::RoutingProtocol;
use sdsrp::routing::spray_and_focus::SprayAndFocus;
use sdsrp::sdsrp::dropped_list::DroppedList;
use sdsrp::sdsrp::{Sdsrp, SdsrpConfig};
use std::collections::{BTreeMap, BTreeSet};

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
const MODEL_MSGS: u64 = 24;

/// The `DLG1` wire encoding, written out from the model by hand.
fn model_bytes(model: &Model) -> Vec<u8> {
    let mut out = b"DLG1".to_vec();
    out.extend_from_slice(&(model.len() as u32).to_le_bytes());
    for (origin, (time, ids)) in model {
        out.extend_from_slice(&origin.0.to_le_bytes());
        out.extend_from_slice(&time.as_secs().to_bits().to_le_bytes());
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            out.extend_from_slice(&id.0.to_le_bytes());
        }
    }
    out
}

/// Newest-wins merge of `src` into `dst` on the model; returns the
/// adoption count and the expected `changed` report.
fn model_merge(dst_owner: NodeId, dst: &mut Model, src: &Model) -> (usize, Vec<MessageId>) {
    let mut adopted = 0;
    let mut changed = Vec::new();
    for (&origin, (time, ids)) in src {
        if origin == dst_owner || dst.get(&origin).is_some_and(|(mine, _)| mine >= time) {
            continue;
        }
        let old = dst
            .get(&origin)
            .map(|(_, ids)| ids.clone())
            .unwrap_or_default();
        changed.extend(old.symmetric_difference(ids).copied());
        dst.insert(origin, (*time, ids.clone()));
        adopted += 1;
    }
    (adopted, changed)
}

/// Every derived answer of `list` against brute force over `model`.
fn check_against_model(
    owner: NodeId,
    list: &mut DroppedList,
    model: &Model,
) -> Result<(), TestCaseError> {
    for id in 0..MODEL_MSGS {
        let m = MessageId(id);
        let brute = model.values().filter(|(_, ids)| ids.contains(&m)).count() as u32;
        prop_assert_eq!(list.drop_count(m), brute);
        prop_assert_eq!(list.anyone_dropped(m), brute > 0);
        let own = model.get(&owner).is_some_and(|(_, ids)| ids.contains(&m));
        prop_assert_eq!(list.own_dropped(m), own);
    }
    prop_assert_eq!(list.origin_count(), model.len());
    prop_assert_eq!(list.to_gossip_bytes(), model_bytes(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random own drops (re-drops included), streaming and decoded
    /// merges, prunes and crash wipes over several lists, each step
    /// checked against a `BTreeMap<NodeId, BTreeSet<MessageId>>` model.
    #[test]
    fn dropped_list_matches_set_model(
        ops in prop::collection::vec((0u8..8, 0..MODEL_NODES, 0..MODEL_NODES, 0..MODEL_MSGS, 0u8..2), 1..80)
    ) {
        let mut lists: Vec<DroppedList> = (0..MODEL_NODES).map(|n| DroppedList::new(NodeId(n))).collect();
        let mut models: Vec<Model> = vec![Model::new(); MODEL_NODES as usize];
        let mut now = 0.0;
        for (kind, a, b, msg, flag) in ops {
            // Time stands still on some steps, so equal record times
            // (ties keep the receiver's record) come up too.
            now += f64::from(flag);
            let (a, b) = (a as usize, b as usize);
            let (m, t_now) = (MessageId(msg), t(now));
            match kind {
                0..=2 => {
                    lists[a].record_own_drop(t_now, m);
                    let rec = models[a].entry(NodeId(a as u32)).or_insert((t_now, BTreeSet::new()));
                    if rec.1.insert(m) {
                        rec.0 = t_now;
                    }
                }
                3 | 4 => {
                    // Gossip from a to b: 3 streams the wire bytes, 4
                    // decodes first (the reference path).
                    let payload = lists[a].to_gossip_bytes();
                    let mut changed = Vec::new();
                    let adopted = match (kind, flag) {
                        (3, 0) => lists[b].merge_gossip_bytes(&payload),
                        (3, _) => lists[b].merge_gossip_bytes_tracking(&payload, &mut changed),
                        (_, 0) => lists[b].merge(&DroppedList::decode_records(&payload).unwrap()),
                        (_, _) => lists[b]
                            .merge_tracking(&DroppedList::decode_records(&payload).unwrap(), &mut changed),
                    };
                    let src = models[a].clone();
                    let (want_adopted, want_changed) = model_merge(NodeId(b as u32), &mut models[b], &src);
                    prop_assert_eq!(adopted, want_adopted);
                    if flag == 1 {
                        prop_assert_eq!(changed, want_changed);
                    }
                }
                5 | 6 => {
                    let residue = msg % 4;
                    lists[a].prune(|id| id.0 % 4 == residue);
                    for (_, ids) in models[a].values_mut() {
                        ids.retain(|id| id.0 % 4 != residue);
                    }
                    models[a].retain(|_, (_, ids)| !ids.is_empty());
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
    }
}

#[test]
fn unsorted_duplicate_ids_merge_the_same_streamed_or_decoded() {
    // Origins strictly increasing (so the streaming path is taken), but
    // origin 2's record lists its ids out of order and twice.
    let mut payload = b"DLG1".to_vec();
    payload.extend_from_slice(&2u32.to_le_bytes());
    for (origin, time, ids) in [(2u32, 40.0f64, &[9u64, 3, 5, 3, 9, 1][..]), (4, 41.0, &[7])] {
        payload.extend_from_slice(&origin.to_le_bytes());
        payload.extend_from_slice(&time.to_bits().to_le_bytes());
        payload.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            payload.extend_from_slice(&id.to_le_bytes());
        }
    }
    // The receiver already holds an older record for origin 2, so the
    // adoption replaces one record and creates another.
    let mut receiver = DroppedList::new(NodeId(0));
    let mut older = DroppedList::new(NodeId(2));
    older.record_own_drop(t(10.0), MessageId(3));
    older.record_own_drop(t(11.0), MessageId(8));
    receiver.merge_gossip_bytes(&older.to_gossip_bytes());

    let mut streamed = receiver.clone();
    let mut decoded = receiver.clone();
    let (mut changed_streamed, mut changed_decoded) = (Vec::new(), Vec::new());
    assert_eq!(
        streamed.merge_gossip_bytes_tracking(&payload, &mut changed_streamed),
        2
    );
    let records = DroppedList::decode_records(&payload).expect("well-formed");
    assert_eq!(decoded.merge_tracking(&records, &mut changed_decoded), 2);

    assert_eq!(streamed, decoded);
    assert_eq!(changed_streamed, changed_decoded);
    assert_eq!(
        changed_streamed,
        [1, 5, 8, 9, 7].map(MessageId).to_vec(),
        "symmetric difference per record, ascending"
    );
    assert_eq!(
        streamed.records()[&NodeId(2)].dropped,
        [1, 3, 5, 9].map(MessageId).to_vec()
    );
    for id in 0..12 {
        let m = MessageId(id);
        assert_eq!(streamed.drop_count(m), decoded.drop_count(m), "{m:?}");
    }
    assert_eq!(streamed.drop_count(MessageId(3)), 1);
    assert_eq!(streamed.drop_count(MessageId(8)), 0);
    assert_eq!(streamed.to_gossip_bytes(), decoded.to_gossip_bytes());
}
