//! Pins the JSONL wire format of both event vocabularies: one event of
//! every `SimEvent` and `SweepEvent` variant, rendered and compared with
//! the exact line a consumer of the event log reads.

use dtn_telemetry::{DropReason, SimEvent, SweepEvent};

fn check(cases: &[(String, &str)]) {
    for (got, want) in cases {
        assert_eq!(got, want);
    }
}

#[test]
fn every_sim_event_variant_renders_its_pinned_line() {
    check(&[
        (
            SimEvent::MessageGenerated {
                t: 1.0,
                msg: 7,
                src: 0,
                dst: 3,
                size: 500_000,
                copies: 16,
            }
            .to_jsonl(),
            r#"{"kind":"message_generated","t":1.0,"msg":7,"src":0,"dst":3,"size":500000,"copies":16}"#,
        ),
        (
            SimEvent::Replicated {
                t: -0.0,
                msg: 7,
                from: 0,
                to: 1,
                copies: 8,
            }
            .to_jsonl(),
            r#"{"kind":"replicated","t":-0.0,"msg":7,"from":0,"to":1,"copies":8}"#,
        ),
        (
            SimEvent::Delivered {
                t: 3.5,
                msg: u64::MAX,
                from: u32::MAX,
                hops: 2,
                latency: 2.0,
                first: true,
            }
            .to_jsonl(),
            r#"{"kind":"delivered","t":3.5,"msg":18446744073709551615,"from":4294967295,"hops":2,"latency":2.0,"first":true}"#,
        ),
        (
            SimEvent::Dropped {
                t: 5.0,
                msg: 9,
                node: 2,
                policy: "SDSRP",
                reason: DropReason::Evicted,
            }
            .to_jsonl(),
            r#"{"kind":"dropped","t":5.0,"msg":9,"node":2,"policy":"SDSRP","reason":"evicted"}"#,
        ),
        (
            SimEvent::Dropped {
                t: 5.25,
                msg: 10,
                node: 3,
                policy: "FIFO",
                reason: DropReason::RejectedIncoming,
            }
            .to_jsonl(),
            r#"{"kind":"dropped","t":5.25,"msg":10,"node":3,"policy":"FIFO","reason":"rejected_incoming"}"#,
        ),
        (
            SimEvent::Dropped {
                t: 5.5,
                msg: 11,
                node: 4,
                policy: "SAW-C",
                reason: DropReason::ImmunityPurge,
            }
            .to_jsonl(),
            r#"{"kind":"dropped","t":5.5,"msg":11,"node":4,"policy":"SAW-C","reason":"immunity_purge"}"#,
        ),
        (
            SimEvent::Refused {
                t: 6.0,
                msg: 9,
                node: 2,
                from: 1,
            }
            .to_jsonl(),
            r#"{"kind":"refused","t":6.0,"msg":9,"node":2,"from":1}"#,
        ),
        (
            SimEvent::GossipMerged {
                t: 7.0,
                node: 1,
                from: 2,
                records: 3,
            }
            .to_jsonl(),
            r#"{"kind":"gossip_merged","t":7.0,"node":1,"from":2,"records":3}"#,
        ),
        (
            SimEvent::ContactUp { t: 8.0, a: 0, b: 1 }.to_jsonl(),
            r#"{"kind":"contact_up","t":8.0,"a":0,"b":1}"#,
        ),
        (
            SimEvent::ContactDown {
                t: 9.125,
                a: 0,
                b: 1,
            }
            .to_jsonl(),
            r#"{"kind":"contact_down","t":9.125,"a":0,"b":1}"#,
        ),
        (
            SimEvent::TtlExpired {
                t: 10.0,
                msg: 7,
                node: 0,
            }
            .to_jsonl(),
            r#"{"kind":"ttl_expired","t":10.0,"msg":7,"node":0}"#,
        ),
        (
            SimEvent::EstimatorSample {
                t: 11.0,
                samples: 42,
                mean_err_m: 0.12,
                max_err_m: 1.0,
                mean_err_n: -0.0,
                max_err_n: 0.75,
            }
            .to_jsonl(),
            r#"{"kind":"estimator_sample","t":11.0,"samples":42,"mean_err_m":0.12,"max_err_m":1.0,"mean_err_n":-0.0,"max_err_n":0.75}"#,
        ),
        (
            SimEvent::InvariantViolation {
                t: 12.0,
                check: "copy_conservation",
                msg: Some(7),
                node: None,
            }
            .to_jsonl(),
            r#"{"kind":"invariant_violation","t":12.0,"check":"copy_conservation","msg":7}"#,
        ),
        (
            SimEvent::InvariantViolation {
                t: 12.5,
                check: "buffer_accounting",
                msg: None,
                node: Some(3),
            }
            .to_jsonl(),
            r#"{"kind":"invariant_violation","t":12.5,"check":"buffer_accounting","node":3}"#,
        ),
        (
            SimEvent::InvariantViolation {
                t: 12.75,
                check: "a \"quoted\"\\path\n\ttab",
                msg: None,
                node: None,
            }
            .to_jsonl(),
            r#"{"kind":"invariant_violation","t":12.75,"check":"a \"quoted\"\\path\n\ttab"}"#,
        ),
        (
            SimEvent::InvariantViolation {
                t: 12.875,
                check: "delivered_resident",
                msg: Some(8),
                node: Some(4),
            }
            .to_jsonl(),
            r#"{"kind":"invariant_violation","t":12.875,"check":"delivered_resident","msg":8,"node":4}"#,
        ),
        (
            SimEvent::NodeCrashed {
                t: 13.0,
                node: 4,
                wiped: 3,
            }
            .to_jsonl(),
            r#"{"kind":"node_crashed","t":13.0,"node":4,"wiped":3}"#,
        ),
        (
            SimEvent::NodeRebooted { t: 14.0, node: 4 }.to_jsonl(),
            r#"{"kind":"node_rebooted","t":14.0,"node":4}"#,
        ),
        (
            SimEvent::BlackoutStarted { t: 15.0, node: 2 }.to_jsonl(),
            r#"{"kind":"blackout_started","t":15.0,"node":2}"#,
        ),
        (
            SimEvent::BlackoutEnded { t: 1e21, node: 2 }.to_jsonl(),
            r#"{"kind":"blackout_ended","t":1000000000000000000000.0,"node":2}"#,
        ),
        (
            SimEvent::TransferAborted {
                t: 17.0,
                msg: 9,
                from: 0,
                to: 2,
            }
            .to_jsonl(),
            r#"{"kind":"transfer_aborted","t":17.0,"msg":9,"from":0,"to":2}"#,
        ),
    ]);
}

#[test]
fn every_sweep_event_variant_renders_its_pinned_line() {
    check(&[
        (
            SweepEvent::CellCompleted {
                index: 4,
                total: 50,
                config_hash: "deadbeefdeadbeef".into(),
                label: "2.5".into(),
                seed: 7,
                violations: 0,
                duration_ms: 1250,
            }
            .to_jsonl(),
            r#"{"kind":"cell_completed","index":4,"total":50,"config_hash":"deadbeefdeadbeef","label":"2.5","seed":7,"violations":0,"duration_ms":1250}"#,
        ),
        (
            SweepEvent::CellFailed {
                index: 1,
                total: 2,
                config_hash: "0123456789abcdef".into(),
                label: "L=32".into(),
                seed: 3,
                panic: "index out of bounds: \"len\" is 0\u{1}".into(),
            }
            .to_jsonl(),
            r#"{"kind":"cell_failed","index":1,"total":2,"config_hash":"0123456789abcdef","label":"L=32","seed":3,"panic":"index out of bounds: \"len\" is 0\u0001"}"#,
        ),
        (
            SweepEvent::CellSkipped {
                index: 0,
                total: 2,
                config_hash: "0123456789abcdef".into(),
                label: "(10, 15)".into(),
                seed: 1,
            }
            .to_jsonl(),
            r#"{"kind":"cell_skipped","index":0,"total":2,"config_hash":"0123456789abcdef","label":"(10, 15)","seed":1}"#,
        ),
        (
            SweepEvent::CheckpointResumed {
                path: "ck.jsonl".into(),
                cells: 3,
            }
            .to_jsonl(),
            r#"{"kind":"checkpoint_resumed","path":"ck.jsonl","cells":3}"#,
        ),
        (
            SweepEvent::WorkerSpawned {
                worker: 2,
                pid: 4242,
                restarts: 1,
            }
            .to_jsonl(),
            r#"{"kind":"worker_spawned","worker":2,"pid":4242,"restarts":1}"#,
        ),
        (
            SweepEvent::WorkerLost {
                worker: 0,
                reason: "heartbeat silence > 30s".into(),
            }
            .to_jsonl(),
            r#"{"kind":"worker_lost","worker":0,"reason":"heartbeat silence > 30s"}"#,
        ),
        (
            SweepEvent::CellDispatched {
                index: 9,
                total: 52,
                config_hash: "cafecafecafecafe".into(),
                worker: 1,
                retry: 2,
            }
            .to_jsonl(),
            r#"{"kind":"cell_dispatched","index":9,"total":52,"config_hash":"cafecafecafecafe","worker":1,"retry":2}"#,
        ),
        (
            SweepEvent::CheckpointFailed {
                path: "C:\\no\\such dir\\ck.jsonl".into(),
                error: "No such file or directory".into(),
            }
            .to_jsonl(),
            r#"{"kind":"checkpoint_failed","path":"C:\\no\\such dir\\ck.jsonl","error":"No such file or directory"}"#,
        ),
        (
            SweepEvent::FuzzCaseGenerated {
                index: 12,
                seed: 998,
                config_hash: "0123456789abcdef".into(),
                policy: "SDSRP".into(),
                routing: "SprayAndWaitBinary".into(),
                n_nodes: 14,
            }
            .to_jsonl(),
            r#"{"kind":"fuzz_case_generated","index":12,"seed":998,"config_hash":"0123456789abcdef","policy":"SDSRP","routing":"SprayAndWaitBinary","n_nodes":14}"#,
        ),
    ]);
}
