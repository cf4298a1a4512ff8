//! The validator: full-state sweeps, gossip checks and the estimator
//! oracle.
//!
//! The world keeps one [`TruthLedger`] updated from its state-transition
//! hooks and runs one sweep per tick (`begin_sweep` →
//! `sweep_node`/`sweep_copy` → `finish_sweep`). All bookkeeping is
//! double-entry: the ledger is one view of the truth, the sweep derives
//! a second view from the actual buffers, and disagreement is a
//! violation — so a missed or corrupted update on either path is
//! caught, not silently absorbed. The validator itself only records
//! what the ledger has no place for: the gossip clock, the fault ledger
//! and the report.

use crate::report::{ErrStats, ValidationReport};
use crate::truth::TruthLedger;
use crate::violation::{Violation, ViolationKind};
use dtn_core::ids::{MessageId, NodeId};
use dtn_core::time::SimTime;
use sdsrp_core::dropped_list::{DroppedList, GossipEntry};
use sdsrp_core::estimator::{estimate_m, estimate_n};
use sdsrp_core::priority::PriorityModel;
use std::collections::HashMap;

/// Tuning for one validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidateConfig {
    /// Reference intermeeting rate λ fed to the Eq. 15 `m_i` estimate
    /// (the same `E(I) = 2000 s` prior SDSRP's online estimator starts
    /// from).
    pub lambda: f64,
    /// Seconds between estimator-error sampling sweeps. Invariants are
    /// checked every sweep regardless.
    pub sample_every: f64,
    /// Panic on the first violation instead of accumulating.
    pub fail_fast: bool,
    /// How many violations to retain verbatim in the report (the count
    /// keeps running past the cap).
    pub max_violations: usize,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        ValidateConfig {
            lambda: 1.0 / 2000.0,
            sample_every: 60.0,
            fail_fast: false,
            max_violations: 64,
        }
    }
}

/// A violation in the compact form the world re-emits as a telemetry
/// event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViolationNote {
    /// Stable check label.
    pub check: &'static str,
    /// Detection time, seconds.
    pub t: f64,
    /// Message involved, if any.
    pub msg: Option<u64>,
    /// Node involved, if any.
    pub node: Option<u32>,
}

/// Aggregated estimator errors from one sampling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorSweepSample {
    /// Copies sampled in this sweep.
    pub samples: u64,
    /// Mean relative error of the Eq. 15 `m_i` estimate.
    pub mean_err_m: f64,
    /// Max relative error of the Eq. 15 `m_i` estimate.
    pub max_err_m: f64,
    /// Mean relative error of the Eq. 14 `n_i` estimate.
    pub mean_err_n: f64,
    /// Max relative error of the Eq. 14 `n_i` estimate.
    pub max_err_n: f64,
}

/// What [`Validator::finish_sweep`] hands back for telemetry emission.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Violations detected since the previous sweep finished.
    pub new_violations: Vec<ViolationNote>,
    /// Estimator-error aggregate, present on sampling sweeps.
    pub sample: Option<EstimatorSweepSample>,
}

/// Invariant checker and estimator scorer for one run.
pub struct Validator {
    cfg: ValidateConfig,
    n_nodes: usize,
    e_i_min: f64,
    /// Whether the routing protocol conserves spray tokens (true for
    /// the Spray-and-Wait family and direct delivery; epidemic and
    /// PRoPHET mint a token per replication by design).
    conserve_tokens: bool,
    /// Newest dropped-list record time seen per `(exporter, origin)`,
    /// for the monotonicity check.
    gossip_clock: HashMap<(u32, u32), f64>,
    report: ValidationReport,
    notes: Vec<ViolationNote>,
    // --- per-sweep state ---
    live_tokens: Vec<u64>,
    holders_swept: Vec<u32>,
    cur_node: Option<NodeAccum>,
    sampling: bool,
    next_sample_at: f64,
    ttl_slack: f64,
    sweep_m: ErrStats,
    sweep_n: ErrStats,
    pending_fault: bool,
}

struct NodeAccum {
    node: NodeId,
    used: u64,
    capacity: u64,
    accounted: u64,
}

impl Validator {
    /// A validator for a world of `n_nodes` nodes.
    pub fn new(cfg: ValidateConfig, n_nodes: usize, conserve_tokens: bool) -> Self {
        let e_i_min = PriorityModel::new(n_nodes.max(2), cfg.lambda).e_i_min();
        Validator {
            cfg,
            n_nodes,
            e_i_min,
            conserve_tokens,
            gossip_clock: HashMap::new(),
            report: ValidationReport::default(),
            notes: Vec::new(),
            live_tokens: Vec::new(),
            holders_swept: Vec::new(),
            cur_node: None,
            sampling: false,
            next_sample_at: 0.0,
            ttl_slack: 1.0,
            sweep_m: ErrStats::default(),
            sweep_n: ErrStats::default(),
            pending_fault: false,
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> &ValidationReport {
        &self.report
    }

    /// Takes the report out of the validator.
    pub fn take_report(&mut self) -> ValidationReport {
        std::mem::take(&mut self.report)
    }

    /// Whether token conservation is being asserted for this run.
    pub fn conserves_tokens(&self) -> bool {
        self.conserve_tokens
    }

    /// Fault injection for harness self-tests: corrupts the ledger's
    /// holder count (`n_i` bookkeeping) of one live message before the
    /// next sweep's cross-check. A correct harness must flag the next
    /// sweep with a `holder_mismatch` violation — this is the seeded
    /// mutation CI uses to prove the checker actually detects
    /// corruption. Inert unless called.
    pub fn corrupt_holder_bookkeeping(&mut self) {
        self.pending_fault = true;
    }

    // ------------------------------------------------------------------
    // Event hooks (called by the world at each state transition).
    // ------------------------------------------------------------------

    /// An injected crash reset `node` to cold state, wiping
    /// `wiped_copies` buffered copies carrying `wiped_tokens` tokens (the
    /// ledger has already charged them copy by copy). Forgets the
    /// gossip record-time clock for records *exported by* this node:
    /// after rebooting with an empty dropped list it may legitimately
    /// re-learn and re-export an older third-origin record than it
    /// exported pre-crash, which is not a Fig. 5 monotonicity bug.
    pub fn on_node_crashed(&mut self, node: NodeId, wiped_copies: u64, wiped_tokens: u64) {
        self.report.faults.crashes += 1;
        self.report.faults.wiped_copies += wiped_copies;
        self.report.faults.wiped_tokens += wiped_tokens;
        self.gossip_clock
            .retain(|&(exporter, _), _| exporter != node.0);
    }

    /// An injected radio blackout started on some node.
    pub fn on_blackout(&mut self, _node: NodeId) {
        self.report.faults.blackouts += 1;
    }

    /// An in-flight transfer was killed by fault injection (as opposed
    /// to the pair drifting out of range). No truth changes: copies and
    /// tokens only move at transfer *completion*, so an aborted
    /// transfer leaves the sender's buffer untouched.
    pub fn on_fault_abort(&mut self) {
        self.report.faults.aborted_transfers += 1;
    }

    /// A replication split `before` sender tokens into `keeps` + `gets`.
    pub fn on_replicate_split(
        &mut self,
        now: SimTime,
        msg: MessageId,
        from: NodeId,
        before: u32,
        keeps: u32,
        gets: u32,
    ) {
        self.report.checks_run += 1;
        if self.conserve_tokens && keeps + gets != before {
            self.record(
                ViolationKind::TokenSplit,
                now.as_secs(),
                Some(msg.0),
                Some(from.0),
                format!("split {before} -> {keeps} + {gets}"),
            );
        }
    }

    /// A node exported its dropped-list gossip. Checks record-time
    /// monotonicity per `(exporter, origin)` and that every claimed
    /// drop really happened (`d_i` soundness). Every id an entry
    /// carries is a claim, whether the entry is a whole record or a
    /// suffix.
    pub fn on_gossip_export(
        &mut self,
        truth: &TruthLedger,
        now: SimTime,
        exporter: NodeId,
        bytes: &[u8],
    ) {
        let Some(entries) = DroppedList::decode_gossip(bytes) else {
            return; // not a dropped-list payload
        };
        let t = now.as_secs();
        for (origin, GossipEntry { record: rec, .. }) in &entries {
            self.report.checks_run += 1;
            let rt = rec.record_time.as_secs();
            let key = (exporter.0, origin.0);
            if let Some(&prev) = self.gossip_clock.get(&key) {
                if rt < prev {
                    self.record(
                        ViolationKind::DroppedListRegression,
                        t,
                        None,
                        Some(exporter.0),
                        format!("origin {} record_time {rt} < previous {prev}", origin.0),
                    );
                }
            }
            self.gossip_clock.insert(key, rt);
            for msg in &rec.dropped {
                self.report.checks_run += 1;
                let really_dropped = truth
                    .get(msg.index())
                    .is_some_and(|mt| mt.droppers.contains(origin));
                if !really_dropped {
                    self.record(
                        ViolationKind::DroppedListOvercount,
                        t,
                        Some(msg.0),
                        Some(exporter.0),
                        format!("record claims origin {} dropped it; it never did", origin.0),
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Full-state sweep (once per tick).
    // ------------------------------------------------------------------

    /// Starts a sweep at `now`. `tick_secs` bounds how long an expired
    /// copy may legitimately linger before the next purge.
    pub fn begin_sweep(&mut self, truth: &TruthLedger, now: SimTime, tick_secs: f64) {
        self.live_tokens.clear();
        self.live_tokens.resize(truth.len(), 0);
        self.holders_swept.clear();
        self.holders_swept.resize(truth.len(), 0);
        self.cur_node = None;
        self.ttl_slack = tick_secs;
        self.sampling = now.as_secs() >= self.next_sample_at;
        self.sweep_m = ErrStats::default();
        self.sweep_n = ErrStats::default();
    }

    /// Announces the next node; closes the previous node's capacity
    /// accounting.
    pub fn sweep_node(&mut self, now: SimTime, node: NodeId, used: u64, capacity: u64) {
        self.close_node(now);
        self.cur_node = Some(NodeAccum {
            node,
            used,
            capacity,
            accounted: 0,
        });
    }

    /// One buffered copy of the current node.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_copy(
        &mut self,
        truth: &TruthLedger,
        now: SimTime,
        node: NodeId,
        msg: MessageId,
        tokens: u32,
        size: u64,
        spray_times: &[SimTime],
        delivered_here: bool,
    ) {
        if let Some(acc) = self.cur_node.as_mut() {
            acc.accounted += size;
        }
        self.live_tokens[msg.index()] += u64::from(tokens);
        self.holders_swept[msg.index()] += 1;
        let t = now.as_secs();

        self.report.checks_run += 1;
        if delivered_here {
            self.record(
                ViolationKind::DeliveredResident,
                t,
                Some(msg.0),
                Some(node.0),
                "buffered at its own destination after delivery".into(),
            );
        }

        self.report.checks_run += 1;
        let truth = &truth[msg.index()];
        let expires_at = truth.expires_at;
        if t > expires_at + self.ttl_slack + 1e-9 {
            self.record(
                ViolationKind::TtlExpiryMissed,
                t,
                Some(msg.0),
                Some(node.0),
                format!("expired at {expires_at}, still buffered at {t}"),
            );
        }

        if self.sampling {
            // Eq. 15 counts the chain endpoint itself (its floor is 1),
            // so the comparable truth is "distinct nodes that ever held
            // a copy", source included.
            let m_true = truth.true_m() + 1;
            let m_est = estimate_m(spray_times, now, self.e_i_min, self.n_nodes);
            let err_m = f64::from(m_est.abs_diff(m_true)) / f64::from(m_true.max(1));
            // Score the pipeline the policy actually runs — Eq. 14 on
            // top of the Eq. 15 output — but with the true `d_i`, so
            // the error isolates the formulas from gossip lag.
            let n_true = truth.holders;
            let n_est = estimate_n(m_est, truth.true_d());
            let err_n = f64::from(n_est.abs_diff(n_true)) / f64::from(n_true.max(1));
            self.sweep_m.observe(err_m);
            self.sweep_n.observe(err_n);
            self.report.estimator_m.observe(err_m);
            self.report.estimator_n.observe(err_n);
        }
    }

    /// Closes the sweep: runs the cross-message checks and returns the
    /// violations + estimator sample to emit. The ledger is mutable only
    /// for the seeded fault of [`Self::corrupt_holder_bookkeeping`].
    pub fn finish_sweep(&mut self, truth: &mut TruthLedger, now: SimTime) -> SweepOutcome {
        self.close_node(now);
        let t = now.as_secs();

        // Seeded-fault application (harness self-test; see
        // `corrupt_holder_bookkeeping`).
        if self.pending_fault {
            if let Some(mt) = truth.messages.iter_mut().find(|mt| mt.holders > 0) {
                mt.holders += 1;
                self.pending_fault = false;
            }
        }

        for (idx, mt) in truth.iter().enumerate() {
            self.report.checks_run += 1;
            if self.holders_swept[idx] != mt.holders {
                let (swept, tracked) = (self.holders_swept[idx], mt.holders);
                self.record(
                    ViolationKind::HolderMismatch,
                    t,
                    Some(idx as u64),
                    None,
                    format!("swept {swept} holder(s), bookkeeping says {tracked}"),
                );
            }
            if self.conserve_tokens {
                self.report.checks_run += 1;
                let c = u64::from(mt.initial_copies);
                let balance = self.live_tokens[idx] + mt.destroyed;
                if balance != c {
                    let (live, destroyed) = (self.live_tokens[idx], mt.destroyed);
                    self.record(
                        ViolationKind::CopyConservation,
                        t,
                        Some(idx as u64),
                        None,
                        format!("live {live} + destroyed {destroyed} != C {c}"),
                    );
                }
            }
        }

        self.report.sweeps += 1;
        let sample = if self.sampling {
            self.next_sample_at = t + self.cfg.sample_every;
            Some(EstimatorSweepSample {
                samples: self.sweep_m.samples,
                mean_err_m: self.sweep_m.mean(),
                max_err_m: self.sweep_m.max,
                mean_err_n: self.sweep_n.mean(),
                max_err_n: self.sweep_n.max,
            })
        } else {
            None
        };
        SweepOutcome {
            new_violations: std::mem::take(&mut self.notes),
            sample,
        }
    }

    fn close_node(&mut self, now: SimTime) {
        let Some(acc) = self.cur_node.take() else {
            return;
        };
        let t = now.as_secs();
        self.report.checks_run += 2;
        if acc.used > acc.capacity {
            self.record(
                ViolationKind::BufferOverflow,
                t,
                None,
                Some(acc.node.0),
                format!("used {} > capacity {}", acc.used, acc.capacity),
            );
        }
        if acc.accounted != acc.used {
            self.record(
                ViolationKind::UsedMismatch,
                t,
                None,
                Some(acc.node.0),
                format!("sum of sizes {} != used {}", acc.accounted, acc.used),
            );
        }
    }

    fn record(
        &mut self,
        kind: ViolationKind,
        t: f64,
        msg: Option<u64>,
        node: Option<u32>,
        detail: String,
    ) {
        self.report.violation_count += 1;
        let v = Violation {
            check: kind.label().into(),
            t,
            msg,
            node,
            detail,
        };
        if self.cfg.fail_fast {
            panic!("invariant violation: {v}");
        }
        if self.notes.len() < self.cfg.max_violations {
            self.notes.push(ViolationNote {
                check: kind.label(),
                t,
                msg,
                node,
            });
        }
        if self.report.violations.len() < self.cfg.max_violations {
            self.report.violations.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validator() -> Validator {
        Validator::new(ValidateConfig::default(), 10, true)
    }

    /// Drives one message through generate → insert and sweeps a
    /// consistent state: no violations, and a sampling sweep produces
    /// estimator statistics.
    #[test]
    fn consistent_state_is_clean() {
        let mut v = validator();
        let mut truth = TruthLedger::default();
        let t0 = SimTime::from_secs(0.0);
        truth.on_generated(MessageId(0), NodeId(0), 8, 600.0);
        truth.on_inserted(MessageId(0), NodeId(0));
        v.begin_sweep(&truth, t0, 1.0);
        v.sweep_node(t0, NodeId(0), 500, 2500);
        v.sweep_copy(&truth, t0, NodeId(0), MessageId(0), 8, 500, &[], false);
        let out = v.finish_sweep(&mut truth, t0);
        assert!(v.report().ok(), "{:?}", v.report().violations);
        assert!(out.new_violations.is_empty());
        let s = out.sample.expect("first sweep samples");
        assert_eq!(s.samples, 1);
        // Only the source ever held it: Eq. 15 is exact (m = 1), while
        // Eq. 14's `m + 1 - d` over-counts the lone holder by exactly
        // one — the cold-start bias the oracle exists to expose.
        assert_eq!(s.max_err_m, 0.0);
        assert_eq!(s.max_err_n, 1.0);
    }

    #[test]
    fn conservation_violation_detected() {
        let mut v = validator();
        let mut truth = TruthLedger::default();
        let t0 = SimTime::from_secs(5.0);
        truth.on_generated(MessageId(0), NodeId(0), 8, 600.0);
        truth.on_inserted(MessageId(0), NodeId(0));
        v.begin_sweep(&truth, t0, 1.0);
        v.sweep_node(t0, NodeId(0), 500, 2500);
        // The buffer claims only 5 tokens: 3 vanished somewhere.
        v.sweep_copy(&truth, t0, NodeId(0), MessageId(0), 5, 500, &[], false);
        let out = v.finish_sweep(&mut truth, t0);
        assert_eq!(out.new_violations.len(), 1);
        assert_eq!(out.new_violations[0].check, "copy_conservation");
        assert!(!v.report().ok());
    }

    #[test]
    fn seeded_holder_fault_is_flagged() {
        let mut v = validator();
        let mut truth = TruthLedger::default();
        let t0 = SimTime::from_secs(1.0);
        truth.on_generated(MessageId(0), NodeId(2), 4, 600.0);
        truth.on_inserted(MessageId(0), NodeId(2));
        v.corrupt_holder_bookkeeping();
        v.begin_sweep(&truth, t0, 1.0);
        v.sweep_node(t0, NodeId(2), 500, 2500);
        v.sweep_copy(&truth, t0, NodeId(2), MessageId(0), 4, 500, &[], false);
        let out = v.finish_sweep(&mut truth, t0);
        assert!(
            out.new_violations
                .iter()
                .any(|n| n.check == "holder_mismatch"),
            "seeded n_i corruption went undetected: {:?}",
            out.new_violations
        );
    }

    #[test]
    fn capacity_and_delivery_checks_fire() {
        let mut v = validator();
        let mut truth = TruthLedger::default();
        let t0 = SimTime::from_secs(2.0);
        truth.on_generated(MessageId(0), NodeId(0), 4, 600.0);
        truth.on_inserted(MessageId(0), NodeId(0));
        truth.on_inserted(MessageId(0), NodeId(1));
        truth.on_delivered(MessageId(0), NodeId(1));
        v.begin_sweep(&truth, t0, 1.0);
        // Node 0: used over capacity and inconsistent with sizes.
        v.sweep_node(t0, NodeId(0), 3000, 2500);
        v.sweep_copy(&truth, t0, NodeId(0), MessageId(0), 2, 500, &[], false);
        // Node 1: still buffers a message it was delivered.
        v.sweep_node(t0, NodeId(1), 500, 2500);
        v.sweep_copy(&truth, t0, NodeId(1), MessageId(0), 2, 500, &[], true);
        let out = v.finish_sweep(&mut truth, t0);
        let checks: Vec<_> = out.new_violations.iter().map(|n| n.check).collect();
        assert!(checks.contains(&"buffer_overflow"));
        assert!(checks.contains(&"used_mismatch"));
        assert!(checks.contains(&"delivered_resident"));
    }

    #[test]
    fn ttl_straggler_detected() {
        let mut v = validator();
        let mut truth = TruthLedger::default();
        truth.on_generated(MessageId(0), NodeId(0), 4, 100.0);
        truth.on_inserted(MessageId(0), NodeId(0));
        let late = SimTime::from_secs(110.0);
        v.begin_sweep(&truth, late, 1.0);
        v.sweep_node(late, NodeId(0), 500, 2500);
        v.sweep_copy(&truth, late, NodeId(0), MessageId(0), 4, 500, &[], false);
        let out = v.finish_sweep(&mut truth, late);
        assert!(out
            .new_violations
            .iter()
            .any(|n| n.check == "ttl_expiry_missed"));
    }

    #[test]
    fn gossip_regression_and_overcount_detected() {
        use sdsrp_core::dropped_list::{DroppedList, DroppedRecord};
        let mut v = validator();
        let mut truth = TruthLedger::default();
        truth.on_generated(MessageId(0), NodeId(0), 4, 600.0);
        // Node 3 genuinely dropped msg 0; node 4 never did.
        truth.on_inserted(MessageId(0), NodeId(3));
        truth.on_evicted(MessageId(0), NodeId(3), 2);

        let rec = |t: f64| DroppedRecord {
            dropped: vec![MessageId(0)],
            record_time: SimTime::from_secs(t),
            epoch_start: SimTime::from_secs(t),
        };
        let bytes = DroppedList::encode_records(&[(NodeId(3), rec(10.0))]);
        v.on_gossip_export(&truth, SimTime::from_secs(11.0), NodeId(3), &bytes);
        assert!(v.report().ok(), "{:?}", v.report().violations);

        // Same exporter, the origin's record time goes backwards.
        let bytes = DroppedList::encode_records(&[(NodeId(3), rec(5.0))]);
        v.on_gossip_export(&truth, SimTime::from_secs(12.0), NodeId(3), &bytes);
        assert!(v
            .report()
            .violations
            .iter()
            .any(|x| x.check == "dropped_list_regression"));

        // A record claiming a drop that never happened.
        let bytes = DroppedList::encode_records(&[(NodeId(4), rec(13.0))]);
        v.on_gossip_export(&truth, SimTime::from_secs(14.0), NodeId(5), &bytes);
        assert!(v
            .report()
            .violations
            .iter()
            .any(|x| x.check == "dropped_list_overcount"));
    }

    #[test]
    fn crash_wipe_preserves_conservation_and_skips_droppers() {
        let mut v = validator();
        let mut truth = TruthLedger::default();
        let t0 = SimTime::from_secs(20.0);
        truth.on_generated(MessageId(0), NodeId(0), 8, 600.0);
        truth.on_inserted(MessageId(0), NodeId(0));
        // Node 0 crashes, wiping its only copy (all 8 tokens).
        truth.on_destroyed(MessageId(0), 8);
        v.on_node_crashed(NodeId(0), 1, 8);
        // Sweep an empty world: conservation must hold because the
        // wiped tokens were charged to `destroyed`.
        v.begin_sweep(&truth, t0, 1.0);
        v.sweep_node(t0, NodeId(0), 0, 2500);
        let out = v.finish_sweep(&mut truth, t0);
        assert!(out.new_violations.is_empty(), "{:?}", out.new_violations);
        assert!(v.report().ok());
        let ledger = v.report().faults;
        assert_eq!(ledger.crashes, 1);
        assert_eq!(ledger.wiped_copies, 1);
        assert_eq!(ledger.wiped_tokens, 8);

        // A crash wipe is not a drop decision: a dropped-list record
        // claiming node 0 dropped msg 0 must be flagged as overcount.
        use sdsrp_core::dropped_list::{DroppedList, DroppedRecord};
        let rec = DroppedRecord {
            dropped: vec![MessageId(0)],
            record_time: SimTime::from_secs(21.0),
            epoch_start: SimTime::from_secs(21.0),
        };
        let bytes = DroppedList::encode_records(&[(NodeId(0), rec)]);
        v.on_gossip_export(&truth, SimTime::from_secs(22.0), NodeId(1), &bytes);
        assert!(v
            .report()
            .violations
            .iter()
            .any(|x| x.check == "dropped_list_overcount"));
    }

    #[test]
    fn crash_resets_gossip_clock_for_the_crashed_exporter_only() {
        use sdsrp_core::dropped_list::{DroppedList, DroppedRecord};
        let mut v = validator();
        let mut truth = TruthLedger::default();
        truth.on_generated(MessageId(0), NodeId(0), 4, 600.0);
        truth.on_inserted(MessageId(0), NodeId(3));
        truth.on_evicted(MessageId(0), NodeId(3), 2);

        let rec = |t: f64| DroppedRecord {
            dropped: vec![MessageId(0)],
            record_time: SimTime::from_secs(t),
            epoch_start: SimTime::from_secs(t),
        };
        let records = |t: f64| [(NodeId(3), rec(t))];

        // Both node 5 and node 6 export origin-3's record at t=10.
        let bytes = DroppedList::encode_records(&records(10.0));
        v.on_gossip_export(&truth, SimTime::from_secs(11.0), NodeId(5), &bytes);
        v.on_gossip_export(&truth, SimTime::from_secs(11.0), NodeId(6), &bytes);
        assert!(v.report().ok());

        // Node 5 crashes, reboots empty, re-merges an older copy of the
        // record from a stale peer, and exports it. Without the clock
        // reset this would false-positive as a regression.
        v.on_node_crashed(NodeId(5), 0, 0);
        let stale = DroppedList::encode_records(&records(5.0));
        v.on_gossip_export(&truth, SimTime::from_secs(30.0), NodeId(5), &stale);
        assert!(v.report().ok(), "{:?}", v.report().violations);

        // Node 6 did NOT crash: the same stale export from it is still
        // a genuine monotonicity violation.
        v.on_gossip_export(&truth, SimTime::from_secs(31.0), NodeId(6), &stale);
        assert!(v
            .report()
            .violations
            .iter()
            .any(|x| x.check == "dropped_list_regression"));
    }

    #[test]
    fn blackout_and_fault_abort_only_touch_the_ledger() {
        let mut v = validator();
        let mut truth = TruthLedger::default();
        let t0 = SimTime::from_secs(3.0);
        truth.on_generated(MessageId(0), NodeId(0), 8, 600.0);
        truth.on_inserted(MessageId(0), NodeId(0));
        v.on_blackout(NodeId(4));
        v.on_fault_abort();
        v.begin_sweep(&truth, t0, 1.0);
        v.sweep_node(t0, NodeId(0), 500, 2500);
        v.sweep_copy(&truth, t0, NodeId(0), MessageId(0), 8, 500, &[], false);
        let out = v.finish_sweep(&mut truth, t0);
        assert!(out.new_violations.is_empty());
        assert_eq!(v.report().faults.blackouts, 1);
        assert_eq!(v.report().faults.aborted_transfers, 1);
        assert_eq!(v.report().faults.crashes, 0);
    }

    #[test]
    fn token_split_checked_only_when_conserving() {
        let mut strict = validator();
        strict.on_replicate_split(SimTime::from_secs(1.0), MessageId(0), NodeId(0), 8, 8, 1);
        assert!(!strict.report().ok());

        let mut lax = Validator::new(ValidateConfig::default(), 10, false);
        lax.on_replicate_split(SimTime::from_secs(1.0), MessageId(0), NodeId(0), 8, 8, 1);
        assert!(lax.report().ok(), "epidemic-style splits must pass");
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn fail_fast_panics() {
        let cfg = ValidateConfig {
            fail_fast: true,
            ..ValidateConfig::default()
        };
        let mut v = Validator::new(cfg, 10, true);
        v.on_replicate_split(SimTime::from_secs(1.0), MessageId(0), NodeId(0), 8, 3, 3);
    }

    #[test]
    fn violation_retention_is_capped_but_counting_continues() {
        let cfg = ValidateConfig {
            max_violations: 2,
            ..ValidateConfig::default()
        };
        let mut v = Validator::new(cfg, 10, true);
        for _ in 0..5 {
            v.on_replicate_split(SimTime::from_secs(1.0), MessageId(0), NodeId(0), 8, 3, 3);
        }
        assert_eq!(v.report().violation_count, 5);
        assert_eq!(v.report().violations.len(), 2);
    }
}
