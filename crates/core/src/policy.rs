//! The SDSRP buffer policy: Algorithm 1 wired into the
//! [`dtn_buffer::BufferPolicy`] trait.
//!
//! Per ranked message the policy:
//!
//! 1. obtains λ (oracle value or the node's online
//!    [`crate::estimator::LambdaEstimator`]),
//! 2. estimates `m_i` from the copy's binary-spray timestamps (Eq. 15) —
//!    or takes the oracle value when the simulator provides one
//!    (global-knowledge ablation),
//! 3. reads `d_i` from the gossiped [`DroppedList`] and forms
//!    `n_i = m_i + 1 - d_i` (Eq. 14),
//! 4. computes `U_i` — the exact Eq. 10 closed form, or the Eq. 13
//!    Taylor truncation when [`PriorityMode::Taylor`] is configured.
//!
//! The same `U_i` drives scheduling (highest first) and dropping (lowest
//! first); reception of messages present in the dropped list is refused.
//!
//! ## Priority memo
//!
//! The ranking hooks route through a per-message `UtilityEntry` that
//! keeps the TTL-independent part of Eq. 10 (a `PriorityPrefix`)
//! together with the values it was built from: `m_i`, `n_i` and `C_i`. Each lookup
//! derives `m_i` and `n_i` afresh, as [`Sdsrp::utility`] does (Eq. 15
//! from the spray timestamps, Eq. 14 from the gossiped `d_i`, or the
//! oracle's), and compares the three with the entry:
//!
//! * equal, at the instant of the last lookup — a **hit**: the stored
//!   value;
//! * equal, at a new instant — an **incremental** completion: the
//!   stored prefix finished at the new `R_i`;
//! * anything else — a **miss**: the prefix is rebuilt.
//!
//! The entry thus checks its own inputs, and nothing has to report
//! that `m_i` crossed a spray bucket or that gossip moved `d_i`. Only λ
//! (and with it the per-destination rate) is not compared: a contact-up
//! that records an intermeeting sample, and a crash wipe, clear the
//! whole memo. An own drop removes the dropped message's entry, which
//! only bounds the map.
//!
//! Every evaluation, memoised or not, builds the same prefix and
//! finishes it with the same `PriorityPrefix::log_priority_at`, so
//! runs with the memo on and off are bit-identical by construction;
//! `tests/priority_cache_differential.rs` checks it
//! fingerprint-for-fingerprint.

use crate::dropped_list::{DroppedList, SharedDropLogs};
use crate::estimator::{estimate_m, estimate_n, LambdaEstimator};
use crate::priority::{PriorityModel, PriorityPrefix};
use dtn_buffer::policy::{BufferPolicy, PriorityCacheStats};
use dtn_buffer::view::MessageView;
use dtn_core::ids::{IdMap, MessageId, NodeId};
use dtn_core::time::SimTime;
use serde::{Deserialize, Serialize};

/// Where the policy gets its intermeeting rate λ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LambdaMode {
    /// A fixed, externally supplied rate (scenario-level oracle; used by
    /// the ablation benches to isolate estimator error).
    Oracle(f64),
    /// Learn online from this node's own contact history, reporting
    /// `prior` until `min_samples` intermeeting samples accumulate.
    Online {
        /// Rate assumed before enough history exists, per second.
        prior: f64,
        /// Number of samples before the estimate is trusted.
        min_samples: u64,
    },
    /// Extension (SDSRP-H): like `Online`, but each message is ranked
    /// with the λ specific to *its destination* (falling back to the
    /// pooled rate until enough per-destination gaps exist). Matters
    /// under heterogeneous mobility (communities, taxi hotspots) where
    /// Eq. 3's single-λ assumption breaks.
    OnlinePerDestination {
        /// Rate assumed before enough history exists, per second.
        prior: f64,
        /// Samples required before a (pooled or per-peer) estimate is
        /// trusted.
        min_samples: u64,
    },
}

/// Which form of the priority the policy evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PriorityMode {
    /// The exact Eq. 10 closed form, evaluated in log space.
    Exact,
    /// The Eq. 13 Taylor truncation — the paper's cheap approximation,
    /// whose accuracy grows with the number of terms (Fig. 4).
    Taylor {
        /// Number of series terms, `>= 1`.
        terms: usize,
    },
}

impl PriorityMode {
    /// Maps the `Option<usize>` encoding (`None` = exact) that the
    /// scenario-file `SdsrpCustom` variant has used since before this
    /// enum existed; kept so on-disk configs and their hashes are
    /// unchanged.
    pub fn from_terms(terms: Option<usize>) -> Self {
        match terms {
            None => PriorityMode::Exact,
            Some(k) => PriorityMode::Taylor { terms: k },
        }
    }
}

/// SDSRP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdsrpConfig {
    /// Total nodes `N` in the network (the paper assumes this is known).
    pub n_nodes: usize,
    /// λ source.
    pub lambda: LambdaMode,
    /// Exact Eq. 10 or the Eq. 13 Taylor fast path.
    pub mode: PriorityMode,
    /// Refuse to receive messages present in the dropped list
    /// (paper Section III-C). Disable for ablation.
    pub reject_dropped: bool,
    /// Exchange dropped-list records on contact. Disable for ablation
    /// (then `d_i` only reflects the node's own drops).
    pub gossip: bool,
}

impl SdsrpConfig {
    /// The paper's configuration for a network of `n_nodes`: online λ
    /// estimation, exact closed-form priority, gossip and receive-reject
    /// enabled.
    ///
    /// The λ prior corresponds to E(I) = 2000 s, a mid-range guess for
    /// the paper's scenarios; it only matters for the first few contacts.
    pub fn paper(n_nodes: usize) -> Self {
        SdsrpConfig {
            n_nodes,
            lambda: LambdaMode::Online {
                prior: 1.0 / 2000.0,
                min_samples: 5,
            },
            mode: PriorityMode::Exact,
            reject_dropped: true,
            gossip: true,
        }
    }
}

/// One message's memoised evaluation: the Eq. 10 inputs it was built
/// from, the TTL-independent prefix, and the value at the instant of
/// the latest lookup.
#[derive(Debug, Clone, Copy)]
struct UtilityEntry {
    seen: u32,
    holders: u32,
    copies: u32,
    prefix: PriorityPrefix,
    now_bits: u64,
    value: f64,
}

/// Per-message memo of [`Sdsrp::utility`] evaluations, plus the
/// [`PriorityModel`] shared by every evaluation between λ changes.
///
/// The hot path re-ranks the same `(node, message)` pairs many times —
/// every transfer completion re-arms all idle links of both endpoints,
/// and each re-arm walks both buffers — mostly at *new* instants, since
/// simulated time advances between events. An entry whose inputs still
/// match therefore serves any instant: see the module docs.
struct UtilityCache {
    enabled: bool,
    entries: IdMap<MessageId, UtilityEntry>,
    model: Option<PriorityModel>,
    hits: u64,
    incremental: u64,
    misses: u64,
}

impl UtilityCache {
    fn new() -> Self {
        UtilityCache {
            enabled: true,
            entries: IdMap::default(),
            model: None,
            hits: 0,
            incremental: 0,
            misses: 0,
        }
    }

    /// Drops every memoised value (λ or wholesale policy state changed).
    fn invalidate(&mut self) {
        self.entries.clear();
        self.model = None;
    }
}

/// The SDSRP policy state for one node.
pub struct Sdsrp {
    cfg: SdsrpConfig,
    lambda_est: LambdaEstimator,
    dropped: DroppedList,
    cache: UtilityCache,
}

impl Sdsrp {
    /// Creates the policy for `node`.
    ///
    /// # Panics
    /// Panics on nonsensical configuration (fewer than 2 nodes,
    /// non-positive λ, zero Taylor terms).
    pub fn new(node: NodeId, cfg: SdsrpConfig) -> Self {
        Self::with_list(cfg, DroppedList::new(node))
    }

    /// Creates the policy for `node` with its dropped list in `logs`, the
    /// store the world's policies share, so that
    /// [`exchange_gossip`](Self::exchange_gossip) can run a contact's
    /// gossip there.
    ///
    /// # Panics
    /// As [`new`](Self::new).
    pub fn sharing(node: NodeId, cfg: SdsrpConfig, logs: &SharedDropLogs) -> Self {
        Self::with_list(cfg, DroppedList::sharing(node, logs))
    }

    fn with_list(cfg: SdsrpConfig, dropped: DroppedList) -> Self {
        assert!(cfg.n_nodes >= 2, "need at least two nodes");
        if let PriorityMode::Taylor { terms } = cfg.mode {
            assert!(terms >= 1, "need at least one Taylor term");
        }
        let lambda_est = match cfg.lambda {
            LambdaMode::Oracle(l) => {
                assert!(l > 0.0 && l.is_finite(), "oracle lambda must be positive");
                // Estimator never consulted in oracle mode, but keep it
                // consistent.
                LambdaEstimator::new(l, u64::MAX)
            }
            LambdaMode::Online { prior, min_samples }
            | LambdaMode::OnlinePerDestination { prior, min_samples } => {
                LambdaEstimator::new(prior, min_samples)
            }
        };
        Sdsrp {
            cfg,
            lambda_est,
            dropped,
            cache: UtilityCache::new(),
        }
    }

    /// The current (pooled) λ in use.
    pub fn lambda(&self) -> f64 {
        match self.cfg.lambda {
            LambdaMode::Oracle(l) => l,
            LambdaMode::Online { .. } | LambdaMode::OnlinePerDestination { .. } => {
                self.lambda_est.lambda()
            }
        }
    }

    /// The current priority model (λ may drift as the estimator learns).
    pub fn model(&self) -> PriorityModel {
        PriorityModel::new(self.cfg.n_nodes, self.lambda())
    }

    /// Access to the dropped list (tests/diagnostics).
    pub fn dropped_list(&self) -> &DroppedList {
        &self.dropped
    }

    /// Computes the message's ranking value — the core of Algorithm 1
    /// lines 1-2 ("map C_i, R_i to Priority_i").
    ///
    /// Returned in **log-space** (`ln U_i`): at paper scale the linear
    /// `U_i` of Eq. 10 underflows `f64` to 0 for well-spread messages,
    /// which would collapse the ranking into ties; `ln` is monotone so
    /// all comparisons are unchanged. Zero-utility messages map to
    /// `-inf`.
    pub fn utility(&self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.utility_with(self.model(), now, msg)
    }

    /// [`Self::utility`] through the memo — the form the
    /// [`BufferPolicy`] ranking hooks use. A hit returns, and an
    /// incremental completion computes, the exact float
    /// [`Self::utility`] would; simulation results are bit-identical
    /// with the memo on or off.
    fn utility_cached(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        if !self.cache.enabled {
            // Bypass: the memo is never consulted, so nothing counts as
            // a hit or a miss — uncached runs report all-zero stats.
            return self.utility(now, msg);
        }
        let model = match self.cache.model {
            Some(m) => m,
            None => *self.cache.model.insert(self.model()),
        };
        let (seen, holders) = self.estimates(model, now, msg);
        let now_bits = now.as_secs().to_bits();
        if let Some(e) = self.cache.entries.get_mut(&msg.id) {
            if (e.seen, e.holders, e.copies) == (seen, holders, msg.copies) {
                if e.now_bits == now_bits {
                    self.cache.hits += 1;
                } else {
                    e.now_bits = now_bits;
                    e.value = e.prefix.log_priority_at(remaining_ttl(msg));
                    self.cache.incremental += 1;
                }
                return e.value;
            }
        }
        self.cache.misses += 1;
        let prefix = self.prefix(model, seen, holders, msg);
        let value = prefix.log_priority_at(remaining_ttl(msg));
        let entry = UtilityEntry {
            seen,
            holders,
            copies: msg.copies,
            prefix,
            now_bits,
            value,
        };
        self.cache.entries.insert(msg.id, entry);
        value
    }

    /// `(m_i, n_i)` of `msg` at `now`: the oracle's, else the Eq. 15
    /// spray-tree estimate and Eq. 14 with the gossiped `d_i`.
    fn estimates(&self, model: PriorityModel, now: SimTime, msg: &MessageView<'_>) -> (u32, u32) {
        let seen = msg
            .oracle_seen
            .unwrap_or_else(|| estimate_m(msg.spray_times, now, model.e_i_min(), self.cfg.n_nodes));
        let holders = msg
            .oracle_holders
            .unwrap_or_else(|| estimate_n(seen, self.dropped.drop_count(msg.id)));
        (seen, holders)
    }

    /// The TTL-independent part of `msg`'s priority in the configured
    /// form. SDSRP-H ranks the closed form with the destination-specific
    /// meeting rate; the Taylor form always uses the pooled λ.
    fn prefix(
        &self,
        model: PriorityModel,
        seen: u32,
        holders: u32,
        msg: &MessageView<'_>,
    ) -> PriorityPrefix {
        let (rate, terms) = match (self.cfg.mode, self.cfg.lambda) {
            (PriorityMode::Exact, LambdaMode::OnlinePerDestination { .. }) => {
                (self.lambda_est.lambda_for(msg.destination), 0)
            }
            (PriorityMode::Exact, _) => (model.lambda, 0),
            (PriorityMode::Taylor { terms }, _) => (model.lambda, terms),
        };
        model.prefix(seen, holders, msg.copies, rate, terms)
    }

    fn utility_with(&self, model: PriorityModel, now: SimTime, msg: &MessageView<'_>) -> f64 {
        let (seen, holders) = self.estimates(model, now, msg);
        self.prefix(model, seen, holders, msg)
            .log_priority_at(remaining_ttl(msg))
    }

    /// One contact's dropped-list gossip between `a` and `b`, run in the
    /// store their lists share: each side summarises its list, the other
    /// answers with what that summary says it lacks (suffixes within an
    /// epoch, whole records across), and each merges the answer, with
    /// nothing encoded. The tally counts the bytes those summaries and
    /// answers would take on the wire (the size model of
    /// [`dropped_list`](crate::dropped_list)). `None` when the lists live
    /// in different stores.
    ///
    /// `b` merges `a`'s answer before `a`'s own answer is planned, where
    /// a radio would plan both first. That changes nothing: `b` adopts
    /// only records that `a` holds newer, which then tie, and a tie is
    /// never sent back.
    pub fn exchange_gossip(a: &mut Sdsrp, b: &mut Sdsrp) -> Option<GossipTally> {
        if !a.dropped.shares_store(&b.dropped) {
            return None;
        }
        let summary = |p: &Sdsrp| {
            if p.cfg.gossip {
                p.dropped.summary_len()
            } else {
                0
            }
        };
        let sends = |p: &Sdsrp| p.cfg.gossip && p.dropped.origin_count() > 0;
        let (a_sends, b_sends) = (sends(a), sends(b));
        let mut tally = GossipTally {
            summary_bytes: (summary(a) + summary(b)) as u64,
            ..GossipTally::default()
        };
        if a_sends {
            let (bytes, adopted) = Self::answer(a, b);
            tally.payload_bytes += bytes as u64;
            tally.adopted[1] = adopted;
        }
        if b_sends {
            let (bytes, adopted) = Self::answer(b, a);
            tally.payload_bytes += bytes as u64;
            tally.adopted[0] = adopted;
        }
        Some(tally)
    }

    /// `from`'s answer to `to`, merged: its bytes and the records `to`
    /// adopted. A peer that gossips sent a summary and gets the delta;
    /// one that does not gets the whole list and ignores it.
    fn answer(from: &Sdsrp, to: &mut Sdsrp) -> (usize, usize) {
        if !to.cfg.gossip {
            return (from.dropped.gossip_len(), 0);
        }
        let (adopted, bytes) = to.dropped.merge_from(&from.dropped);
        (bytes, adopted)
    }
}

/// What one contact's policy gossip moved: the bytes on the wire and the
/// records each side adopted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipTally {
    /// Bytes of both summaries.
    pub summary_bytes: u64,
    /// Bytes of both answers.
    pub payload_bytes: u64,
    /// Records adopted by the first side, then by the second.
    pub adopted: [usize; 2],
}

/// `R_i` in seconds, never negative.
fn remaining_ttl(msg: &MessageView<'_>) -> f64 {
    msg.remaining_ttl.as_secs().max(0.0)
}

impl BufferPolicy for Sdsrp {
    fn name(&self) -> &'static str {
        "SDSRP"
    }

    fn send_priority(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.utility_cached(now, msg)
    }

    fn accepts(&mut self, _now: SimTime, msg: MessageId) -> bool {
        !(self.cfg.reject_dropped && self.dropped.anyone_dropped(msg))
    }

    fn on_contact_up(&mut self, now: SimTime, peer: NodeId) {
        // λ only moves when an intermeeting gap is actually sampled
        // (first contacts and zero gaps change nothing); only then is
        // the memo stale — wholesale, since λ enters every priority.
        if self.lambda_est.on_contact_up(now, peer) {
            self.cache.invalidate();
        }
    }

    fn on_contact_down(&mut self, now: SimTime, peer: NodeId) {
        // Closing a contact only stamps the estimator's
        // `last_contact_end`; no utility input changes, the memo stays
        // exact.
        self.lambda_est.on_contact_down(now, peer);
    }

    fn on_drop(&mut self, now: SimTime, msg: MessageId) {
        // The entry would notice its moved d_i by itself; removing it
        // only keeps the memo from holding messages this node let go.
        self.dropped.record_own_drop(now, msg);
        self.cache.entries.remove(&msg);
    }

    fn on_node_reset(&mut self, _now: SimTime) {
        // A crash wipes all distributed state: the λ estimator returns
        // to its prior (contact-history endpoints included — otherwise
        // the first post-reboot contact would sample one enormous bogus
        // intermeeting gap), the dropped list restarts empty (its
        // gossip record times restart with it), and the priority memo
        // is rebuilt from scratch.
        self.lambda_est.reset();
        self.dropped.clear();
        self.cache.invalidate();
    }

    fn export_gossip(&mut self, _now: SimTime) -> Option<Vec<u8>> {
        if self.cfg.gossip && self.dropped.origin_count() > 0 {
            Some(self.dropped.to_gossip_bytes())
        } else {
            None
        }
    }

    fn import_gossip(&mut self, _now: SimTime, bytes: &[u8]) -> usize {
        if !self.cfg.gossip {
            return 0;
        }
        self.dropped.merge_gossip_bytes(bytes)
    }

    fn set_priority_cache(&mut self, enabled: bool) {
        self.cache.enabled = enabled;
        self.cache.invalidate();
        // Counters restart with the new setting so the reported stats
        // describe a single cache configuration, never a mix.
        self.cache.hits = 0;
        self.cache.incremental = 0;
        self.cache.misses = 0;
    }

    fn priority_cache_stats(&self) -> Option<PriorityCacheStats> {
        Some(PriorityCacheStats {
            hits: self.cache.hits,
            incremental: self.cache.incremental,
            misses: self.cache.misses,
        })
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dropped_list::DropLogs;
    use dtn_buffer::policy::{plan_admission, schedule_order, AdmissionPlan};
    use dtn_buffer::view::TestMessage;
    use dtn_core::time::SimDuration;
    use dtn_core::units::Bytes;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn oracle_cfg() -> SdsrpConfig {
        SdsrpConfig {
            n_nodes: 100,
            lambda: LambdaMode::Oracle(1.0 / 1000.0),
            mode: PriorityMode::Exact,
            reject_dropped: true,
            gossip: true,
        }
    }

    fn policy() -> Sdsrp {
        Sdsrp::new(NodeId(0), oracle_cfg())
    }

    /// Builds a message with the spray history implied by "sprayed once
    /// `ago` seconds before now".
    fn msg_with(
        id: u64,
        copies: u32,
        remaining_mins: f64,
        spray_ago: &[f64],
        now: f64,
    ) -> TestMessage {
        let mut m = TestMessage::sample(id);
        m.copies = copies;
        m.remaining_ttl = SimDuration::from_mins(remaining_mins);
        m.spray_times = spray_ago
            .iter()
            .map(|&ago| t((now - ago).max(0.0)))
            .collect();
        m
    }

    #[test]
    fn fresh_unsprayed_message_outranks_saturated_one() {
        let mut p = policy();
        let now = t(1000.0);
        // Fresh: no sprays recorded, full TTL, lots of copies.
        let fresh = msg_with(1, 32, 300.0, &[], 1000.0);
        // Saturated: sprayed long ago repeatedly, little TTL left.
        let old = msg_with(2, 1, 3.0, &[900.0, 700.0, 500.0], 1000.0);
        let uf = p.send_priority(now, &fresh.view());
        let uo = p.send_priority(now, &old.view());
        assert!(uf > uo, "fresh {uf} <= saturated {uo}");
    }

    /// Sparse-network config: E(I) = 100 000 s, so delivery within the
    /// remaining TTL is genuinely uncertain (P(R) below the 1-1/e peak)
    /// and extra copies carry value — the regime Fig. 2's "early"
    /// decision lives in.
    fn sparse_cfg() -> SdsrpConfig {
        SdsrpConfig {
            n_nodes: 100,
            lambda: LambdaMode::Oracle(1e-5),
            mode: PriorityMode::Exact,
            reject_dropped: true,
            gossip: true,
        }
    }

    #[test]
    fn fig2_reversal_small_c_and_r_can_win() {
        // Paper Fig. 2: in node c (early), M_i with larger C and R wins;
        // in node e (late), the same comparison flips because M_i's
        // infection estimate has exploded while M_j stays small.
        let p = Sdsrp::new(NodeId(0), sparse_cfg());
        // Early: neither message has sprayed yet; bigger C & R -> more
        // to gain.
        let now_early = t(100.0);
        let mi_early = msg_with(1, 16, 250.0, &[], 100.0);
        let mj_early = msg_with(2, 4, 120.0, &[], 100.0);
        let ui = p.utility(now_early, &mi_early.view());
        let uj = p.utility(now_early, &mj_early.view());
        assert!(ui > uj, "early: U_i {ui} should exceed U_j {uj}");

        // Late: M_i was sprayed long ago -> huge m_i estimate -> its
        // priority collapses below M_j's.
        let now_late = t(10_000.0);
        let mi_late = msg_with(1, 16, 60.0, &[9800.0, 9000.0], 10_000.0);
        let mj_late = msg_with(2, 4, 30.0, &[300.0], 10_000.0);
        let ui = p.utility(now_late, &mi_late.view());
        let uj = p.utility(now_late, &mj_late.view());
        assert!(uj > ui, "late: U_j {uj} should exceed U_i {ui}");
    }

    #[test]
    fn schedule_and_drop_use_same_ranking() {
        let mut p = policy();
        let now = t(500.0);
        let a = msg_with(1, 32, 300.0, &[], 500.0);
        let b = msg_with(2, 1, 2.0, &[400.0, 300.0, 200.0], 500.0);
        let views = vec![a.view(), b.view()];
        let order = schedule_order(&mut p, now, &views);
        assert_eq!(order[0], MessageId(1));
        // Overflow with a high-priority newcomer: evict the tail of the
        // schedule order.
        let incoming = msg_with(9, 32, 300.0, &[], 500.0);
        let plan = plan_admission(
            &mut p,
            now,
            &incoming.view(),
            &views,
            Bytes::ZERO,
            Bytes::from_mb(1.0),
        );
        assert_eq!(
            plan,
            AdmissionPlan::Admit {
                evict: vec![MessageId(2)]
            }
        );
    }

    #[test]
    fn dropped_messages_are_refused() {
        let mut p = policy();
        assert!(p.accepts(t(0.0), MessageId(7)));
        p.on_drop(t(10.0), MessageId(7));
        assert!(!p.accepts(t(11.0), MessageId(7)));
    }

    #[test]
    fn reject_dropped_can_be_disabled() {
        let mut cfg = oracle_cfg();
        cfg.reject_dropped = false;
        let mut p = Sdsrp::new(NodeId(0), cfg);
        p.on_drop(t(10.0), MessageId(7));
        assert!(p.accepts(t(11.0), MessageId(7)));
    }

    #[test]
    fn gossip_propagates_drop_knowledge() {
        let mut a = policy();
        let mut b = Sdsrp::new(NodeId(1), oracle_cfg());
        a.on_drop(t(5.0), MessageId(3));
        let payload = a.export_gossip(t(6.0)).expect("has records");
        b.import_gossip(t(6.0), &payload);
        assert!(!b.accepts(t(7.0), MessageId(3)));
        assert_eq!(b.dropped_list().drop_count(MessageId(3)), 1);
    }

    #[test]
    fn gossip_disabled_exports_nothing() {
        let mut cfg = oracle_cfg();
        cfg.gossip = false;
        let mut p = Sdsrp::new(NodeId(0), cfg);
        p.on_drop(t(5.0), MessageId(3));
        assert_eq!(p.export_gossip(t(6.0)), None);
    }

    #[test]
    fn empty_dropped_list_exports_nothing() {
        let mut p = policy();
        assert_eq!(p.export_gossip(t(0.0)), None);
    }

    #[test]
    fn drops_lower_n_estimate_and_raise_priority() {
        // Eq. 14: recorded drops reduce n_i, which (in the saturated
        // regime) *raises* the message's priority — fewer live copies
        // mean a copy is worth more.
        let mut with_drops = Sdsrp::new(NodeId(0), sparse_cfg());
        let without_drops = Sdsrp::new(NodeId(0), sparse_cfg());
        let now = t(2000.0);
        let m = msg_with(1, 4, 100.0, &[1500.0, 1000.0], 2000.0);
        let u_before = without_drops.utility(now, &m.view());
        // Two other nodes report dropping message 1.
        let mut peer1 = Sdsrp::new(NodeId(5), sparse_cfg());
        let mut peer2 = Sdsrp::new(NodeId(6), sparse_cfg());
        peer1.on_drop(t(100.0), MessageId(1));
        peer2.on_drop(t(100.0), MessageId(1));
        with_drops.import_gossip(now, &peer1.export_gossip(now).unwrap());
        with_drops.import_gossip(now, &peer2.export_gossip(now).unwrap());
        let u_after = with_drops.utility(now, &m.view());
        assert!(
            u_after > u_before,
            "drops should raise priority: {u_after} vs {u_before}"
        );
    }

    #[test]
    fn oracle_views_override_estimators() {
        let p = policy();
        let now = t(1000.0);
        let mut m = msg_with(1, 8, 100.0, &[900.0, 800.0], 1000.0);
        m.oracle_seen = Some(2);
        m.oracle_holders = Some(3);
        let u_oracle = p.utility(now, &m.view());
        let model = p.model();
        let expect = model.log_priority(2, 3, 8, 100.0 * 60.0);
        assert!((u_oracle - expect).abs() < 1e-12);
    }

    #[test]
    fn taylor_mode_approximates_exact() {
        let exact = Sdsrp::new(NodeId(0), sparse_cfg());
        let mut cfg = sparse_cfg();
        cfg.mode = PriorityMode::Taylor { terms: 64 };
        let approx = Sdsrp::new(NodeId(0), cfg);
        let now = t(3000.0);
        let m = msg_with(1, 8, 150.0, &[2500.0], 3000.0);
        let ue = exact.utility(now, &m.view());
        let ua = approx.utility(now, &m.view());
        assert!(ua <= ue + 1e-12, "Taylor must lower-bound exact");
        assert!(
            (ue - ua) <= ue.abs() * 0.05 + 1e-6,
            "64-term Taylor too far off: {ua} vs {ue}"
        );
    }

    #[test]
    fn online_lambda_feeds_priority() {
        let mut cfg = oracle_cfg();
        cfg.lambda = LambdaMode::Online {
            prior: 1.0 / 2000.0,
            min_samples: 1,
        };
        let mut p = Sdsrp::new(NodeId(0), cfg);
        assert!((p.lambda() - 1.0 / 2000.0).abs() < 1e-15);
        // Two contacts with a 500 s gap teach λ = 1/500.
        p.on_contact_up(t(0.0), NodeId(1));
        p.on_contact_down(t(10.0), NodeId(1));
        p.on_contact_up(t(510.0), NodeId(1));
        assert!((p.lambda() - 1.0 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn per_destination_lambda_differentiates_messages() {
        // A node that meets node 1 every 100 s but node 2 every 5000 s:
        // two otherwise-identical messages destined to 1 vs 2 must rank
        // differently under SDSRP-H (and identically under pooled λ).
        let mut cfg = oracle_cfg();
        cfg.lambda = LambdaMode::OnlinePerDestination {
            prior: 1.0 / 2000.0,
            min_samples: 2,
        };
        let mut p = Sdsrp::new(NodeId(0), cfg);
        // Three gaps of 100 s with node 1.
        for k in 0..4 {
            p.on_contact_up(t(k as f64 * 110.0), NodeId(1));
            p.on_contact_down(t(k as f64 * 110.0 + 10.0), NodeId(1));
        }
        // Three gaps of 5000 s with node 2.
        for k in 0..4 {
            p.on_contact_up(t(k as f64 * 5010.0), NodeId(2));
            p.on_contact_down(t(k as f64 * 5010.0 + 10.0), NodeId(2));
        }
        let now = t(20_100.0);
        let mut to_fast = msg_with(1, 4, 100.0, &[], 20_100.0);
        to_fast.destination = NodeId(1);
        let mut to_slow = msg_with(2, 4, 100.0, &[], 20_100.0);
        to_slow.destination = NodeId(2);
        let u_fast = p.utility(now, &to_fast.view());
        let u_slow = p.utility(now, &to_slow.view());
        assert_ne!(u_fast, u_slow, "per-destination λ had no effect");

        // Pooled mode ranks them identically.
        let mut pooled_cfg = oracle_cfg();
        pooled_cfg.lambda = LambdaMode::Online {
            prior: 1.0 / 2000.0,
            min_samples: 2,
        };
        let pooled = Sdsrp::new(NodeId(0), pooled_cfg);
        assert_eq!(
            pooled.utility(now, &to_fast.view()),
            pooled.utility(now, &to_slow.view())
        );
    }

    #[test]
    fn per_destination_reduces_to_pooled_when_uniform() {
        // All peers met at the same cadence: lambda_for == lambda, so
        // SDSRP-H and plain SDSRP agree exactly.
        let mk = |mode: LambdaMode| {
            let mut cfg = oracle_cfg();
            cfg.lambda = mode;
            let mut p = Sdsrp::new(NodeId(0), cfg);
            for peer in 1..4u32 {
                for k in 0..4 {
                    p.on_contact_up(t(k as f64 * 500.0 + peer as f64), NodeId(peer));
                    p.on_contact_down(t(k as f64 * 500.0 + peer as f64 + 1.0), NodeId(peer));
                }
            }
            p
        };
        let h = mk(LambdaMode::OnlinePerDestination {
            prior: 1.0 / 2000.0,
            min_samples: 2,
        });
        let plain = mk(LambdaMode::Online {
            prior: 1.0 / 2000.0,
            min_samples: 2,
        });
        let now = t(3000.0);
        let mut m = msg_with(1, 8, 200.0, &[], 3000.0);
        m.destination = NodeId(2);
        let a = h.utility(now, &m.view());
        let b = plain.utility(now, &m.view());
        assert!(a.is_finite() && b.is_finite(), "degenerate test inputs");
        assert!(
            (a - b).abs() < 1e-2 * b.abs(),
            "uniform cadence should make SDSRP-H ~= SDSRP: {a} vs {b}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one Taylor term")]
    fn zero_taylor_terms_rejected() {
        let mut cfg = oracle_cfg();
        cfg.mode = PriorityMode::Taylor { terms: 0 };
        let _ = Sdsrp::new(NodeId(0), cfg);
    }

    /// Online-λ config so contacts actually move λ (the harshest case
    /// for the memo: every λ sample invalidates wholesale).
    fn online_cfg() -> SdsrpConfig {
        SdsrpConfig {
            n_nodes: 100,
            lambda: LambdaMode::Online {
                prior: 1.0 / 2000.0,
                min_samples: 1,
            },
            mode: PriorityMode::Exact,
            reject_dropped: true,
            gossip: true,
        }
    }

    #[test]
    fn cached_ranking_is_bit_identical_to_uncached() {
        // Twin policies fed the same event stream; one with the memo
        // disabled. Every ranking must agree to the last bit, including
        // repeats at the same instant (hits), repeats at fresh instants
        // (incremental completions) and across λ / drop / gossip
        // invalidations.
        let mut cached = Sdsrp::new(NodeId(0), online_cfg());
        let mut plain = Sdsrp::new(NodeId(0), online_cfg());
        plain.set_priority_cache(false);

        let mut peer = Sdsrp::new(NodeId(9), online_cfg());
        peer.on_drop(t(40.0), MessageId(2));
        let gossip = peer.export_gossip(t(50.0)).unwrap();

        let msgs = [
            msg_with(1, 16, 200.0, &[], 500.0),
            msg_with(2, 4, 90.0, &[450.0, 200.0], 500.0),
            msg_with(3, 1, 5.0, &[480.0, 300.0, 100.0], 500.0),
        ];
        let check = |cached: &mut Sdsrp, plain: &mut Sdsrp, now: SimTime| {
            for m in &msgs {
                // Twice: the second call is a guaranteed memo hit.
                for _ in 0..2 {
                    let a = cached.send_priority(now, &m.view());
                    let b = plain.send_priority(now, &m.view());
                    assert_eq!(a.to_bits(), b.to_bits(), "diverged on {:?}", m.id);
                }
            }
        };

        check(&mut cached, &mut plain, t(500.0));
        for p in [&mut cached, &mut plain] {
            p.on_contact_up(t(600.0), NodeId(3));
            p.on_contact_down(t(620.0), NodeId(3));
            p.on_contact_up(t(900.0), NodeId(3)); // λ sample lands
        }
        check(&mut cached, &mut plain, t(950.0));
        for p in [&mut cached, &mut plain] {
            p.on_drop(t(1000.0), MessageId(1));
            p.import_gossip(t(1010.0), &gossip);
        }
        check(&mut cached, &mut plain, t(1050.0));
        // Time moves with no intervening event: the incremental path
        // must still agree bit-for-bit.
        check(&mut cached, &mut plain, t(1051.0));

        let stats = cached.priority_cache_stats().unwrap();
        assert!(stats.hits > 0, "memo never hit: {stats:?}");
        assert!(
            stats.incremental > 0,
            "incremental path never ran: {stats:?}"
        );
        assert_eq!(plain.priority_cache_stats().unwrap(), Default::default());
    }

    #[test]
    fn time_passage_takes_incremental_path_not_miss() {
        // The point of the incremental design: advancing the clock with
        // no intervening event must NOT rebuild entries. Sparse config
        // so the Eq. 15 bucket (E(I_min) ≈ 1010 s) comfortably spans
        // the probe instants.
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let m = msg_with(1, 4, 200.0, &[500.0], 1000.0);
        p.send_priority(t(1000.0), &m.view());
        let after_warm = p.priority_cache_stats().unwrap();
        assert_eq!((after_warm.misses, after_warm.incremental), (1, 0));

        for (k, now) in [1001.0, 1002.5, 1040.0, 1300.0].into_iter().enumerate() {
            let v = p.send_priority(t(now), &m.view());
            let stats = p.priority_cache_stats().unwrap();
            assert_eq!(stats.misses, 1, "time passage caused a rebuild");
            assert_eq!(stats.incremental as usize, k + 1);
            // Incremental completion == cold recompute, bit for bit.
            let cold = Sdsrp::new(NodeId(0), sparse_cfg());
            assert_eq!(v.to_bits(), cold.utility(t(now), &m.view()).to_bits());
        }
    }

    #[test]
    fn bucket_boundary_crossing_forces_rebuild_and_stays_exact() {
        // Oracle-λ model: E(I_min) = 1000/99 ≈ 10.101 s. A spray at
        // t=0 moves buckets every E(I_min); probing across many
        // boundaries must re-estimate m_i exactly like a cold policy.
        let mut p = policy();
        let e_min = p.model().e_i_min();
        let spray_at = 0.0;
        for step in 1..40 {
            let now = spray_at + e_min * step as f64 * 0.75;
            let m = msg_with(1, 8, 120.0, &[now - spray_at], now);
            let warm = p.send_priority(t(now), &m.view());
            let cold = Sdsrp::new(NodeId(0), oracle_cfg());
            assert_eq!(
                warm.to_bits(),
                cold.utility(t(now), &m.view()).to_bits(),
                "diverged at step {step}"
            );
        }
        let stats = p.priority_cache_stats().unwrap();
        assert!(
            stats.misses > 1,
            "bucket boundaries never forced a rebuild: {stats:?}"
        );
        assert!(
            stats.incremental > 0,
            "within-bucket probes never took the fast path: {stats:?}"
        );
    }

    #[test]
    fn eviction_ranking_uses_consistent_now_snapshot() {
        // Regression (stale-TTL ranking): warm the memo at t0, then
        // plan an eviction at t1 where TTL decay has flipped the order
        // of two residents. The warm policy must pick the same victim
        // as a cold policy ranking everything freshly at t1.
        let now0 = t(100.0);
        let now1 = t(4000.0);
        // Resident A: long TTL, sprayed (lower priority early).
        // Resident B: short TTL, unsprayed (higher priority early, but
        // its exposure collapses as the TTL burns down).
        let a = msg_with(1, 2, 300.0, &[50.0], 100.0);
        let b = msg_with(2, 16, 68.0, &[], 100.0);
        let incoming = msg_with(9, 32, 300.0, &[], 100.0);
        let views = vec![a.view(), b.view()];

        let plan_at = |p: &mut Sdsrp, now: SimTime| {
            plan_admission(
                p,
                now,
                &incoming.view(),
                &views,
                Bytes::ZERO,
                Bytes::from_mb(1.0),
            )
        };

        let mut warm = Sdsrp::new(NodeId(0), sparse_cfg());
        // Warm every entry at t0...
        warm.send_priority(now0, &a.view());
        warm.send_priority(now0, &b.view());
        warm.send_priority(now0, &incoming.view());
        // ...then rank at t1.
        let warm_plan = plan_at(&mut warm, now1);
        let mut cold = Sdsrp::new(NodeId(0), sparse_cfg());
        let cold_plan = plan_at(&mut cold, now1);
        assert_eq!(warm_plan, cold_plan, "stale-TTL ranking divergence");

        // Non-vacuity: the same decision taken at t0 differs, i.e. the
        // TTL decay between t0 and t1 really flips the order.
        let mut cold0 = Sdsrp::new(NodeId(0), sparse_cfg());
        assert_ne!(plan_at(&mut cold0, now0), cold_plan);
    }

    #[test]
    fn gossip_import_invalidates_only_reported_messages() {
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let now = t(1000.0);
        let m1 = msg_with(1, 4, 100.0, &[500.0], 1000.0);
        let m2 = msg_with(2, 4, 100.0, &[500.0], 1000.0);
        p.send_priority(now, &m1.view());
        p.send_priority(now, &m2.view());

        // A peer gossips a drop of message 1 only.
        let mut peer = Sdsrp::new(NodeId(9), sparse_cfg());
        peer.on_drop(t(40.0), MessageId(1));
        let adopted = p.import_gossip(t(1001.0), &peer.export_gossip(t(1001.0)).unwrap());
        assert_eq!(adopted, 1);

        let before = p.priority_cache_stats().unwrap();
        // Message 2's entry survived: same-instant probe is a hit.
        p.send_priority(now, &m2.view());
        // Message 1's entry was evicted: this is a rebuild.
        p.send_priority(now, &m1.view());
        let after = p.priority_cache_stats().unwrap();
        assert_eq!(after.hits, before.hits + 1, "m2 entry was evicted");
        assert_eq!(after.misses, before.misses + 1, "m1 entry survived");
        // And the rebuilt value reflects the new d_i.
        let cold = {
            let mut c = Sdsrp::new(NodeId(0), sparse_cfg());
            c.import_gossip(t(1001.0), &peer.export_gossip(t(1001.0)).unwrap());
            c
        };
        assert_eq!(
            p.send_priority(now, &m1.view()).to_bits(),
            cold.utility(now, &m1.view()).to_bits()
        );
    }

    #[test]
    fn in_store_exchange_moves_the_memoised_holders_estimate() {
        // Two policies of one store meet at the instant `a` last ranked
        // a message it buffers; the exchange adopts `b`'s record of
        // dropping it, so d_i rises and n_i falls with no time passing.
        // The memo must see the new n_i, not return the value it stored.
        let logs = DropLogs::shared();
        let mut a = Sdsrp::sharing(NodeId(0), sparse_cfg(), &logs);
        let mut b = Sdsrp::sharing(NodeId(1), sparse_cfg(), &logs);
        let now = t(2000.0);
        let m = msg_with(1, 4, 100.0, &[1500.0, 1000.0], 2000.0);
        b.on_drop(t(100.0), MessageId(1));
        let before = a.send_priority(now, &m.view());
        assert_eq!(before.to_bits(), a.send_priority(now, &m.view()).to_bits());

        let tally = Sdsrp::exchange_gossip(&mut a, &mut b).expect("one store");
        assert_eq!(tally.adopted, [1, 0]);
        assert_eq!(a.dropped_list().drop_count(MessageId(1)), 1);
        let after = a.send_priority(now, &m.view());
        assert_eq!(after.to_bits(), a.utility(now, &m.view()).to_bits());
        assert_ne!(after, before, "the exchange left n_i where it was");
    }

    #[test]
    fn in_store_exchange_matches_a_whole_list_import() {
        let logs = DropLogs::shared();
        let mut a = Sdsrp::sharing(NodeId(0), oracle_cfg(), &logs);
        let mut b = Sdsrp::sharing(NodeId(1), oracle_cfg(), &logs);
        let (mut a2, mut b2) = (policy(), Sdsrp::new(NodeId(1), oracle_cfg()));
        for p in [&mut a, &mut a2] {
            p.on_drop(t(5.0), MessageId(3));
            p.on_drop(t(6.0), MessageId(4));
        }
        for p in [&mut b, &mut b2] {
            p.on_drop(t(7.0), MessageId(9));
        }
        // Lists of different stores do not exchange in place.
        assert_eq!(Sdsrp::exchange_gossip(&mut a, &mut b2), None);
        let summaries = a.dropped_list().summary_len() + b.dropped_list().summary_len();
        assert_eq!(summaries, 2 * (12 + 16));
        let tally = Sdsrp::exchange_gossip(&mut a, &mut b).unwrap();

        // Both exports before either import, as the world does.
        let ga = a2.export_gossip(t(8.0)).unwrap();
        let gb = b2.export_gossip(t(8.0)).unwrap();
        let adopted = [a2.import_gossip(t(8.0), &gb), b2.import_gossip(t(8.0), &ga)];
        // Each side lacked the other's record, so each answer is whole.
        assert_eq!(
            tally,
            GossipTally {
                summary_bytes: summaries as u64,
                payload_bytes: (ga.len() + gb.len()) as u64,
                adopted,
            }
        );
        assert_eq!(adopted, [1, 1]);
        assert_eq!(a.dropped_list(), a2.dropped_list());
        assert_eq!(b.dropped_list(), b2.dropped_list());
        // Each now holds both records, so each answer is a bare header:
        // a list's own record never travels back to its origin.
        let again = Sdsrp::exchange_gossip(&mut a, &mut b).unwrap();
        assert_eq!((again.payload_bytes, again.adopted), (2 * 8, [0, 0]));

        // A side that does not gossip sends nothing and is sent the whole
        // list, which it ignores.
        let mut cfg = oracle_cfg();
        cfg.gossip = false;
        let mut quiet = Sdsrp::sharing(NodeId(2), cfg, &logs);
        let tally = Sdsrp::exchange_gossip(&mut a, &mut quiet).unwrap();
        let whole = a2.export_gossip(t(9.0)).unwrap();
        assert_eq!(
            tally,
            GossipTally {
                summary_bytes: a.dropped_list().summary_len() as u64,
                payload_bytes: whole.len() as u64,
                adopted: [0, 0],
            }
        );
        assert!(quiet.accepts(t(9.0), MessageId(3)));
    }

    #[test]
    fn disabling_cache_resets_stats_and_counts_nothing() {
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let m = msg_with(1, 4, 100.0, &[500.0], 1000.0);
        p.send_priority(t(1000.0), &m.view());
        p.send_priority(t(1000.0), &m.view());
        assert_ne!(p.priority_cache_stats().unwrap(), Default::default());

        p.set_priority_cache(false);
        assert_eq!(p.priority_cache_stats().unwrap(), Default::default());
        p.send_priority(t(1000.0), &m.view());
        p.send_priority(t(1001.0), &m.view());
        // Bypass evaluations are not misses — the memo was never asked.
        assert_eq!(p.priority_cache_stats().unwrap(), Default::default());

        // Re-enabling also restarts the counters.
        p.set_priority_cache(true);
        p.send_priority(t(1002.0), &m.view());
        let stats = p.priority_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.incremental, stats.misses), (0, 0, 1));
    }

    #[test]
    fn node_reset_returns_policy_to_cold_state() {
        let mut p = Sdsrp::new(NodeId(0), online_cfg());
        // Teach λ, record drops, import gossip.
        p.on_contact_up(t(0.0), NodeId(1));
        p.on_contact_down(t(10.0), NodeId(1));
        p.on_contact_up(t(510.0), NodeId(1));
        p.on_drop(t(600.0), MessageId(3));
        let mut peer = Sdsrp::new(NodeId(9), online_cfg());
        peer.on_drop(t(40.0), MessageId(2));
        p.import_gossip(t(650.0), &peer.export_gossip(t(650.0)).unwrap());
        assert!((p.lambda() - 1.0 / 500.0).abs() < 1e-12);
        assert!(!p.accepts(t(700.0), MessageId(3)));
        assert!(!p.accepts(t(700.0), MessageId(2)));

        p.on_node_reset(t(700.0));

        // λ back to the prior, dropped list empty, acceptance restored.
        assert!((p.lambda() - 1.0 / 2000.0).abs() < 1e-15);
        assert!(p.accepts(t(710.0), MessageId(3)));
        assert!(p.accepts(t(710.0), MessageId(2)));
        assert_eq!(p.export_gossip(t(710.0)), None);
        // The rebooted node behaves like a fresh construction: first
        // contact after reboot is not an intermeeting sample.
        p.on_contact_up(t(800.0), NodeId(1));
        assert!((p.lambda() - 1.0 / 2000.0).abs() < 1e-15);
    }

    #[test]
    fn cache_key_distinguishes_spray_history_at_same_instant() {
        // Same id, same copies, same now — only the spray timestamps
        // differ. The m_i they estimate differs, which must force a
        // recompute (distinct value).
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let now = t(5000.0);
        let a = msg_with(1, 4, 100.0, &[4000.0], 5000.0);
        let b = msg_with(1, 4, 100.0, &[500.0], 5000.0);
        let ua = p.send_priority(now, &a.view());
        let ub = p.send_priority(now, &b.view());
        assert_ne!(ua, ub, "spray-history change not reflected");
    }

    #[test]
    fn long_spray_histories_are_memoised() {
        // Thirteen binary-spray splits: a copy of a message created
        // with C = 8192 tokens that has halved down to one. Sparse
        // config, so E(I_min) ≈ 1010 s and m_i stays put between the
        // two instants.
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let ago: Vec<f64> = (1..=13).map(|k| 40.0 * k as f64).collect();
        let mut m = msg_with(1, 1, 200.0, &ago, 1000.0);
        m.initial_copies = 8192;
        for (k, now) in [1000.0, 1001.0].into_iter().enumerate() {
            let v = p.send_priority(t(now), &m.view());
            assert!(v.is_finite(), "degenerate test input");
            let cold = Sdsrp::new(NodeId(0), sparse_cfg());
            assert_eq!(v.to_bits(), cold.utility(t(now), &m.view()).to_bits());
            let stats = p.priority_cache_stats().unwrap();
            assert_eq!((stats.misses, stats.incremental), (1, k as u64));
        }
    }
}
