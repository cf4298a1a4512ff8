//! The tick pipeline: explicit, ordered phases.
//!
//! Every `Tick` event runs the same fixed phase sequence. Phase order
//! is part of the determinism contract — each phase observes exactly
//! the state the previous phases left:
//!
//! 1. **expiry** — purge the copies of messages whose TTL ran out
//!    since the last tick: a cursor into the deadline-ordered catalog
//!    names them, and each node drops its copies of those ids only.
//! 2. **movement** — sample all trajectories into the SoA position
//!    array (*parallel*, per-node RNG substreams).
//! 3. **contacts** — test the Verlet candidate pairs for range,
//!    rebuilding the candidates through the spatial grid (*parallel*,
//!    row-band reduction) only when some node has moved half the skin;
//!    merge-diff against the previous tick and dispatch
//!    ContactDown/ContactUp in sorted-pair order. Both endpoints of
//!    every dispatched contact event are marked for phase 5. A world
//!    that replays a recorded schedule skips phase 2 and dispatches the
//!    tick's recorded events here instead.
//! 4. **telemetry** — gauges and due time-series samples; the
//!    priority-cache gauges only on the last tick before the
//!    `step_until` horizon.
//! 5. **rearm** — retry the idle live links that touch a node marked
//!    since the last tick, in sorted-pair order, then clear the marks.
//! 6. **validation** — the full-state invariant sweep, when enabled.
//!
//! A contact coming up, a transfer completing and a message being
//! generated retry the links they touch at once. Anything else that can
//! give an idle link work — dropped-list gossip, PRoPHET's aging and
//! transitivity, antipacket purges — runs in a contact handler; the
//! rest only removes candidates. So phase 5 skips idle links with no
//! marked endpoint, and in debug builds and validated runs a shadow
//! probe checks that each skipped link has no work (DESIGN.md, "Which
//! idle links are retried").
//!
//! The parallel phases (2 and 3's candidate rebuild) are the
//! embarrassingly parallel ones:
//! per-item outputs only, merged in band order, so fingerprints are
//! bit-identical at any thread count.

use super::*;

impl World {
    pub(super) fn on_tick(&mut self) {
        self.phase_expiry();
        self.phase_movement();
        self.phase_contacts();
        self.phase_telemetry();
        self.phase_rearm();
        self.phase_validation();

        let next = self.now + SimDuration::from_secs(self.cfg.tick_secs);
        if next.as_secs() <= self.cfg.duration_secs {
            self.queue.push(next, WorldEvent::Tick);
        }
    }

    /// Phase 1: drop every copy whose TTL ran out since the last tick.
    ///
    /// Every message gets the same TTL and the catalog is in creation
    /// order, so it is also in deadline order: the messages that expire
    /// now are the ones just past [`World::expired_prefix`]. A copy of an
    /// older one cannot be buffered anywhere — this phase dropped them
    /// all when they expired, candidate selection skips expired
    /// messages, and a completing transfer of one aborts. So only the
    /// new ids are looked up, node by node in index order and in
    /// ascending id order within each buffer: the drop sequence a full
    /// buffer walk would produce.
    fn phase_expiry(&mut self) {
        let now = self.now;
        let lo = self.expired_prefix;
        let hi = lo + self.catalog[lo..].partition_point(|m| m.expired(now));
        if lo == hi {
            return;
        }
        self.expired_prefix = hi;
        let (start, end) = (MessageId(lo as u64), MessageId(hi as u64));
        for node in NodeId::all(self.nodes.len()) {
            let i = node.index();
            debug_assert!(
                self.nodes[i].buffer.count_below(start) == 0,
                "{node:?} buffers a copy that expired on an earlier tick"
            );
            // The expiring copies are the buffer's first ones.
            for _ in 0..self.nodes[i].buffer.count_below(end) {
                let id = self.nodes[i].buffer.ids().next().expect("counted above");
                self.discard_resident(node, id, Discard::Expired);
            }
        }
    }

    /// Phase 2: parallel movement sampling into the SoA position array
    /// (nothing to do when a recorded schedule supplies the contacts).
    fn phase_movement(&mut self) {
        if !matches!(self.contact_source, schedule::ContactSource::Replay { .. }) {
            self.soa.sample_movement(self.now, &self.pool);
        }
    }

    /// Phase 3: contact detection (the candidate rebuild's grid query
    /// runs on the pool) or the tick's slice of a recorded schedule,
    /// then contact handler dispatch (Down before Up, sorted pairs —
    /// the tracker guarantees the order).
    fn phase_contacts(&mut self) {
        self.dispatch_contacts(Self::detect_contacts);
    }

    /// Phase 4: gauges + due time-series samples.
    fn phase_telemetry(&mut self) {
        if let Some(m) = self.metrics.as_ref() {
            let live = self.links.len() as f64;
            // The priority-cache gauges mirror running totals that cost a
            // walk over every node's policy, and a caller can only read
            // the value the last tick before the horizon leaves: refresh
            // them on that tick alone.
            let next_tick = self.now + SimDuration::from_secs(self.cfg.tick_secs);
            let cache = (next_tick > self.horizon).then(|| self.priority_cache_stats());
            let metrics = self.recorder.metrics_mut();
            metrics.set_gauge(m.live_contacts, live);
            if let Some(cache) = cache {
                metrics.set_gauge(m.priority_cache_hits, cache.hits as f64);
                metrics.set_gauge(m.priority_cache_incremental, cache.incremental as f64);
                metrics.set_gauge(m.priority_cache_misses, cache.misses as f64);
            }
        }
        if self.recorder.timeseries_due(self.now.as_secs()) {
            let point = self.sample_timepoint();
            self.recorder.record_timepoint(point);
        }
    }

    /// Phase 5: retry the idle links of the nodes that contact events
    /// marked since the last tick, then clear the marks.
    fn phase_rearm(&mut self) {
        let mut woken = std::mem::take(&mut self.woken);
        woken.sort_unstable();
        woken.dedup();
        if cfg!(debug_assertions) || self.validator.is_some() {
            self.probe_skipped_links(&woken);
        }
        self.rearm_idle_links(&woken, None);
        woken.clear();
        self.woken = woken;
    }

    /// Phase 6: the full-state validation sweep (no-op without a
    /// validator).
    fn phase_validation(&mut self) {
        self.run_validation_sweep();
    }

    /// Re-arms the idle live links touching any of `nodes`, except
    /// `skip`, in sorted-pair order: phase 5, and the kicks after a
    /// transfer completes or a message is generated. Same-instant
    /// `TransferComplete` events apply in push order, so the order links
    /// start in must not depend on link insertion history, so the pairs
    /// collected from the nodes' peer lists (in contact-history order)
    /// are sorted first. The walk costs the nodes' degrees, not the link
    /// count.
    pub(super) fn rearm_idle_links(&mut self, nodes: &[NodeId], skip: Option<NodePair>) {
        let mut idle = std::mem::take(&mut self.scratch_idle);
        self.collect_idle_links(nodes, skip, &mut idle);
        for &pair in &idle {
            self.try_start_transfer(pair);
        }
        self.scratch_idle = idle;
    }

    /// Fills `idle` with the idle live links touching any of `nodes`,
    /// except `skip`, in sorted-pair order: the walk of
    /// [`Self::rearm_idle_links`].
    fn collect_idle_links(
        &self,
        nodes: &[NodeId],
        skip: Option<NodePair>,
        idle: &mut Vec<NodePair>,
    ) {
        idle.clear();
        for &node in nodes {
            idle.extend(
                self.adjacency[node.index()]
                    .iter()
                    .map(|&peer| NodePair::new(node, peer))
                    .filter(|&pair| Some(pair) != skip && self.links[&pair].in_flight.is_none()),
            );
        }
        idle.sort_unstable();
        idle.dedup();
    }

    /// Dispatches `history` — `(pair, up)` contact events — through the
    /// contact handlers at the current instant, then returns the rearm
    /// walk over `nodes`. Backs [`crate::replay::rearm_walk_after`].
    pub(crate) fn rearm_walk_after(
        &mut self,
        history: &[(NodePair, bool)],
        nodes: &[NodeId],
    ) -> Vec<NodePair> {
        self.dispatch_contacts(|w, events| {
            let time = w.now;
            events.extend(history.iter().map(|&(pair, up)| {
                if up {
                    ContactEvent::Up { pair, time }
                } else {
                    ContactEvent::Down { pair, time }
                }
            }));
        });
        let mut idle = Vec::new();
        self.collect_idle_links(nodes, None, &mut idle);
        idle
    }

    /// Shadow probe of the wake-up rule: every idle live link with no
    /// endpoint in `woken` must have no transfer to start and no refusal
    /// left to report. It emits nothing and changes no world state, so a
    /// run with the probe on is the run without it. The skipped links
    /// are scanned in sorted-pair order, so a failure names the lowest
    /// one whatever the link table's hash order.
    fn probe_skipped_links(&mut self, woken: &[NodeId]) {
        let mut skipped: Vec<NodePair> = self
            .links
            .iter()
            .filter(|(p, s)| {
                s.in_flight.is_none()
                    && woken.binary_search(&p.lo()).is_err()
                    && woken.binary_search(&p.hi()).is_err()
            })
            .map(|(&p, _)| p)
            .collect();
        skipped.sort_unstable();
        for pair in skipped {
            let (best, refused) = self.scan_candidates(pair);
            assert!(
                best.is_none() && refused.is_empty(),
                "t={}: idle link {pair:?} was skipped with work to do: {best:?}, new refusals {refused:?}",
                self.now.as_secs()
            );
        }
    }

    /// Computes one time-series sample from the current state.
    fn sample_timepoint(&self) -> dtn_telemetry::TimePoint {
        let mut occ_sum = 0.0;
        let mut occ_max = 0.0f64;
        let mut total_copies = 0usize;
        let mut live: HashSet<MessageId> = HashSet::new();
        for node in &self.nodes {
            let frac = node.used.as_u64() as f64 / node.capacity.as_u64().max(1) as f64;
            occ_sum += frac;
            occ_max = occ_max.max(frac);
            total_copies += node.buffer.len();
            live.extend(node.buffer.ids());
        }
        dtn_telemetry::TimePoint {
            t: self.now.as_secs(),
            mean_occupancy: occ_sum / self.nodes.len() as f64,
            max_occupancy: occ_max,
            live_contacts: self.links.len(),
            live_messages: live.len(),
            total_copies,
        }
    }

    /// One full-state validation sweep: walks every buffer and lets the
    /// validator cross-check the truth ledger against reality. Each
    /// buffer is walked in ascending id order, so the walk (and the
    /// float accumulation inside the estimator statistics) is
    /// deterministic.
    pub(super) fn run_validation_sweep(&mut self) {
        let (Some(v), Some(truth)) = (self.validator.as_mut(), self.truth.as_mut()) else {
            return;
        };
        let now = self.now;
        v.begin_sweep(truth, now, self.cfg.tick_secs);
        for node in &self.nodes {
            v.sweep_node(now, node.id, node.used.as_u64(), node.capacity.as_u64());
            for copy in node.buffer.iter() {
                let msg = &self.catalog[copy.msg.index()];
                let delivered_here = node.delivered.contains(&copy.msg);
                v.sweep_copy(
                    truth,
                    now,
                    node.id,
                    copy.msg,
                    copy.copies,
                    msg.size.as_u64(),
                    &copy.spray_times,
                    delivered_here,
                );
            }
        }
        let outcome = v.finish_sweep(truth, now);
        self.emit_sweep_outcome(&outcome);
    }

    fn emit_sweep_outcome(&mut self, outcome: &SweepOutcome) {
        for n in &outcome.new_violations {
            let (t, check, msg, node) = (n.t, n.check, n.msg, n.node);
            self.recorder.record(|| SimEvent::InvariantViolation {
                t,
                check,
                msg,
                node,
            });
            if let Some(m) = self.validate_metrics.as_ref() {
                self.recorder.metrics_mut().inc(m.invariant_violations, 1);
            }
        }
        if let Some(s) = outcome.sample {
            if s.samples > 0 {
                let t = self.now.as_secs();
                self.recorder.record(|| SimEvent::EstimatorSample {
                    t,
                    samples: s.samples,
                    mean_err_m: s.mean_err_m,
                    max_err_m: s.max_err_m,
                    mean_err_n: s.mean_err_n,
                    max_err_n: s.max_err_n,
                });
                if let Some(m) = self.validate_metrics.as_ref() {
                    let reg = self.recorder.metrics_mut();
                    reg.observe(m.estimator_m_rel_err, s.mean_err_m);
                    reg.observe(m.estimator_n_rel_err, s.mean_err_n);
                }
            }
        }
    }

    /// Final validation sweep + run-level estimator gauges. Called from
    /// [`World::finish`]; harmless without a validator.
    pub(super) fn finalize_validation(&mut self) {
        if self.validator.is_none() {
            return;
        }
        self.run_validation_sweep();
        if let (Some(v), Some(m)) = (self.validator.as_ref(), self.validate_metrics.as_ref()) {
            let r = v.report();
            let (m_mean, m_max) = (r.estimator_m.mean(), r.estimator_m.max);
            let (n_mean, n_max) = (r.estimator_n.mean(), r.estimator_n.max);
            let reg = self.recorder.metrics_mut();
            reg.set_gauge(m.estimator_m_mean_rel_err, m_mean);
            reg.set_gauge(m.estimator_m_max_rel_err, m_max);
            reg.set_gauge(m.estimator_n_mean_rel_err, n_mean);
            reg.set_gauge(m.estimator_n_max_rel_err, n_max);
        }
    }
}
