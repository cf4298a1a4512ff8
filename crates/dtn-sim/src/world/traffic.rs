//! Traffic generation and buffer admission: the `Generate` event
//! handler plus the two admission paths (forced at the source,
//! Algorithm 1 on arrival).

use super::*;

impl World {
    pub(super) fn on_generate(&mut self) {
        let n = self.cfg.n_nodes;
        let source = NodeId(self.traffic_rng.gen_range(0..n as u32));
        let destination = loop {
            let d = NodeId(self.traffic_rng.gen_range(0..n as u32));
            if d != source {
                break d;
            }
        };
        // Fixed size (the paper's 0.5 MB) or drawn uniformly from the
        // configured range (extension for size-aware policies).
        let size = match self.cfg.message_size_max {
            None => self.cfg.message_size,
            Some(max) => {
                let lo = self.cfg.message_size.as_u64() as f64;
                let hi = max.as_u64() as f64;
                dtn_core::units::Bytes::new(
                    uniform_range(&mut self.traffic_rng, lo, hi).round() as u64
                )
            }
        };
        let msg = Message {
            id: MessageId(self.catalog.len() as u64),
            source,
            destination,
            size,
            created: self.now,
            ttl: self.cfg.ttl,
            initial_copies: self.cfg.initial_copies,
        };
        debug_assert!(
            self.catalog
                .last()
                .is_none_or(|last| last.expires_at() <= msg.expires_at()),
            "the expiry phase needs the catalog in deadline order"
        );
        self.catalog.push(msg);
        if self.now.as_secs() >= self.cfg.warmup_secs {
            self.report.on_created();
            let t = self.now.as_secs();
            let copies = self.cfg.initial_copies;
            self.recorder.record(|| SimEvent::MessageGenerated {
                t,
                msg: msg.id.0,
                src: source.0,
                dst: destination.0,
                size: size.as_u64(),
                copies,
            });
        } else {
            self.uncounted.insert(msg.id);
        }
        if let Some(t) = self.truth.as_mut() {
            t.on_generated(
                msg.id,
                source,
                msg.initial_copies,
                msg.expires_at().as_secs(),
            );
        }

        // Source-side admission. ONE's `makeRoomForNewMessage` always
        // makes room for a *newly generated* message by evicting per the
        // drop policy — the newcomer itself is exempt from rejection.
        // (Applying Algorithm 1's newcomer-vs-lowest rule here would
        // penalise only SDSRP: every baseline ranks a fresh message
        // highest, while SDSRP's Eq. 10 can rank an unsprayed
        // long-TTL message below nearly-expired residents and then
        // refuse its *own* message at birth.)
        let copy = BufferedCopy::at_source(&msg);
        self.admit_copy_forced(source, msg.id, copy);

        // Schedule the next generation.
        let (lo, hi) = self.cfg.gen_interval;
        let gap = match self.cfg.traffic {
            crate::config::TrafficModel::Uniform => uniform_range(&mut self.traffic_rng, lo, hi),
            crate::config::TrafficModel::Poisson => {
                // Same mean rate as the uniform setting.
                let rate = 2.0 / (lo + hi);
                dtn_core::rng::exponential(&mut self.traffic_rng, rate)
            }
        };
        let next = self.now + SimDuration::from_secs(gap);
        if next.as_secs() <= self.cfg.duration_secs {
            self.queue.push(next, WorldEvent::Generate);
        }

        self.rearm_idle_links(Some(source));
    }

    /// Forced admission for newly generated messages: evicts the
    /// lowest-retention-priority residents until the newcomer fits
    /// (always succeeds because `validate` guarantees a single message
    /// fits in an empty buffer).
    fn admit_copy_forced(&mut self, node_id: NodeId, msg_id: MessageId, copy: BufferedCopy) {
        let now = self.now;
        let msg = self.catalog[msg_id.index()];
        let node = &mut self.nodes[node_id.index()];
        let free = node.free();
        let mut victims = std::mem::take(&mut self.victim_scratch);
        victims.clear();
        if free < msg.size {
            // Lazy lowest-keep-priority selection: heapify every
            // resident in O(B), pop only the victims actually needed.
            // `EvictionRank` orders by `(priority, id)` — the total
            // order the former full sort used — so the victim sequence
            // is unchanged. Every resident is ranked at the same `now`
            // snapshot the overflow decision uses.
            let policy = node.policy.as_mut();
            let catalog = &self.catalog;
            let oracle = self.truth.as_ref().filter(|_| self.cfg.oracle);
            let candidates = node.buffer.values().map(|c| {
                let m = &catalog[c.msg.index()];
                let oi = oracle.map(|o| o.oracle_counts(c.msg));
                let view = make_view(m, c, now, oi);
                EvictionRank {
                    priority: policy.keep_priority(now, &view),
                    id: c.msg,
                    size: m.size,
                }
            });
            self.evict_scratch
                .select_victims(candidates, free, msg.size, &mut victims);
        }
        for &(victim, size) in &victims {
            let node = &mut self.nodes[node_id.index()];
            let removed = node.remove_copy(victim, size);
            node.policy.on_drop(now, victim);
            let policy = node.policy.name();
            self.report.on_buffer_drop();
            self.recorder.record(|| SimEvent::Dropped {
                t: now.as_secs(),
                msg: victim.0,
                node: node_id.0,
                policy,
                reason: DropReason::Evicted,
            });
            if let Some(t) = self.truth.as_mut() {
                t.on_evicted(victim, node_id, removed.copies);
            }
            recycle_spray(&mut self.spray_pool, removed);
        }
        victims.clear();
        self.victim_scratch = victims;
        self.nodes[node_id.index()].insert_copy(copy, msg.size);
        if let Some(t) = self.truth.as_mut() {
            t.on_inserted(msg_id, node_id);
        }
    }

    /// Runs the admission algorithm for `copy` arriving at `node_id`;
    /// applies evictions and insertion. Returns true if admitted.
    pub(super) fn admit_copy(
        &mut self,
        node_id: NodeId,
        msg_id: MessageId,
        copy: BufferedCopy,
    ) -> bool {
        let now = self.now;
        let msg = self.catalog[msg_id.index()];
        let oracle = self.truth.as_ref().filter(|_| self.cfg.oracle);
        let oracle_info = oracle.map(|o| o.oracle_counts(msg_id));
        let incoming_tokens = copy.copies;

        let node = &mut self.nodes[node_id.index()];
        let free = node.free();
        let capacity = node.capacity;

        // Build views of incoming + residents.
        let incoming_view = make_view(&msg, &copy, now, oracle_info);
        let resident_views: Vec<_> = node
            .buffer
            .values()
            .map(|c| {
                let m = &self.catalog[c.msg.index()];
                let oi = oracle.map(|o| o.oracle_counts(c.msg));
                make_view(m, c, now, oi)
            })
            .collect();
        let plan = plan_admission_with(
            node.policy.as_mut(),
            now,
            &incoming_view,
            &resident_views,
            free,
            capacity,
            &mut self.evict_scratch,
        );
        drop(resident_views);

        match plan {
            AdmissionPlan::RejectIncoming => {
                // Algorithm 1 line 10-11: the newcomer is the drop victim.
                self.report.on_incoming_reject();
                node.policy.on_drop(now, msg_id);
                let policy = node.policy.name();
                self.recorder.record(|| SimEvent::Dropped {
                    t: now.as_secs(),
                    msg: msg_id.0,
                    node: node_id.0,
                    policy,
                    reason: DropReason::RejectedIncoming,
                });
                if let Some(t) = self.truth.as_mut() {
                    t.on_rejected_incoming(msg_id, node_id, incoming_tokens);
                }
                recycle_spray(&mut self.spray_pool, copy);
                false
            }
            AdmissionPlan::Admit { evict } => {
                for victim in evict {
                    let size = self.catalog[victim.index()].size;
                    let removed = node.remove_copy(victim, size);
                    node.policy.on_drop(now, victim);
                    let policy = node.policy.name();
                    self.report.on_buffer_drop();
                    self.recorder.record(|| SimEvent::Dropped {
                        t: now.as_secs(),
                        msg: victim.0,
                        node: node_id.0,
                        policy,
                        reason: DropReason::Evicted,
                    });
                    if let Some(t) = self.truth.as_mut() {
                        t.on_evicted(victim, node_id, removed.copies);
                    }
                    recycle_spray(&mut self.spray_pool, removed);
                }
                self.nodes[node_id.index()].insert_copy(copy, msg.size);
                if let Some(t) = self.truth.as_mut() {
                    t.on_inserted(msg_id, node_id);
                }
                true
            }
        }
    }
}
