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
        if self.counted(&msg) {
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
        self.admit_copy_forced(source, BufferedCopy::at_source(&msg));

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

        self.rearm_idle_links(&[source], None);
    }

    /// Forced admission for newly generated messages: evicts the
    /// lowest-retention-priority residents until the newcomer fits
    /// (always succeeds because `validate` guarantees a single message
    /// fits in an empty buffer).
    fn admit_copy_forced(&mut self, node_id: NodeId, copy: BufferedCopy) {
        let now = self.now;
        let msg = self.catalog[copy.msg.index()];
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
            let candidates = node.buffer.iter().map(|c| {
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
        for &(victim, _) in &victims {
            self.discard_resident(node_id, victim, Discard::Evicted);
        }
        victims.clear();
        self.victim_scratch = victims;
        self.insert_copy(node_id, copy);
    }

    /// Puts an admitted copy into `node`'s buffer.
    fn insert_copy(&mut self, node: NodeId, copy: BufferedCopy) {
        let msg = copy.msg;
        let size = self.catalog[msg.index()].size;
        self.nodes[node.index()].insert_copy(copy, size);
        if let Some(t) = self.truth.as_mut() {
            t.on_inserted(msg, node);
        }
    }

    /// Runs the admission algorithm for `copy` arriving at `node_id`
    /// and applies its plan: the evictions and the insertion, or the
    /// newcomer's rejection.
    pub(super) fn admit_copy(&mut self, node_id: NodeId, copy: BufferedCopy) {
        let now = self.now;
        let msg = self.catalog[copy.msg.index()];
        let oracle = self.truth.as_ref().filter(|_| self.cfg.oracle);
        let oracle_info = oracle.map(|o| o.oracle_counts(msg.id));

        let node = &mut self.nodes[node_id.index()];
        let free = node.free();
        let capacity = node.capacity;

        // Build views of incoming + residents.
        let incoming_view = make_view(&msg, &copy, now, oracle_info);
        let resident_views: Vec<_> = node
            .buffer
            .iter()
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
                self.discard(node_id, copy, Discard::Rejected);
            }
            AdmissionPlan::Admit { evict } => {
                for victim in evict {
                    self.discard_resident(node_id, victim, Discard::Evicted);
                }
                self.insert_copy(node_id, copy);
            }
        }
    }
}
