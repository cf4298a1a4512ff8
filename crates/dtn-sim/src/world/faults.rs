//! Fault injection handlers: crashes, reboots, radio blackouts, and
//! the clock-skew view. The schedules themselves are precomputed in
//! `World::build` from dedicated FAULTS-stream substreams.

use super::*;

impl World {
    /// Forces every live contact of `node` down through the normal
    /// [`World::on_contact_down`] path (aborting in-flight transfers
    /// the same way mobility would).
    fn force_contacts_down(&mut self, node: NodeId) {
        self.dispatch_contacts(|w, events| w.tracker.drop_node(node, w.now, events));
    }

    /// Injected crash: the radio dies, every buffered copy (and its
    /// spray tokens) is destroyed, and volatile protocol state — the
    /// buffer policy's estimators/dropped lists and the routing
    /// protocol's timers — reboots cold. Durable application state
    /// (`delivered`, `acked`) survives, as would anything persisted to
    /// stable storage on a real node. Report counters are untouched:
    /// fault counts flow only through telemetry and the validator's
    /// fault ledger.
    pub(super) fn on_node_crash(&mut self, node: NodeId) {
        self.soa.radio_off[node.index()] += 1;
        self.force_contacts_down(node);

        let now = self.now;
        let doomed: Vec<MessageId> = self.nodes[node.index()].buffer.ids().collect();
        let wiped = doomed.len() as u64;
        let wiped_tokens: u64 = doomed
            .into_iter()
            .map(|id| u64::from(self.discard_resident(node, id, Discard::Crashed)))
            .sum();
        self.nodes[node.index()].policy.on_node_reset(now);
        self.nodes[node.index()].routing = self.cfg.routing.build();
        if let Some(v) = self.validator.as_mut() {
            v.on_node_crashed(node, wiped, wiped_tokens);
        }
        let (t, id) = (now.as_secs(), node.0);
        self.recorder
            .record(|| SimEvent::NodeCrashed { t, node: id, wiped });
    }

    /// Injected reboot: the radio comes back; contacts re-form on the
    /// next tick when the node's true position is back in range.
    pub(super) fn on_node_reboot(&mut self, node: NodeId) {
        self.soa.radio_off[node.index()] = self.soa.radio_off[node.index()].saturating_sub(1);
        let (t, id) = (self.now.as_secs(), node.0);
        self.recorder
            .record(|| SimEvent::NodeRebooted { t, node: id });
    }

    /// Injected blackout: the radio goes dark but all state survives —
    /// the node simply vanishes from contact detection for the window.
    pub(super) fn on_blackout_start(&mut self, node: NodeId) {
        self.soa.radio_off[node.index()] += 1;
        self.force_contacts_down(node);
        if let Some(v) = self.validator.as_mut() {
            v.on_blackout(node);
        }
        let (t, id) = (self.now.as_secs(), node.0);
        self.recorder
            .record(|| SimEvent::BlackoutStarted { t, node: id });
    }

    /// End of a blackout window.
    pub(super) fn on_blackout_end(&mut self, node: NodeId) {
        self.soa.radio_off[node.index()] = self.soa.radio_off[node.index()].saturating_sub(1);
        let (t, id) = (self.now.as_secs(), node.0);
        self.recorder
            .record(|| SimEvent::BlackoutEnded { t, node: id });
    }

    /// Whether `node`'s radio is currently down (crashed or blacked
    /// out). Inspection accessor for tests and step-wise drivers.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.soa.radio_off[node.index()] > 0
    }

    /// `now` as read by `node`'s local clock: the true time plus the
    /// node's injected skew offset, clamped non-negative. Identity (and
    /// allocation/branch-free beyond one `is_empty`) when skew
    /// injection is off. Only spray timestamps go through this —
    /// skew models mis-set device clocks corrupting the Eq. 15
    /// timestamp chain, not a relativistic simulator.
    pub(super) fn skewed_now(&self, node: NodeId) -> SimTime {
        if self.soa.clock_skew.is_empty() {
            return self.now;
        }
        SimTime::from_secs((self.now.as_secs() + self.soa.clock_skew[node.index()]).max(0.0))
    }
}
