//! The event-driven DTN world: mobility + contacts + routing + buffers.
//!
//! ## Event loop
//!
//! Three event kinds drive the simulation:
//!
//! * **Tick** (every `tick_secs`): a fixed sequence of explicit phases —
//!   expiry of the messages whose deadline just passed, movement
//!   sampling, contact detection over Verlet candidate pairs,
//!   telemetry, a retry of the idle links whose endpoints had a contact
//!   event, validation (see `phases`). The
//!   embarrassingly parallel work (movement integration, the grid pair
//!   query that rebuilds the candidates) fans out across the world's
//!   [`Pool`] with deterministic band-order reduction, so fingerprints
//!   are bit-identical at any thread count.
//! * **Generate**: create a message at a random source for a random
//!   destination, pass it through the source's admission control, and
//!   schedule the next generation `U(lo, hi)` seconds later.
//! * **TransferComplete**: apply a finished transfer (delivery /
//!   replication / handoff), run the receiver's admission control
//!   (Algorithm 1's drop step), and start the next transfer on the link.
//!
//! ## Run lifecycle
//!
//! [`World::step_until`] is the only loop over the event queue;
//! [`World::finish`] runs the rest and closes the run: the final
//! validation sweep, open contacts closed into the trace, the recorder
//! flushed. Oracle mode and the validator share one [`TruthLedger`],
//! updated once per state transition.
//!
//! ## Copy transitions
//!
//! Every copy that leaves a buffer — expired, evicted, rejected on
//! arrival, purged by immunity, wiped by a crash — is settled by
//! `World::discard`, keyed by its `Discard` cause. A completed
//! transfer tallies its transmission once, whatever its kind. Messages
//! created before `warmup_secs` are simulated but not counted
//! (`World::counted`).
//!
//! ## Shared contact schedules
//!
//! A world can record the contact events its contact phase dispatches,
//! or replay a schedule recorded under the same [`ContactKey`] instead
//! of sampling movement and detecting contacts; the sweep runners use
//! this to compute each seed's contacts once (see `schedule`).
//!
//! ## Module layout
//!
//! The world is one `impl World` split across focused submodules:
//! `phases` (the tick pipeline), `soa` (structure-of-arrays node
//! state), `contacts` (contact up/down + gossip), `transfers`
//! (candidate selection and transfer application), `traffic`
//! (generation + admission), `faults` (crash/blackout injection),
//! `schedule` (recorded contact schedules).
//!
//! ## Contact protocol
//!
//! On ContactUp both sides: exchange buffer-policy gossip (SDSRP dropped
//! lists: summaries first, then each side sends only the records the
//! other would adopt; two lists of the world's shared store do this in
//! place, see `contacts`) and routing gossip (Spray-and-Focus timers), then
//! the link —
//! half-duplex, one transfer at a time — picks the best transfer among
//! both directions: deliverable messages first (ONE's rule), then the
//! sender's buffer-policy scheduling priority (paper Algorithm 1 line 7).
//!
//! ## Determinism contract
//!
//! Every run is a pure function of `(ScenarioConfig, seed)` — threads
//! and telemetry included. The load-bearing rules:
//!
//! * **RNG lanes**: every random decision draws from a dedicated
//!   stream/substream of the master seed (`dtn_core::rng::streams`);
//!   per-node substreams (mobility, fault schedules) make per-node work
//!   order-free and therefore parallelizable.
//! * **Reduction order**: parallel phases partition work into ascending
//!   contiguous index bands and merge outputs in band order, which
//!   reproduces the serial left-to-right order at any thread count.
//! * **Ordered walks on mutation paths**: any walk that feeds
//!   world-state mutation, the event queue, or telemetry goes in a
//!   fixed order. Buffer walks are in ascending message id (`Node`'s
//!   buffer is a sorted `Vec`); the hashed link table is never walked on
//!   a mutation path, only looked up; a rearm sorts the idle pairs it
//!   collects from the per-node peer lists, whose order is contact
//!   history. `HashMap` iteration order would otherwise leak into the
//!   run.

mod contacts;
mod faults;
#[cfg(test)]
mod movement_tests;
mod phases;
mod schedule;
mod soa;
#[cfg(test)]
mod tests;
mod traffic;
mod transfers;

pub use schedule::{ContactKey, ContactSchedule};
pub use soa::NodeArrays;

use crate::config::{ImmunityMode, RoutingKind, ScenarioConfig};
use crate::message::{BufferedCopy, Message};
use crate::node::{make_view, two_nodes, Node};
use crate::report::Report;
use dtn_buffer::policy::{
    plan_admission_with, AdmissionPlan, EvictionRank, EvictionScratch, PriorityCacheStats,
};
use dtn_core::event::EventQueue;
use dtn_core::ids::{IdMap, IdSet, MessageId, NodeId, NodePair};
use dtn_core::pool::Pool;
use dtn_core::rng::{exponential, stream_rng, streams, substream_rng, uniform_range};
use dtn_core::time::{SimDuration, SimTime};
use dtn_net::contact::{ContactEvent, ContactTracker};
use dtn_net::trace::ContactTrace;
use dtn_routing::protocol::{RoutingCtx, TransferKind};
use dtn_telemetry::{DropReason, Recorder, SimEvent};
use dtn_validate::{SweepOutcome, TruthLedger, ValidateConfig, ValidationReport, Validator};
use rand::rngs::StdRng;
use rand::Rng;
use sdsrp_core::dropped_list::{DropLogs, SharedDropLogs};
use std::collections::HashSet;
use std::sync::PoisonError;

/// World events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WorldEvent {
    /// Movement / contact-detection tick.
    Tick,
    /// Generate one message.
    Generate,
    /// A transfer scheduled with sequence number `seq` finishes on
    /// `pair`.
    TransferComplete { pair: NodePair, seq: u64 },
    /// Injected fault: `node` crashes, wiping its volatile state.
    NodeCrash { node: NodeId },
    /// Injected fault: `node` comes back up after a crash.
    NodeReboot { node: NodeId },
    /// Injected fault: `node`'s radio goes dark (state intact).
    BlackoutStart { node: NodeId },
    /// Injected fault: `node`'s radio recovers.
    BlackoutEnd { node: NodeId },
}

/// Why a copy dies — the one thing that differs between the paths that
/// end a copy's life, all of which settle it through
/// [`World::discard`].
#[derive(Debug, Clone, Copy)]
enum Discard {
    /// Its TTL ran out (tick phase 1).
    Expired,
    /// Admission control evicted it to make room (Algorithm 1's drop
    /// step).
    Evicted,
    /// Admission control refused it on arrival (Algorithm 1 lines
    /// 10-11); it never entered the buffer.
    Rejected,
    /// Immunity: the message is known to be delivered.
    Purged,
    /// Its holder crashed. Fault counts flow through telemetry and the
    /// validator's fault ledger only, so no report counter and no event.
    Crashed,
}

/// An in-flight transfer on one link.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: MessageId,
    kind: TransferKind,
    /// The sender's copy-token count when the transfer was scheduled.
    /// A `Replicate` split is derived from this count; if another link
    /// completes a split of the same message first, applying this one
    /// would counterfeit tokens, so it aborts instead.
    copies_at_start: u32,
}

/// Per-live-contact link state.
#[derive(Debug, Default)]
struct LinkState {
    in_flight: Option<InFlight>,
}

/// Metric handles registered on the recorder by
/// [`World::attach_recorder`].
struct WorldMetrics {
    events_processed: dtn_telemetry::CounterId,
    delivery_latency_secs: dtn_telemetry::HistogramId,
    transfer_bytes: dtn_telemetry::HistogramId,
    live_contacts: dtn_telemetry::GaugeId,
    /// Buffer-policy gossip on the wire: the summaries both sides send
    /// on contact up, and the payloads they answer with.
    gossip_summary_bytes: dtn_telemetry::CounterId,
    gossip_payload_bytes: dtn_telemetry::CounterId,
    /// Cumulative priority-memo counters aggregated across every node,
    /// refreshed each telemetry phase. Gauges, not counters: the nodes
    /// own the running totals and the world just mirrors them.
    priority_cache_hits: dtn_telemetry::GaugeId,
    priority_cache_incremental: dtn_telemetry::GaugeId,
    priority_cache_misses: dtn_telemetry::GaugeId,
}

/// Metric handles registered when both a recorder and the validator
/// are attached.
struct ValidateMetrics {
    invariant_violations: dtn_telemetry::CounterId,
    estimator_m_rel_err: dtn_telemetry::HistogramId,
    estimator_n_rel_err: dtn_telemetry::HistogramId,
    estimator_m_mean_rel_err: dtn_telemetry::GaugeId,
    estimator_m_max_rel_err: dtn_telemetry::GaugeId,
    estimator_n_mean_rel_err: dtn_telemetry::GaugeId,
    estimator_n_max_rel_err: dtn_telemetry::GaugeId,
}

/// What [`World::finish`] hands back.
pub struct RunOutput {
    /// The run's counters and derived metrics.
    pub report: Report,
    /// The flushed recorder: totals, event ring, metrics and any time
    /// series ([`Recorder::take_timeseries`]).
    pub recorder: Recorder,
    /// The validation report, when validation was enabled.
    pub validation: Option<ValidationReport>,
    /// The closed contact intervals, when contact recording was enabled.
    pub contacts: Option<ContactTrace>,
    /// The contact events the run dispatched, when
    /// [`World::record_schedule`] was called.
    pub schedule: Option<ContactSchedule>,
}

/// A transfer candidate considered for an idle link.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    from: NodeId,
    to: NodeId,
    msg: MessageId,
    kind: TransferKind,
    is_delivery: bool,
    priority: f64,
}

/// The assembled simulation.
pub struct World {
    cfg: ScenarioConfig,
    nodes: Vec<Node>,
    /// Hot per-tick node state in structure-of-arrays form — positions,
    /// mobility models, radio-down depths, clock skews — the arrays the
    /// parallel phases stream over. Cold per-node protocol state
    /// (buffers, policies, routing) stays in [`Node`].
    soa: NodeArrays,
    tracker: ContactTracker,
    /// Where the contact phase gets its events: the tracker, or a
    /// recorded schedule.
    contact_source: schedule::ContactSource,
    /// Per-live-contact link state, keyed by pair. Hashed: no mutation
    /// path walks it, and the one diagnostic walk (the wake-up probe)
    /// sorts what it collects.
    links: IdMap<NodePair, LinkState>,
    /// The live peers of each node, indexed by node: both endpoints of
    /// every key in [`Self::links`], in no particular order. A rearm
    /// walks one node's list at the cost of its degree and sorts the
    /// pairs it collects.
    adjacency: Vec<Vec<NodeId>>,
    /// Endpoints of the contact events dispatched since the last rearm
    /// phase, which retries their idle links and clears the list.
    woken: Vec<NodeId>,
    queue: EventQueue<WorldEvent>,
    now: SimTime,
    /// Clock of the last processed event. [`Self::step_until`] moves
    /// `now` on to its horizon; the closing validation sweep runs here.
    last_event: SimTime,
    /// The horizon of the current [`Self::step_until`] call.
    horizon: SimTime,
    traffic_rng: StdRng,
    /// Every message, indexed by id — in creation order, and so in
    /// deadline order, since every message gets the same TTL.
    catalog: Vec<Message>,
    /// `catalog[..expired_prefix]` are the messages the expiry phase has
    /// seen expire; no buffer holds a copy of one.
    expired_prefix: usize,
    report: Report,
    /// Per-message ground truth, written once at every hook site.
    /// Present in oracle mode (`cfg.oracle`), where message views rank
    /// on its counts, and when validation is enabled, where the
    /// validator checks it — but only oracle mode lets it feed a policy.
    truth: Option<TruthLedger>,
    next_transfer_seq: u64,
    contact_trace: Option<ContactTrace>,
    recorder: Recorder,
    metrics: Option<WorldMetrics>,
    /// Invariant checker + estimator oracle; `None` (the default) costs
    /// one branch per hook site.
    validator: Option<Box<Validator>>,
    validate_metrics: Option<ValidateMetrics>,
    /// `(receiver, message)` pairs whose refusal was already reported —
    /// a refused candidate is re-examined on every scheduling pass.
    refused_seen: IdSet<(NodeId, MessageId)>,
    scratch_events: Vec<ContactEvent>,
    /// Reusable idle-pair list for the rearm walks — the tick's rearm
    /// phase, two per transfer completion and one per generated
    /// message — so they allocate nothing in steady state.
    scratch_idle: Vec<NodePair>,
    /// Recycled spray-timestamp vectors: replications pop one instead of
    /// allocating a fresh clone, removals push theirs back (bounded by
    /// [`SPRAY_POOL_CAP`]).
    spray_pool: Vec<Vec<SimTime>>,
    /// Reusable eviction-heap backing for both admission paths — every
    /// overflow heapifies the resident set, so the allocation is
    /// hoisted out of the per-admission hot path.
    evict_scratch: EvictionScratch,
    /// Reusable victim list for forced (source-side) admission.
    victim_scratch: Vec<(MessageId, dtn_core::units::Bytes)>,
    /// RNG for mid-transfer abort injection; `None` (never consulted)
    /// when `transfer_abort_prob` is zero, so zero-fault runs draw
    /// nothing from the FAULTS stream.
    abort_rng: Option<StdRng>,
    /// The dropped-list store the nodes' SDSRP policies share, when
    /// [`World::build`] made them.
    drop_logs: Option<SharedDropLogs>,
    /// Fork-join pool driving the parallel phases; a single thread
    /// (inline, no workers) by default. A *runtime* knob like
    /// [`Self::set_priority_cache`] — not part of [`ScenarioConfig`],
    /// so config hashes, manifests and checkpoint keys are unaffected —
    /// because results are bit-identical at any thread count.
    pool: Pool,
}

/// Upper bound on [`World::spray_pool`] — enough to cover the buffered
/// copies of a busy node without hoarding memory on large sweeps.
const SPRAY_POOL_CAP: usize = 64;

impl World {
    /// Builds a world from a validated scenario. Its SDSRP nodes keep
    /// their dropped lists in one store, where contacts exchange them
    /// without encoding a byte.
    pub fn build(cfg: &ScenarioConfig) -> World {
        let n = cfg.n_nodes;
        let seed = cfg.seed;
        let policy = cfg.policy;
        let logs = DropLogs::shared();
        let mut world =
            Self::build_with_policies(cfg, &mut |id| policy.build_sharing(id, n, seed, &logs));
        world.drop_logs = Some(logs);
        world
    }

    /// Builds a world with a caller-supplied buffer policy per node —
    /// the extension point for policies outside
    /// [`PolicyKind`](crate::config::PolicyKind) (the scenario's own
    /// `policy` field is ignored). See `examples/custom_policy.rs`.
    pub fn build_with_policies(
        cfg: &ScenarioConfig,
        make_policy: &mut dyn FnMut(NodeId) -> Box<dyn dtn_buffer::policy::BufferPolicy>,
    ) -> World {
        if let Err(e) = cfg.validate() {
            panic!("{}", e.reason);
        }
        let mobility = dtn_mobility::build_fleet(&cfg.mobility, cfg.n_nodes, cfg.seed);
        let area = cfg.mobility.area();
        let tracker = ContactTracker::new(area, cfg.link.range);
        let nodes: Vec<Node> = NodeId::all(cfg.n_nodes)
            .map(|id| {
                Node::new(
                    id,
                    cfg.buffer_capacity,
                    make_policy(id),
                    cfg.routing.build(),
                )
            })
            .collect();
        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO, WorldEvent::Tick);
        queue.push(SimTime::ZERO, WorldEvent::Generate);

        // Fault injection: the whole schedule is precomputed here from
        // dedicated FAULTS-stream substreams, one per node per fault
        // kind, so fault timing is independent of everything else in
        // the run. Every draw is gated on its feature being enabled —
        // an empty `FaultPlan` draws nothing and pushes nothing, which
        // is what keeps zero-fault runs bit-identical to builds that
        // predate fault injection.
        let faults = &cfg.faults;
        let mut clock_skew = Vec::new();
        let mut abort_rng = None;
        if !faults.is_empty() {
            if faults.clock_skew_max_secs > 0.0 {
                let mut rng = substream_rng(cfg.seed, streams::FAULTS, 1);
                let max = faults.clock_skew_max_secs;
                clock_skew = (0..cfg.n_nodes)
                    .map(|_| uniform_range(&mut rng, -max, max))
                    .collect();
            }
            if faults.transfer_abort_prob > 0.0 {
                abort_rng = Some(substream_rng(cfg.seed, streams::FAULTS, 2));
            }
            // Crash/reboot and blackout windows: exponential
            // inter-arrivals per node; the next candidate window starts
            // only after the previous one ends, so a node's windows of
            // the same kind never overlap.
            let mut schedule = |rate_per_hour: f64,
                                down_secs: f64,
                                sub_base: u64,
                                start: fn(NodeId) -> WorldEvent,
                                end: fn(NodeId) -> WorldEvent| {
                if rate_per_hour <= 0.0 {
                    return;
                }
                let rate = rate_per_hour / 3600.0;
                for i in 0..cfg.n_nodes {
                    let node = NodeId(i as u32);
                    let mut rng = substream_rng(cfg.seed, streams::FAULTS, sub_base + i as u64);
                    let mut t = 0.0;
                    loop {
                        t += exponential(&mut rng, rate);
                        if t > cfg.duration_secs {
                            break;
                        }
                        queue.push(SimTime::from_secs(t), start(node));
                        t += down_secs;
                        if t > cfg.duration_secs {
                            break;
                        }
                        queue.push(SimTime::from_secs(t), end(node));
                    }
                }
            };
            schedule(
                faults.crash_rate_per_hour,
                faults.reboot_secs,
                0x1000,
                |node| WorldEvent::NodeCrash { node },
                |node| WorldEvent::NodeReboot { node },
            );
            schedule(
                faults.blackout_rate_per_hour,
                faults.blackout_secs,
                0x2000,
                |node| WorldEvent::BlackoutStart { node },
                |node| WorldEvent::BlackoutEnd { node },
            );
        }

        World {
            cfg: cfg.clone(),
            nodes,
            soa: NodeArrays::new(mobility, clock_skew),
            tracker,
            contact_source: schedule::ContactSource::Live,
            links: IdMap::default(),
            adjacency: vec![Vec::new(); cfg.n_nodes],
            woken: Vec::new(),
            queue,
            now: SimTime::ZERO,
            last_event: SimTime::ZERO,
            horizon: SimTime::ZERO,
            traffic_rng: stream_rng(cfg.seed, streams::TRAFFIC),
            catalog: Vec::new(),
            expired_prefix: 0,
            report: Report::new(),
            truth: cfg.oracle.then(TruthLedger::default),
            next_transfer_seq: 0,
            contact_trace: None,
            recorder: Recorder::disabled(),
            metrics: None,
            validator: None,
            validate_metrics: None,
            refused_seen: IdSet::default(),
            scratch_events: Vec::new(),
            scratch_idle: Vec::new(),
            spray_pool: Vec::new(),
            evict_scratch: EvictionScratch::default(),
            victim_scratch: Vec::new(),
            abort_rng,
            drop_logs: None,
            pool: Pool::new(1),
        }
    }

    /// Installs a telemetry recorder. An enabled recorder receives every
    /// [`SimEvent`] the run produces and gets the world's metrics
    /// (`events_processed`, `delivery_latency_secs`, `transfer_bytes`,
    /// `live_contacts`, `gossip_summary_bytes`, `gossip_payload_bytes`)
    /// registered on it. Call before
    /// [`enable_timeseries`](Self::enable_timeseries) — attaching
    /// replaces the previous recorder, time series included.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
        self.metrics = if self.recorder.is_enabled() {
            let m = self.recorder.metrics_mut();
            Some(WorldMetrics {
                events_processed: m.counter("events_processed"),
                delivery_latency_secs: m.histogram(
                    "delivery_latency_secs",
                    &[60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0],
                ),
                transfer_bytes: m.histogram(
                    "transfer_bytes",
                    &[65_536.0, 262_144.0, 524_288.0, 1_048_576.0, 4_194_304.0],
                ),
                live_contacts: m.gauge("live_contacts"),
                gossip_summary_bytes: m.counter("gossip_summary_bytes"),
                gossip_payload_bytes: m.counter("gossip_payload_bytes"),
                priority_cache_hits: m.gauge("priority_cache_hits"),
                priority_cache_incremental: m.gauge("priority_cache_incremental"),
                priority_cache_misses: m.gauge("priority_cache_misses"),
            })
        } else {
            None
        };
        self.refresh_validate_metrics();
    }

    /// Enables invariant checking and the estimator oracle for this
    /// run. Must be called before the first message is generated.
    ///
    /// Every simulator state transition is mirrored into the
    /// ground-truth ledger (the one oracle mode ranks on) and every tick
    /// ends with a full-state sweep that cross-checks it (copy-token
    /// conservation, holder counts, buffer accounting, delivery/TTL
    /// hygiene, dropped-list gossip). When a
    /// recorder is attached, violations and estimator-error samples are
    /// also emitted as [`SimEvent`]s and metrics. Token conservation is
    /// asserted only for routing protocols that conserve spray tokens
    /// (the Spray-and-Wait family and direct delivery); epidemic and
    /// PRoPHET mint a copy per replication by design.
    pub fn enable_validation(&mut self, cfg: ValidateConfig) {
        assert!(
            self.catalog.is_empty(),
            "enable_validation must be called before any message is generated"
        );
        let conserve = matches!(
            self.cfg.routing,
            RoutingKind::SprayAndWaitBinary
                | RoutingKind::SprayAndWaitSource
                | RoutingKind::SprayAndFocus { .. }
                | RoutingKind::Direct
        );
        self.validator = Some(Box::new(Validator::new(cfg, self.cfg.n_nodes, conserve)));
        self.truth.get_or_insert_with(TruthLedger::default);
        self.refresh_validate_metrics();
    }

    /// Mutable access to the validator — fault injection for harness
    /// self-tests and mid-run report inspection.
    pub fn validator_mut(&mut self) -> Option<&mut Validator> {
        self.validator.as_deref_mut()
    }

    fn refresh_validate_metrics(&mut self) {
        self.validate_metrics = if self.validator.is_some() && self.recorder.is_enabled() {
            let m = self.recorder.metrics_mut();
            Some(ValidateMetrics {
                invariant_violations: m.counter("invariant_violations"),
                estimator_m_rel_err: m
                    .histogram("estimator_m_rel_err", &[0.1, 0.25, 0.5, 1.0, 2.0, 5.0]),
                estimator_n_rel_err: m
                    .histogram("estimator_n_rel_err", &[0.1, 0.25, 0.5, 1.0, 2.0, 5.0]),
                estimator_m_mean_rel_err: m.gauge("estimator_m_mean_rel_err"),
                estimator_m_max_rel_err: m.gauge("estimator_m_max_rel_err"),
                estimator_n_mean_rel_err: m.gauge("estimator_n_mean_rel_err"),
                estimator_n_max_rel_err: m.gauge("estimator_n_max_rel_err"),
            })
        } else {
            None
        };
    }

    /// Read access to the attached recorder (totals, ring, metrics).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Samples occupancy/contact/message time series every
    /// `sample_every` simulated seconds into the recorder. Call before
    /// running; retrieve with [`Recorder::take_timeseries`] on
    /// [`RunOutput::recorder`].
    pub fn enable_timeseries(&mut self, sample_every: f64) {
        self.recorder.enable_timeseries(sample_every);
    }

    /// Records closed contact intervals for intermeeting analysis
    /// (Fig. 3). Call before running; [`finish`](Self::finish) closes
    /// the contacts still open at the end and returns the trace in
    /// [`RunOutput::contacts`].
    ///
    /// # Panics
    /// Panics when the world replays a contact schedule.
    pub fn enable_contact_recording(&mut self) {
        assert!(
            !matches!(self.contact_source, schedule::ContactSource::Replay { .. }),
            "a world that replays a contact schedule cannot record its contact trace"
        );
        self.contact_trace = Some(ContactTrace::new());
    }

    /// Advances the simulation to `until` (capped at the scenario
    /// duration), returning the number of events processed — the one
    /// loop over the event queue. Interleave with the inspection
    /// accessors to watch a run evolve, then [`finish`](Self::finish)
    /// it; a split run finishes exactly as a one-shot `finish` does.
    pub fn step_until(&mut self, until: SimTime) -> u64 {
        let end = until.min(SimTime::from_secs(self.cfg.duration_secs));
        self.horizon = end;
        let mut processed = 0;
        while let Some((t, ev)) = self.queue.pop_until(end) {
            self.now = t;
            self.handle(ev);
            processed += 1;
        }
        if processed > 0 {
            self.last_event = self.now;
        }
        self.now = self.now.max(end);
        processed
    }

    /// Runs the remaining events and closes the run: the final
    /// validation sweep (at the clock of the last event, like every
    /// per-tick sweep), the contacts still open at the end closed into
    /// the trace if recording is on, and the recorder flushed.
    pub fn finish(mut self) -> RunOutput {
        let end = SimTime::from_secs(self.cfg.duration_secs);
        self.step_until(end);
        self.now = self.last_event;
        self.finalize_validation();
        if let Some(trace) = self.contact_trace.as_mut() {
            let mut events = Vec::new();
            self.tracker.close_all(end, &mut events);
            for ev in events {
                trace.record(ev);
            }
        }
        self.recorder.flush();
        let schedule = self.take_schedule();
        RunOutput {
            report: self.report,
            recorder: self.recorder,
            validation: self.validator.map(|mut v| v.take_report()),
            contacts: self.contact_trace,
            schedule,
        }
    }

    /// Runs the scenario to completion and returns the report — the
    /// quickstart form of [`finish`](Self::finish).
    pub fn run(self) -> Report {
        self.finish().report
    }

    /// Current simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Messages currently buffered at `node`.
    pub fn buffered_count(&self, node: NodeId) -> usize {
        self.nodes[node.index()].buffered_count()
    }

    /// Contacts currently up.
    pub fn live_contacts(&self) -> usize {
        self.links.len()
    }

    /// Message ids held by the dropped-list store the world's SDSRP
    /// nodes share (diagnostic): each own drop once, however many nodes
    /// have heard of it. `None` for a world built from caller-supplied
    /// policies.
    pub fn dropped_list_ids(&self) -> Option<usize> {
        let logs = self.drop_logs.as_ref()?.lock();
        Some(logs.unwrap_or_else(PoisonError::into_inner).id_count())
    }

    fn handle(&mut self, ev: WorldEvent) {
        if let Some(m) = self.metrics.as_ref() {
            self.recorder.metrics_mut().inc(m.events_processed, 1);
        }
        match ev {
            WorldEvent::Tick => self.on_tick(),
            WorldEvent::Generate => self.on_generate(),
            WorldEvent::TransferComplete { pair, seq } => self.on_transfer_complete(pair, seq),
            WorldEvent::NodeCrash { node } => self.on_node_crash(node),
            WorldEvent::NodeReboot { node } => self.on_node_reboot(node),
            WorldEvent::BlackoutStart { node } => self.on_blackout_start(node),
            WorldEvent::BlackoutEnd { node } => self.on_blackout_end(node),
        }
    }

    /// Read access to the report while building tests.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Sets the number of threads the parallel phases (movement
    /// sampling, contact-grid queries) fan out across. A *runtime*
    /// toggle like [`Self::set_priority_cache`] — not part of
    /// [`ScenarioConfig`], so config hashes, manifests and checkpoint
    /// resume keys are unaffected. Results are bit-identical at any
    /// value; the thread-count differential battery
    /// (`tests/parallel_world.rs`) enforces it. Values are clamped to
    /// at least 1; a 1-thread world runs everything inline and spawns
    /// nothing.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.pool.threads() {
            self.pool = Pool::new(threads);
        }
    }

    /// Threads the parallel phases use (1 = the serial reference path).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Enables or disables priority memoisation on every node's buffer
    /// policy. A *runtime* toggle (not part of [`ScenarioConfig`], so
    /// config hashes and manifests are unaffected): the cache is a pure
    /// optimisation and results are bit-identical either way, which the
    /// differential regression suite enforces by running with it off as
    /// the reference path. Call right after `build` — flipping it
    /// mid-run is safe (the cache self-invalidates) but pointless.
    pub fn set_priority_cache(&mut self, enabled: bool) {
        for node in &mut self.nodes {
            node.policy.set_priority_cache(enabled);
        }
    }

    /// Aggregate priority-cache hit/miss counters across every node's
    /// buffer policy. Policies without a cache contribute nothing, so
    /// the result is `(0, 0)`-shaped for non-SDSRP runs.
    pub fn priority_cache_stats(&self) -> PriorityCacheStats {
        let mut total = PriorityCacheStats::default();
        for node in &self.nodes {
            if let Some(stats) = node.policy.priority_cache_stats() {
                total.merge(stats);
            }
        }
        total
    }

    /// Whether `msg` counts towards the metrics: messages generated
    /// during warm-up are simulated but excluded.
    fn counted(&self, msg: &Message) -> bool {
        msg.created.as_secs() >= self.cfg.warmup_secs
    }

    /// Takes `node`'s copy of `msg` out of its buffer and settles it
    /// through [`Self::discard`], returning its token count.
    fn discard_resident(&mut self, node: NodeId, msg: MessageId, cause: Discard) -> u32 {
        let size = self.catalog[msg.index()].size;
        let copy = self.nodes[node.index()].remove_copy(msg, size);
        self.discard(node, copy, cause)
    }

    /// Settles a dead copy, already out of `node`'s buffer (or, when
    /// rejected on arrival, never in it), and returns its token count.
    /// The one place a copy's end is booked, in this order: the
    /// policy's `on_drop` for its own drop decisions, the report
    /// counter, the [`SimEvent`], the truth-ledger hook, and the spray
    /// history returned to the pool for the next replication. The
    /// policy, the report and the recorder are disjoint state, so only
    /// the order of the events and of the ledger calls is observable,
    /// and that is the order the copies die in.
    fn discard(&mut self, node: NodeId, mut copy: BufferedCopy, cause: Discard) -> u32 {
        let (now, msg, tokens) = (self.now, copy.msg, copy.copies);
        let holder = &mut self.nodes[node.index()];
        if matches!(cause, Discard::Evicted | Discard::Rejected) {
            holder.policy.on_drop(now, msg);
        }
        let policy = holder.policy.name();
        let (t, m, n) = (now.as_secs(), msg.0, node.0);
        let reason = match cause {
            Discard::Expired => {
                self.report.on_expired();
                self.recorder
                    .record(|| SimEvent::TtlExpired { t, msg: m, node: n });
                None
            }
            Discard::Evicted => {
                self.report.on_buffer_drop();
                Some(DropReason::Evicted)
            }
            Discard::Rejected => {
                self.report.on_incoming_reject();
                Some(DropReason::RejectedIncoming)
            }
            Discard::Purged => {
                self.report.on_immunity_purge();
                Some(DropReason::ImmunityPurge)
            }
            Discard::Crashed => None,
        };
        if let Some(reason) = reason {
            self.recorder.record(|| SimEvent::Dropped {
                t,
                msg: m,
                node: n,
                policy,
                reason,
            });
        }
        if let Some(truth) = self.truth.as_mut() {
            match cause {
                Discard::Evicted => truth.on_evicted(msg, node, tokens),
                Discard::Rejected => truth.on_rejected_incoming(msg, node, tokens),
                Discard::Expired | Discard::Purged | Discard::Crashed => {
                    truth.on_destroyed(msg, tokens)
                }
            }
        }
        // Allocation recycling only: the vector is cleared, so simulation
        // state is untouched.
        if self.spray_pool.len() < SPRAY_POOL_CAP && copy.spray_times.capacity() > 0 {
            copy.spray_times.clear();
            self.spray_pool.push(std::mem::take(&mut copy.spray_times));
        }
        tokens
    }
}

/// Deterministic comparison: deliveries beat relays, then higher
/// priority, then lower message id, then lower sender id.
fn pick_better(a: Candidate, b: Candidate) -> Candidate {
    if a.is_delivery != b.is_delivery {
        return if a.is_delivery { a } else { b };
    }
    match a
        .priority
        .partial_cmp(&b.priority)
        .expect("priorities are never NaN")
    {
        std::cmp::Ordering::Less => b,
        std::cmp::Ordering::Greater => a,
        std::cmp::Ordering::Equal => {
            if (b.msg, b.from) < (a.msg, a.from) {
                b
            } else {
                a
            }
        }
    }
}
