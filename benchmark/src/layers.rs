//! Layer timing from outside the simulator.
//!
//! * [`TracedPolicy`] wraps one node's buffer policy and times every
//!   trait call. Timings go to a per-thread [`BufferStats`]: a world
//!   runs its exchange on one thread, so a cell's stats are harvested
//!   on the thread that ran it. Each decorator also counts its calls
//!   and adds the count to a shared total when the world drops it; the
//!   two totals must agree, which catches calls made on other threads.
//! * [`run_cell`] builds and runs one world, traced or not, the way a
//!   sweep cell runs (`Recorder::enabled(0)`).
//! * [`replay`] drives the mobility and contact layers alone on the
//!   world's tick schedule, so their cost can be timed without
//!   touching the world.

use sdsrp::buffer::policy::{AdmissionPlan, BufferPolicy, PriorityCacheStats};
use sdsrp::buffer::MessageView;
use sdsrp::core::geometry::Point2;
use sdsrp::core::ids::{MessageId, NodeId};
use sdsrp::core::pool::Pool;
use sdsrp::core::time::{SimDuration, SimTime};
use sdsrp::core::units::Bytes;
use sdsrp::net::contact::{ContactEvent, ContactTracker};
use sdsrp::sim::replay::fingerprint;
use sdsrp::sim::{ScenarioConfig, World};
use sdsrp::telemetry::Recorder;
use sdsrp::validate::ReportFingerprint;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sub-buckets per power of two: four, so no bucket is wider than 25 %
/// of its lower bound.
const SUB_BITS: u32 = 2;
const SUBS: u64 = 1 << SUB_BITS;
/// Enough buckets for any `u64` nanosecond count.
const BUCKETS: usize = 256;

/// A log-bucketed histogram of nanosecond durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Count per bucket; see [`Histogram::bucket_of`].
    pub counts: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index of `ns`: values below 4 have a bucket each; above,
    /// each power of two splits into four equal sub-buckets.
    pub fn bucket_of(ns: u64) -> usize {
        if ns < SUBS {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let sub = (ns >> (msb - SUB_BITS)) & (SUBS - 1);
        ((u64::from(msb - SUB_BITS) + 1) * SUBS + sub) as usize
    }

    /// Smallest value in bucket `b`, and the bucket's width.
    pub fn bucket_range(b: usize) -> (u64, u64) {
        let b = b as u64;
        if b < SUBS {
            return (b, 1);
        }
        let shift = b / SUBS - 1;
        ((SUBS + b % SUBS) << shift, 1 << shift)
    }

    /// Adds one observation.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
    }

    /// Adds every observation of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q` quantile as the middle of the bucket holding it; `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = Self::bucket_range(b);
                return Some(lo as f64 + (width - 1) as f64 / 2.0);
            }
        }
        unreachable!("rank is at most the total count")
    }

    /// `(lower bound, count)` of every non-empty bucket.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (Self::bucket_range(b).0, c))
            .collect()
    }
}

/// An aggregated span: every timed interval with one name, under one
/// parent span (empty for a root).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Span name, e.g. `buffer.send_priority`.
    pub name: String,
    /// Name of the enclosing span; empty for a root.
    pub parent: String,
    /// Intervals recorded.
    pub count: u64,
    /// Their summed duration.
    pub total_ns: u64,
    /// Their duration distribution.
    pub hist: Histogram,
}

impl Span {
    /// An empty span.
    pub fn new(name: &str, parent: &str) -> Span {
        Span {
            name: name.to_string(),
            parent: parent.to_string(),
            ..Span::default()
        }
    }

    /// Adds one interval.
    pub fn record(&mut self, d: Duration) {
        let ns = nanos(d);
        self.count += 1;
        self.total_ns += ns;
        self.hist.record(ns);
    }

    /// Adds every interval of `other` (same name assumed).
    pub fn merge(&mut self, other: &Span) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.hist.merge(&other.hist);
    }

    /// Summed duration in seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The [`BufferPolicy`] calls [`TracedPolicy`] times, in the order of
/// [`BufferStats::methods`].
pub const METHODS: [&str; 8] = [
    "send_priority",
    "keep_priority",
    "accepts",
    "export_gossip",
    "import_gossip",
    "contact_hooks",
    "on_drop",
    "admission_override",
];

#[derive(Clone, Copy)]
enum Method {
    SendPriority,
    KeepPriority,
    Accepts,
    ExportGossip,
    ImportGossip,
    ContactHooks,
    OnDrop,
    AdmissionOverride,
}

/// What the buffer layer did and cost in one world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferStats {
    /// One span per entry of [`METHODS`], named `buffer.<method>`.
    pub methods: Vec<Span>,
    /// Bytes of gossip exported.
    pub gossip_bytes_out: u64,
    /// Bytes of gossip offered to `import_gossip`.
    pub gossip_bytes_in: u64,
    /// Records `import_gossip` reported as adopted.
    pub records_adopted: u64,
    /// `import_gossip` calls that adopted at least one record.
    pub imports_useful: u64,
    /// `accepts` calls that refused the message.
    pub accepts_refused: u64,
}

impl Default for BufferStats {
    fn default() -> Self {
        BufferStats {
            methods: METHODS
                .iter()
                .map(|m| Span::new(&format!("buffer.{m}"), "world.step_until"))
                .collect(),
            gossip_bytes_out: 0,
            gossip_bytes_in: 0,
            records_adopted: 0,
            imports_useful: 0,
            accepts_refused: 0,
        }
    }
}

impl BufferStats {
    /// Timed calls across all methods.
    pub fn calls(&self) -> u64 {
        self.methods.iter().map(|s| s.count).sum()
    }

    /// Time across all methods, in seconds.
    pub fn secs(&self) -> f64 {
        self.methods.iter().map(Span::secs).sum()
    }

    /// The span of `method` (a [`METHODS`] entry).
    pub fn method(&self, method: &str) -> &Span {
        let i = METHODS
            .iter()
            .position(|m| *m == method)
            .expect("a METHODS entry");
        &self.methods[i]
    }

    /// Adds `other` to `self`.
    pub fn merge(&mut self, other: &BufferStats) {
        for (a, b) in self.methods.iter_mut().zip(&other.methods) {
            a.merge(b);
        }
        self.gossip_bytes_out += other.gossip_bytes_out;
        self.gossip_bytes_in += other.gossip_bytes_in;
        self.records_adopted += other.records_adopted;
        self.imports_useful += other.imports_useful;
        self.accepts_refused += other.accepts_refused;
    }
}

thread_local! {
    static THREAD_STATS: RefCell<BufferStats> = RefCell::new(BufferStats::default());
}

fn take_thread_stats() -> BufferStats {
    THREAD_STATS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// A [`BufferPolicy`] decorator that times every call into the wrapped
/// policy and forwards everything else unchanged.
pub struct TracedPolicy {
    inner: Box<dyn BufferPolicy>,
    calls: u64,
    dropped_calls: Arc<AtomicU64>,
}

impl TracedPolicy {
    /// Wraps `inner`; on drop its call count is added to
    /// `dropped_calls`.
    pub fn new(inner: Box<dyn BufferPolicy>, dropped_calls: Arc<AtomicU64>) -> TracedPolicy {
        TracedPolicy {
            inner,
            calls: 0,
            dropped_calls,
        }
    }

    fn timed<R>(
        &mut self,
        method: Method,
        call: impl FnOnce(&mut dyn BufferPolicy) -> R,
        note: impl FnOnce(&R, &mut BufferStats),
    ) -> R {
        let start = Instant::now();
        let out = call(self.inner.as_mut());
        let elapsed = start.elapsed();
        self.calls += 1;
        THREAD_STATS.with(|s| {
            let mut s = s.borrow_mut();
            s.methods[method as usize].record(elapsed);
            note(&out, &mut s);
        });
        out
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        // A statistic published by the world's drop and read after it on
        // the same thread: no other data hangs on it.
        self.dropped_calls.fetch_add(self.calls, Ordering::Relaxed);
    }
}

impl BufferPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn send_priority(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.timed(
            Method::SendPriority,
            |p| p.send_priority(now, msg),
            |_, _| {},
        )
    }

    fn keep_priority(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.timed(
            Method::KeepPriority,
            |p| p.keep_priority(now, msg),
            |_, _| {},
        )
    }

    fn accepts(&mut self, now: SimTime, msg: MessageId) -> bool {
        self.timed(
            Method::Accepts,
            |p| p.accepts(now, msg),
            |ok, s| s.accepts_refused += u64::from(!*ok),
        )
    }

    fn on_contact_up(&mut self, now: SimTime, peer: NodeId) {
        self.timed(
            Method::ContactHooks,
            |p| p.on_contact_up(now, peer),
            |_, _| {},
        )
    }

    fn on_contact_down(&mut self, now: SimTime, peer: NodeId) {
        self.timed(
            Method::ContactHooks,
            |p| p.on_contact_down(now, peer),
            |_, _| {},
        )
    }

    fn on_drop(&mut self, now: SimTime, msg: MessageId) {
        self.timed(Method::OnDrop, |p| p.on_drop(now, msg), |_, _| {})
    }

    fn on_node_reset(&mut self, now: SimTime) {
        self.inner.on_node_reset(now)
    }

    fn export_gossip(&mut self, now: SimTime) -> Option<Vec<u8>> {
        self.timed(
            Method::ExportGossip,
            |p| p.export_gossip(now),
            |g, s| s.gossip_bytes_out += g.as_ref().map_or(0, |b| b.len() as u64),
        )
    }

    fn import_gossip(&mut self, now: SimTime, bytes: &[u8]) -> usize {
        let len = bytes.len() as u64;
        self.timed(
            Method::ImportGossip,
            |p| p.import_gossip(now, bytes),
            |&adopted, s| {
                s.gossip_bytes_in += len;
                s.records_adopted += adopted as u64;
                s.imports_useful += u64::from(adopted > 0);
            },
        )
    }

    fn admission_override(
        &mut self,
        now: SimTime,
        incoming: &MessageView<'_>,
        residents: &[MessageView<'_>],
        free: Bytes,
        capacity: Bytes,
    ) -> Option<AdmissionPlan> {
        self.timed(
            Method::AdmissionOverride,
            |p| p.admission_override(now, incoming, residents, free, capacity),
            |_, _| {},
        )
    }

    fn set_priority_cache(&mut self, enabled: bool) {
        self.inner.set_priority_cache(enabled)
    }

    fn priority_cache_stats(&self) -> Option<PriorityCacheStats> {
        self.inner.priority_cache_stats()
    }
}

/// Builds `cfg`'s world with every node's policy wrapped in a
/// [`TracedPolicy`] reporting its call count to `dropped_calls`.
pub fn build_traced(cfg: &ScenarioConfig, dropped_calls: &Arc<AtomicU64>) -> World {
    let (n, seed, policy) = (cfg.n_nodes, cfg.seed, cfg.policy);
    World::build_with_policies(cfg, &mut |id| {
        Box::new(TracedPolicy::new(
            policy.build(id, n, seed),
            Arc::clone(dropped_calls),
        ))
    })
}

/// One cell: a world built and run to its end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Median `World::build` time over the builds made.
    pub setup_s: f64,
    /// `World::build` time of the world that ran.
    pub build_s: f64,
    /// `World::step_until(end)` time.
    pub wall_s: f64,
    /// Build, run, fingerprint and drop of the world that ran, as a
    /// sweep times a cell.
    pub cell_s: f64,
    /// Events the world processed.
    pub events: u64,
    /// The run's fingerprint.
    pub fingerprint: ReportFingerprint,
    /// Priority-cache counters summed over nodes.
    pub cache_hits: u64,
    /// Ranking requests finished from cached partial results.
    pub cache_incremental: u64,
    /// Ranking requests rebuilt from scratch.
    pub cache_misses: u64,
    /// Buffer-layer timings; `None` for an untraced cell.
    pub buffer: Option<BufferStats>,
    /// Peak RSS of the process that ran the cell, MB (10^6 bytes); 0
    /// when not measured.
    pub peak_rss_mb: f64,
}

/// When measuring set-up, [`run_cell`] builds at least this many
/// worlds and for at least [`SETUP_MIN_SECS`], but at most
/// [`SETUP_MAX_BUILDS`] worlds: a small world builds in microseconds,
/// so one build is mostly noise.
const SETUP_MIN_BUILDS: usize = 25;
const SETUP_MIN_SECS: f64 = 0.05;
const SETUP_MAX_BUILDS: usize = 10_000;

/// Builds `cfg`'s world (traced or not), runs it to its end on
/// `threads` world threads with a counting-only recorder, and returns
/// what it did. With `measure_setup` the world is first built and
/// dropped repeatedly so `setup_s` is a median.
///
/// Errors when the traced call counts disagree, i.e. some buffer call
/// ran on a thread other than this one.
pub fn run_cell(
    cfg: &ScenarioConfig,
    threads: usize,
    traced: bool,
    measure_setup: bool,
) -> Result<CellOutcome, String> {
    let dropped_calls = Arc::new(AtomicU64::new(0));
    take_thread_stats();
    let mut builds = Vec::new();
    let (mut world, started) = loop {
        let started = Instant::now();
        let world = if traced {
            build_traced(cfg, &dropped_calls)
        } else {
            World::build(cfg)
        };
        builds.push(started.elapsed().as_secs_f64());
        let enough = builds.len() >= SETUP_MIN_BUILDS
            && builds.iter().sum::<f64>() >= SETUP_MIN_SECS
            || builds.len() >= SETUP_MAX_BUILDS;
        if !measure_setup || enough {
            break (world, started);
        }
    };
    let build_s = *builds.last().expect("built at least once");
    world.set_threads(threads);
    world.attach_recorder(Recorder::enabled(0));
    let run_started = Instant::now();
    let events = world.step_until(SimTime::from_secs(cfg.duration_secs));
    let wall_s = run_started.elapsed().as_secs_f64();
    let fp = fingerprint(world.report(), world.recorder().totals());
    let cache = world.priority_cache_stats();
    drop(world);
    let cell_s = started.elapsed().as_secs_f64();
    let stats = take_thread_stats();
    let buffer = if traced {
        let dropped = dropped_calls.load(Ordering::Relaxed);
        if stats.calls() != dropped {
            return Err(format!(
                "traced {} buffer calls on the world's thread but policies made {dropped}",
                stats.calls()
            ));
        }
        Some(stats)
    } else {
        None
    };
    Ok(CellOutcome {
        setup_s: crate::stats::median(&builds),
        build_s,
        wall_s,
        cell_s,
        events,
        fingerprint: fp,
        cache_hits: cache.hits,
        cache_incremental: cache.incremental,
        cache_misses: cache.misses,
        buffer,
        peak_rss_mb: 0.0,
    })
}

/// What a mobility + contact replay did and cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Ticks replayed.
    pub ticks: u64,
    /// `position_at` calls.
    pub samples: u64,
    /// Contacts that came up.
    pub up: u64,
    /// Contacts that went down.
    pub down: u64,
    /// Movement sampling, one interval per tick.
    pub mobility: Span,
    /// Contact detection, one interval per tick.
    pub detect: Span,
}

impl Default for ReplayStats {
    fn default() -> Self {
        ReplayStats {
            ticks: 0,
            samples: 0,
            up: 0,
            down: 0,
            mobility: Span::new("mobility.sample", "replay"),
            detect: Span::new("contacts.detect", "replay"),
        }
    }
}

impl ReplayStats {
    /// Adds `other` to `self`.
    pub fn merge(&mut self, other: &ReplayStats) {
        self.ticks += other.ticks;
        self.samples += other.samples;
        self.up += other.up;
        self.down += other.down;
        self.mobility.merge(&other.mobility);
        self.detect.merge(&other.detect);
    }
}

/// Replays `cfg`'s movement and contact detection on the world's tick
/// schedule (a tick at 0 and every `tick_secs` up to the duration),
/// with both fanned out on a [`Pool`] of `threads`. Without faults the
/// world sees exactly these contacts, so `up` must equal the world's
/// `contacts_up`.
pub fn replay(cfg: &ScenarioConfig, threads: usize) -> ReplayStats {
    let mut fleet = sdsrp::mobility::build_fleet(&cfg.mobility, cfg.n_nodes, cfg.seed);
    let mut positions = vec![Point2::default(); cfg.n_nodes];
    let mut tracker = ContactTracker::new(cfg.mobility.area(), cfg.link.range);
    let pool = Pool::new(threads);
    let tick = SimDuration::from_secs(cfg.tick_secs);
    let mut out = ReplayStats::default();
    let mut events = Vec::new();
    let mut now = SimTime::ZERO;
    loop {
        let started = Instant::now();
        pool.zip_for_each(&mut fleet, &mut positions, |_, movers, points| {
            for (m, p) in movers.iter_mut().zip(points.iter_mut()) {
                *p = m.position_at(now);
            }
        });
        out.mobility.record(started.elapsed());
        let started = Instant::now();
        events.clear();
        tracker.update_pooled(now, &positions, &mut events, Some(&pool));
        out.detect.record(started.elapsed());
        out.ticks += 1;
        out.samples += cfg.n_nodes as u64;
        for ev in &events {
            match ev {
                ContactEvent::Up { .. } => out.up += 1,
                ContactEvent::Down { .. } => out.down += 1,
            }
        }
        let next = now + tick;
        if next.as_secs() > cfg.duration_secs {
            return out;
        }
        now = next;
    }
}
