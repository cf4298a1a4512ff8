//! Recorded contact schedules: the contact events of one run, replayed
//! into other runs that would detect the same ones.
//!
//! With an empty fault plan a run's contacts depend only on its
//! [`ContactKey`]. A world that records ([`World::record_schedule`])
//! keeps a copy of every event its contact phase dispatches; a world
//! that replays ([`World::replay_schedule`]) skips movement and
//! detection, and its contact phase passes each tick's recorded events
//! through the same `dispatch_contacts` a live run uses. The sweep
//! runners share schedules through [`crate::sweep::ScheduleCache`].

use super::*;
use std::sync::Arc;

/// Everything a fault-free run's contacts depend on: the mobility
/// model, seed, node count, radio range, tick and duration. Two
/// configs with the same key detect the same contact events on every
/// tick, whatever their policy, routing, buffers or traffic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContactKey(String);

impl ContactKey {
    /// The key of `cfg`, or `None` when its fault plan is non-empty:
    /// crashes and blackouts force contacts down through the tracker,
    /// so such a run's contacts depend on its faults too.
    pub fn of(cfg: &ScenarioConfig) -> Option<ContactKey> {
        if !cfg.faults.is_empty() {
            return None;
        }
        let mobility = serde_json::to_string(&cfg.mobility).expect("mobility config serialises");
        Some(ContactKey(format!(
            "{mobility} seed={} nodes={} range={:?} tick={:?} duration={:?}",
            cfg.seed, cfg.n_nodes, cfg.link.range, cfg.tick_secs, cfg.duration_secs
        )))
    }
}

/// The contact events one run dispatched from its contact phase, in
/// tick order, with the key they were recorded under. Clones share the
/// events.
#[derive(Debug, Clone)]
pub struct ContactSchedule {
    key: ContactKey,
    events: Arc<[ContactEvent]>,
}

/// Where the contact phase gets its events.
pub(super) enum ContactSource {
    /// Movement sampling and the tracker.
    Live,
    /// Live, keeping a copy of every dispatched event.
    Recording {
        key: ContactKey,
        events: Vec<ContactEvent>,
    },
    /// A recorded schedule; `next` is its first event not dispatched
    /// yet.
    Replay {
        schedule: ContactSchedule,
        next: usize,
    },
}

impl World {
    /// Records the contact events this run's contact phase dispatches;
    /// [`finish`](Self::finish) returns them as
    /// [`RunOutput::schedule`]. Call before running.
    ///
    /// # Panics
    /// Panics when the fault plan is non-empty (the run has no
    /// [`ContactKey`]), or when the world already replays a schedule.
    pub fn record_schedule(&mut self) {
        let key = ContactKey::of(&self.cfg).expect("a run with faults has no contact schedule");
        assert!(
            matches!(self.contact_source, ContactSource::Live),
            "record_schedule on a world that already records or replays"
        );
        self.contact_source = ContactSource::Recording {
            key,
            events: Vec::new(),
        };
    }

    /// Replays `schedule` instead of sampling movement and detecting
    /// contacts: each tick dispatches the events recorded at its instant,
    /// in their recorded order, through the contact handlers. The run is
    /// the one a live run of this config makes. Call before running.
    ///
    /// # Panics
    /// Panics when `schedule` was recorded under another key (or this
    /// config has none), when contact recording is on (closing the
    /// trace needs the tracker), or when the run has started.
    pub fn replay_schedule(&mut self, schedule: ContactSchedule) {
        let key = ContactKey::of(&self.cfg);
        assert!(
            key.as_ref() == Some(&schedule.key),
            "contact schedule recorded under {:?} replayed into a world keyed {key:?}",
            schedule.key
        );
        assert!(
            self.contact_trace.is_none(),
            "a world that records its contact trace cannot replay a schedule"
        );
        assert!(
            self.catalog.is_empty() && matches!(self.contact_source, ContactSource::Live),
            "replay_schedule must be called before the run starts"
        );
        self.contact_source = ContactSource::Replay { schedule, next: 0 };
    }

    /// The key under which this world could share its contacts: `None`
    /// with a fault plan or with contact recording on.
    pub fn contact_key(&self) -> Option<ContactKey> {
        ContactKey::of(&self.cfg).filter(|_| self.contact_trace.is_none())
    }

    /// The contact events of the current tick: the tracker's, teed into
    /// the recording when one is kept, or the schedule's next slice.
    pub(super) fn detect_contacts(&mut self, out: &mut Vec<ContactEvent>) {
        let now = self.now;
        match &mut self.contact_source {
            ContactSource::Replay { schedule, next } => {
                let rest = &schedule.events[*next..];
                let n = rest.iter().take_while(|ev| ev.time() == now).count();
                assert!(
                    rest.get(n).is_none_or(|ev| ev.time() > now),
                    "contact schedule out of step with the tick clock at t={}",
                    now.as_secs()
                );
                out.extend_from_slice(&rest[..n]);
                *next += n;
            }
            source => {
                self.tracker
                    .update_pooled(now, &self.soa.positions, out, Some(&self.pool));
                if let ContactSource::Recording { events, .. } = source {
                    events.extend_from_slice(out);
                }
            }
        }
    }

    /// The recorded schedule, when this run recorded one.
    pub(super) fn take_schedule(&mut self) -> Option<ContactSchedule> {
        match std::mem::replace(&mut self.contact_source, ContactSource::Live) {
            ContactSource::Recording { key, events } => Some(ContactSchedule {
                key,
                events: events.into(),
            }),
            _ => None,
        }
    }
}
